"""Dispatcher and Merger — Algorithms VI.1 and VI.2 of the paper.

These are the two O(1) primitives the zero-bubble scheduler composes
into butterfly networks.  Both are fully pipelined with a one-cycle
initiation interval and a fixed two-cycle latency (Section VI-C), and
both carry a one-bit ``last_selection`` state used to alternate service
and guarantee fairness under worst-case congestion.

The scode-driven policies are implemented exactly as the pseudo-code:

Dispatcher (Alg VI.1), routing one input to two outputs:
  * both outputs have space  -> pick the **not-last-served** output;
  * both outputs full        -> **block on the not-last-served** output
    (committing to it prevents persistent preemption of one side);
  * exactly one output free  -> route there to avoid stalling.

Merger (Alg VI.2), merging two inputs into one output:
  * both inputs valid   -> take the **not-last-served** input;
  * one input valid     -> forward it regardless of history;
  * both empty          -> idle.
  A ``priority_input`` override implements scheduler module (2), which
  "prioritizes in-flight unfinished queries" over newly injected ones.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SchedulerError
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module

#: Both primitives are "fully pipelined with ... a fixed latency of two
#: cycles" (Section VI-C2/C3).
UNIT_LATENCY = 2


class Dispatcher(Module):
    """Algorithm VI.1: balanced two-way task dispatch.

    One deliberate deviation from the pseudo-code: the both-full rule
    commits to blocking on the not-last-served output, but an unbounded
    commitment can deadlock a butterfly under heavy congestion (the
    committed output may only drain *through* the congested region the
    dispatcher itself is wedging).  The commitment is therefore held for
    a bounded patience window; if the committed side is still full while
    the other side has space, the task escapes through the free side.
    Fairness degrades from strict alternation to statistical alternation
    only in the saturated corner case.
    """

    #: Cycles to honor a both-full commitment before taking any free exit.
    COMMIT_PATIENCE = 8

    def __init__(
        self,
        name: str,
        input_fifo: StreamFifo,
        out0: StreamFifo,
        out1: StreamFifo,
    ) -> None:
        super().__init__(name)
        self.input_fifo = input_fifo
        self.outputs = (out0, out1)
        self.last_selection = 0
        self._pipe: deque[tuple[int, Any]] = deque()
        #: Output we committed to while both were full (fairness rule),
        #: and how long we have been honoring that commitment.
        self._blocked_on: int | None = None
        self._blocked_cycles = 0
        self.sent = [0, 0]

    def _choose(self) -> int | None:
        """The output for the head task, off the common path (``tick``
        alternates inline while both outputs have space and no
        commitment is held); ``None`` holds it this cycle."""
        out0, out1 = self.outputs
        if self._blocked_on is not None:
            committed = self._blocked_on
            if self.outputs[committed].space:
                self._blocked_on = None
                self._blocked_cycles = 0
                return committed
            self._blocked_cycles += 1
            other = 1 - committed
            if self._blocked_cycles > self.COMMIT_PATIENCE and self.outputs[other].space:
                self._blocked_on = None
                self._blocked_cycles = 0
                return other
            return None
        if not out0.space and not out1.space:
            self._blocked_on = 1 - self.last_selection  # block fairly
            self._blocked_cycles = 0
            return None
        return 0 if out0.space else 1  # the only channel that can accept

    def tick(self, cycle: int) -> None:
        pipe = self._pipe
        ready = self.input_fifo.ready  # only this unit pops it: one read holds
        if not pipe:
            if ready:
                pipe.append((cycle + UNIT_LATENCY, self.input_fifo.pop()))
                self.stats.active_cycles += 1
            else:
                self.stats.starved_cycles += 1
            return
        # From here on the unit either moves a task or holds one it
        # cannot move yet, so it is never starved this cycle.
        progressed = False
        if pipe[0][0] <= cycle:
            out0, out1 = self.outputs
            if self._blocked_on is None and out0.space and out1.space:
                choice = 1 - self.last_selection  # alternate: not-last-served
            else:
                choice = self._choose()
                if choice is None:
                    self.stats.blocked_cycles += 1
                    return
            (out1 if choice else out0).push(pipe.popleft()[1])
            self.last_selection = choice
            self.sent[choice] += 1
            self.stats.items_processed += 1
            progressed = True
        if ready and len(pipe) < UNIT_LATENCY:
            pipe.append((cycle + UNIT_LATENCY, self.input_fifo.pop()))
            progressed = True
        if progressed:
            self.stats.active_cycles += 1
        else:
            self.stats.blocked_cycles += 1

    def busy(self) -> bool:
        return bool(self._pipe)


class Merger(Module):
    """Algorithm VI.2: balanced two-way task merge."""

    def __init__(
        self,
        name: str,
        in0: StreamFifo,
        in1: StreamFifo,
        output_fifo: StreamFifo,
        priority_input: int | None = None,
    ) -> None:
        super().__init__(name)
        if priority_input not in (None, 0, 1):
            raise SchedulerError("priority_input must be None, 0 or 1")
        self.in0 = in0
        self.in1 = in1
        self.output_fifo = output_fifo
        self.priority_input = priority_input
        self.last_selection = 0
        self._pipe: deque[tuple[int, Any]] = deque()
        self.received = [0, 0]

    def tick(self, cycle: int) -> None:
        pipe = self._pipe
        # Only this unit pops its inputs: one read of a flag holds all tick.
        ready0 = self.in0.ready
        ready1 = self.in1.ready
        if not pipe and not ready0 and not ready1:
            self.stats.starved_cycles += 1
            return
        # From here on the unit either moves a task or holds one it
        # cannot move yet, so it is never starved this cycle.
        progressed = False
        if pipe and pipe[0][0] <= cycle:
            if self.output_fifo.space:
                self.output_fifo.push(pipe.popleft()[1])
                self.stats.items_processed += 1
                progressed = True
            else:
                self.stats.blocked_cycles += 1
                return
        if (ready0 or ready1) and len(pipe) < UNIT_LATENCY:
            if not (ready0 and ready1):
                choice = 0 if ready0 else 1  # forward the one valid input
            elif self.priority_input is not None:
                # Scheduler module (2): unfinished queries preempt new ones.
                choice = self.priority_input
            else:
                choice = 1 - self.last_selection  # alternate: not-last-served
            pipe.append((cycle + UNIT_LATENCY, (self.in1 if choice else self.in0).pop()))
            self.last_selection = choice
            self.received[choice] += 1
            progressed = True
        if progressed:
            self.stats.active_cycles += 1
        else:
            self.stats.blocked_cycles += 1

    def busy(self) -> bool:
        return bool(self._pipe)
