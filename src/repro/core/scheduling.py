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
        latency: int = UNIT_LATENCY,
    ) -> None:
        super().__init__(name)
        if latency < 1:
            raise SchedulerError("latency must be >= 1")
        self.input_fifo = input_fifo
        self.outputs = (out0, out1)
        self.latency = latency
        self.last_selection = 0
        self._pipe: deque[tuple[int, Any]] = deque()
        #: Output we committed to while both were full (fairness rule),
        #: and how long we have been honoring that commitment.
        self._blocked_on: int | None = None
        self._blocked_cycles = 0
        self.sent = [0, 0]

    def _choose(self) -> int | None:
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
        if out0.space and out1.space:
            return 1 - self.last_selection  # alternate: not-last-served
        if not out0.space and not out1.space:
            self._blocked_on = 1 - self.last_selection  # block fairly
            self._blocked_cycles = 0
            return None
        return 0 if out0.space else 1  # the only channel that can accept

    def tick(self, cycle: int) -> None:
        pipe = self._pipe
        if not pipe and not self.input_fifo.ready:
            self.stats.starved_cycles += 1
            return
        # From here on the unit either moves a task or holds one it
        # cannot move yet, so it is never starved this cycle.
        progressed = False
        if pipe and pipe[0][0] <= cycle:
            choice = self._choose()
            if choice is not None:
                _, item = pipe.popleft()
                self.outputs[choice].push(item)
                self.last_selection = choice
                self.sent[choice] += 1
                self.stats.items_processed += 1
                progressed = True
            else:
                self.stats.blocked_cycles += 1
                return
        if len(pipe) < self.latency and self.input_fifo.ready:
            pipe.append((cycle + self.latency, self.input_fifo.pop()))
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
        latency: int = UNIT_LATENCY,
        priority_input: int | None = None,
    ) -> None:
        super().__init__(name)
        if latency < 1:
            raise SchedulerError("latency must be >= 1")
        if priority_input not in (None, 0, 1):
            raise SchedulerError("priority_input must be None, 0 or 1")
        self.inputs = (in0, in1)
        self.output_fifo = output_fifo
        self.latency = latency
        self.priority_input = priority_input
        self.last_selection = 0
        self._pipe: deque[tuple[int, Any]] = deque()
        self.received = [0, 0]

    def _choose(self) -> int | None:
        in0, in1 = self.inputs
        if not in0.ready and not in1.ready:
            return None
        if self.priority_input is not None:
            # Scheduler module (2): unfinished queries preempt new ones.
            if self.inputs[self.priority_input].ready:
                return self.priority_input
            return 1 - self.priority_input
        if in0.ready and in1.ready:
            return 1 - self.last_selection  # alternate: not-last-served
        return 0 if in0.ready else 1

    def tick(self, cycle: int) -> None:
        pipe = self._pipe
        if not pipe and not self.inputs[0].ready and not self.inputs[1].ready:
            self.stats.starved_cycles += 1
            return
        # From here on the unit either moves a task or holds one it
        # cannot move yet, so it is never starved this cycle.
        progressed = False
        if pipe and pipe[0][0] <= cycle:
            if self.output_fifo.space:
                _, item = pipe.popleft()
                self.output_fifo.push(item)
                self.stats.items_processed += 1
                progressed = True
            else:
                self.stats.blocked_cycles += 1
                return
        if len(pipe) < self.latency:
            choice = self._choose()
            if choice is not None:
                pipe.append((cycle + self.latency, self.inputs[choice].pop()))
                self.last_selection = choice
                self.received[choice] += 1
                progressed = True
        if progressed:
            self.stats.active_cycles += 1
        else:
            self.stats.blocked_cycles += 1

    def busy(self) -> bool:
        return bool(self._pipe)


class RoutingDispatcher(Dispatcher):
    """Dispatcher variant that routes by a destination bit (Task Router).

    The data-aware butterfly (Section IV-A's Task Router) uses the same
    two-output fabric but picks the output from bit ``bit`` of the item's
    ``dest`` attribute instead of availability; it blocks when the wanted
    output is full, preserving per-destination order.
    """

    def __init__(
        self,
        name: str,
        input_fifo: StreamFifo,
        out0: StreamFifo,
        out1: StreamFifo,
        bit: int,
        latency: int = UNIT_LATENCY,
    ) -> None:
        super().__init__(name, input_fifo, out0, out1, latency=latency)
        if bit < 0:
            raise SchedulerError("bit must be non-negative")
        self.bit = bit

    def _choose(self) -> int | None:
        item = self._pipe[0][1]
        wanted = (item.dest >> self.bit) & 1
        if not self.outputs[wanted].space:
            return None
        return wanted
