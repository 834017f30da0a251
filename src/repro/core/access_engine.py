"""Asynchronous memory access engine (paper Section V-B, Figure 6).

The engine decouples request issue from response handling so the pipeline
never serializes on memory latency:

* the **request proxy** side pulls one task per cycle from the upstream
  FIFO, routes it to a (channel, burst) pair — the channel object itself,
  bound from the graph layout when the pipeline was wired — and issues a
  non-blocking request, up to ``outstanding_capacity`` in flight (128 in
  the paper's build, 1 in the synchronous ablation);
* task metadata bypasses the data path: the simulator carries the task
  object *as* the AXI transaction tag, playing the role of the BRAM
  metadata queue sized for the round-trip latency;
* the **response proxy** side reunites returned data with its task (the
  channel preserves issue order, as AXI does per transaction id) and
  forwards the completed task downstream, again one per cycle.

Terminated and ghost tasks flow through without touching memory — the
hardware equivalent is a bypass lane in the request proxy.

A single :class:`ResponseRouter` per memory system plays the butterfly
return network: it delivers each channel response to the response FIFO
named in its tag, honouring backpressure.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.memory.channel import MemoryChannel, MemoryRequest
from repro.memory.system import MemorySystem
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module
from repro.core.task import Task

#: (channel, burst words) chosen by the routing function.  The channel
#: is the :class:`MemoryChannel` object, bound once when the routes were
#: built, so issuing a request resolves nothing.
RouteResult = tuple[MemoryChannel, int]


class AccessEngine(Module):
    """One Row Access or Column Access engine of one pipeline."""

    def __init__(
        self,
        name: str,
        input_fifo: StreamFifo,
        output_fifo: StreamFifo,
        response_fifo: StreamFifo,
        route: Callable[[Task], RouteResult],
        on_response: Callable[[Task, int], None],
        outstanding_capacity: int,
    ) -> None:
        super().__init__(name)
        if outstanding_capacity < 1:
            raise SimulationError("outstanding_capacity must be >= 1")
        self.input_fifo = input_fifo
        self.output_fifo = output_fifo
        self.response_fifo = response_fifo
        self._route = route
        self._on_response = on_response
        self._capacity = outstanding_capacity
        self._outstanding = 0
        self.requests_issued = 0
        self.responses_handled = 0

    @property
    def outstanding(self) -> int:
        """Requests in flight right now."""
        return self._outstanding

    def tick(self, cycle: int) -> None:
        # Only this engine pops its inputs: one read of a flag holds all tick.
        input_ready = self.input_fifo.ready
        response_ready = self.response_fifo.ready
        stats = self.stats
        if not input_ready and not response_ready:
            # Idle: nothing to issue or reunite this cycle.
            if self._outstanding:
                stats.blocked_cycles += 1
            else:
                stats.starved_cycles += 1
            return
        progressed = False
        output_fifo = self.output_fifo

        # Response proxy: reunite one returned task per cycle.
        if response_ready and output_fifo.space:
            task = self.response_fifo.pop()
            self._outstanding -= 1
            self._on_response(task, cycle)
            output_fifo.push(task)
            self.responses_handled += 1
            stats.items_processed += 1
            progressed = True

        # Request proxy: issue one new request per cycle.
        if input_ready:
            input_fifo = self.input_fifo
            task = input_fifo.front()
            if not task.needs_memory():
                # Bypass lane: terminated/ghost tasks skip memory entirely.
                if output_fifo.space:
                    input_fifo.pop()
                    output_fifo.push(task)
                    stats.items_processed += 1
                    progressed = True
            elif self._outstanding < self._capacity:
                channel, burst = self._route(task)
                if channel.can_accept():
                    input_fifo.pop()
                    channel.submit(MemoryRequest((self.response_fifo, task), burst))
                    self._outstanding += 1
                    self.requests_issued += 1
                    progressed = True

        if progressed:
            stats.active_cycles += 1
        elif not input_ready and self._outstanding == 0:
            stats.starved_cycles += 1
        else:
            stats.blocked_cycles += 1

    def busy(self) -> bool:
        return self._outstanding > 0


class ResponseRouter(Module):
    """Delivers channel responses to their engines' response FIFOs.

    Plays the return half of the paper's Task Router (Section IV-A); the
    forward half is each access engine's route, whose channels are bound
    when the machine is wired.  Delivery is out-of-order
    *across* destination engines within a bounded reorder window —
    matching the engine's 64-transaction-id reorder buffer (Section V-B)
    — but strictly in-order *per* destination: once one engine's FIFO
    refuses a response, later responses for that engine stay queued.
    Without the reorder window, one slow engine's backlog would convoy
    every other engine sharing the channel.
    """

    #: Matches the paper's "on-chip buffer supporting up to 64
    #: transaction IDs to reconstruct out-of-order returns".
    REORDER_WINDOW = 64

    def __init__(self, name: str, memory: MemorySystem) -> None:
        super().__init__(name)
        # Each channel beside its response queue: a cycle polls the
        # queues themselves and calls only into channels holding one.
        self._ports = [
            (channel.response_queue(), channel) for channel in memory.all_channels()
        ]
        self.delivered = 0

    def tick(self, cycle: int) -> None:
        delivered_this_cycle = 0
        for responses, channel in self._ports:
            if not responses:
                continue
            if len(responses) == 1:
                # A lone response needs no reorder window: deliver it in
                # place, or leave it queued for the next cycle.
                if _deliver(responses[0]):
                    channel.pop_response()
                    delivered_this_cycle += 1
            else:
                delivered_this_cycle += channel.deliver_out_of_order(
                    _deliver, window=self.REORDER_WINDOW
                )
        if delivered_this_cycle:
            self.stats.active_cycles += 1
            self.delivered += delivered_this_cycle
        else:
            self.stats.starved_cycles += 1


def _deliver(request: MemoryRequest) -> bool:
    """Push one response into the response FIFO its tag names.

    A FIFO that refuses stays full for the rest of the cycle (its space
    comes back only at the commit), so every later response for it in
    the same window is refused too: per-destination order holds with no
    record of who refused.
    """
    fifo, task = request.tag
    if not fifo.space:
        return False
    fifo.push(task)
    return True
