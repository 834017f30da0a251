"""Asynchronous memory access engine (paper Section V-B, Figure 6).

The engine decouples request issue from response handling so the pipeline
never serializes on memory latency:

* the **request proxy** side pulls one task per cycle from the upstream
  FIFO, translates its vertex into a (channel, address, burst) triple via
  the graph layout, and issues a non-blocking request — up to
  ``outstanding_capacity`` in flight (128 in the paper's build, 1 in the
  synchronous ablation);
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
from repro.memory.channel import MemoryRequest
from repro.memory.system import ChannelGroup, MemorySystem
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module
from repro.core.task import Task

#: (group, channel index, burst words) chosen by the routing function.
RouteResult = tuple[ChannelGroup, int, int]


class AccessEngine(Module):
    """One Row Access or Column Access engine of one pipeline."""

    def __init__(
        self,
        name: str,
        input_fifo: StreamFifo,
        output_fifo: StreamFifo,
        response_fifo: StreamFifo,
        memory: MemorySystem,
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
        self._memory = memory
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
        progressed = False
        input_fifo = self.input_fifo
        output_fifo = self.output_fifo

        # Response proxy: reunite one returned task per cycle.
        if self.response_fifo.ready and output_fifo.space:
            task = self.response_fifo.pop()
            self._outstanding -= 1
            self._on_response(task, cycle)
            output_fifo.push(task)
            self.responses_handled += 1
            self.stats.items_processed += 1
            progressed = True

        # Request proxy: issue one new request per cycle.
        if input_fifo.ready:
            task = input_fifo.front()
            if not task.needs_memory():
                # Bypass lane: terminated/ghost tasks skip memory entirely.
                if output_fifo.space:
                    input_fifo.pop()
                    output_fifo.push(task)
                    self.stats.items_processed += 1
                    progressed = True
            elif self._outstanding < self._capacity:
                group, index, burst = self._route(task)
                channel = self._memory.channel(group, index)
                if channel.can_accept():
                    input_fifo.pop()
                    channel.submit(MemoryRequest((self.response_fifo, task), burst))
                    self._outstanding += 1
                    self.requests_issued += 1
                    progressed = True

        if progressed:
            self.stats.active_cycles += 1
        elif not input_fifo.ready and self._outstanding == 0:
            self.stats.starved_cycles += 1
        else:
            self.stats.blocked_cycles += 1

    def busy(self) -> bool:
        return self._outstanding > 0


class ResponseRouter(Module):
    """Delivers channel responses to their engines' response FIFOs.

    Plays the return half of the Task Router.  Delivery is out-of-order
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
        self._channels = memory.all_channels()
        self.delivered = 0

    def tick(self, cycle: int) -> None:
        delivered_this_cycle = 0
        for channel in self._channels:
            if channel.has_response():
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
