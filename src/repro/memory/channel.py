"""Cycle-level model of one memory channel.

The channel is the unit of contention in the whole simulator.  Its model
has three ingredients, each traceable to a real DRAM mechanism:

* **token-bucket issue rate** — a channel can start at most
  ``random_tx_rate / f_core`` random transactions per core cycle
  (row-activation limit, Equation 1).  Bursts consume extra fractional
  tokens priced by the sequential/random bandwidth ratio.
* **bounded outstanding window** — at most ``max_outstanding`` requests
  are in flight (AXI/controller capability); a full window back-pressures
  the requester, which is what serializes the naive single-outstanding
  baselines.
* **fixed round-trip latency** — issued requests complete a constant
  number of core cycles later (the paper sizes its metadata queue for
  ~100 cycles at 320 MHz).  Queueing delay adds on top when the issue
  rate saturates.

Responses return in issue order per channel, matching AXI's in-order
semantics per transaction id stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import MemoryModelError
from repro.memory.spec import MemorySpec


class MemoryRequest:
    """One memory access issued by an access engine.

    ``burst_words`` > 1 prices a sequential burst starting at a random
    address (alias-table slot reads, reservoir neighbor scans).
    ``tag`` is opaque to the channel and returned with the response —
    the simulated analogue of AXI transaction metadata.
    """

    __slots__ = ("tag", "burst_words")

    def __init__(self, tag: Any, burst_words: int = 1) -> None:
        if burst_words < 1:
            raise MemoryModelError(f"burst_words must be >= 1, got {burst_words}")
        self.tag = tag
        self.burst_words = burst_words

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoryRequest(tag={self.tag!r}, burst_words={self.burst_words})"


@dataclass
class ChannelStats:
    """Bandwidth accounting for one channel."""

    requests_accepted: int = 0
    requests_completed: int = 0
    words_transferred: int = 0
    tokens_spent: float = 0.0
    busy_cycles: int = 0
    stalled_cycles: int = 0  # had pending work but no token/window space

    def bytes_transferred(self) -> int:
        return self.words_transferred * 8


class MemoryChannel:
    """One rate-limited, latency-bound memory channel."""

    def __init__(
        self,
        spec: MemorySpec,
        core_mhz: float,
        channel_id: int = 0,
        queue_capacity: int = 256,
        accepted: list[int] | None = None,
    ) -> None:
        if queue_capacity < 1:
            raise MemoryModelError("queue_capacity must be >= 1")
        self.spec = spec
        self.channel_id = channel_id
        self._tokens_per_cycle = spec.channel_tx_per_core_cycle(core_mhz)
        self._tokens = 0.0
        self._latency = spec.round_trip_cycles
        self._max_outstanding = spec.max_outstanding
        self._queue_capacity = queue_capacity
        self._pending: deque[MemoryRequest] = deque()
        self._in_flight: deque[tuple[int, MemoryRequest]] = deque()  # (done_cycle, req)
        self._responses: deque[MemoryRequest] = deque()
        self._now = 0
        #: Token cost per burst length, priced once per length.
        self._burst_costs: dict[int, float] = {}
        #: Running count of requests accepted, in a one-element list that
        #: the owning :class:`~repro.memory.system.MemorySystem` shares
        #: with every sibling channel, so its total is one read.
        self._accepted = [0] if accepted is None else accepted
        self.stats = ChannelStats()

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """Whether a new request can be enqueued this cycle."""
        return len(self._pending) < self._queue_capacity

    def submit(self, request: MemoryRequest) -> None:
        """Enqueue a request (caller must check :meth:`can_accept`)."""
        if len(self._pending) >= self._queue_capacity:
            raise MemoryModelError(
                f"channel {self.channel_id} request queue overflow "
                f"(capacity {self._queue_capacity})"
            )
        self._pending.append(request)
        self.stats.requests_accepted += 1
        self._accepted[0] += 1

    def pending_count(self) -> int:
        """Requests waiting to be issued."""
        return len(self._pending)

    def in_flight_count(self) -> int:
        """Requests issued but not yet completed."""
        return len(self._in_flight)

    # ------------------------------------------------------------------
    # Response side
    # ------------------------------------------------------------------
    def has_response(self) -> bool:
        """Whether a completed response is waiting to be collected."""
        return bool(self._responses)

    def peek_response(self) -> MemoryRequest:
        """Inspect the oldest completed response without consuming it."""
        if not self._responses:
            raise MemoryModelError(f"channel {self.channel_id} has no response ready")
        return self._responses[0]

    def deliver_out_of_order(self, try_deliver, window: int = 64) -> int:
        """Deliver responses out of order within a bounded reorder window.

        AXI returns responses in order *per transaction id* but ids
        complete independently; the paper's access engine keeps an
        on-chip reorder buffer of up to 64 transaction ids to exploit
        exactly that (Section V-B).  ``try_deliver(request) -> bool`` is
        called on up to ``window`` oldest responses; accepted ones are
        removed, rejected ones keep their relative order.  The caller is
        responsible for refusing later responses to a destination that
        already refused one, preserving per-destination ordering.
        """
        if window < 1:
            raise MemoryModelError(f"reorder window must be >= 1, got {window}")
        kept: list[MemoryRequest] = []
        delivered = 0
        limit = min(window, len(self._responses))
        for _ in range(limit):
            request = self._responses.popleft()
            if try_deliver(request):
                delivered += 1
            else:
                kept.append(request)
        for request in reversed(kept):
            self._responses.appendleft(request)
        return delivered

    def pop_response(self) -> MemoryRequest:
        """Collect the oldest completed response."""
        if not self._responses:
            raise MemoryModelError(f"channel {self.channel_id} has no response ready")
        return self._responses.popleft()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance one core cycle: issue, progress, complete."""
        self._now = now = self._now + 1
        # Refill the token bucket; cap so idle periods cannot bank
        # unbounded burst credit (row activations don't accumulate).
        tokens = self._tokens + self._tokens_per_cycle
        if tokens > 4.0:
            tokens = 4.0
        self._tokens = tokens
        pending, in_flight = self._pending, self._in_flight
        if not pending and not in_flight:
            return  # idle: nothing to issue, complete, or count

        stats = self.stats
        issued_any = False
        while pending and len(in_flight) < self._max_outstanding:
            head = pending[0]
            cost = self._burst_costs.get(head.burst_words)
            if cost is None:
                cost = self._burst_costs[head.burst_words] = self.spec.burst_cost_tx(
                    head.burst_words
                )
            # A burst is issued once one activation's worth of credit is
            # available; its full cost may drive the balance negative,
            # which stalls subsequent issues while the burst streams —
            # exactly how a long burst occupies the channel for several
            # cycles.  (Requiring the full cost up front would make any
            # burst costing more than the bank cap unissuable.)
            if tokens < min(cost, 1.0):
                break
            tokens -= cost
            pending.popleft()
            in_flight.append((now + self._latency, head))
            stats.tokens_spent += cost
            stats.words_transferred += head.burst_words
            issued_any = True
        self._tokens = tokens

        if issued_any or in_flight:
            stats.busy_cycles += 1
        elif pending:
            stats.stalled_cycles += 1

        while in_flight and in_flight[0][0] <= now:
            _, request = in_flight.popleft()
            self._responses.append(request)
            stats.requests_completed += 1

    def drain_complete(self) -> bool:
        """Whether nothing is pending, in flight, or waiting collection."""
        return not (self._pending or self._in_flight or self._responses)

    @property
    def now(self) -> int:
        """Current cycle count."""
        return self._now
