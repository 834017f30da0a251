"""Admission control for the walk service: bounded occupancy, shed past it.

An open system that admits everything melts: queues grow without bound,
every request's latency goes to infinity, and the operator learns about
the overload from timeouts instead of errors.  The service instead
tracks *occupancy* — requests admitted but not yet resolved, whether
still queued, buffered in the scheduler, or seated — and sheds new arrivals
with :class:`~repro.errors.ServeOverloadError` once occupancy reaches a
high-water mark.

The mark itself comes from the same M/M/1[N] bulk-service analytics the
accelerator's zero-bubble scheduler is reasoned with
(:mod:`repro.queueing.mm1n`): the dispatcher *is* a bulk server that
seats up to ``max_batch`` requests per step, so the model's
offered-load and backlog arguments size the buffer directly.
"""

from __future__ import annotations

import math

from repro.errors import ServeError, ServeOverloadError
from repro.queueing.mm1n import BulkServiceQueue

#: Floor on any recommended depth, in units of full frontiers.  Theorem
#: VI.1's premise — a backlog of at least one full batch guarantees the
#: server never dispatches a partial batch for lack of work — needs one
#: batch buffered while another executes, hence two.
MIN_DEPTH_BATCHES = 2


def recommended_queue_depth(
    arrival_rate: float,
    service_rate: float,
    max_batch: int,
    safety: float = 4.0,
) -> int:
    """Occupancy high-water for a stable open-loop workload.

    Models the dispatcher as a bulk-service queue: requests arrive
    Poisson(``arrival_rate``), the engine retires ``service_rate``
    requests per second per batch slot, and each dispatch serves at most
    ``max_batch``.  The depth scales the mean M/M/1-style backlog
    ``rho / (1 - rho)`` by ``safety`` (so nominal load practically never
    sheds) and never drops below ``MIN_DEPTH_BATCHES`` full batches (so
    a full group is buffered while another is seated).  An
    unstable workload (``rho >= 1``) has no finite depth that avoids
    shedding — that is a capacity problem, so it is rejected loudly.
    """
    if safety <= 0:
        raise ServeError(f"safety must be positive, got {safety}")
    queue = BulkServiceQueue(arrival_rate, service_rate, max_batch)
    rho = queue.offered_load
    if not queue.is_stable():
        raise ServeError(
            f"offered load rho={rho:.2f} >= 1: no queue depth bounds latency; "
            "add capacity (cores, a faster engine) or shed at the client"
        )
    backlog_batches = safety * rho / (1.0 - rho)
    depth = max_batch * max(float(MIN_DEPTH_BATCHES), backlog_batches)
    return int(math.ceil(depth))


class AdmissionGate:
    """Occupancy counter with a shed-past-high-water policy.

    The service is single-threaded (asyncio), so plain integer arithmetic
    is race-free; the gate exists to keep the admit/release bookkeeping
    and the shed decision in one auditable place.
    """

    def __init__(self, high_water: int) -> None:
        if high_water < 1:
            raise ServeError(f"high_water must be >= 1, got {high_water}")
        self._high_water = high_water
        self._occupancy = 0

    @property
    def high_water(self) -> int:
        return self._high_water

    @property
    def occupancy(self) -> int:
        """Requests admitted and not yet released."""
        return self._occupancy

    def admit(self) -> None:
        """Count one request in, or shed it.

        Raises :class:`ServeOverloadError` — carrying the observed
        occupancy — when the request would push occupancy past the
        high-water mark.
        """
        if self._occupancy >= self._high_water:
            raise ServeOverloadError(self._occupancy, self._high_water)
        self._occupancy += 1

    def release(self, count: int = 1) -> None:
        """Count ``count`` resolved (or failed) requests out."""
        if count < 0 or count > self._occupancy:
            raise ServeError(
                f"cannot release {count} requests with occupancy {self._occupancy}"
            )
        self._occupancy -= count
