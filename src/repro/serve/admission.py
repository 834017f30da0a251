"""Admission control for the walk service: bounded occupancy, shed past it.

An open system that admits everything melts: queues grow without bound,
every request's latency goes to infinity, and the operator learns about
the overload from timeouts instead of errors.  The service instead
tracks *occupancy* — requests admitted but not yet resolved, whether
still queued, buffered in the scheduler, or seated — and sheds new arrivals
with :class:`~repro.errors.ServeOverloadError` once occupancy reaches a
high-water mark.

The mark is the number the caller passes: ``ServeConfig.queue_depth``
for the anonymous service, or a tenant's own ``queue_depth``
(:class:`~repro.serve.qos.TenantSpec`).
"""

from __future__ import annotations

from repro.errors import ServeError, ServeOverloadError


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
