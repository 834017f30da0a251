"""Bulk-service queue analytics — the M/M/1[N] model of Section VI-A.

The scheduler is modeled as a single server that can dispatch up to ``N``
tasks per decision epoch (one per pipeline): tasks arrive Poisson(lambda),
service is exponential(mu) per pipeline, the batch size is at most N.
These analytics give the stability condition and utilization targets the
zero-bubble design reasons about; the companion module
(:mod:`repro.queueing.validation`) checks the buffer-depth consequence
(Theorem VI.1) against simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SchedulerError


@dataclass(frozen=True)
class BulkServiceQueue:
    """An M/M/1[N] bulk-service queue.

    Parameters
    ----------
    arrival_rate:
        lambda — task arrivals per cycle.
    service_rate:
        mu — tasks one pipeline completes per cycle (1 for II=1).
    batch_size:
        N — pipelines served per epoch.
    """

    arrival_rate: float
    service_rate: float
    batch_size: int

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise SchedulerError("arrival_rate must be positive")
        if self.service_rate <= 0:
            raise SchedulerError("service_rate must be positive")
        if self.batch_size < 1:
            raise SchedulerError("batch_size must be >= 1")

    @property
    def offered_load(self) -> float:
        """rho = lambda / (N * mu); the system is stable iff rho < 1."""
        return self.arrival_rate / (self.batch_size * self.service_rate)

    def is_stable(self) -> bool:
        """Whether queues stay bounded."""
        return self.offered_load < 1.0

    def utilization(self) -> float:
        """Long-run fraction of pipeline capacity in use (= rho, capped)."""
        return min(1.0, self.offered_load)

    def idle_pipelines(self) -> float:
        """Expected pipelines idle per epoch without extra buffering.

        With nothing buffered, an epoch can only serve what arrived:
        ``N - min(N, lambda/mu)`` pipelines go idle on average — the
        bubbles Theorem VI.1's buffer eliminates when backlogged.
        """
        served = min(float(self.batch_size), self.arrival_rate / self.service_rate)
        return self.batch_size - served

    def throughput(self) -> float:
        """Departure rate: lambda when stable, capacity otherwise."""
        if self.is_stable():
            return self.arrival_rate
        return self.batch_size * self.service_rate


def weighted_capacity_split(
    service_rate: float,
    weights: Sequence[float],
    keys: Sequence[str] | None = None,
) -> list[float]:
    """Split one server's total service rate into per-class rates.

    A weighted-priority bulk server (the multi-tenant dispatcher of
    :mod:`repro.serve.qos`) is, per class, an M/M/1[N] queue whose
    long-run service rate is the class's weight share of the total: a
    class with weight ``w_i`` out of ``sum(w)`` is dispatched ``w_i /
    sum(w)`` of the slots whenever every class is backlogged, and at
    least that often otherwise (idle classes donate their slots).  The
    returned per-class rates are therefore *conservative* inputs for
    :class:`BulkServiceQueue` stability checks and for
    :func:`repro.serve.admission.recommended_queue_depth` — a class
    stable on its share is stable in the shared system.

    The shares sum to ``service_rate`` *exactly* (``math.fsum``), never
    merely approximately: per-class division rounds each share, and the
    lost (or invented) capacity would otherwise surface as per-tenant
    admission depths that disagree with the sized total.  The rounding
    residue is assigned deterministically to the largest-fraction class
    — the largest share absorbs a sub-ulp correction with the least
    relative distortion — with ``keys`` (tenant names) breaking ties, so
    equal-weight configurations cannot flap between runs.
    """
    if service_rate <= 0:
        raise SchedulerError("service_rate must be positive")
    if not weights:
        raise SchedulerError("weighted_capacity_split needs at least one class")
    if any(w <= 0 for w in weights):
        raise SchedulerError(f"class weights must be positive, got {list(weights)}")
    if keys is not None and len(keys) != len(weights):
        raise SchedulerError(
            f"got {len(keys)} keys for {len(weights)} class weights"
        )
    total = math.fsum(float(w) for w in weights)
    shares = [service_rate * float(w) / total for w in weights]
    order = sorted(
        range(len(shares)),
        key=(lambda i: (-shares[i], keys[i])) if keys is not None
        else (lambda i: (-shares[i], i)),
    )
    anchor = order[0]
    shares[anchor] = service_rate - math.fsum(
        share for i, share in enumerate(shares) if i != anchor
    )
    # The anchor correction can leave a sub-ulp residue when the anchor
    # shares the total's binade (its ulp is too coarse to express the
    # fix); walking down to smaller shares reaches one with a fine
    # enough ulp to absorb it exactly.
    for index in order:
        for _ in range(2):
            residue = math.fsum([service_rate, *(-share for share in shares)])
            if residue == 0.0:
                return shares
            corrected = shares[index] + residue
            if corrected <= 0.0:  # pragma: no cover - ~1e16 weight ratios
                break
            shares[index] = corrected
    return shares


def zero_bubble_condition(
    arrival_rate: float, service_rate: float, batch_size: int, backlog: int
) -> bool:
    """Whether a backlogged system can keep all pipelines busy.

    A backlog of at least N tasks guarantees a full batch each epoch, so
    the scheduler never idles a pipeline for lack of work; this is the
    "whenever the system is backlogged" premise of Section VI-B.
    """
    queue = BulkServiceQueue(arrival_rate, service_rate, batch_size)
    return backlog >= queue.batch_size
