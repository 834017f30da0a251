"""Serving-side observability: latency, admission shape, throughput.

:class:`ServeStats` is the service's passive ledger.  The event loop
stamps every request on submission and completion (monotonic loop time)
and records every admission group it dispatches; the record answers the
questions an operator asks of an open system — tail latency (p50/p95/p99),
how requests reach the engine (admission-group size histogram, walkers
per superstep), and the sustained hop throughput between the first
arrival and the last completion.

The ledger has one shape under both dispatchers.  ``batch_sizes`` holds
one entry per **admission group** — a closed micro-batch, or the walkers
the open frontier seated in one turn — so the histogram always sums to
the requests dispatched.  ``busy_seconds`` accumulates per engine call
(a closed run, or one superstep) and ``total_hops`` is booked with it —
a walk's hops in the superstep that ends it.  Where the service steps
the engine itself, ``supersteps`` / ``walker_steps`` say how full the
lanes ran (:meth:`ServeStats.mean_step_occupancy`).  Engine-side
counters (proposals, neighbor reads, termination causes) stay in
:class:`~repro.walks.EngineStats`; this module only covers what the
*service* adds on top of the engine.

Every admitted request ends in exactly one of three buckets —
``completed``, ``failed`` (its micro-batch raised), or, for requests
never admitted, ``dropped`` (shed at the gate) — so the **accounting
identity** ``offered == completed + dropped + failed`` holds on every
drained service and every scenario report; ``tests/serve/`` and the QoS
benchmark assert it.  A multi-tenant service keeps one ``ServeStats``
per tenant (plus the global one), so per-class SLOs are measured from
the same ledger shape: a tenant's ledger books its own requests' hops,
its share of each admission group, and its walkers' share of engine
time (a step's or run's seconds split evenly over the walkers in it).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: The latency quantiles every summary reports, in ascending order.
LATENCY_QUANTILES = (50, 95, 99)


@dataclass
class ServeStats:
    """Counters and samples accumulated while a :class:`WalkService` runs.

    Timestamps are caller-provided (the service passes ``loop.time()``)
    so the record is testable without patching clocks; all durations are
    seconds.
    """

    #: Requests admitted past the gate (includes later failures).
    submitted: int = 0
    completed: int = 0
    dropped: int = 0
    #: Admitted requests whose micro-batch raised; they resolve with the
    #: engine's exception and land here instead of ``completed``.
    failed: int = 0
    #: Requests served from the hot-walk cache (subset of ``completed``).
    cache_hits: int = 0
    total_hops: int = 0
    #: Wall-clock engine time summed over engine calls (busy time).
    busy_seconds: float = 0.0
    #: Supersteps the service ran itself (open frontier only), and the
    #: walkers they carried, summed.
    supersteps: int = 0
    walker_steps: int = 0
    #: Per-request submit-to-resolve latency samples.
    latencies: list[float] = field(default_factory=list)
    #: Size of every admission group, in dispatch order.
    batch_sizes: list[int] = field(default_factory=list)
    first_submit: float | None = None
    last_completion: float | None = None

    @property
    def offered(self) -> int:
        """Every request the service saw: admitted plus shed."""
        return self.submitted + self.dropped

    def record_submit(self, now: float) -> None:
        """Note an admitted request's arrival time."""
        self.submitted += 1
        if self.first_submit is None or now < self.first_submit:
            self.first_submit = now

    def record_drop(self) -> None:
        """Note a request shed by admission control."""
        self.dropped += 1

    def record_admission(self, size: int) -> None:
        """Note one admission group: requests handed to the engine together."""
        self.batch_sizes.append(int(size))

    def record_service(self, hops: int, service_seconds: float) -> None:
        """Note engine work done: hops walked, wall-clock spent."""
        self.total_hops += int(hops)
        self.busy_seconds += float(service_seconds)

    def record_batch(self, size: int, hops: int, service_seconds: float) -> None:
        """Note one closed micro-batch: one admission group served by
        one engine run.  (The open frontier books the two separately: a
        group when it is seated, service every superstep.)"""
        self.record_admission(size)
        self.record_service(hops, service_seconds)

    def record_step(self, live: int, hops: int, service_seconds: float) -> None:
        """Note one superstep over ``live`` walkers; ``hops`` are those of
        the walks it ended."""
        self.supersteps += 1
        self.walker_steps += int(live)
        self.record_service(hops, service_seconds)

    def record_completion(self, latency: float, now: float,
                          cache_hit: bool = False) -> None:
        """Note one resolved request."""
        self.completed += 1
        if cache_hit:
            self.cache_hits += 1
        self.latencies.append(float(latency))
        if self.last_completion is None or now > self.last_completion:
            self.last_completion = now

    def record_failure(self, now: float) -> None:
        """Note one admitted request resolved with its batch's exception.

        Failures close the request (the accounting identity counts them
        next to completions) but contribute no latency sample — the
        percentiles describe successful service only.
        """
        self.failed += 1
        if self.last_completion is None or now > self.last_completion:
            self.last_completion = now

    def latency_percentiles(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` in seconds (NaN if empty)."""
        if not self.latencies:
            return {f"p{q}": float("nan") for q in LATENCY_QUANTILES}
        samples = np.asarray(self.latencies, dtype=np.float64)
        values = np.percentile(samples, LATENCY_QUANTILES)
        return {f"p{q}": float(v) for q, v in zip(LATENCY_QUANTILES, values)}

    def batch_size_histogram(self) -> dict[int, int]:
        """``{micro-batch size: count}``, ascending by size."""
        return dict(sorted(Counter(self.batch_sizes).items()))

    def mean_batch_size(self) -> float:
        """Average admission-group size (NaN before the first dispatch)."""
        if not self.batch_sizes:
            return float("nan")
        return float(np.mean(self.batch_sizes))

    def mean_step_occupancy(self) -> float:
        """Walkers per superstep: walker-steps over supersteps (NaN where
        the service ran none itself — closed runs step out of its sight)."""
        if not self.supersteps:
            return float("nan")
        return self.walker_steps / self.supersteps

    def sustained_hops_per_second(self) -> float:
        """Hops over the open interval first-submit -> last-completion.

        This is the open-system throughput the acceptance criterion
        compares against the closed-batch engine: it charges the service
        for queueing and batching gaps, not just engine busy time.
        Degenerate windows (one request resolving in the same clock
        reading it arrived) yield ``inf``; presentation layers render
        that as "n/a" rather than a number.
        """
        if self.first_submit is None or self.last_completion is None:
            return 0.0
        elapsed = self.last_completion - self.first_submit
        return self.total_hops / elapsed if elapsed > 0 else float("inf")

    def snapshot(self) -> dict:
        """JSON-ready summary (the shape ``BENCH_serve.json`` embeds).

        Non-finite rates become ``None`` — a zero-elapsed window's
        ``inf`` must not crash the snapshot (``round(inf)`` raises
        ``OverflowError``) nor leak a non-JSON value into the record.
        """
        percentiles = self.latency_percentiles()
        sustained = self.sustained_hops_per_second()
        return {
            "offered": self.offered,
            "completed": self.completed,
            "dropped": self.dropped,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "total_hops": self.total_hops,
            "latency_ms": {
                key: round(value * 1e3, 3) if np.isfinite(value) else None
                for key, value in percentiles.items()
            },
            "batch_size_histogram": {
                str(size): count for size, count in self.batch_size_histogram().items()
            },
            "mean_batch_size": (
                round(self.mean_batch_size(), 2) if self.batch_sizes else None
            ),
            "mean_step_occupancy": (
                round(self.mean_step_occupancy(), 2) if self.supersteps else None
            ),
            "sustained_hops_per_sec": (
                round(sustained) if np.isfinite(sustained) else None
            ),
            "busy_seconds": round(self.busy_seconds, 4),
        }

    def summary(self) -> str:
        """Human-readable one-stop report (CLI output)."""
        percentiles = self.latency_percentiles()
        latency = ", ".join(
            f"{key} {value * 1e3:.2f}ms" if np.isfinite(value) else f"{key} n/a"
            for key, value in percentiles.items()
        )
        histogram = self.batch_size_histogram()
        shape = ", ".join(f"{size}x{count}" for size, count in histogram.items())
        sustained = self.sustained_hops_per_second()
        sustained_text = (
            f"{sustained:,.0f} hops/s sustained" if np.isfinite(sustained)
            else "hops/s n/a"
        )
        extras = ""
        if self.failed:
            extras += f", {self.failed} failed"
        if self.cache_hits:
            extras += f", {self.cache_hits} cache hits"
        steps = (
            f"\nsupersteps: {self.supersteps}, "
            f"mean occupancy {self.mean_step_occupancy():.1f} walkers"
            if self.supersteps else ""
        )
        return (
            f"served {self.completed} requests ({self.dropped} shed{extras}), "
            f"{self.total_hops} hops, "
            f"{sustained_text}\n"
            f"latency: {latency}\n"
            f"admission groups: {len(self.batch_sizes)} dispatched, "
            f"mean size {self.mean_batch_size():.1f} [size x count: {shape}]"
            f"{steps}"
        )
