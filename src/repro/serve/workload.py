"""Open-loop arrival workloads for driving a :class:`WalkService`.

A *closed-loop* client waits for each response before sending the next
request, which lets a slow server set the pace and hides its queueing
behaviour.  ``repro serve-bench`` instead uses *open-loop* arrivals: a
request schedule is drawn up front (Poisson inter-arrival gaps at a
given rate, or back-to-back for a saturation run) and submitted on
schedule regardless of completions — the shape under which tail latency,
step composition, and admission shedding actually show themselves.

Beyond steady Poisson, :func:`flash_crowd_gaps` generates the arrival
shape a multi-tenant service is judged on: a piecewise-constant rate
that jumps to a multiple of nominal for a burst window and falls back,
the tenant-isolation stress of ``serve-bench --scenario flash-crowd``.

:func:`run_tenant_traces` drives several tenants' schedules against one
service concurrently and returns one :class:`OpenLoopReport` per tenant,
with disjoint query-id ranges so the combined run stays replayable.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServeOverloadError, WalkConfigError
from repro.serve.service import WalkService

#: Scenario names understood by :func:`scenario_gaps` (and the CLI).
SCENARIOS = ("steady", "flash-crowd")


@dataclass
class OpenLoopReport:
    """Outcome of one open-loop run against a service.

    ``paths`` maps each *completed* request's query id to its walk; shed
    requests appear in ``dropped``, and admitted requests whose
    engine step raised appear in ``failed`` — every offered request
    lands in exactly one of the three, so
    ``offered == completed + len(dropped) + len(failed)`` always holds
    (the client-side mirror of the service's accounting identity).
    ``requests`` maps every *submitted* query id to its start vertex —
    exactly the mapping :func:`repro.serve.service.replay_paths` takes.
    Service-side metrics (latency percentiles, batch histogram,
    sustained hops/s) live on the service's own ``stats`` — this report
    carries the client's view.
    """

    offered: int = 0
    paths: dict[int, np.ndarray] = field(default_factory=dict)
    dropped: list[int] = field(default_factory=list)
    #: Query ids admitted but resolved with an exception.
    failed: list[int] = field(default_factory=list)
    #: ``{query_id: start_vertex}`` for every submitted request.
    requests: dict[int, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.paths)

    def check_identity(self) -> None:
        """Assert the accounting identity; raises ``AssertionError``."""
        resolved = self.completed + len(self.dropped) + len(self.failed)
        assert self.offered == resolved, (
            f"accounting identity broken: offered {self.offered} != "
            f"{self.completed} completed + {len(self.dropped)} dropped + "
            f"{len(self.failed)} failed"
        )


def arrival_gaps(count: int, rate_per_second: float, seed: int = 0) -> np.ndarray:
    """Inter-arrival gaps (seconds) for ``count`` open-loop requests.

    Poisson arrivals at ``rate_per_second``; a non-positive rate means
    back-to-back submission (all gaps zero — the saturation workload).
    Drawn from their own ``default_rng(seed)`` so the arrival process is
    reproducible and independent of the walk randomness.
    """
    if count < 1:
        raise WalkConfigError(f"count must be >= 1, got {count}")
    if rate_per_second <= 0:
        return np.zeros(count, dtype=np.float64)
    rng = np.random.default_rng(seed)
    return rng.exponential(1.0 / rate_per_second, size=count)


def flash_crowd_gaps(
    count: int,
    nominal_rate: float,
    burst_multiplier: float = 8.0,
    burst_fraction: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Gaps for a flash crowd: nominal rate, a burst, nominal again.

    The middle ``burst_fraction`` of the ``count`` requests arrive at
    ``burst_multiplier × nominal_rate``; the leading and trailing
    quarters arrive at ``nominal_rate``.  This is the tenant-isolation
    stress: a best-effort tenant's flash crowd must shed at its own gate
    while a premium tenant's latency stays within its SLO.
    """
    if count < 1:
        raise WalkConfigError(f"count must be >= 1, got {count}")
    if nominal_rate <= 0:
        raise WalkConfigError(
            f"nominal_rate must be positive, got {nominal_rate}"
        )
    if burst_multiplier < 1:
        raise WalkConfigError(
            f"burst_multiplier must be >= 1, got {burst_multiplier}"
        )
    if not 0 < burst_fraction <= 1:
        raise WalkConfigError(
            f"burst_fraction must be in (0, 1], got {burst_fraction}"
        )
    rng = np.random.default_rng(seed)
    burst = int(round(count * burst_fraction))
    lead = (count - burst) // 2
    tail = count - burst - lead
    parts = []
    if lead:
        parts.append(rng.exponential(1.0 / nominal_rate, size=lead))
    if burst:
        parts.append(
            rng.exponential(1.0 / (nominal_rate * burst_multiplier), size=burst)
        )
    if tail:
        parts.append(rng.exponential(1.0 / nominal_rate, size=tail))
    return np.concatenate(parts)


def scenario_gaps(
    scenario: str, count: int, rate_per_second: float, seed: int = 0
) -> np.ndarray:
    """Arrival gaps for a named scenario (see :data:`SCENARIOS`).

    ``steady`` uses plain Poisson gaps, and a non-positive rate
    degenerates it to back-to-back saturation.  ``flash-crowd`` is
    :func:`flash_crowd_gaps`: a burst is a multiple of a nominal rate, so
    it needs a positive one (``serve-bench --rate``); a non-positive rate
    is a :class:`WalkConfigError`, not a quiet steady run.
    """
    if scenario not in SCENARIOS:
        raise WalkConfigError(
            f"unknown scenario {scenario!r}; choose from {list(SCENARIOS)}"
        )
    if scenario == "flash-crowd":
        if rate_per_second <= 0:
            raise WalkConfigError(
                f"the flash-crowd scenario needs a positive nominal rate "
                f"(--rate), got {rate_per_second}"
            )
        return flash_crowd_gaps(count, rate_per_second, seed=seed)
    if rate_per_second <= 0:
        return arrival_gaps(count, 0.0)
    return arrival_gaps(count, rate_per_second, seed=seed)


async def run_open_loop(
    service: WalkService,
    start_vertices: np.ndarray,
    rate_per_second: float = 0.0,
    arrival_seed: int = 0,
    tenant: str | None = None,
    query_id_base: int = 0,
    gaps: np.ndarray | None = None,
) -> OpenLoopReport:
    """Submit one request per start vertex on an open-loop schedule.

    Query ids are ``query_id_base + position``, which makes every run
    replayable offline via :func:`repro.serve.service.replay_paths`
    (``report.requests`` is exactly the mapping to replay); disjoint
    bases let concurrent tenant runs share one service without id
    collisions.  Requests shed by admission control are recorded and
    *not* retried (open-loop clients do not slow down); everything
    admitted is awaited — a request whose engine step raised lands in
    ``report.failed`` instead of taking down the report, and
    ``elapsed_seconds`` is stamped no matter what.  Requests are paced
    from absolute due times (the running sum of the gaps): on each wake
    every request already due is submitted, so the requested rate is
    offered however slowly the loop turns.  ``gaps`` overrides
    the Poisson schedule with a precomputed one (the scenario
    generators).
    """
    starts = np.asarray(start_vertices, dtype=np.int64)
    if gaps is None:
        gaps = arrival_gaps(starts.size, rate_per_second, seed=arrival_seed)
    elif len(gaps) != starts.size:
        raise WalkConfigError(
            f"gaps length {len(gaps)} != start count {starts.size}"
        )
    loop = asyncio.get_running_loop()
    report = OpenLoopReport(offered=int(starts.size))
    pending: dict[int, asyncio.Future] = {}
    began = loop.time()
    # Absolute due times, not a sleep per gap: a timed sleep costs two
    # loop iterations, and a dispatcher that steps the engine on this
    # same loop turns each into a superstep, so sleeping every gap in
    # turn would offer a 10 us-gap burst at one request per two
    # supersteps.  On each wake everything already due is submitted.
    due = (began + np.cumsum(np.asarray(gaps, dtype=np.float64))).tolist()
    start_list = starts.tolist()
    position = back_to_back = 0
    while position < len(start_list):
        wait = due[position] - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
            back_to_back = 0
            continue
        if back_to_back == 255:
            # A submit loop that *never* yields would admit an entire
            # burst before the dispatcher gets a turn — serializing
            # admission before execution instead of pipelining them.  A
            # bare yield every couple hundred requests keeps the burst
            # open-loop while letting the service start executing
            # behind it.
            await asyncio.sleep(0)
            back_to_back = 0
        start = start_list[position]
        query_id = query_id_base + position
        position += 1
        back_to_back += 1
        try:
            pending[query_id] = service.try_submit(
                int(start), query_id=query_id, tenant=tenant
            )
            report.requests[query_id] = int(start)
        except ServeOverloadError:
            report.dropped.append(query_id)
    for query_id, future in pending.items():
        # Await *every* future: one failed engine step must cost exactly
        # its own requests, not the whole report.
        try:
            outcome = await future
        except Exception:
            report.failed.append(query_id)
            continue
        report.paths[query_id] = outcome.path_of(0)
    report.elapsed_seconds = loop.time() - began
    return report


@dataclass(frozen=True)
class TenantTrace:
    """One tenant's schedule for :func:`run_tenant_traces`."""

    tenant: str
    start_vertices: np.ndarray
    gaps: np.ndarray


async def run_tenant_traces(
    service: WalkService,
    traces: list[TenantTrace] | tuple[TenantTrace, ...],
    id_stride: int = 1_000_000,
) -> dict[str, OpenLoopReport]:
    """Drive several tenants' open-loop schedules concurrently.

    Each trace runs as its own submit loop (its own clock, its own
    arrival schedule) against the shared service — the open-system shape
    of a real multi-tenant deployment, where one tenant's burst and
    another's steady stream interleave at the admission gates.  Query-id
    ranges are ``i * id_stride``-based per trace, so the union of all
    ``requests`` maps stays collision-free and offline-replayable.
    """
    if not traces:
        raise WalkConfigError("run_tenant_traces needs at least one trace")
    for trace in traces:
        if len(trace.start_vertices) > id_stride:
            raise WalkConfigError(
                f"trace for {trace.tenant!r} has {len(trace.start_vertices)} "
                f"requests, more than id_stride={id_stride}"
            )
    reports = await asyncio.gather(*(
        run_open_loop(
            service,
            trace.start_vertices,
            tenant=trace.tenant,
            query_id_base=index * id_stride,
            gaps=trace.gaps,
        )
        for index, trace in enumerate(traces)
    ))
    return {trace.tenant: report for trace, report in zip(traces, reports)}

