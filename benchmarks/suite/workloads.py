"""The five pinned workloads.

Each workload builds its inputs from the seed alone (``setup``), measures
end to end with nothing of the harness inside the program (``measure``),
measures again with timing proxies around each layer's public functions
(``trace``), and checks its outputs outside every timed window
(``check``).  Sizes, walk length 80 and Node2Vec p=2, q=0.5 follow the
paper (§VIII-A4); README.md says why each workload exists.

``measure`` and ``trace`` return ``(metrics, attempted, failed)``.
"""

from __future__ import annotations

import asyncio
import time

import checks
import numpy as np
from harness import (
    NO_SPANS,
    SMOKE_CALLS,
    HostProbe,
    Spans,
    at_quiet_speed,
    median,
    timed_calls,
)
from loadgen import PhaseLog, drive, poisson_due_offsets

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.dynamic import (
    apply_batch,
    fresh_static_build,
    sliding_window_trace,
    snapshot_matches_static,
)
from repro.engines import PreparedEngine, prepare_engine, run_accelerator_walks
from repro.graph import rmat
from repro.graph.datasets import thunderrw_weights
from repro.memory.spec import HBM2_U55C
from repro.obs import tracing as obs_tracing
from repro.sampling.base import derive_seed
from repro.sampling.hybrid import make_walk_kernel
from repro.serve import ServeConfig, WalkService, replay_paths
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    Node2VecSpec,
    PPRSpec,
    WalkResults,
    make_queries,
    run_walks_batch,
)
from repro.walks.batch import run_walks_batch_arrays

WALK_LENGTH = 80
#: Fixed open-loop rates of ``serve_poisson``, requests per second: about a
#: fifth of saturation on the builder's host, and (traced run only) about
#: half, where waiting starts to grow before throughput stops.
RATE = 4000.0
HIGH_RATE = 12000.0


def weighted_rmat(scale: int, seed: int):
    graph = rmat(scale, edge_factor=16, seed=seed)
    return graph.with_weights(thunderrw_weights(graph, seed))


def setup_layer_metrics(spans: Spans, graph) -> dict:
    """Set-up spans of a traced run as ``<layer>_ms``, plus the edge count."""
    metrics = {"graph.edges": graph.num_edges}
    for name in ("graph.build", "sampling.prepare", "engines.prepare"):
        for index in spans.by_name(name):
            metrics[f"{name}_ms"] = spans.seconds(index) * 1e3
    return metrics


class Workload:
    name = ""
    #: An untraced window never closes on fewer timed calls than this.
    MIN_CALLS = 30
    #: Pin the process to one CPU of its affinity mask before measuring.
    ONE_CPU = False

    def __init__(self, seed: int, smoke: bool, probe: HostProbe) -> None:
        self.seed = seed
        self.smoke = smoke
        self.probe = probe
        self.min_calls = SMOKE_CALLS if smoke else self.MIN_CALLS

    def close(self) -> None:
        """Release what ``setup`` opened."""


class TimedKernel:
    """The prepared sampling kernel behind a proxy that times ``sample``.

    Handed to the program through its public ``kernel=`` seam; each call
    becomes a ``sampling.sample`` span under whatever span is open.
    """

    def __init__(self, kernel, spans: Spans) -> None:
        self._kernel = kernel
        self._spans = spans
        self.request = 0
        self.calls = 0

    def sample(self, *args, **kwargs):
        self.calls += 1
        with self._spans.span("sampling.sample", self.request):
            return self._kernel.sample(*args, **kwargs)


class BatchWalks(Workload):
    """Closed loop, one caller: ``engine.run(queries)`` on G16, back to back."""

    scale = (16, 10)
    queries_per_call = (0, 0)
    #: Only ``deepwalk_batch`` measures what ``repro.obs`` tracing costs.
    measures_obs = False

    def make_spec(self):
        raise NotImplementedError

    def setup(self, spans=NO_SPANS) -> None:
        with spans.span("graph.build"):
            self.graph = weighted_rmat(self.scale[self.smoke], self.seed)
        self.spec = self.make_spec()
        if spans is not NO_SPANS:
            # The traced run wraps a kernel of its own; preparing it is the
            # sampling layer's share of set-up (prepare_engine repeats it).
            with spans.span("sampling.prepare"):
                self.kernel = make_walk_kernel(self.spec.make_sampler(), "default")
                self.kernel.prepare(self.graph)
        with spans.span("engines.prepare"):
            self.engine = prepare_engine("batch", self.graph, self.spec)
        self.queries = make_queries(self.graph, self.queries_per_call[self.smoke],
                                    seed=derive_seed(self.seed, "queries"))
        self.stats = EngineStats()
        self.results = self.engine.run(self.queries, seed=self.seed, stats=self.stats)

    def close(self) -> None:
        self.engine.close()

    def measure(self, window: float):
        calls, slowdown = timed_calls(
            lambda _: self.engine.run(self.queries, seed=self.seed), window, self.probe,
            self.min_calls)
        per_call = median(calls)
        metrics = at_quiet_speed(slowdown, times={"latency_p50_ms": per_call * 1e3},
                                 rates={"hops_per_s": self.stats.total_hops / per_call})
        return metrics, len(calls), 0

    def trace(self, window: float, spans: Spans):
        """Each iteration makes the call three ways: untraced through the
        engine, whole through ``run_walks_batch(kernel=proxy)`` — what
        ``engine.run`` itself calls — and in its two public pieces, the
        array core and the materialisation.  ``engines.unpack_ms`` is what
        the whole call takes beyond its two pieces."""
        kernel = TimedKernel(self.kernel, spans)
        ids = np.array([q.query_id for q in self.queries], dtype=np.int64)
        starts = np.array([q.start_vertex for q in self.queries], dtype=np.int64)
        untraced, observed = [], []
        whole, core, materialise = [], [], []  # span indices, one per iteration
        last = {}

        def iteration(index: int) -> None:
            started = time.perf_counter()
            self.engine.run(self.queries, seed=self.seed)
            untraced.append(time.perf_counter() - started)
            if self.measures_obs:
                started = time.perf_counter()
                with obs_tracing():
                    self.engine.run(self.queries, seed=self.seed)
                observed.append(time.perf_counter() - started)
            kernel.request = index
            calls_before = kernel.calls
            with spans.span("engines.run", index) as span:
                run_walks_batch(self.graph, self.spec, self.queries, seed=self.seed, kernel=kernel)
            whole.append(span)
            sample_calls = kernel.calls - calls_before
            stats = EngineStats()
            with spans.span("walks.core", index) as span:
                paths, hops = run_walks_batch_arrays(
                    self.graph, self.spec, kernel, starts, ids, seed=self.seed, stats=stats)
            core.append(span)
            with spans.span("walks.materialise", index) as span:
                WalkResults().extend_from_matrix(paths, hops)
            materialise.append(span)
            last.update(stats=stats, sample_calls=sample_calls,
                        path_bytes=paths.nbytes, supersteps=int(hops.max()))

        timed_calls(iteration, window, self.probe, SMOKE_CALLS)
        covered = spans.children_seconds()
        seconds = spans.seconds
        stats = last["stats"]
        core_self_s = median(seconds(c) - covered[c] for c in core)
        metrics = setup_layer_metrics(spans, self.graph)
        metrics.update({
            "sampling.sample_ms": median(covered[w] for w in whole) * 1e3,
            "sampling.sample_calls": last["sample_calls"],
            "sampling.proposals_per_hop": stats.sampling_proposals / stats.total_hops,
            "sampling.neighbor_reads_per_hop": stats.neighbor_reads / stats.total_hops,
            "walks.core_ms": core_self_s * 1e3,
            "walks.ns_per_hop": core_self_s * 1e9 / stats.total_hops,
            "walks.supersteps": last["supersteps"],
            "walks.path_bytes": last["path_bytes"],
            "walks.materialise_ms": median(seconds(m) for m in materialise) * 1e3,
            "engines.unpack_ms": median(
                seconds(w) - seconds(c) - seconds(m)
                for w, c, m in zip(whole, core, materialise)) * 1e3,
            "engines.run_ms": median(seconds(w) for w in whole) * 1e3,
            "harness.trace_overhead_frac":
                median(seconds(w) for w in whole) / median(untraced) - 1.0,
        })
        if self.measures_obs:
            metrics["obs.trace_overhead_frac"] = median(observed) / median(untraced) - 1.0
        return metrics, len(whole), 0

    def check(self) -> dict:
        checks.check_paths(self.graph, self.queries, self.results, self.stats)
        checks.check_determinism(self.engine, self.queries, self.seed)
        return {"paths_sha256": checks.paths_sha256(self.results.paths)}


class DeepWalkBatch(BatchWalks):
    name = "deepwalk_batch"
    queries_per_call = (50_000, 2_000)
    measures_obs = True

    def make_spec(self):
        return DeepWalkSpec(max_length=WALK_LENGTH)


class Node2VecBatch(BatchWalks):
    name = "node2vec_batch"
    queries_per_call = (10_000, 500)

    def make_spec(self):
        return Node2VecSpec(p=2.0, q=0.5, strategy="rejection", max_length=WALK_LENGTH)


class TimedEngine(PreparedEngine):
    """The prepared engine behind a proxy that logs each micro-batch's
    ``run``; handed to the service through ``WalkService(engine=...)``."""

    def __init__(self, inner: PreparedEngine) -> None:
        self.inner = inner
        self.name = inner.name
        #: ``(queries, run began, run ended)`` per micro-batch.
        self.batches: list[tuple[list, float, float]] = []

    def run(self, queries, seed=0, stats=None):
        began = time.perf_counter()
        results = self.inner.run(queries, seed=seed, stats=stats)
        self.batches.append((queries, began, time.perf_counter()))
        return results

    def close(self) -> None:
        self.inner.close()


class ServePoisson(Workload):
    """``WalkService`` over the batch engine, PPR requests on G16: bursts
    that saturate it, then an open loop at fixed Poisson rates."""

    name = "serve_poisson"
    scale = (16, 10)
    #: The service's loop thread and engine thread share the interpreter
    #: lock, so a second CPU runs nothing in parallel; it adds cross-CPU
    #: wake-ups, whose cost on a shared VM moves from run to run (p50 over
    #: ten runs spread 6 to 12% on one CPU, 20 to 24% on two).
    ONE_CPU = True
    #: A request resolved later than this after its due time misses.
    SLO_SECONDS = 0.010
    #: Requests offered per second of window: each saturating burst, and
    #: the fixed-rate phase (4000 req/s for 0.8 of the window).
    BURST_PER_SECOND = 1650
    RATE_PHASE_SHARE = 0.8
    BURSTS = (7, 3)
    SMOKE_REQUESTS = 300
    #: Requests replayed offline by the correctness check.
    REPLAY_SAMPLE = 2000

    def setup(self, spans=NO_SPANS) -> None:
        with spans.span("graph.build"):
            self.graph = weighted_rmat(self.scale[self.smoke], self.seed)
        self.spec = PPRSpec(alpha=0.15, max_length=WALK_LENGTH)
        self.candidates = np.nonzero(self.graph.degrees() > 0)[0]
        self.rng = np.random.default_rng([self.seed, 3])
        self.next_id = 1
        self.logs: list[PhaseLog] = []
        self.ledgers = []

        async def first_result():
            async with self._service(self._engine(spans)) as service:
                return await service.submit(int(self.candidates[0]), query_id=0)

        asyncio.run(first_result())

    def _engine(self, spans=NO_SPANS) -> PreparedEngine:
        with spans.span("engines.prepare"):
            return prepare_engine("batch", self.graph, self.spec)

    def _service(self, engine: PreparedEngine) -> WalkService:
        # Deep enough never to shed: an open loop keeps offering load.
        config = ServeConfig(max_batch=64, max_wait_ms=2.0, queue_depth=1 << 20)
        return WalkService(self.graph, self.spec, engine=engine, seed=self.seed, config=config)

    async def _phase(self, service: WalkService, count: int, rate: float) -> PhaseLog:
        """Offer ``count`` requests: back to back when ``rate`` is 0, else Poisson."""
        starts = self.rng.choice(self.candidates, size=count)
        offsets = poisson_due_offsets(count, rate, self.rng) if rate else np.zeros(count)
        log = await drive(service, starts, offsets, self.next_id,
                          keep_every=max(1, count // self.REPLAY_SAMPLE))
        self.next_id += count
        self.logs.append(log)
        return log

    async def _burst(self, service: WalkService, count: int) -> tuple[PhaseLog, int]:
        hops_before = service.stats.total_hops
        log = await self._phase(service, count, 0.0)
        return log, service.stats.total_hops - hops_before

    def _sizes(self, window: float, share: float = 1.0) -> tuple[int, float]:
        """Requests per burst and seconds of a fixed-rate phase."""
        if self.smoke:
            return self.SMOKE_REQUESTS, self.SMOKE_REQUESTS / RATE
        seconds = window * share
        return int(self.BURST_PER_SECOND * seconds), self.RATE_PHASE_SHARE * seconds

    def _slo_ok_frac(self, log: PhaseLog) -> float:
        # NaN (shed or failed) compares false: it misses.
        return float(np.count_nonzero(log.latency() <= self.SLO_SECONDS)) / log.offered

    def _totals(self) -> tuple[int, int]:
        return (sum(log.offered for log in self.logs),
                sum(log.dropped + log.failed for log in self.logs))

    def measure(self, window: float):
        return asyncio.run(self._measure(window))

    async def _measure(self, window: float):
        burst, rate_seconds = self._sizes(window)
        read, quiet = [], []  # hops/s of each burst: as the clock read it, and at quiet speed
        async with self._service(self._engine()) as service:
            # The probe is read while the service idles between two bursts;
            # a burst is restated at the host speed found on either side.
            self.probe.read(3)
            for _ in range(self.BURSTS[self.smoke]):
                before = len(self.probe.readings) - 3
                log, hops = await self._burst(service, burst)
                self.probe.read(3)
                read.append(hops / log.seconds())
                quiet.append(read[-1] * self.probe.slowdown(before))
            rated = await self._phase(service, int(RATE * rate_seconds), RATE)
        self.ledgers.append(service.stats)
        metrics = {
            "hops_per_s": median(quiet),
            "raw.hops_per_s": median(read),
            # More than half of this latency is the 2 ms coalescing wait and
            # timer wake-ups, which do not follow host speed: it stays as read.
            "latency_p50_ms": float(np.nanmedian(rated.latency())) * 1e3,
            "slo_ok_frac": self._slo_ok_frac(rated),
        }
        return (metrics, *self._totals())

    def trace(self, window: float, spans: Spans):
        return asyncio.run(self._trace(window, spans))

    async def _trace(self, window: float, spans: Spans):
        """An untraced 4000 req/s phase first (the overhead baseline), then
        bursts, 4000 req/s and 12000 req/s through the engine proxy."""
        burst, rate_seconds = self._sizes(window, share=0.4)
        async with self._service(self._engine()) as service:
            untraced = await self._phase(service, int(RATE * rate_seconds), RATE)
        self.ledgers.append(service.stats)
        proxy = TimedEngine(self._engine())
        bursts = []
        async with self._service(proxy) as service:
            for _ in range(self.BURSTS[True]):
                mark = len(proxy.batches)
                log, _ = await self._burst(service, burst)
                bursts.append((log, sum(ended - began for _, began, ended in proxy.batches[mark:])))
            mark = len(proxy.batches)
            r4000 = await self._phase(service, int(RATE * rate_seconds), RATE)
            batches = proxy.batches[mark:]
            r12000 = await self._phase(service, int(HIGH_RATE * rate_seconds), HIGH_RATE)
        self.ledgers.append(service.stats)

        began, ended = self._request_spans(r4000, batches, spans)
        latency = r4000.latency()
        traced = [log for log, _ in bursts] + [r4000, r12000]
        metrics = setup_layer_metrics(spans, self.graph)
        metrics.update({
            "serve.admit_us": float(np.median(r4000.admit_seconds)) * 1e6,
            "serve.overhead_us_per_req": median(
                (log.seconds() - busy) / log.offered for log, busy in bursts) * 1e6,
            "serve.engine_busy_frac": median(busy / log.seconds() for log, busy in bursts),
            "serve.queue_wait_ms": float(np.nanmedian(began - r4000.submitted)) * 1e3,
            "serve.execute_ms": median(e - b for _, b, e in batches) * 1e3,
            "serve.respond_ms": float(np.nanmedian(r4000.done - ended)) * 1e3,
            "serve.batch_size_mean": sum(len(q) for q, _, _ in batches) / len(batches),
            "serve.latency_p99_ms": float(np.nanpercentile(latency, 99)) * 1e3,
            "serve.late_p99_ms": float(np.percentile(r4000.lateness(), 99)) * 1e3,
            "serve.r4000.samples": r4000.offered,
            "serve.dropped": sum(log.dropped for log in traced),
            "serve.failed": sum(log.failed for log in traced),
            "serve.r12000.latency_p50_ms": float(np.nanmedian(r12000.latency())) * 1e3,
            "serve.r12000.slo_ok_frac": self._slo_ok_frac(r12000),
            "serve.r12000.samples": r12000.offered,
            "harness.trace_overhead_frac":
                float(np.nanmedian(latency) / np.nanmedian(untraced.latency())) - 1.0,
        })
        return (metrics, *self._totals())

    @staticmethod
    def _request_spans(log: PhaseLog, batches, spans: Spans) -> tuple[np.ndarray, np.ndarray]:
        """When each request's micro-batch began and ended on the engine;
        also files the phase's spans: one ``serve.execute`` per micro-batch
        and, per request, ``serve.request`` (due to done) over
        ``serve.queue_wait`` (submit to run) and ``serve.respond`` (run end
        to future resolved)."""
        began = np.full(log.offered, np.nan)
        ended = np.full(log.offered, np.nan)
        for index, (queries, run_began, run_ended) in enumerate(batches):
            positions = [query.query_id - log.first_id for query in queries]
            began[positions] = run_began
            ended[positions] = run_ended
            spans.add("serve.execute", index, run_began, run_ended)
        for position in np.nonzero(~np.isnan(log.done))[0].tolist():
            request = log.first_id + position
            parent = spans.add("serve.request", request, log.due[position], log.done[position])
            spans.add("serve.queue_wait", request, log.submitted[position], began[position], parent)
            spans.add("serve.respond", request, ended[position], log.done[position], parent)
        return began, ended

    def check(self) -> dict:
        """The ledgers balance, and a sample of served requests replays
        bit-identically through the offline oracle."""
        for stats in self.ledgers:
            checks.require(
                stats.offered == stats.completed + stats.dropped + stats.failed,
                f"ledger broken: offered {stats.offered} != completed {stats.completed} "
                f"+ dropped {stats.dropped} + failed {stats.failed}")
        offered, missed = self._totals()
        checks.require(sum(s.offered for s in self.ledgers) == offered,
                       "the service's ledgers and the generator disagree on requests offered")
        log = self.logs[-1]
        served = log.paths
        requests = {qid: int(log.starts[qid - log.first_id]) for qid in served}
        oracle = replay_paths(self.graph, self.spec, requests, seed=self.seed, sampler="default")
        checks.require(all(np.array_equal(served[qid], oracle[qid]) for qid in served),
                       "a served path differs from its offline replay")
        queries = make_queries(self.graph, len(served),
                               start_vertices=[requests[qid] for qid in sorted(served)])
        sample = WalkResults()
        for qid in sorted(served):
            sample.add_path(served[qid])
        checks.check_paths(self.graph, queries, sample)
        return {"paths_sha256": checks.paths_sha256(sample.paths), "replayed": len(served)}


class DynamicChurn(Workload):
    """Writes beside reads on one engine: every round applies an update
    batch, publishes a snapshot, swaps the engine onto it and walks."""

    name = "dynamic_churn"
    scale = (16, 10)
    batch_size = (600, 100)
    queries_per_call = (8192, 512)

    def setup(self, spans=NO_SPANS) -> None:
        with spans.span("graph.build"):
            self.updates = sliding_window_trace(
                self.scale[self.smoke], edge_factor=8, window_fraction=0.5,
                batch_size=self.batch_size[self.smoke], weighted=True, seed=self.seed)
            self.dynamic = self.updates.build_dynamic()
        with spans.span("sampling.prepare"):
            # Epoch 0 is the one from-scratch build of the sampler state.
            self.snapshot = self.dynamic.snapshot()
        self.spec = DeepWalkSpec(max_length=WALK_LENGTH)
        with spans.span("engines.prepare"):
            self.engine = prepare_engine("batch", self.snapshot.graph, self.spec)
        self.queries = make_queries(self.snapshot.graph, self.queries_per_call[self.smoke],
                                    seed=derive_seed(self.seed, "queries"))
        self.results = self.engine.run(self.queries, seed=self.seed)
        self.rounds = 0

    def close(self) -> None:
        self.engine.close()

    def _round(self, spans=NO_SPANS) -> tuple[float, float, int, int]:
        """One round; ``(update seconds, walk seconds, edge ops, hops)``.
        The update is apply + snapshot + swap, the three steps between an
        update batch arriving and the engine serving the new epoch."""
        index = self.rounds
        batch = self.updates.batches[index]
        self.rounds += 1
        with spans.span("dynamic.round", index):
            began = time.perf_counter()
            with spans.span("dynamic.apply", index):
                apply_batch(self.dynamic, batch)
            with spans.span("dynamic.snapshot", index):
                self.snapshot = self.dynamic.snapshot()
            with spans.span("engines.swap", index):
                self.engine.swap_snapshot(self.snapshot)
            updated = time.perf_counter()
            with spans.span("dynamic.walk", index):
                self.results = self.engine.run(self.queries, seed=self.seed)
            walked = time.perf_counter()
        return updated - began, walked - updated, batch.num_ops, self.results.total_steps

    @staticmethod
    def _round_seconds(rounds) -> float:
        return median(update + walk for update, walk, _, _ in rounds)

    def _end_to_end(self, rounds, slowdown: float) -> dict:
        return at_quiet_speed(
            slowdown,
            times={"latency_p50_ms": self._round_seconds(rounds) * 1e3},
            rates={"hops_per_s": median(hops / walk for _, walk, _, hops in rounds),
                   "updates_per_s": median(ops / update for update, _, ops, _ in rounds)})

    def _batches_left(self) -> int:
        return len(self.updates.batches) - self.rounds

    def measure(self, window: float):
        rounds = []
        _, slowdown = timed_calls(lambda _: rounds.append(self._round()), window, self.probe,
                                  self.min_calls, limit=self._batches_left())
        return self._end_to_end(rounds, slowdown), len(rounds), 0

    def trace(self, window: float, spans: Spans):
        """Traced and untraced rounds alternate, so their difference is
        what the spans cost."""
        traced, untraced = [], []

        def one_round(index: int) -> None:
            if index % 2:
                untraced.append(self._round())
            else:
                traced.append(self._round(spans))

        timed_calls(one_round, window, self.probe, SMOKE_CALLS, limit=self._batches_left())

        def layer_ms(name: str) -> list[float]:
            return [spans.seconds(i) * 1e3 for i in spans.by_name(name)]

        metrics = setup_layer_metrics(spans, self.snapshot.graph)
        metrics.update({
            "dynamic.apply_ms": median(layer_ms("dynamic.apply")),
            "dynamic.snapshot_ms": median(layer_ms("dynamic.snapshot")),
            "dynamic.snapshot_max_ms": max(layer_ms("dynamic.snapshot")),
            "engines.swap_ms": median(layer_ms("engines.swap")),
            "dynamic.walk_ms": median(layer_ms("dynamic.walk")),
            "dynamic.compactions": self.dynamic.compactions,
            "dynamic.compaction_s": self.dynamic.compaction_seconds,
            "dynamic.delta_peak": self.dynamic.delta_peak,
            "dynamic.retention": self._retention(),
            "harness.trace_overhead_frac":
                self._round_seconds(traced) / self._round_seconds(untraced) - 1.0,
        })
        return metrics, len(traced) + len(untraced), 0

    def _retention(self) -> float:
        """Walk speed on the last incrementally built snapshot over walk
        speed on a from-scratch build of the same edge set (equal inputs
        give equal paths, so the ratio of speeds is a ratio of times)."""
        static_graph, _ = fresh_static_build(self.dynamic)
        with prepare_engine("batch", static_graph, self.spec) as static_engine:
            on_static, on_snapshot = [], []
            for _ in range(3):
                for engine, seconds in ((static_engine, on_static), (self.engine, on_snapshot)):
                    started = time.perf_counter()
                    engine.run(self.queries, seed=self.seed)
                    seconds.append(time.perf_counter() - started)
        return median(on_static) / median(on_snapshot)

    def check(self) -> dict:
        static_graph, static_state = fresh_static_build(self.dynamic)
        checks.require(snapshot_matches_static(self.snapshot, static_graph, static_state),
                       "the last snapshot differs from a from-scratch build of its edge set")
        stats = EngineStats()
        results = self.engine.run(self.queries, seed=self.seed, stats=stats)
        checks.require(checks.same_paths(results.paths, self.results.paths),
                       "the same seed gave different paths on the last epoch")
        checks.check_paths(self.snapshot.graph, self.queries, results, stats)
        checks.check_determinism(self.engine, self.queries, self.seed)
        return {"paths_sha256": checks.paths_sha256(results.paths), "epoch": self.snapshot.epoch}


class SimDeepWalk(Workload):
    """The cycle-level model: host time is noisy, every simulated
    statistic repeats exactly."""

    name = "sim_deepwalk"
    scale = (12, 8)
    queries_per_call = (256, 16)
    #: Simulated cycles follow the longest walk, not the query count, so
    #: only a shorter walk makes the smoke run short.
    walk_length = (WALK_LENGTH, 4)
    PIPELINES = 4
    MIN_CALLS = 15

    def setup(self, spans=NO_SPANS) -> None:
        with spans.span("graph.build"):
            self.graph = weighted_rmat(self.scale[self.smoke], self.seed)
        self.spec = DeepWalkSpec(max_length=self.walk_length[self.smoke])
        self.queries = make_queries(self.graph, self.queries_per_call[self.smoke],
                                    seed=derive_seed(self.seed, "queries"))
        with spans.span("engines.prepare"):
            config = RidgeWalkerConfig(num_pipelines=self.PIPELINES, memory=HBM2_U55C)
            walker = RidgeWalker(self.graph, self.spec, config, seed=self.seed)
        self.first = walker.run(self.queries)
        self.repeats = 0
        self.drifted: list[tuple] = []

    @staticmethod
    def _counters(outcome) -> tuple:
        m = outcome.metrics
        return (m.total_steps, m.cycles, m.random_transactions, m.words_transferred,
                m.bubble_cycles, m.pipeline_cycles)

    def _call(self, spans=NO_SPANS, index: int = 0) -> None:
        with spans.span("sim.run", index):
            outcome = run_accelerator_walks(self.graph, self.spec, self.queries, seed=self.seed,
                                            num_pipelines=self.PIPELINES, memory=HBM2_U55C)
        self.repeats += 1
        if self._counters(outcome) != self._counters(self.first):
            self.drifted.append(self._counters(outcome))

    def measure(self, window: float):
        calls, slowdown = timed_calls(lambda _: self._call(), window, self.probe, self.min_calls)
        per_call = median(calls)
        metrics = at_quiet_speed(
            slowdown, times={"latency_p50_ms": per_call * 1e3},
            rates={"hops_per_s": self.first.metrics.total_steps / per_call})
        return metrics, len(calls), 0

    def trace(self, window: float, spans: Spans):
        traced, untraced = [], []

        def one_call(index: int) -> None:
            started = time.perf_counter()
            self._call(NO_SPANS if index % 2 else spans, index)
            (untraced if index % 2 else traced).append(time.perf_counter() - started)

        timed_calls(one_call, window, self.probe, SMOKE_CALLS)
        m = self.first.metrics
        metrics = setup_layer_metrics(spans, self.graph)
        metrics.update({
            "sim.cycles": m.cycles,
            "sim.steps": m.total_steps,
            "sim.steps_per_cycle": m.steps_per_cycle(),
            "sim.bubble_frac": m.bubble_ratio(),
            "sim.bandwidth_util": m.bandwidth_utilization(),
            "sim.random_tx": m.random_transactions,
            "sim.host_us_per_cycle": median(traced) * 1e6 / m.cycles,
            "harness.trace_overhead_frac": median(traced) / median(untraced) - 1.0,
        })
        return metrics, len(traced) + len(untraced), 0

    def check(self) -> dict:
        checks.require(not self.drifted,
                       f"simulated counters changed between repetitions: {self.drifted[:1]} "
                       f"vs {self._counters(self.first)}")
        results = self.first.results
        checks.check_paths(self.graph, self.queries, results)
        checks.require(results.total_steps == self.first.metrics.total_steps,
                       "the paths and RunMetrics.total_steps disagree")
        return {"paths_sha256": checks.paths_sha256(results.paths), "repetitions": self.repeats}


WORKLOADS = {cls.name: cls for cls in
             (DeepWalkBatch, Node2VecBatch, ServePoisson, DynamicChurn, SimDeepWalk)}
