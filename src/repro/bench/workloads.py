"""Shared workload construction for the experiment harness.

Centralizes the evaluation methodology of Section VIII-A4: query length
80, Node2Vec ``p=2, q=0.5``, ThunderRW-style edge weights for weighted
GRWs, queries issued as a continuous stream with throughput measured
over a steady-state window.

How large a run is — graph scale, streaming window and traced queries —
is one :class:`BenchSize` value that every experiment takes;
``repro experiment ID`` runs the default, full size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.graph import load_dataset, rmat
from repro.graph.csr import CSRGraph
from repro.graph.datasets import assign_metapath_schema
from repro.graph.generators import BALANCED_INITIATOR, GRAPH500_INITIATOR
from repro.memory.spec import MemorySpec
from repro.sampling.base import derive_seed
from repro.sim.stats import RunMetrics
from repro.walks import (
    DeepWalkSpec,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    URWSpec,
    WalkSpec,
    make_queries,
)

#: Paper walk length (Section VIII-A4).
WALK_LENGTH = 80


@dataclass(frozen=True)
class BenchSize:
    """How large an experiment runs; the defaults are the full size.

    ``graph_scale`` scales the dataset stand-ins (and FastRW's on-chip
    cache with them); ``num_queries`` queries are traced per run, and
    the simulator streams them endlessly, measuring ``measure_cycles``
    after ``warmup_cycles``.
    """

    graph_scale: float = 1.0
    warmup_cycles: int = 4000
    measure_cycles: int = 12000
    num_queries: int = 512


@dataclass(frozen=True)
class Workload:
    """One (graph, walk spec) evaluation point."""

    graph: CSRGraph
    spec: WalkSpec
    label: str


def make_spec(algorithm: str) -> WalkSpec:
    """Build a walk spec with the paper's parameters."""
    if algorithm == "URW":
        return URWSpec(max_length=WALK_LENGTH)
    if algorithm == "PPR":
        return PPRSpec(alpha=0.15, max_length=WALK_LENGTH)
    if algorithm == "DeepWalk":
        return DeepWalkSpec(max_length=WALK_LENGTH)
    if algorithm == "Node2Vec":
        return Node2VecSpec(p=2.0, q=0.5, strategy="rejection", max_length=WALK_LENGTH)
    if algorithm == "Node2Vec-reservoir":
        return Node2VecSpec(p=2.0, q=0.5, strategy="reservoir", max_length=WALK_LENGTH)
    if algorithm == "MetaPath":
        return MetaPathSpec(pattern=[0, 1, 2], max_length=WALK_LENGTH)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def make_workload(
    dataset: str, algorithm: str, size: BenchSize, seed: int = 1
) -> Workload:
    """Dataset stand-in at ``size.graph_scale`` + spec, with weights/types
    where the algorithm needs them (weighted DeepWalk/Node2Vec-reservoir/
    MetaPath)."""
    weighted = algorithm in ("DeepWalk", "Node2Vec-reservoir", "MetaPath")
    graph = load_dataset(dataset, scale=size.graph_scale, seed=seed, weighted=weighted)
    if algorithm == "MetaPath":
        graph = assign_metapath_schema(graph, num_types=3, seed=seed)
    return Workload(graph=graph, spec=make_spec(algorithm), label=f"{algorithm}/{dataset}")


def compensated_graph500_initiator(paper_scale: int, sim_scale: int) -> tuple:
    """Graph500 initiator adjusted for a reduced recursion depth.

    RMAT skew compounds once per recursion level: the tail of the degree
    distribution is governed by ratios like ``(a/d)**scale``.  Simulating
    SC24 at scale 14 with the nominal ``(0.57, 0.19, 0.19, 0.05)`` would
    *under*-produce the skew (and the dangling-vertex fraction) the paper
    measured.  Raising the per-level ratios to ``r**(paper/sim)`` keeps
    the end-to-end tail ratios — and therefore the walk-length divergence
    Figure 10 is about — at their full-scale values.
    """
    a, b, _c, d = GRAPH500_INITIATOR
    k = paper_scale / sim_scale
    r_ab = (a / b) ** k
    r_ad = (a / d) ** k
    a_new = 1.0 / (1.0 + 2.0 / r_ab + 1.0 / r_ad)
    return (a_new, a_new / r_ab, a_new / r_ab, a_new / r_ad)


def make_rmat_workload(
    scale: int, edge_factor: int, initiator: str, seed: int = 1
) -> Workload:
    """Figure 10 RMAT point.  Paper scales (16/24) map to simulated
    scales (12/14) — the label keeps the paper's name, and the Graph500
    initiator is scale-compensated (see above)."""
    sim_scale = {16: 12, 24: 14}.get(scale, scale)
    if initiator == "balanced":
        probs = BALANCED_INITIATOR
    else:
        probs = compensated_graph500_initiator(scale, sim_scale)
    graph = rmat(
        scale=sim_scale,
        edge_factor=edge_factor,
        initiator=probs,
        seed=seed,
        directed=True,
        name=f"SC{scale}-{edge_factor}-{initiator}",
    )
    graph = graph.with_weights(_unit_jitter_weights(graph, seed))
    return Workload(
        graph=graph,
        spec=make_spec("DeepWalk"),
        label=f"SC{scale}-{edge_factor}/{initiator}",
    )


def _unit_jitter_weights(graph: CSRGraph, seed: int):
    from repro.graph.datasets import thunderrw_weights

    return thunderrw_weights(graph, seed=seed)


def run_ridgewalker_streaming(
    workload: Workload,
    memory: MemorySpec,
    num_pipelines: int,
    size: BenchSize,
    seed: int = 1,
    **config_overrides,
) -> RunMetrics:
    """Steady-state RidgeWalker throughput for one workload, over
    ``size``'s queries and streaming window."""
    config = RidgeWalkerConfig(
        num_pipelines=num_pipelines, memory=memory, **config_overrides
    )
    queries = make_queries(workload.graph, size.num_queries,
                           seed=derive_seed(seed, "queries"))
    engine = RidgeWalker(workload.graph, workload.spec, config, seed=seed)
    return engine.run_streaming(
        queries, warmup_cycles=size.warmup_cycles, measure_cycles=size.measure_cycles
    )
