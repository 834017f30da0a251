"""The cycle model walks the ``batch`` engine's walks, exactly.

Every task carries its query's own stream (``SeedSequence((seed,
query_id))``, splitmix64) and the samplers draw what the batch kernels
draw, in the same order, so which pipeline serves a hop, and when, cannot
change the walk: the paper's claim that a walk split into stateless tasks
gives the same walk in any order (§III-C).  Each cell runs one of the
CLI's six algorithms under one machine variant — the scheduling and
ablation switches, 1 and 8 pipelines, the shallowest buffers and an
idealised memory — on a shuffled batch of non-contiguous ids, and holds
the sim's paths to ``batch``'s, walk by walk and index by index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.engines import prepare_engine
from repro.graph import load_dataset
from repro.graph.datasets import assign_metapath_schema
from repro.memory.spec import HBM2_U55C, MemorySpec
from repro.walks import (
    DeepWalkSpec,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    Query,
    URWSpec,
    make_queries,
)

SEED = 31
LENGTH = 12
QUERIES = 96

#: CLI algorithm -> (weighted graph, spec).
ALGORITHMS = {
    "URW": (False, URWSpec(max_length=LENGTH)),
    "PPR": (False, PPRSpec(alpha=0.15, max_length=LENGTH)),
    "DeepWalk": (True, DeepWalkSpec(max_length=LENGTH)),
    "Node2Vec": (False, Node2VecSpec(p=2.0, q=0.5, max_length=LENGTH)),
    "Node2Vec-reservoir": (True, Node2VecSpec(p=2.0, q=0.5, strategy="reservoir",
                                              max_length=LENGTH)),
    "MetaPath": (True, MetaPathSpec(pattern=[0, 1, 2], max_length=LENGTH)),
}

#: A memory that answers fast and never runs out of transactions.
IDEAL = MemorySpec("ideal", num_channels=32, random_tx_rate_mhz=1000.0,
                   sequential_gbs=1000.0, round_trip_cycles=10, max_outstanding=128)

#: Machine variant -> ``RidgeWalkerConfig`` overrides (4 pipelines on
#: ``HBM2_U55C`` unless overridden).
VARIANTS = {
    "default": {},
    "static": {"dynamic_scheduling": False},
    "bulk_synchronous": {"dynamic_scheduling": False, "bulk_synchronous": True},
    "sync_memory": {"async_memory": False},
    "one_pipeline": {"num_pipelines": 1},
    "eight_pipelines": {"num_pipelines": 8},
    "fifo_depth_1": {"pipeline_fifo_depth": 1},
    "recirculation_2": {"recirculation_depth": 2},
    "outstanding_1": {"engine_outstanding": 1},
    "ideal_memory": {"memory": IDEAL},
}


def graph_for(algorithm: str):
    weighted, _ = ALGORITHMS[algorithm]
    graph = load_dataset("WG", scale=0.05, seed=1, weighted=weighted)
    if algorithm == "MetaPath":
        graph = assign_metapath_schema(graph, num_types=3, seed=1)
    return graph


def shuffled_queries(graph) -> list[Query]:
    """A batch in no id order, with gaps, none of it starting at 0."""
    starts = make_queries(graph, QUERIES, seed=SEED).starts.tolist()
    ids = (np.random.default_rng(SEED).permutation(QUERIES) * 3 + 5).tolist()
    return [Query(i, s) for i, s in zip(ids, starts)]


@pytest.fixture(scope="module")
def batch_walks():
    """Per algorithm: its graph, its queries and ``batch``'s paths."""
    walks = {}
    for algorithm, (_, spec) in ALGORITHMS.items():
        graph = graph_for(algorithm)
        queries = shuffled_queries(graph)
        with prepare_engine("batch", graph, spec) as engine:
            paths = [path.tolist() for path in engine.run(queries, seed=SEED).paths]
        walks[algorithm] = graph, queries, paths
    return walks


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_sim_walks_the_batch_engines_paths(batch_walks, algorithm, variant):
    graph, queries, expected = batch_walks[algorithm]
    config = RidgeWalkerConfig(**{"num_pipelines": 4, "memory": HBM2_U55C,
                                  **VARIANTS[variant]})
    run = RidgeWalker(graph, ALGORITHMS[algorithm][1], config, seed=SEED).run(queries)
    paths = [path.tolist() for path in run.results.paths]
    assert len(paths) == len(expected)
    for k, (query, path, want) in enumerate(zip(queries, paths, expected)):
        assert path == want, f"query {query.query_id} (batch index {k})"
    assert run.metrics.total_steps == sum(len(path) - 1 for path in expected)

