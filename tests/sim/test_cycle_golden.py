"""Cycle-exact golden of the per-module accelerator model.

Every simulated counter of a run is a pure function of (graph, spec,
queries, config, seed).  This file pins them: the six ``RunMetrics``
counters, ``extra["ghost_laps"]``, the sha256 of the paths and a sha256
of every module's, FIFO's and memory channel's own statistics, for the
benchmark suite's ``sim_deepwalk`` shape and for small RMAT-8 shapes that
reach every branch of the FIFO flags, the memory channels and the return
network (static binding, bulk-synchronous ghost laps, the synchronous
access engine, the flat balancer, 1 and 8 pipelines, multi-cycle
rejection sampling with long bursts, reservoir scans, probabilistic
termination), plus one streaming run's tracer windows.

A change to how the model is *computed* must leave every value here
unedited.  Regenerate only for an intended change to what it simulates::

    PYTHONPATH=src python tests/sim/test_cycle_golden.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.core.accelerator import _Machine
from repro.graph import rmat
from repro.graph.datasets import thunderrw_weights
from repro.memory.spec import HBM2_U55C
from repro.sampling.base import derive_seed
from repro.sim.trace import UtilizationTracer
from repro.walks import DeepWalkSpec, Node2VecSpec, PPRSpec, make_queries

SMALL_SCALE = 8
SMALL_QUERIES = 32
SMALL_LENGTH = 16


def graph_of(scale: int, weighted: bool, seed: int = 1):
    graph = rmat(scale, edge_factor=16, seed=seed)
    return graph.with_weights(thunderrw_weights(graph, seed)) if weighted else graph


def paths_sha256(paths) -> str:
    """The suite's digest: int64 lengths, then every path's int64 ids."""
    lengths = np.array([p.size for p in paths], dtype=np.int64)
    digest = hashlib.sha256(lengths.tobytes())
    digest.update(np.concatenate(paths).astype(np.int64).tobytes())
    return digest.hexdigest()


#: name -> (graph scale, weighted, spec, queries, config overrides).
#: Every case runs on ``HBM2_U55C`` at seed 1.
CASES = {
    "suite_rmat12": (12, True, lambda: DeepWalkSpec(max_length=80), 256, {}),
    "deepwalk": (SMALL_SCALE, True, lambda: DeepWalkSpec(max_length=SMALL_LENGTH),
                 SMALL_QUERIES, {}),
    "static": (SMALL_SCALE, True, lambda: DeepWalkSpec(max_length=SMALL_LENGTH),
               SMALL_QUERIES, {"dynamic_scheduling": False}),
    "bulk_synchronous": (SMALL_SCALE, False, lambda: PPRSpec(alpha=0.2, max_length=SMALL_LENGTH),
                         SMALL_QUERIES,
                         {"dynamic_scheduling": False, "bulk_synchronous": True}),
    "sync_memory": (SMALL_SCALE, True, lambda: DeepWalkSpec(max_length=SMALL_LENGTH),
                    SMALL_QUERIES, {"async_memory": False}),
    "flat": (SMALL_SCALE, True, lambda: DeepWalkSpec(max_length=SMALL_LENGTH),
             SMALL_QUERIES, {"scheduler_detail": "flat"}),
    "one_pipeline": (SMALL_SCALE, True, lambda: DeepWalkSpec(max_length=SMALL_LENGTH),
                     SMALL_QUERIES, {"num_pipelines": 1}),
    "eight_pipelines": (SMALL_SCALE, True, lambda: DeepWalkSpec(max_length=SMALL_LENGTH),
                        SMALL_QUERIES, {"num_pipelines": 8}),
    "node2vec_rejection": (SMALL_SCALE, False,
                           lambda: Node2VecSpec(p=0.25, q=4.0, max_length=SMALL_LENGTH),
                           SMALL_QUERIES, {}),
    "node2vec_reservoir": (SMALL_SCALE, True,
                           lambda: Node2VecSpec(strategy="reservoir", max_length=SMALL_LENGTH),
                           SMALL_QUERIES, {}),
    "ppr": (SMALL_SCALE, False, lambda: PPRSpec(alpha=0.15, max_length=SMALL_LENGTH),
            SMALL_QUERIES, {}),
}

#: (total_steps, cycles, random_transactions, words_transferred,
#:  bubble_cycles, pipeline_cycles, ghost_laps, paths sha256,
#:  sha256 of every module's, FIFO's and channel's counters)
GOLDEN = {
    "suite_rmat12": (13917, 18224, 27980, 84086, 46461, 72896, 0,
                     "c2b0fc0795a935c005793a0ceee70fdd0c896f322760094dea0df7e978e09bbe",
                     "2d5540e044f12455fa324885f3d7ecd3f86b1d56d37ee974665bb189b6272a1d"),
    "deepwalk": (488, 3623, 981, 2948, 13560, 14492, 0,
                 "20d97105430aa6ac9af6042c4cf0e734c6cad6fb73cee3a55b63e9b34ac708a3",
                 "5516d6faf1ae4928ff679ad1fa720b48c2f9d96446a747e1c6904c196eccc6aa"),
    "static": (495, 3421, 993, 2982, 12788, 13684, 0,
               "22779efd032a8b95ff8192303cc6c3d1c6dab4e45801ce232ceea42ccdb8a549",
               "6b6c3959f9dd8ae5d3328ac68f08b19bdd341e743e5c78f58bdd87df0f83d3e7"),
    "bulk_synchronous": (139, 3406, 964, 964, 12797, 13624, 343,
                         "a7844abb9c105fc77958e1f68a08748c9651eddd969963382fed8e9e3d388e58",
                         "a3ac959b2e6f0f8c2ed6f13cfa217242a6324fc4a58d016e714ca0f5f0b6018e"),
    "sync_memory": (488, 3709, 981, 2948, 13899, 14836, 0,
                    "20d97105430aa6ac9af6042c4cf0e734c6cad6fb73cee3a55b63e9b34ac708a3",
                    "ee9392c0f08ff2a25f071a80e9833b730532558f60646bbdb8c269099568104e"),
    "flat": (498, 3546, 998, 2996, 13340, 14184, 0,
             "d994eb5b4e70a7af970ee95a22fa8bdb660d25c584593d1ef3cf1b668e4ab9fb",
             "a0081104780718abe4d7eab62f22da92ab6e48779266a72c23ec17ab950d37f6"),
    "one_pipeline": (482, 3489, 969, 2912, 2515, 3489, 0,
                     "fde5b4bf9e861aa8e752d55077d7846ce4bfbbcd15adaf90121827901386b45f",
                     "ad4d42e49fd84db36450977613bcf29f6adc038923327102100f44223930c8f2"),
    "eight_pipelines": (474, 3722, 952, 2860, 28833, 29776, 0,
                        "15401d23ba5a2b4217883710f8d8436cda60ce0e3be2cfab8062ae7e0f7d1ad3",
                        "a5c6aa3b53582cfe4a54c69b4f18e37d243dc5881549e9ab717da489f828cb2b"),
    "node2vec_rejection": (487, 3905, 976, 25417, 11748, 15620, 0,
                           "c5558af38472655073db87a389ba48d9f77b43c8ecce13699672f7c382c24ff2",
                           "4779818347457e16406ac9ed8efa3e4343579f950a893301a8242bd5a391b16f"),
    "node2vec_reservoir": (506, 3759, 1014, 15521, 12607, 15036, 0,
                           "628d1ffecab7aaaa2cdbf975d4cc927d8f84955bae800bfb89af5dca9aad897b",
                           "a4800500e91aef66d81f3354e3c5d3b831bc9ac7884e857b7a6bb1894d0ddef5"),
    "ppr": (157, 3618, 314, 314, 14174, 14472, 0,
            "1191c8c98af88eaf7afd06c84c2114ea70f2fbae05a0121c2b8c97f93fc78ba9",
            "62571949cef066a63b227e9a5bbd33949e896d69581553db0da3f2cada306682"),
}

#: (total_steps, cycles, random_transactions, words_transferred,
#:  bubble_cycles, pipeline_cycles, sha256 of every tracer window)
STREAMING_GOLDEN = (4457, 3000, 9078, 26912, 3981, 12000,
                    "853575a4fa86e2bdf45aeb5c724b68c022b65ca6be72ac006acb6d29accf52da")


def machine_sha256(machine: _Machine) -> str:
    """Every module's, FIFO's and channel's own counters, in wiring order."""
    digest = hashlib.sha256()
    for module in machine.kernel.modules:
        s = module.stats
        row = (module.name, s.active_cycles, s.starved_cycles, s.blocked_cycles,
               s.items_processed)
        digest.update(repr(row).encode())
    for fifo in machine.kernel.fifos:
        row = (fifo.name, fifo.total_pushed, fifo.total_popped, fifo.peak_occupancy)
        digest.update(repr(row).encode())
    for channel in machine.memory.all_channels():
        digest.update(repr(sorted(vars(channel.stats).items())).encode())
    return digest.hexdigest()


def run_case(name: str) -> tuple:
    scale, weighted, make_spec, num_queries, overrides = CASES[name]
    graph = graph_of(scale, weighted)
    queries = make_queries(graph, num_queries, seed=derive_seed(1, "queries"))
    config = RidgeWalkerConfig(**{"num_pipelines": 4, "memory": HBM2_U55C, **overrides})
    machine = _Machine(graph, make_spec(), config, 1, queries)
    run = machine.execute()
    m = run.metrics
    return (m.total_steps, m.cycles, m.random_transactions, m.words_transferred,
            m.bubble_cycles, m.pipeline_cycles, m.extra["ghost_laps"],
            paths_sha256(run.results.paths), machine_sha256(machine))


def run_streaming() -> tuple:
    graph = graph_of(SMALL_SCALE, True)
    queries = make_queries(graph, SMALL_QUERIES, seed=derive_seed(1, "queries"))
    config = RidgeWalkerConfig(num_pipelines=4, memory=HBM2_U55C)
    tracer = UtilizationTracer(window=64)
    m = RidgeWalker(graph, DeepWalkSpec(max_length=SMALL_LENGTH), config, seed=1).run_streaming(
        queries, warmup_cycles=500, measure_cycles=3000, tracer=tracer)
    windows = hashlib.sha256()
    for series in tracer.all_series():
        windows.update(f"{series.name}:{series.values!r};".encode())
    return (m.total_steps, m.cycles, m.random_transactions, m.words_transferred,
            m.bubble_cycles, m.pipeline_cycles, windows.hexdigest())


@pytest.mark.parametrize("name", list(CASES))
def test_run_counters_and_paths_are_pinned(name):
    assert run_case(name) == GOLDEN[name]


def test_streaming_counters_and_tracer_windows_are_pinned():
    assert run_streaming() == STREAMING_GOLDEN


def test_the_small_shapes_reach_the_branches_they_stand_for():
    """Guards the golden's coverage, not the model: ghost laps happen
    only in the bulk-synchronous case, the Node2Vec cases burst many
    words per transaction, and PPR walks end before their length."""
    ghosts = {name: GOLDEN[name][6] for name in CASES}
    assert [name for name, laps in ghosts.items() if laps] == ["bulk_synchronous"]
    for name in ("node2vec_rejection", "node2vec_reservoir"):
        transactions, words = GOLDEN[name][2:4]
        assert words > 10 * transactions
    assert GOLDEN["ppr"][0] < SMALL_QUERIES * SMALL_LENGTH / 2


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {case!r}: {run_case(case)!r},")
    print("}")
    print(f"STREAMING_GOLDEN = {run_streaming()!r}")
