"""Cycle-exact golden of the per-module accelerator model.

Every simulated counter of a run is a pure function of (graph, spec,
queries, config, seed).  This file pins them: the six ``RunMetrics``
counters, ``extra["ghost_laps"]``, the sha256 of the paths and a sha256
of every module's, FIFO's and memory channel's own statistics, for the
benchmark suite's ``sim_deepwalk`` shape and for small RMAT-8 shapes that
reach every branch of the FIFO flags, the memory channels and the return
network (static binding, bulk-synchronous ghost laps, the synchronous
access engine, 1 and 8 pipelines, multi-cycle
rejection sampling with long bursts, reservoir scans, the reservoir's
edge-type filter, probabilistic termination), plus one streaming run's
tracer windows.

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
from repro.graph.datasets import assign_metapath_schema, thunderrw_weights
from repro.memory.spec import HBM2_U55C
from repro.sampling.base import derive_seed
from repro.sim.trace import UtilizationTracer
from repro.walks import DeepWalkSpec, MetaPathSpec, Node2VecSpec, PPRSpec, make_queries

SMALL_SCALE = 8
SMALL_QUERIES = 32
SMALL_LENGTH = 16


def graph_of(scale: int, weighted: bool | str, seed: int = 1):
    """``weighted="typed"`` also attaches a three-type MetaPath schema."""
    graph = rmat(scale, edge_factor=16, seed=seed)
    if not weighted:
        return graph
    graph = graph.with_weights(thunderrw_weights(graph, seed))
    return assign_metapath_schema(graph, num_types=3, seed=seed) if weighted == "typed" else graph


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
    "metapath": (SMALL_SCALE, "typed",
                 lambda: MetaPathSpec(pattern=[0, 1, 2], max_length=SMALL_LENGTH),
                 SMALL_QUERIES, {}),
}

#: (total_steps, cycles, random_transactions, words_transferred,
#:  bubble_cycles, pipeline_cycles, ghost_laps, paths sha256,
#:  sha256 of every module's, FIFO's and channel's counters)
GOLDEN = {
    "suite_rmat12": (13225, 18207, 26604, 79966, 47625, 72828, 0,
                     "39d3bd9c25d1024d0c422a965222271288513b603ef82827ea6c22d9c6a1ddcf",
                     "10082a23a4a20f901b5278f72cf57ec3485f7d79262dbbcae4f6aab03292bb00"),
    "deepwalk": (449, 3623, 905, 2722, 13633, 14492, 0,
                 "915b98033424f2877b1c6f49a9e0d3c5c387239c4936ee89e8116e5c08fc2658",
                 "40ef14edc10cfb6aa9ed12a21eff87f042cdbbe04544559c251a98632bf2e81d"),
    "static": (449, 3416, 905, 2722, 12853, 13664, 0,
               "915b98033424f2877b1c6f49a9e0d3c5c387239c4936ee89e8116e5c08fc2658",
               "6f05bc4c78a5dc975684c1434ad34122bcfdb42720e55202b6118e8a509b9b04"),
    "bulk_synchronous": (127, 3299, 961, 961, 12375, 13196, 353,
                         "628ede35603745573c22abe63c76cc7f90ea4f0bd88e34c80fc63d12fd509c1a",
                         "f657bb60568e18796740d682d3cb1ea2b80bab7128193bd59a26b6077a460842"),
    "sync_memory": (449, 3709, 905, 2722, 13973, 14836, 0,
                    "915b98033424f2877b1c6f49a9e0d3c5c387239c4936ee89e8116e5c08fc2658",
                    "bc4738a390d0497034c34ca1276eebc5d18907e6a562a44610cc0ceaaa3c78e7"),
    "one_pipeline": (449, 3489, 905, 2722, 2577, 3489, 0,
                     "915b98033424f2877b1c6f49a9e0d3c5c387239c4936ee89e8116e5c08fc2658",
                     "60b4a0a8d597ce281090beaab1e38d8e1e12cd70abaca09997069859ed99cc8c"),
    "eight_pipelines": (449, 3722, 905, 2722, 28883, 29776, 0,
                        "915b98033424f2877b1c6f49a9e0d3c5c387239c4936ee89e8116e5c08fc2658",
                        "a5b4f3fb71b1791d82cbc29d619017369eae884376129b6836af67198bcc3a39"),
    "node2vec_rejection": (509, 3891, 1020, 26860, 11535, 15564, 0,
                           "c4c86e1e47a52a0af7ab45d3c6b0f56a83346861d849a8a7911b3f1b95666f76",
                           "6ad804cb12f883d68337ee04e0ec6542bbf14ae53b6f653cd9852cd14953f830"),
    "node2vec_reservoir": (473, 3742, 953, 13997, 12760, 14968, 0,
                           "43d9d9832cb9cbe4bce953ad3a2cb1f23be17e02e71d728fafe4a538c594d9ef",
                           "12393ad65969201ee493657556091de16eb72f823cc7381a2db63ced30980066"),
    "ppr": (152, 3156, 307, 307, 12323, 12624, 0,
            "37fb0a94a2b66ae56fe9eb67d424d307c53becf29f61439ad2ff94aeb9fbafad",
            "0f584f5945a39aa40c8dee076882748d454655834470d3f5c277f41b49dcfa96"),
    "metapath": (290, 3740, 600, 10033, 13396, 14960, 0,
                 "c30ad3eaaf8e47347538ff3cef165e435e5d4cb392dea8dba5de845395c2a60d",
                 "a661b68ce02e3381542762b517f5d5b3440606f63ebb40a0a08af89c586d9242"),
}

#: (total_steps, cycles, random_transactions, words_transferred,
#:  bubble_cycles, pipeline_cycles, sha256 of every tracer window)
STREAMING_GOLDEN = (4453, 3000, 9084, 26902, 3957, 12000,
                    "c26aa57b203969499b8438abd34f6c21cf088046a41e945d2f21951a7a427c32")


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


def test_the_sampling_modules_tick_order_moves_nothing():
    """A draw reads its task's own stream, not a generator shared by the
    modules, so ticking the sampling modules in reverse changes no
    counter, path or module statistic."""
    scale, weighted, make_spec, num_queries, _ = CASES["node2vec_rejection"]
    graph = graph_of(scale, weighted)
    queries = make_queries(graph, num_queries, seed=derive_seed(1, "queries"))
    config = RidgeWalkerConfig(num_pipelines=4, memory=HBM2_U55C)
    machine = _Machine(graph, make_spec(), config, 1, queries)
    ticks = machine.kernel._ticks
    sampling = [pipeline.sampling.tick for pipeline in machine.pipelines]
    slots = [ticks.index(tick) for tick in sampling]
    for slot, tick in zip(slots, reversed(sampling)):
        ticks[slot] = tick
    run = machine.execute()
    m = run.metrics
    assert (m.total_steps, m.cycles, m.random_transactions, m.words_transferred,
            m.bubble_cycles, m.pipeline_cycles, m.extra["ghost_laps"],
            paths_sha256(run.results.paths), machine_sha256(machine)) == GOLDEN["node2vec_rejection"]


def test_the_small_shapes_reach_the_branches_they_stand_for():
    """Guards the golden's coverage, not the model: ghost laps happen
    only in the bulk-synchronous case, the Node2Vec cases burst many
    words per transaction, PPR walks end before their length, and most
    MetaPath walks end at the type filter (short, at a vertex that has
    neighbours, none of the admissible type)."""
    ghosts = {name: GOLDEN[name][6] for name in CASES}
    assert [name for name, laps in ghosts.items() if laps] == ["bulk_synchronous"]
    for name in ("node2vec_rejection", "node2vec_reservoir"):
        transactions, words = GOLDEN[name][2:4]
        assert words > 10 * transactions
    assert GOLDEN["ppr"][0] < SMALL_QUERIES * SMALL_LENGTH / 2
    scale, weighted, make_spec, num_queries, _ = CASES["metapath"]
    graph = graph_of(scale, weighted)
    queries = make_queries(graph, num_queries, seed=derive_seed(1, "queries"))
    config = RidgeWalkerConfig(num_pipelines=4, memory=HBM2_U55C)
    paths = RidgeWalker(graph, make_spec(), config, seed=1).run(queries).results.paths
    filtered = [p for p in paths if p.size <= SMALL_LENGTH and graph.degree(int(p[-1]))]
    assert len(filtered) > num_queries / 2


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {case!r}: {run_case(case)!r},")
    print("}")
    print(f"STREAMING_GOLDEN = {run_streaming()!r}")
