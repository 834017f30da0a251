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
    "suite_rmat12": (13953, 18216, 28049, 84290, 46474, 72864, 0,
                     "fa44801aa42f2441a3450ba6690ae1fd322c9e811e731942b62cca7499235dc3",
                     "9408bbffd3bd381a9953f6c423d7cfe1e6072e18ae26951c90aa1c1c40538cf8"),
    "deepwalk": (483, 3623, 969, 2910, 13579, 14492, 0,
                 "dbc4cbe46dd6c9e3d23391dec31a4439cc0d93bdfed12416a198981311e81f72",
                 "c29f091cc53ba621e80cdbf69ad6281123df0a93514c2da0f33b7b7b9a9a58c3"),
    "static": (483, 3416, 969, 2910, 12816, 13664, 0,
               "dbc4cbe46dd6c9e3d23391dec31a4439cc0d93bdfed12416a198981311e81f72",
               "af5c2d9c830989f309d9a93f17d4af9087933f2a07367687c8ea10ac1dca0807"),
    "bulk_synchronous": (147, 3394, 962, 962, 12791, 13576, 334,
                         "c61429e06380f1bf90cda44f715fad787f657b7043f4e51044d3a566f72b152c",
                         "55c8ca6fae79e77589e7049677b018505f5fa53363d7d9fe953c90adde6055a1"),
    "sync_memory": (483, 3709, 969, 2910, 13921, 14836, 0,
                    "dbc4cbe46dd6c9e3d23391dec31a4439cc0d93bdfed12416a198981311e81f72",
                    "e637270c64829964daa973c1f32f9f14a5d6ced1c1056ef6adc0c45b4978841f"),
    "one_pipeline": (483, 3489, 969, 2910, 2517, 3489, 0,
                     "dbc4cbe46dd6c9e3d23391dec31a4439cc0d93bdfed12416a198981311e81f72",
                     "19f44eb33698322ad24358c54c8777198f96a630b30edd7c4f245763f98e60fb"),
    "eight_pipelines": (483, 3722, 969, 2910, 28817, 29776, 0,
                        "dbc4cbe46dd6c9e3d23391dec31a4439cc0d93bdfed12416a198981311e81f72",
                        "6aaf0dd6adf9c78a52523a58d7495987ae218e109cfc9fa3a9788469da006223"),
    "node2vec_rejection": (469, 3988, 946, 25156, 11852, 15952, 0,
                           "a7f3900befacfe35e9c5643644409e1ca7af6c5c1e18e18c898e95876665a376",
                           "c2555f42b850c3e1e439d0395b779df49463916c002ac80adc9ef97d6be56c60"),
    "node2vec_reservoir": (469, 3752, 943, 14603, 12717, 15008, 0,
                           "ee99d79af26edd0780486b0f6160e12652aa04ce03a6a72936537e0f6c16a74f",
                           "1167850e6bbc061130f9eb806c23783337271f19ed57b8ccd773a741d807905f"),
    "ppr": (179, 3606, 358, 358, 14082, 14424, 0,
            "938b126e2c7457cb951a119cb1d5c53a7d4f38759069948deca3e356d9555422",
            "0411999c4ee7b261bebf6d3b0aa9df34da9c78ae6f1a658e0afb82a59985ad02"),
    "metapath": (281, 3723, 582, 9151, 13441, 14892, 0,
                 "f3bbc8121fd9875744a2150f518cacde94394a1536c3292c46baf025fe9da3a9",
                 "941e8d507e046ec6e4fc2698fb10bc6f48abc755fb4956bb69a67f007ad022e0"),
}

#: (total_steps, cycles, random_transactions, words_transferred,
#:  bubble_cycles, pipeline_cycles, sha256 of every tracer window)
STREAMING_GOLDEN = (4469, 3000, 9071, 26938, 3935, 12000,
                    "07baad7b4c79fc907543f7b6fa8392e5c5e1bf05906d88638b460b63708101a0")


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
