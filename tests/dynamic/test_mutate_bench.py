"""The mutate-bench harness itself: report integrity on a tiny trace.

``run_mutate_bench`` is the measurement path behind ``repro
mutate-bench`` and the CI dynamic smoke; a bug here (mis-foldeed
counters, a broken equivalence check) would silently invalidate the
benchmark gate, so the harness gets direct test coverage on a trace
small enough for the tier-1 suite.
"""

import numpy as np
import pytest

from repro.bench.workloads import make_spec
from repro.dynamic import SamplerState, make_trace, run_mutate_bench
from repro.dynamic.bench import (
    fresh_static_build,
    rebuild_from_edge_set,
    snapshot_matches_static,
)


@pytest.fixture(scope="module")
def report():
    trace = make_trace("window", 7, edge_factor=6, batch_size=80,
                       num_batches=4, seed=2, weighted=True)
    spec = make_spec("DeepWalk")
    spec.max_length = 16
    return trace, run_mutate_bench(trace, spec, seed=2, walk_queries=64,
                                   full_rebuild_samples=2)


def test_report_accounts_for_the_whole_trace(report):
    trace, result = report
    assert result.num_batches == len(trace.batches)
    assert result.ops_applied == trace.total_ops
    assert result.final_epoch >= 1
    assert result.full_rebuild_samples == 2
    assert result.updates_per_second > 0
    assert result.dynamic_hops_per_second > 0
    assert result.walk_retention > 0


def test_snapshot_equivalence_holds_and_detects_divergence(report):
    trace, result = report
    assert result.snapshot_equivalent
    # The checker must actually be able to say "no": perturb one prepared
    # array of a fresh build and require a mismatch.
    dynamic = trace.build_dynamic()
    snapshot = dynamic.snapshot()
    graph, state = fresh_static_build(dynamic)
    assert snapshot_matches_static(snapshot, graph, state)
    # A full build holds every member; the comparison asks the snapshot
    # for each of them in turn.
    doctored = state.its_cdf.copy()
    doctored[0] += 1.0
    tampered = SamplerState(graph, {**state.held, "its_cdf": doctored})
    assert not snapshot_matches_static(snapshot, graph, tampered)


def test_strategy_divergence_fails_equivalence(report):
    """The strategy map is part of the bit-identity contract."""
    trace, _ = report
    dynamic = trace.build_dynamic()
    snapshot = dynamic.snapshot()
    graph, state = fresh_static_build(dynamic)
    flipped = np.array(state.strategy)
    flipped[0, 0] = (flipped[0, 0] + 1) % 3
    tampered = SamplerState(graph, {**state.held, "strategy": flipped})
    assert not snapshot_matches_static(snapshot, graph, tampered)


def test_rebuild_baseline_matches_logical_edges(report):
    trace, _ = report
    dynamic = trace.build_dynamic()
    edges, weights = dynamic.logical_edges()
    graph, state = rebuild_from_edge_set(edges, weights, dynamic.num_vertices,
                                         dynamic.name)
    assert graph.num_edges == dynamic.num_edges
    assert state.num_slots == graph.num_edges


def test_summary_renders(report):
    _, result = report
    text = result.summary()
    assert "retention" in text and "speedup" in text.lower()
