"""The mutate-bench harness itself: report integrity on a tiny trace,
and the maintenance gate on the RMAT-16 sliding window.

``run_mutate_bench`` is the measurement path behind ``repro
mutate-bench``, whose exit code gates snapshot equivalence; a bug here
(mis-folded counters, a broken equivalence check) would silently
invalidate that gate, so the harness gets direct test coverage on a
trace small enough for the tier-1 suite.
"""

import numpy as np
import pytest

from repro.bench.workloads import make_spec
from repro.cli import main
from repro.dynamic import (
    SamplerState,
    UpdateTrace,
    apply_batch,
    run_mutate_bench,
    sliding_window_trace,
)
from repro.dynamic.bench import (
    fresh_static_build,
    rebuild_from_edge_set,
    snapshot_matches_static,
)


@pytest.fixture(scope="module")
def report():
    trace = sliding_window_trace(7, edge_factor=6, batch_size=80,
                                 num_batches=4, seed=2, weighted=True)
    spec = make_spec("DeepWalk")
    spec.max_length = 16
    return trace, run_mutate_bench(trace, spec, seed=2, walk_queries=64,
                                   full_rebuild_samples=2)


def test_report_accounts_for_the_whole_trace(report):
    trace, result = report
    assert result.num_batches == len(trace.batches)
    assert result.ops_applied == sum(batch.num_ops for batch in trace.batches)
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
    doctored = state.edge_keys.copy()
    doctored[0] += 1
    tampered = SamplerState(graph, {**state.held, "edge_keys": doctored})
    assert not snapshot_matches_static(snapshot, graph, tampered)


def test_rebuild_baseline_matches_logical_edges(report):
    trace, _ = report
    dynamic = trace.build_dynamic()
    edges, weights = dynamic.logical_edges()
    graph, state = rebuild_from_edge_set(edges, weights, dynamic.num_vertices,
                                         dynamic.name)
    assert graph.num_edges == dynamic.num_edges
    assert state.alias_slots.size == graph.num_edges


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
def test_final_edges_replay_the_trace(weighted):
    trace = sliding_window_trace(7, edge_factor=6, batch_size=80, num_batches=4, seed=3,
                                 weighted=weighted)
    dynamic = trace.build_dynamic()
    edges, weights = trace.final_edges()
    assert edges.shape[0] > trace.base_edges.shape[0] // 2
    for batch in trace.batches:
        apply_batch(dynamic, batch)
        dynamic.snapshot()
    expected_edges, expected_weights = dynamic.logical_edges()
    assert np.array_equal(edges, expected_edges)
    assert (weights is None) == (not weighted) == (expected_weights is None)
    assert np.array_equal(weights, expected_weights)


def test_equivalence_check_reads_the_replayed_trace(report, monkeypatch):
    """The final check compares against the trace replayed on its own, so
    a replay that disagrees with the dynamic graph must fail it."""
    trace, _ = report
    replay = UpdateTrace.final_edges

    def one_edge_short(self):
        edges, weights = replay(self)
        return edges[1:], None if weights is None else weights[1:]

    monkeypatch.setattr(UpdateTrace, "final_edges", one_edge_short)
    spec = make_spec("DeepWalk")
    spec.max_length = 16
    result = run_mutate_bench(trace, spec, seed=2, walk_queries=64,
                              full_rebuild_samples=0)
    assert not result.snapshot_equivalent


def test_summary_renders(report):
    _, result = report
    text = result.summary()
    assert "retention" in text and "speedup" in text.lower()


def test_cli_holds_a_burst_larger_than_the_base(capsys):
    """Each 2,500-op batch outgrows RMAT-10's base; the overlay holds it
    until the batch's snapshot and the run still ends bit-identical."""
    assert main(["mutate-bench", "--scale", "10", "--batch-size", "2500",
                 "--batches", "3", "--queries", "64", "--length", "10"]) == 0
    out = capsys.readouterr().out
    assert "bit-identical=True" in out
    peak = int(out.split("overlay:")[1].split()[0])
    assert 2500 <= peak <= 2 * 2500


@pytest.mark.slow
def test_incremental_maintenance_beats_a_rebuild():
    """Incremental maintenance that cannot clearly beat the rebuild a
    static pipeline pays per update batch (``from_edges`` + the alias
    slots DeepWalk reads) has no reason to exist.  RMAT-16 sliding
    window, 60 batches of 600 operations; measured 1.50-1.84x over 20
    runs on a 2-CPU host.  The bound has fallen from 5x as the rebuild
    got faster, never because maintenance got slower."""
    trace = sliding_window_trace(16, edge_factor=8, batch_size=600,
                                 num_batches=60, seed=1, weighted=True)
    result = run_mutate_bench(trace, make_spec("DeepWalk"), seed=1,
                              walk_queries=2048)
    assert result.snapshot_equivalent
    assert result.maintenance_speedup >= 1.3, result.summary()
