"""Row-segmented builders == their one-row oracles, exactly.

``build_alias_rows`` (lock-step Vose), ``row_sums`` / ``row_cumsums``
(degree-bucketed reductions) and ``select_row_strategies`` serve both the
full build and the dynamic subsystem's dirty-row build, so each must
return, for every row of any batch, precisely what the per-row loop it
replaced returns (``tests/row_oracles.py``) — whatever the row shares
the batch with.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.dynamic.state
import repro.graph.alias
import repro.sampling.hybrid
import repro.sampling.its
from repro.errors import SamplingError
from repro.graph import from_edges
from repro.graph.alias import build_alias_rows, build_alias_slots, build_alias_table
from repro.graph.rows import degree_buckets, gather_rows, row_cumsums, row_sums
from repro.sampling.hybrid import HybridConfig, select_row_strategies, select_strategies
from repro.sampling.its import build_its_cdf, build_its_row_totals
from row_oracles import cumsum_rows, strategy_rows, sum_rows, vose_rows

NUM_SEEDS = 24


def batch_of(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=row_ptr[1:])
    weights = np.concatenate(rows) if rows else np.empty(0)
    return weights.astype(np.float64), row_ptr


def adversarial_batch(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Every shape the builders special-case, shuffled into one batch."""
    rng = np.random.default_rng(seed)
    rows = [np.empty(0) for _ in range(6)]                      # empty rows
    rows += [rng.uniform(0.1, 9.0, size=1) for _ in range(5)]   # degree 1
    rows += [np.full(int(d), rng.uniform(0.5, 3.0))             # scaled == 1.0 ties
             for d in rng.integers(2, 40, size=8)]
    rows += [rng.uniform(0.5, 2.0, size=2) for _ in range(60)]  # degree-2 crowd
    rows.append(rng.uniform(0.5, 2.0, size=5000))               # one hub
    rows += [10.0 ** rng.uniform(-12, 12, size=int(d))          # 24 decades of skew
             for d in rng.integers(2, 200, size=30)]
    rows += [rng.exponential(1.0, size=int(d)) + 1e-9
             for d in rng.integers(3, 90, size=40)]
    order = rng.permutation(len(rows))
    return batch_of([rows[i] for i in order])


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
class TestBatchEqualsOracle:
    def test_alias_rows(self, seed):
        weights, row_ptr = adversarial_batch(seed)
        prob, alias = build_alias_rows(weights, row_ptr)
        expected_prob, expected_alias = vose_rows(weights, row_ptr)
        assert np.array_equal(prob, expected_prob)
        assert np.array_equal(alias, expected_alias)

    def test_cdf_rows_and_totals(self, seed):
        weights, row_ptr = adversarial_batch(seed)
        assert np.array_equal(row_cumsums(weights, row_ptr), cumsum_rows(weights, row_ptr))
        assert np.array_equal(row_sums(weights, row_ptr), sum_rows(weights, row_ptr))

    def test_strategies(self, seed):
        weights, row_ptr = adversarial_batch(seed)
        for config in (HybridConfig(), HybridConfig(update_rate=0.5, small_degree=3)):
            assert np.array_equal(
                select_row_strategies(weights, row_ptr, config),
                strategy_rows(weights, row_ptr, config),
            )
        assert np.array_equal(
            select_row_strategies(None, row_ptr), strategy_rows(None, row_ptr)
        )


def test_a_row_does_not_depend_on_its_batch():
    """The lock-step rounds and the one-row finisher give the same table:
    a row alone (finisher only) == the row among hundreds (lock-step)."""
    weights, row_ptr = adversarial_batch(99)
    prob, alias = build_alias_rows(weights, row_ptr)
    for row in np.flatnonzero(np.diff(row_ptr) > 0)[::7]:
        lo, hi = row_ptr[row], row_ptr[row + 1]
        alone_prob, alone_alias = build_alias_slots(weights[lo:hi])
        assert np.array_equal(alone_prob, prob[lo:hi])
        assert np.array_equal(alone_alias, alias[lo:hi])


def test_blocks_of_rows_do_not_change_the_tables(monkeypatch):
    """A batch is built in blocks of whole rows; a hub wider than a block
    is a block of its own, and the offending row of an invalid weight is
    still named by its index in the whole batch."""
    weights, row_ptr = adversarial_batch(7)
    expected = vose_rows(weights, row_ptr)
    for block_slots in (1, 64, 700, 6000):
        monkeypatch.setattr(repro.graph.alias, "_BLOCK_SLOTS", block_slots)
        prob, alias = build_alias_rows(weights, row_ptr)
        assert np.array_equal(prob, expected[0]) and np.array_equal(alias, expected[1])
    bad_row = int(np.flatnonzero(np.diff(row_ptr) > 0)[-1])
    weights[row_ptr[bad_row]] = -1.0
    with pytest.raises(SamplingError, match=rf"\(row {bad_row}\)"):
        build_alias_rows(weights, row_ptr)


def test_degree_buckets_cover_each_nonempty_row_once():
    _, row_ptr = adversarial_batch(3)
    seen = np.zeros(row_ptr.size - 1, dtype=int)
    for rows, index in degree_buckets(row_ptr):
        seen[rows] += 1
        assert np.array_equal(index[:, 0], row_ptr[rows])
        assert np.array_equal(index[:, -1] + 1, row_ptr[rows + 1])
    assert np.array_equal(seen, (np.diff(row_ptr) > 0).astype(int))
    assert all(index.shape[1] >= 2 for _, index in degree_buckets(row_ptr, min_degree=2))
    assert list(degree_buckets(np.zeros(4, dtype=np.int64))) == []


def test_gather_rows_builds_a_compact_batch():
    weights, row_ptr = adversarial_batch(5)
    rows = np.array([7, 3, 149, 3, 0])
    positions, batch_ptr = gather_rows(row_ptr, rows)
    expected = [weights[row_ptr[r]:row_ptr[r + 1]] for r in rows]
    assert np.array_equal(weights[positions], np.concatenate(expected))
    assert np.array_equal(np.diff(batch_ptr), [row.size for row in expected])


class TestInvalidWeights:
    def test_error_names_the_first_offending_row(self):
        weights, row_ptr = batch_of(
            [np.array([1.0, 2.0]), np.empty(0), np.array([3.0, np.inf]), np.array([0.0])]
        )
        with pytest.raises(SamplingError, match=r"positive and finite \(row 2\)"):
            build_alias_rows(weights, row_ptr)
        weights[3] = 1.0
        with pytest.raises(SamplingError, match=r"\(row 3\)"):
            build_alias_rows(weights, row_ptr)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_one_row_call_still_rejects(self, bad):
        with pytest.raises(SamplingError, match="positive and finite"):
            build_alias_slots(np.array([1.0, bad, 2.0]))

    def test_empty_rows_in_a_batch_are_skipped_by_every_builder(self):
        weights, row_ptr = batch_of([np.empty(0), np.array([2.0, 6.0]), np.empty(0)])
        prob, alias = build_alias_rows(weights, row_ptr)
        assert prob.tolist() == [0.5, 1.0] and alias.tolist() == [1, 1]
        assert row_sums(weights, row_ptr).tolist() == [0.0, 8.0, 0.0]
        assert row_cumsums(weights, row_ptr).tolist() == [2.0, 8.0]
        assert select_row_strategies(weights, row_ptr)[:, 0].tolist() == [5, 2, 5]
        empty = np.zeros(3, dtype=np.int64)
        assert build_alias_rows(np.empty(0), empty)[0].size == 0


def test_graph_level_builders_are_the_all_rows_call():
    rng = np.random.default_rng(11)
    edges = [(s, d) for s in range(40) for d in range(40)
             if s != d and s % 7 and rng.random() < 0.3]
    graph = from_edges(edges, num_vertices=40,
                       weights=rng.uniform(0.1, 5.0, size=len(edges)))
    table = build_alias_table(graph)
    prob, alias = vose_rows(graph.weights, graph.row_ptr)
    assert np.array_equal(table.prob, prob) and np.array_equal(table.alias, alias)
    assert np.array_equal(build_its_cdf(graph), cumsum_rows(graph.weights, graph.row_ptr))
    assert np.array_equal(build_its_row_totals(graph), sum_rows(graph.weights, graph.row_ptr))
    assert np.array_equal(select_strategies(graph), strategy_rows(graph.weights, graph.row_ptr))


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@pytest.mark.parametrize(
    "module",
    [repro.graph.alias, repro.sampling.its, repro.sampling.hybrid, repro.dynamic.state],
    ids=lambda module: module.__name__,
)
def test_no_per_vertex_python_in_the_builders(module):
    """Structural guard: the builder modules neither iterate
    ``range(<graph>.num_vertices)`` nor call the one-row alias builder
    from inside a loop — per-row work goes through the batch builders."""
    tree = ast.parse(Path(module.__file__).read_text())
    loops = [node for node in ast.walk(tree) if isinstance(node, _LOOPS)]
    for loop in loops:
        iterated = [loop.iter] if isinstance(loop, ast.For) else [
            generator.iter for generator in getattr(loop, "generators", [])
        ]
        for expression in iterated:
            assert "num_vertices" not in ast.unparse(expression), ast.unparse(loop)
        called = {
            getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
        }
        assert "build_alias_slots" not in called, ast.unparse(loop)
