"""Row-segmented builders == their one-row oracles, exactly.

``build_alias_rows`` (lock-step Vose) and ``row_sums`` (a
degree-bucketed reduction) serve both the full build and the dynamic
subsystem's dirty-row build, so each must return, for every row of any batch, precisely what the per-row loop it
replaced returns (``tests/row_oracles.py``) — whatever the row shares
the batch with.

The ingest path stands on the same file: ``from_edges`` == a scalar
dict-of-lists build over every flag and attribute combination,
``stable_order`` == ``np.argsort(kind="stable")`` on both of its
branches, and the graphs the generators build from a seed are pinned by
digest (taken before the builder moved to one key sort).
"""

import ast
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

import repro.dynamic.state
import repro.graph.alias
import repro.graph
import repro.graph.rows
import repro.sampling.vectorized
from repro.dynamic.workload import sliding_window_trace
from repro.errors import GraphError, SamplingError
from repro.graph import from_edges, rmat
from repro.graph.alias import build_alias_rows, build_alias_slots, build_alias_table
from repro.graph.datasets import thunderrw_weights
from repro.graph.rows import (
    degree_buckets,
    gather_rows,
    row_sums,
    run_heads,
    segment_last_argmax,
    stable_order,
)
from row_oracles import csr_from_edges, sum_rows, vose_rows

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

    def test_row_totals(self, seed):
        weights, row_ptr = adversarial_batch(seed)
        assert np.array_equal(row_sums(weights, row_ptr), sum_rows(weights, row_ptr))


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
    assert np.array_equal(row_sums(graph.weights, graph.row_ptr),
                          sum_rows(graph.weights, graph.row_ptr))


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@pytest.mark.parametrize(
    "module",
    [repro.graph.alias, repro.graph.rows, repro.sampling.vectorized,
     repro.dynamic.state],
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


# ----------------------------------------------------------------------
# The ingest path: from_edges, stable_order, pinned graphs
# ----------------------------------------------------------------------
ATTRIBUTES = ("none", "weights", "edge_types", "both")
FLAGS = list(itertools.product([True, False], repeat=3))  # directed, dedupe, sort_neighbors


def random_edge_list(seed: int, attributes: str):
    """Few ids, so pairs repeat — each repeat with its own weight and
    type — plus self-loops and vertices no edge touches."""
    rng = np.random.default_rng((seed, 7))
    ids = int(rng.integers(1, 14))
    count = int(rng.integers(0, 120))
    edges = rng.integers(0, ids, size=(count, 2))
    if count:
        loops = rng.integers(0, count, size=2)
        edges[loops, 1] = edges[loops, 0]
    weights = rng.uniform(0.25, 8.0, size=count) if attributes in ("weights", "both") else None
    kinds = rng.integers(0, 5, size=count) if attributes in ("edge_types", "both") else None
    return edges, ids + int(rng.integers(0, 4)), weights, kinds


def assert_matches_scalar_build(edges, num_vertices, weights, kinds, **flags):
    graph = from_edges(edges, num_vertices=num_vertices, weights=weights,
                       edge_types=kinds, **flags)
    row_ptr, col, out_weights, out_kinds = csr_from_edges(
        np.asarray(edges).reshape(-1, 2).tolist(), num_vertices, weights, kinds, **flags)
    assert graph.row_ptr.tolist() == row_ptr, flags
    assert graph.col.tolist() == col, flags
    assert (graph.weights is None) == (out_weights is None)
    if out_weights is not None:
        assert graph.weights.tolist() == out_weights, flags
    assert (graph.edge_types is None) == (out_kinds is None)
    if out_kinds is not None:
        assert graph.edge_types.tolist() == out_kinds, flags


@pytest.mark.parametrize("attributes", ATTRIBUTES)
@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_from_edges_equals_the_scalar_build(seed, attributes):
    edges, num_vertices, weights, kinds = random_edge_list(seed, attributes)
    for directed, dedupe, sort_neighbors in FLAGS:
        assert_matches_scalar_build(
            edges, num_vertices, weights, kinds,
            directed=directed, dedupe=dedupe, sort_neighbors=sort_neighbors)


@pytest.mark.parametrize("attributes", ATTRIBUTES)
@pytest.mark.parametrize(
    "edges", [[], [(2, 0)], [(1, 1)], [(0, 3), (0, 3), (0, 3)]],
    ids=["empty", "one-edge", "one-loop", "one-pair-thrice"],
)
def test_from_edges_corner_lists(edges, attributes):
    weights = [1.5, 0.5, 2.5][:len(edges)] if attributes in ("weights", "both") else None
    kinds = [3, 1, 2][:len(edges)] if attributes in ("edge_types", "both") else None
    for directed, dedupe, sort_neighbors in FLAGS:
        assert_matches_scalar_build(
            edges, 5, weights, kinds,
            directed=directed, dedupe=dedupe, sort_neighbors=sort_neighbors)


def test_first_occurrence_of_a_duplicate_pair_wins():
    edges = [(1, 2), (0, 1), (1, 2), (1, 0), (1, 2)]
    for sort_neighbors in (True, False):
        graph = from_edges(edges, weights=[5.0, 1.0, 6.0, 2.0, 7.0], edge_types=[9, 8, 7, 6, 5],
                           dedupe=True, sort_neighbors=sort_neighbors)
        kept = dict(zip(zip(np.repeat(np.arange(3), graph.degrees()).tolist(),
                            graph.col.tolist()),
                        zip(graph.weights.tolist(), graph.edge_types.tolist())))
        assert kept == {(0, 1): (1.0, 8), (1, 2): (5.0, 9), (1, 0): (2.0, 6)}
    assert graph.col.tolist() == [1, 2, 0]      # input order within row 1


def test_endpoint_rows_are_read_in_place_and_left_alone():
    """A transposed ``(2, m)`` array — what the generators pass — builds
    the graph the pair list builds, and ``from_edges`` writes to neither."""
    rng = np.random.default_rng(3)
    ends = rng.integers(0, 50, size=(2, 400))
    before = ends.copy()
    for directed, dedupe, sort_neighbors in FLAGS:
        flags = dict(directed=directed, dedupe=dedupe, sort_neighbors=sort_neighbors)
        from_rows = from_edges(ends.T, num_vertices=50, **flags)
        from_pairs = from_edges(ends.T.tolist(), num_vertices=50, **flags)
        assert np.array_equal(from_rows.row_ptr, from_pairs.row_ptr)
        assert np.array_equal(from_rows.col, from_pairs.col)
        assert not np.shares_memory(from_rows.col, ends)
    assert np.array_equal(ends, before)


def test_an_id_space_whose_keys_overflow_int64_is_refused():
    limit = 3_037_000_499                        # isqrt(2**63 - 1)
    assert limit * limit <= 2**63 - 1 < (limit + 1) * (limit + 1)
    with pytest.raises(GraphError, match=str(limit)):
        from_edges([(0, 1)], num_vertices=limit + 1, dedupe=True)
    with pytest.raises(GraphError, match="overflow int64"):
        from_edges([(0, limit)])                 # inferred num_vertices


class TestStableOrder:
    def check(self, keys, bound):
        order = stable_order(keys, bound)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("seed", range(NUM_SEEDS))
    def test_long_runs_of_equal_keys(self, seed):
        rng = np.random.default_rng((seed, 13))
        size = int(rng.integers(1, 3000))
        self.check(rng.integers(0, 5, size=size), 5)
        self.check(np.repeat(rng.integers(0, 1000, size=8), rng.integers(1, 200, size=8)), 1000)
        self.check(rng.integers(0, 2**40, size=size), 2**40)
        self.check(np.zeros(size, dtype=np.int64), 1)

    def test_empty_and_single(self):
        assert stable_order(np.empty(0, dtype=np.int64), 10).tolist() == []
        assert stable_order(np.empty(0, dtype=np.int64), 0).tolist() == []
        assert stable_order(np.array([7]), 8).tolist() == [0]

    def test_a_bound_too_wide_to_pack_takes_the_argsort_fallback(self, monkeypatch):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 6, size=500)
        expected = np.argsort(keys, kind="stable")
        taken = []
        real_argsort = np.argsort
        monkeypatch.setattr(
            repro.graph.rows.np, "argsort",
            lambda *args, **kwargs: taken.append(kwargs) or real_argsort(*args, **kwargs))
        assert np.array_equal(stable_order(keys, 6), expected)
        assert taken == []                       # 3 key bits + 9 position bits: packed
        assert np.array_equal(stable_order(keys, 2**62), expected)
        assert taken == [{"kind": "stable"}]     # 62 + 9 bits do not fit 63
        # The widest keys that still pack beside 500 positions.
        wide = rng.integers(0, 2**54, size=500)
        assert np.array_equal(stable_order(wide, 2**54), real_argsort(wide, kind="stable"))
        assert len(taken) == 1

    def test_a_key_outside_the_bound_raises(self):
        with pytest.raises(GraphError, match=r"\[0, 4\)"):
            stable_order(np.array([0, 4, 1]), 4)
        with pytest.raises(GraphError):
            stable_order(np.array([0, -1, 1]), 4)
        with pytest.raises(GraphError):             # on the fallback branch too
            stable_order(np.array([0, 2**62, 1]), 2**62)

    def test_run_heads(self):
        assert run_heads(np.array([2, 2, 3, 5, 5, 5])).tolist() == [1, 0, 1, 1, 0, 0]
        assert run_heads(np.empty(0, dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("seed", range(NUM_SEEDS))
    def test_segment_last_argmax_picks_the_stable_sorts_winner(self, seed):
        """Few distinct values (and the reservoir's ``-1`` sentinel), so
        most segments tie: the winner is the entry a stable sort by
        ``(segment, value)`` puts last — the sort the kernel used to run."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 9, size=int(rng.integers(1, 60)))
        counts[rng.integers(0, counts.size)] = 400
        values = rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0], size=int(counts.sum()))
        segment = np.repeat(np.arange(counts.size), counts)
        ends = np.cumsum(counts)
        best = segment_last_argmax(values, ends - counts, segment)
        assert np.array_equal(best, np.lexsort((values, segment))[ends - 1])
        for k, (lo, hi) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
            row = values[lo:hi]
            assert best[k] == lo + max(np.flatnonzero(row == row.max()))


def graph_digest(graph) -> str:
    digest = hashlib.sha256()
    for array in (graph.row_ptr, graph.col, graph.weights):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


#: ``sha256(row_ptr | col | weights)`` of the suite's weighted RMAT graphs
#: and of one dynamic base graph, taken at the commit before the builder
#: was rebuilt around one key sort.  Equal digests are what keep every
#: path digest, the engine-equivalence matrix and the replay oracles valid.
PINNED_RMAT = {
    (8, 1): "ab5ff3fe0976d9e1a57bbb99887bbe04826a2599f1cea65fca97bf89b15f27ea",
    (8, 2): "341b136308db4bafb54c6f1282d574ff2c0df7fc208ddf66b0e5234e47f2efce",
    (8, 3): "19d445317b89a99fc898dcdad387a1eb5d8dae56c52ef5232512e286525c86c6",
    (12, 1): "e8b43fd8316a0f25c2f03516806c3e273f1a8ff977e3712c92da0f59c7e891ba",
    (12, 2): "4ea9bd1d3d835a82d56db20f2201ce0669aee4f3e889721d1724c800bfa766b4",
    (12, 3): "83bc7d5faaa9f1ed4ee3d7b462cefa3b0a4433c5ebb864f3e11963b255f10103",
    (16, 1): "78189058e7ca3e74cb70a39f3761ae1c8712ec9dcca43c98504c75343bf44a7c",
    (16, 2): "2c3b94c57ed9d8cc99e737a120731f84968f6301cd09c8d30da2e2744c991a8b",
    (16, 3): "9dbf586f26af5818a1c29547cf27069c30cc3a6c82281e553d93ac2e421f57f4",
}
PINNED_WINDOW_10 = "06287052c94ff4be4f397db12cec20246e381cf38a5b69eb68a2cbe0ecdfb3fa"


@pytest.mark.parametrize("scale,seed", sorted(PINNED_RMAT))
def test_weighted_rmat_is_the_pinned_graph(scale, seed):
    graph = rmat(scale, edge_factor=16, seed=seed)
    graph = graph.with_weights(thunderrw_weights(graph, seed))
    assert graph_digest(graph) == PINNED_RMAT[scale, seed]


def test_sliding_window_base_graph_is_the_pinned_graph():
    graph = sliding_window_trace(10).build_dynamic().snapshot().graph
    assert graph_digest(graph) == PINNED_WINDOW_10


def test_the_graph_package_sorts_keys_only():
    """Structural guard: nothing under ``src/repro/graph/`` calls
    ``lexsort`` or ``unique(..., return_index=...)`` — orders come from
    one value sort of bounded keys (``stable_order``) or ``keys.sort()``."""
    for path in sorted(Path(repro.graph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", getattr(node, "id", None))
            assert name != "lexsort", f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "unique":
                keywords = {keyword.arg for keyword in node.keywords}
                assert "return_index" not in keywords, f"{path.name}:{node.lineno}"
