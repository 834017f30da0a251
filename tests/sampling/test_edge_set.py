"""``EdgeSet``: the one exact edge-membership structure.

A bit filter in front of the sorted edge keys may only ever change how
much work a probe costs, never its answer — so everything here compares
against ``graph.has_edge`` pair by pair, then pins the shipped sizing
rule, the zero-copy state hand-off, the probe span, and (structurally)
that no second probe path grows back beside it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph import CSRGraph, erdos_renyi, from_edges, powerlaw, rmat
from repro.obs.trace import tracing
from repro.sampling.vectorized import (
    EdgeSet,
    QueryStreams,
    ReservoirKernel,
    build_edge_filter,
    build_edge_keys,
)

_GAMMA = 0x9E3779B97F4A7C15


def _hub_graph():
    """One 5,000-degree hub among degree-2 rows, |V| not a power of two."""
    n = 6001
    rng = np.random.default_rng(17)
    edges = [(0, int(d)) for d in rng.choice(np.arange(1, n), size=5000, replace=False)]
    for v in range(1, n):
        edges.extend((v, int(d)) for d in rng.choice(n, size=2, replace=False))
    return from_edges(edges, num_vertices=n)


def _unsorted_csr(seed):
    """A CSR whose neighbor lists are deliberately not ascending."""
    rng = np.random.default_rng(seed)
    n = 37
    rows = [rng.choice(n, size=int(rng.integers(0, 9)), replace=False) for _ in range(n)]
    graph = CSRGraph(
        row_ptr=np.concatenate(([0], np.cumsum([row.size for row in rows]))),
        col=np.concatenate(rows),
    )
    assert not graph.cols_sorted
    return graph


def _graphs():
    yield "empty", from_edges([], num_vertices=5)
    yield "one-edge", from_edges([(2, 0)], num_vertices=3)
    yield "hub", _hub_graph()
    for seed in range(6):
        yield f"rmat-{seed}", rmat(5 + seed % 4, edge_factor=2 + seed, seed=seed)
    for seed in range(5):
        yield f"er-{seed}", erdos_renyi(23 + 17 * seed, 40 + 150 * seed, seed=seed)
    for seed in range(4):
        yield f"powerlaw-{seed}", powerlaw(150 + 101 * seed, 900 + 700 * seed, seed=seed)
    for seed in range(4):
        yield f"unsorted-{seed}", _unsorted_csr(seed)


GRAPHS = dict(_graphs())


def _edge_pairs(graph):
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees())
    return src, graph.col.copy()


def _expected(graph, src, dst):
    return np.array([graph.has_edge(int(s), int(d)) for s, d in zip(src, dst)], dtype=bool)


@pytest.mark.parametrize("name", GRAPHS)
def test_contains_equals_has_edge(name):
    graph = GRAPHS[name]
    edges = EdgeSet.build(graph)
    rng = np.random.default_rng(5)
    n = graph.num_vertices

    # Mixed batch of random pairs (mostly non-edges on sparse graphs).
    src = rng.integers(0, n, size=400)
    dst = rng.integers(0, n, size=400)
    assert np.array_equal(edges.contains(src, dst), _expected(graph, src, dst))

    # All-positive batch: a sample of the real edges.
    e_src, e_dst = _edge_pairs(graph)
    if e_src.size:
        pick = rng.choice(e_src.size, size=min(300, e_src.size), replace=False)
        got = edges.contains(e_src[pick], e_dst[pick])
        assert got.all()
        assert np.array_equal(got, _expected(graph, e_src[pick], e_dst[pick]))

    # All-negative batch: random pairs with the real edges filtered out.
    absent = ~np.isin(src * n + dst, e_src * n + e_dst)
    got = edges.contains(src[absent], dst[absent])
    assert not got.any()
    assert np.array_equal(got, _expected(graph, src[absent], dst[absent]))

    # Empty batch.
    none = np.empty(0, dtype=np.int64)
    assert edges.contains(none, none).shape == (0,)


@pytest.mark.parametrize("name", ["one-edge", "hub", "rmat-3", "powerlaw-2", "unsorted-2"])
def test_sorted_needle_probe_equals_set_membership(name):
    """``contains`` sorts the filter's survivors before its key search;
    every answer must still come back at its own probe's position,
    whatever order, repeats and misses the probe holds."""
    graph = GRAPHS[name]
    e_src, e_dst = _edge_pairs(graph)
    members = set(zip(e_src.tolist(), e_dst.tolist()))
    rng = np.random.default_rng(11)
    n = graph.num_vertices
    pick = rng.permutation(e_src.size)[:200]
    # Real edges descending and again shuffled (so each twice), random pairs.
    src = np.concatenate((e_src[pick][::-1], e_src[pick], rng.integers(0, n, 300)))
    dst = np.concatenate((e_dst[pick][::-1], e_dst[pick], rng.integers(0, n, 300)))
    order = rng.permutation(src.size)
    src, dst = src[order], dst[order]
    expected = [(s, d) in members for s, d in zip(src.tolist(), dst.tolist())]
    assert EdgeSet.build(graph).contains(src, dst).tolist() == expected


def test_sorted_needle_probe_corner_cases():
    none = np.empty(0, dtype=np.int64)
    edgeless = EdgeSet.build(GRAPHS["empty"])
    assert edgeless.contains(none, none).shape == (0,)
    every_pair = np.arange(25, dtype=np.int64)
    assert not edgeless.contains(every_pair // 5, every_pair % 5).any()
    edges = EdgeSet.build(GRAPHS["one-edge"])  # the edge 2 -> 0
    assert edges.contains(none, none).shape == (0,)
    assert edges.contains(np.full(40, 2), np.zeros(40, dtype=np.int64)).all()
    assert not edges.contains(np.zeros(40, dtype=np.int64), np.full(40, 2)).any()


def test_hub_row_probes_are_exact():
    """Every (hub, v) pair — the probes the old hub bitmaps served."""
    graph = GRAPHS["hub"]
    dst = np.arange(graph.num_vertices, dtype=np.int64)
    got = EdgeSet.build(graph).contains(np.zeros_like(dst), dst)
    assert got.sum() == 5000
    assert np.array_equal(got, np.isin(dst, graph.neighbors(0)))


@pytest.mark.parametrize("name", ["empty", "one-edge", "hub", "rmat-3", "unsorted-1"])
def test_filter_is_the_sized_bit_image_of_the_keys(name):
    """Bit ``fib_hash(key)`` is set for every key and for nothing else,
    in the smallest power of two with >= 16 bits per edge."""
    keys = build_edge_keys(GRAPHS[name])
    packed = build_edge_filter(keys)
    bits = packed.size * 8
    assert packed.dtype == np.uint8 and bits & (bits - 1) == 0
    assert bits >= max(16 * keys.size, 64)
    assert bits == 64 or bits < 32 * keys.size
    shift = 64 - (bits.bit_length() - 1)
    expected = np.zeros(bits, dtype=bool)
    expected[[((int(key) * _GAMMA) % (1 << 64)) >> shift for key in keys]] = True
    assert np.array_equal(np.unpackbits(packed, bitorder="little").astype(bool), expected)


def test_filter_pass_rate_on_non_edges():
    """The shipped sizing answers >= 90% of absent pairs from the filter
    alone (``passed`` counts what reaches the sorted-key probe)."""
    graph = rmat(12, edge_factor=12, seed=3)
    edges = EdgeSet.build(graph)
    rng = np.random.default_rng(8)
    n = graph.num_vertices
    src = rng.integers(0, n, size=40_000)
    dst = rng.integers(0, n, size=40_000)
    absent = ~np.isin(src * n + dst, edges.keys)
    with tracing() as tracer:
        tracer.clear()
        found = edges.contains(src[absent], dst[absent])
        (event,) = [e for e in tracer.events() if e.name == "sampling.edge_probe"]
    assert not found.any()
    assert event.args["probes"] == int(absent.sum()) and event.args["hits"] == 0
    assert event.args["passed"] <= 0.10 * event.args["probes"]


def test_probe_span_counts_probes_passes_and_hits():
    graph = GRAPHS["rmat-2"]
    edges = EdgeSet.build(graph)
    src, dst = _edge_pairs(graph)
    with tracing() as tracer:
        tracer.clear()
        edges.contains(src, dst)
        (event,) = [e for e in tracer.events() if e.name == "sampling.edge_probe"]
    assert event.args == {"probes": src.size, "passed": src.size, "hits": src.size}
    # Off by default: an untraced probe records nothing.
    tracer.clear()
    edges.contains(src, dst)
    assert tracer.events() == ()


def test_state_round_trip_shares_memory_and_tolerates_read_only():
    graph = GRAPHS["rmat-1"]
    built = EdgeSet.build(graph)
    arrays = built.state_arrays()
    assert {"edge_keys", "edge_filter"} <= set(arrays)
    for array in arrays.values():
        array.setflags(write=False)  # what a shared-memory view looks like
    adopted = EdgeSet.from_state(arrays)
    assert np.shares_memory(adopted.keys, built.keys)
    assert np.shares_memory(adopted.filter, built.filter)
    assert adopted.num_vertices == graph.num_vertices
    src, dst = _edge_pairs(graph)
    probe = (np.concatenate((src, dst)), np.concatenate((dst, src)))
    assert np.array_equal(adopted.contains(*probe), built.contains(*probe))


class _CountingEdgeSet(EdgeSet):
    probes = 0

    def contains(self, src, dst):
        type(self).probes += src.size
        return super().contains(src, dst)


def test_reservoir_first_hop_frontier_issues_no_probes():
    """Step 0 of a second-order reservoir walk used to look every
    flattened neighbor up against row 0 and discard the answers."""
    graph = rmat(7, edge_factor=6, seed=4)
    kernel = ReservoirKernel(p=2.0, q=0.5)
    kernel.prepare(graph)
    plain = ReservoirKernel(p=2.0, q=0.5)
    plain.prepare(graph)
    kernel._edge_set = _CountingEdgeSet.from_state(kernel.state_arrays())
    current = np.flatnonzero(graph.degrees() > 0)[:60]
    first_hop = np.full(current.size, -1, dtype=np.int64)

    def sample(k, previous):
        streams = QueryStreams(3, np.arange(current.size))
        return k.sample(graph, current, previous, None, streams, None)

    _CountingEdgeSet.probes = 0
    batch = sample(kernel, first_hop)
    assert _CountingEdgeSet.probes == 0
    assert np.array_equal(batch.vertex, sample(plain, first_hop).vertex)

    # A mixed frontier probes exactly the entries of walkers with a past.
    previous = first_hop.copy()
    previous[::2] = current[::2]
    batch = sample(kernel, previous)
    assert _CountingEdgeSet.probes == int(graph.degrees()[current[::2]].sum())
    assert np.array_equal(batch.vertex, sample(plain, previous).vertex)


# --- structure: one probe path, and the old ones stay gone ----------------


def _sources(*parts):
    root = Path(repro.__file__).parent.joinpath(*parts)
    return sorted(root.rglob("*.py"))


def test_sorted_key_probe_has_one_call_site():
    """``searchsorted`` meets the edge keys in exactly one function under
    ``sampling/`` — :meth:`EdgeSet.contains`."""
    sites = []
    for path in _sources("sampling"):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "searchsorted"
                    and "keys" in ast.unparse(node)
                ):
                    sites.append(f"{path.name}:{function.name}")
    assert sites == ["vectorized.py:contains"]


def test_retired_probe_paths_stay_deleted():
    retired = ("HubAdjacency", "hybrid_edges_exist", "hub_bitmap", "def edges_exist")
    for path in _sources():
        text = path.read_text()
        for name in retired:
            assert name not in text, f"{name} in {path}"
