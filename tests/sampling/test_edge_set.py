"""``EdgeSet``: the one exact edge-membership structure.

A bit filter in front of a bucketed table of the edge keys may only ever
change how much work a probe costs, never its answer — so everything
here compares against ``graph.has_edge`` (or a plain set of keys) pair
by pair, on graphs of every shape, on one built to overflow a bucket
into the stash, and on keys at the top of the int64 key space; then pins
the shipped sizing rules, the table's layout, one edge set per graph
shared by its kernels, a dynamic state's carried table, the probe span,
and (structurally) that no second probe path grows back beside it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dynamic import apply_batch, sliding_window_trace
from repro.dynamic.bench import rebuild_from_edge_set
from repro.graph import CSRGraph, erdos_renyi, from_edges, powerlaw, rmat
from repro.graph.builders import _MAX_KEYED_VERTICES
from repro.obs.trace import tracing
from repro.sampling import SamplerState, vectorized
from repro.sampling.vectorized import (
    EdgeSet,
    QueryStreams,
    RejectionKernel,
    ReservoirKernel,
    build_edge_filter,
    build_edge_keys,
    build_edge_table,
)

_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INVERSE = pow(_GAMMA, -1, 1 << 64)


def _hash(key):
    return key * _GAMMA % (1 << 64)


def _sorted_hashes(keys):
    hashes = keys.view(np.uint64) * np.uint64(_GAMMA)
    hashes.sort()
    return hashes


def _edge_set_of_keys(keys, n):
    """An ``EdgeSet`` over ``src * n + dst`` keys in any order, from the
    builders ``EdgeSet.build`` runs: no CSR with ``n`` this large fits
    in memory."""
    hashes = _sorted_hashes(keys)
    return EdgeSet(build_edge_filter(hashes), *build_edge_table(hashes), n)


#: The arrays a probe reads.
_FIELDS = ("filter", "table", "overflow", "stash")


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
def test_probes_in_any_order_equal_set_membership(name):
    """Every answer comes back at its own probe's position, whatever
    order, repeats and misses the probe holds."""
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


def test_empty_and_one_edge_graphs():
    none = np.empty(0, dtype=np.int64)
    edgeless = EdgeSet.build(GRAPHS["empty"])
    assert edgeless.contains(none, none).shape == (0,)
    every_pair = np.arange(25, dtype=np.int64)
    assert not edgeless.contains(every_pair // 5, every_pair % 5).any()
    # One line of eight empty ways, nothing stashed.
    assert edgeless.table.tolist() == [[-1] * 8] and edgeless.stash.size == 0
    edges = EdgeSet.build(GRAPHS["one-edge"])  # the edge 2 -> 0
    assert edges.contains(none, none).shape == (0,)
    every_pair = np.arange(9, dtype=np.int64)
    assert edges.contains(every_pair // 3, every_pair % 3).tolist() == [
        s == 2 and d == 0 for s, d in zip(every_pair // 3, every_pair % 3)]
    assert edges.contains(np.full(40, 2), np.zeros(40, dtype=np.int64)).all()
    assert not edges.contains(np.zeros(40, dtype=np.int64), np.full(40, 2)).any()


def test_hub_row_probes_are_exact():
    """Every (hub, v) pair — the probes the old hub bitmaps served."""
    graph = GRAPHS["hub"]
    dst = np.arange(graph.num_vertices, dtype=np.int64)
    got = EdgeSet.build(graph).contains(np.zeros_like(dst), dst)
    assert got.sum() == 5000
    assert np.array_equal(got, np.isin(dst, graph.neighbors(0)))


def _overflowing_graph():
    """64 edges on 1,000 vertices (16 buckets of the table, a 1,024-bit
    filter), 20 of them hashed into bucket 5: eight in its line, twelve
    in the stash.  Returns the graph and 30 absent keys of bucket 5 that
    share a filter bit with one of its edges, so pass the filter, miss
    the line and search the stash."""
    n, target = 1000, 5
    keys = np.arange(n * n, dtype=np.int64)
    hashes = keys.view(np.uint64) * np.uint64(_GAMMA)
    in_target = np.flatnonzero((hashes >> np.uint64(60)) == target)
    rng = np.random.default_rng(3)
    crowded = rng.choice(in_target, size=20, replace=False)
    others = rng.choice(np.setdiff1d(keys, in_target), size=44, replace=False)
    edge_keys = np.concatenate((crowded, others))
    slots = set((hashes[crowded] >> np.uint64(54)).tolist())
    lookalike = np.array([k for k in np.setdiff1d(in_target, crowded).tolist()
                          if _hash(k) >> 54 in slots])
    assert lookalike.size >= 30
    graph = from_edges(np.stack((edge_keys // n, edge_keys % n), axis=1), num_vertices=n)
    return graph, rng.choice(lookalike, size=30, replace=False)


def test_an_overflowing_bucket_answers_through_the_stash():
    graph, lookalike = _overflowing_graph()
    n = graph.num_vertices
    edges = EdgeSet.build(graph)
    assert edges.table.shape == (16, 8) and edges.filter.size * 8 == 1024
    assert edges.overflow.tolist() == [bucket == 5 for bucket in range(16)]
    assert edges.stash.size == 12
    e_src, e_dst = _edge_pairs(graph)
    src = np.concatenate((e_src, lookalike // n))
    dst = np.concatenate((e_dst, lookalike % n))
    with tracing() as tracer:
        tracer.clear()
        got = edges.contains(src, dst)
        (event,) = [e for e in tracer.events() if e.name == "sampling.edge_probe"]
    assert np.array_equal(got, _expected(graph, src, dst))
    assert got.sum() == 64
    # Twelve stash hits (the bucket's edges beyond its line), thirty misses.
    assert event.args == {"probes": 94, "passed": 94, "stashed": 42, "hits": 64}


def test_keys_picked_through_the_inverse_multiplier_overflow_a_bucket():
    """The same shape over the whole int64 key space:
    each key is a random hash under a chosen prefix, taken back through
    the inverse multiplier — 20 under bucket 5 of 16, 44 under the other
    buckets, and 30 absent ones under the 10-bit filter slots of bucket
    5's keys."""
    n = _MAX_KEYED_VERTICES
    rng = np.random.default_rng(9)

    def key_under(prefix, bits):
        while True:
            low = int(rng.integers(0, 1 << (64 - bits), dtype=np.uint64))
            key = ((prefix << (64 - bits)) | low) * _GAMMA_INVERSE % (1 << 64)
            if key < n * n:
                return key

    crowded = [key_under(5, 4) for _ in range(20)]
    others = [key_under(int(b), 4) for b in rng.choice([b for b in range(16) if b != 5], 44)]
    edges = _edge_set_of_keys(np.array(crowded + others, dtype=np.int64), n)
    assert edges.overflow.tolist() == [bucket == 5 for bucket in range(16)]
    assert edges.stash.size == 12
    members = set(crowded + others)
    lookalike = [key_under(_hash(int(k)) >> 54, 10) for k in rng.choice(crowded, 30)]
    assert not members & set(lookalike)
    probe = np.array(crowded + others + lookalike, dtype=np.int64)
    with tracing() as tracer:
        tracer.clear()
        got = edges.contains(probe // n, probe % n)
        (event,) = [e for e in tracer.events() if e.name == "sampling.edge_probe"]
    assert got.tolist() == [key in members for key in probe.tolist()]
    assert event.args == {"probes": 94, "passed": 94, "stashed": 42, "hits": 64}


def test_keys_at_the_top_of_the_key_space():
    """No CSR with ``_MAX_KEYED_VERTICES`` vertices fits in memory; its
    largest keys still probe exactly."""
    n = _MAX_KEYED_VERTICES
    rng = np.random.default_rng(2)
    src = n - 1 - rng.integers(0, 40, size=300)
    dst = n - 1 - rng.integers(0, 40, size=300)
    keys = np.unique(src * np.int64(n) + dst)
    assert keys.max() <= n * n - 1 <= 2**63 - 1
    edges = _edge_set_of_keys(keys, n)
    members = set(keys.tolist())
    probe_src = n - 1 - rng.integers(0, 40, size=2000)
    probe_dst = n - 1 - rng.integers(0, 40, size=2000)
    expected = [s * n + d in members for s, d in zip(probe_src.tolist(), probe_dst.tolist())]
    assert edges.contains(probe_src, probe_dst).tolist() == expected
    assert edges.contains(keys // n, keys % n).all()


@pytest.mark.parametrize("name", ["empty", "one-edge", "hub", "rmat-3", "unsorted-1"])
def test_filter_is_the_sized_bit_image_of_the_keys(name):
    """Bit ``fib_hash(key)`` is set for every key and for nothing else,
    in the smallest power of two with >= 16 bits per edge."""
    keys = build_edge_keys(GRAPHS[name])
    packed = build_edge_filter(_sorted_hashes(keys))
    bits = packed.size * 8
    assert packed.dtype == np.uint8 and bits & (bits - 1) == 0
    assert bits >= max(16 * keys.size, 64)
    assert bits == 64 or bits < 32 * keys.size
    shift = 64 - (bits.bit_length() - 1)
    expected = np.zeros(bits, dtype=bool)
    expected[[_hash(int(key)) >> shift for key in keys]] = True
    assert np.array_equal(np.unpackbits(packed, bitorder="little").astype(bool), expected)


@pytest.mark.parametrize("name", ["empty", "one-edge", "hub", "rmat-3", "rmat-5", "unsorted-1"])
def test_table_holds_each_key_once_in_its_line_or_the_stash(name):
    """``2**b`` lines, ``b = (|E| // 8).bit_length()``; a line holds its
    first eight keys in hash order, its further keys are in the sorted
    stash, and only those lines are flagged."""
    keys = build_edge_keys(GRAPHS[name])
    table, overflow, stash = build_edge_table(_sorted_hashes(keys))
    bits = (keys.size // 8).bit_length()
    assert table.shape == (1 << bits, 8) and table.dtype == np.int64
    lines = [[] for _ in range(1 << bits)]
    for key in sorted(keys.tolist(), key=_hash):
        lines[_hash(key) >> (64 - bits) if bits else 0].append(key)
    assert table.tolist() == [(line + [-1] * 8)[:8] for line in lines]
    assert overflow.tolist() == [len(line) > 8 for line in lines]
    assert stash.tolist() == sorted(key for line in lines for key in line[8:])


def test_filter_pass_rate_on_non_edges():
    """The shipped sizing answers >= 90% of absent pairs from the filter
    alone (``passed`` counts what reaches the table)."""
    graph = rmat(12, edge_factor=12, seed=3)
    edges = EdgeSet.build(graph)
    rng = np.random.default_rng(8)
    n = graph.num_vertices
    src = rng.integers(0, n, size=40_000)
    dst = rng.integers(0, n, size=40_000)
    absent = ~np.isin(src * n + dst, build_edge_keys(graph))
    with tracing() as tracer:
        tracer.clear()
        found = edges.contains(src[absent], dst[absent])
        (event,) = [e for e in tracer.events() if e.name == "sampling.edge_probe"]
    assert not found.any()
    assert event.args["probes"] == int(absent.sum()) and event.args["hits"] == 0
    assert event.args["passed"] <= 0.10 * event.args["probes"]


def test_probe_span_counts_probes_passes_stash_reads_and_hits():
    graph = GRAPHS["rmat-2"]
    edges = EdgeSet.build(graph)
    src, dst = _edge_pairs(graph)
    with tracing() as tracer:
        tracer.clear()
        edges.contains(src, dst)
        (event,) = [e for e in tracer.events() if e.name == "sampling.edge_probe"]
    # Every real edge passes; one in a full line's stash reads the stash.
    stash = set(edges.stash.tolist())
    stashed = sum(key in stash for key in (src * graph.num_vertices + dst).tolist())
    assert event.args == {"probes": src.size, "passed": src.size, "stashed": stashed,
                          "hits": src.size}
    # Off by default: an untraced probe records nothing.
    tracer.clear()
    edges.contains(src, dst)
    assert tracer.events() == ()


@pytest.fixture
def table_builds(monkeypatch):
    """Names of the builders called, once per call."""
    builds = []
    for name in ("build_edge_keys", "build_edge_filter", "build_edge_table"):
        real = getattr(vectorized, name)

        def counted(*args, _name=name, _real=real):
            builds.append(_name)
            return _real(*args)

        monkeypatch.setattr(vectorized, name, counted)
    return builds


def test_kernels_of_one_graph_share_one_edge_set(table_builds):
    graph = rmat(6, edge_factor=4, seed=12)
    kernels = [RejectionKernel(p=2.0, q=0.5), ReservoirKernel(p=2.0, q=0.5)]
    for kernel in kernels:
        kernel.prepare(graph)
    assert table_builds == ["build_edge_keys", "build_edge_filter", "build_edge_table"]
    shared = SamplerState.of(graph).edge_set
    assert all(kernel._edge_set is shared for kernel in kernels)
    table_builds.clear()
    built = EdgeSet.build(graph)
    for name in _FIELDS:
        assert np.array_equal(getattr(shared, name), getattr(built, name)), name
    src, dst = _edge_pairs(graph)
    probe = (np.concatenate((src, dst)), np.concatenate((dst, src)))
    assert np.array_equal(shared.contains(*probe), built.contains(*probe))


def test_a_dynamic_states_edge_set_equals_a_static_build_after_updates():
    """Each snapshot carries the edge set a reader asked an earlier epoch
    for, built from its new CSR after inserts and deletes: the table a
    fresh CSR of the same edges builds."""
    trace = sliding_window_trace(8, edge_factor=6, batch_size=150, num_batches=4,
                                 weighted=False, seed=21)
    dynamic = trace.build_dynamic()
    dynamic.snapshot().sampler_state.edge_set  # asked first: carried from here
    for batch in trace.batches:
        apply_batch(dynamic, batch)
        snapshot = dynamic.snapshot()
    state = snapshot.sampler_state
    assert state.builds["edge_set", "incremental"] == len(trace.batches)
    static, _ = rebuild_from_edge_set(*trace.final_edges(), dynamic.num_vertices,
                                      dynamic.name)
    expected = EdgeSet.build(static)
    for name in _FIELDS:
        assert np.array_equal(getattr(state.edge_set, name), getattr(expected, name)), name
    src, dst = _edge_pairs(static)
    assert state.edge_set.contains(src, dst).all()


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
    kernel._edge_set = _CountingEdgeSet(*(getattr(kernel._edge_set, name) for name in _FIELDS),
                                        graph.num_vertices)
    current = np.flatnonzero(graph.degrees() > 0)[:60]
    first_hop = np.full(current.size, -1, dtype=np.int64)

    def sample(k, previous):
        streams = QueryStreams(3, np.arange(current.size))
        return k.sample(graph, current, previous, None, streams, None, graph.degrees()[current])

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


def test_table_probe_has_one_call_site():
    """The edge table's lines and its stash are read in exactly one
    function under ``sampling/`` — :meth:`EdgeSet.contains` — and no
    ``searchsorted`` there or anywhere beside it meets edge keys outside
    the stash."""
    sites, searches = [], []
    for path in _sources("sampling"):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Subscript) and ast.unparse(node.value) in (
                    "self.table", "self.stash", "self.overflow"
                ):
                    sites.append(f"{path.name}:{function.name}")
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "searchsorted"
                    and "keys" in ast.unparse(node)
                ):
                    searches.append(f"{path.name}:{function.name}")
    assert sorted(set(sites)) == ["vectorized.py:contains"]
    assert searches == []


def test_retired_probe_paths_stay_deleted():
    retired = ("HubAdjacency", "hybrid_edges_exist", "hub_bitmap", "def edges_exist")
    for path in _sources():
        text = path.read_text()
        for name in retired:
            assert name not in text, f"{name} in {path}"
