"""Correctness checks, run outside every timed window.

None of them is pinned to a digest of one commit's output: each states a
property any correct engine has (walks follow edges, counters add up,
equal seeds give equal paths), so a later change that alters the random
stream legitimately still passes.  ``paths_sha256`` is printed for
information only.
"""

from __future__ import annotations

import hashlib

import numpy as np
from harness import CheckFailed

#: Queries re-run by the determinism checks.
SUBSAMPLE = 1000


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _flatten(paths) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.fromiter((p.size for p in paths), dtype=np.int64, count=len(paths))
    flat = np.concatenate(paths) if len(paths) else np.empty(0, dtype=np.int64)
    return flat, lengths


def check_paths(graph, queries, results, stats=None) -> None:
    """Paths start where asked, follow graph edges, and match the counters.

    The edge test is the benchmark's own (sorted ``src * |V| + dst`` keys
    and one ``searchsorted``), not the program's adjacency probe.
    """
    paths = results.paths
    require(len(paths) == len(queries),
            f"{len(paths)} paths returned for {len(queries)} queries")
    flat, lengths = _flatten(paths)
    require(bool((lengths >= 1).all()), "a path is empty")
    firsts = flat[np.cumsum(lengths) - lengths]
    starts = np.fromiter((q.start_vertex for q in queries), dtype=np.int64, count=len(queries))
    require(np.array_equal(firsts, starts), "a path does not start at its query's start vertex")

    vertices = graph.num_vertices
    sources = np.repeat(np.arange(vertices, dtype=np.int64), np.diff(graph.row_ptr))
    edge_keys = np.sort(sources * vertices + graph.col)
    inside = np.ones(max(flat.size - 1, 0), dtype=bool)
    inside[np.cumsum(lengths)[:-1] - 1] = False  # pairs that straddle two paths
    hop_keys = (flat[:-1] * vertices + flat[1:])[inside]
    slots = np.minimum(np.searchsorted(edge_keys, hop_keys), edge_keys.size - 1)
    require(bool((edge_keys[slots] == hop_keys).all()),
            "a consecutive path pair is not a graph edge")

    hops = int(flat.size - lengths.size)
    require(hops == results.total_steps,
            f"paths hold {hops} hops, WalkResults.total_steps says {results.total_steps}")
    if stats is not None:
        require(hops == stats.total_hops,
                f"paths hold {hops} hops, EngineStats.total_hops says {stats.total_hops}")
        ended = (stats.early_terminations + stats.dangling_terminations
                 + stats.probabilistic_terminations + stats.length_terminations)
        require(ended == len(queries),
                f"termination counters sum to {ended} for {len(queries)} queries")


def same_paths(left, right) -> bool:
    return len(left) == len(right) and all(np.array_equal(a, b) for a, b in zip(left, right))


def check_determinism(engine, queries, seed: int) -> None:
    """Same seed twice gives identical paths; permuted queries give each
    query the same path (randomness is keyed by query id, not position)."""
    sample = list(queries[:SUBSAMPLE])
    first = engine.run(sample, seed=seed).paths
    require(same_paths(first, engine.run(sample, seed=seed).paths),
            "the same seed gave different paths on a second run")
    order = np.random.default_rng(seed).permutation(len(sample))
    permuted = engine.run([sample[i] for i in order], seed=seed).paths
    require(same_paths([first[i] for i in order], permuted),
            "permuting the queries changed a query's path")


def paths_sha256(paths) -> str:
    flat, lengths = _flatten(paths)
    digest = hashlib.sha256(lengths.tobytes())
    digest.update(flat.astype(np.int64).tobytes())
    return digest.hexdigest()
