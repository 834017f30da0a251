"""Structural graph statistics used by the evaluation harness.

These back Table II (dataset catalog: |V|, |E|, size, diameter) and the
motivation analysis (degree skew and dangling fraction drive workload
imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of a graph's out-degree distribution."""

    minimum: int
    maximum: int
    mean: float
    median: float
    std: float
    gini: float
    dangling_fraction: float


def degree_statistics(graph: CSRGraph) -> DegreeStatistics:
    """Compute out-degree summary statistics."""
    degrees = graph.degrees()
    if degrees.size == 0:
        raise GraphError("cannot summarize an empty graph")
    return DegreeStatistics(
        minimum=int(degrees.min()),
        maximum=int(degrees.max()),
        mean=float(degrees.mean()),
        median=float(np.median(degrees)),
        std=float(degrees.std()),
        gini=gini_coefficient(degrees),
        dangling_fraction=graph.dangling_fraction(),
    )


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative array (0 = uniform, 1 = skewed)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n == 0:
        raise GraphError("gini coefficient of an empty array is undefined")
    total = values.sum()
    if total == 0:
        return 0.0
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * (ranks * values).sum() / (n * total)) - (n + 1) / n)


def estimate_diameter(graph: CSRGraph, num_sources: int = 8, seed: int = 0) -> int:
    """Lower-bound estimate of the diameter via BFS from sampled sources.

    Exact diameters are infeasible for the larger synthetic graphs; a
    multi-source BFS sweep gives the same "diameter class" signal Table II
    communicates (tens of hops for social/web graphs, ~100+ for crawl
    graphs with long tendrils).
    """
    n = graph.num_vertices
    if n == 0:
        raise GraphError("cannot estimate the diameter of an empty graph")
    rng = np.random.default_rng(seed)
    # Prefer sources with outgoing edges so BFS actually explores.
    candidates = np.nonzero(graph.degrees() > 0)[0]
    if candidates.size == 0:
        return 0
    sources = rng.choice(candidates, size=min(num_sources, candidates.size), replace=False)
    best = 0
    for source in sources:
        best = max(best, _bfs_eccentricity(graph, int(source)))
    return best


def _bfs_eccentricity(graph: CSRGraph, source: int) -> int:
    """Largest finite BFS distance from ``source``."""
    n = graph.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    depth = 0
    row_ptr, col = graph.row_ptr, graph.col
    while frontier:
        next_frontier: list[int] = []
        for v in frontier:
            for u in col[row_ptr[v] : row_ptr[v + 1]]:
                u = int(u)
                if dist[u] < 0:
                    dist[u] = depth + 1
                    next_frontier.append(u)
        frontier = next_frontier
        depth += 1
    return int(dist.max())
