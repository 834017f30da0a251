"""Synthetic graph generators.

Three families are used throughout the evaluation:

* :func:`rmat` — the recursive matrix model (Chakrabarti et al., SDM'04)
  the paper uses for Figure 10, with both the balanced initiator
  ``a=b=c=d=0.25`` and the Graph500 initiator ``a=0.57, b=c=0.19, d=0.05``.
* :func:`powerlaw` — a configuration-model-style generator with Zipf
  out-degrees, used to synthesize scaled stand-ins for the SNAP/WebGraph
  datasets in Table II (see :mod:`repro.graph.datasets`).
* small deterministic graphs (:func:`cycle_graph` etc.) for unit tests.

All generators take an explicit ``seed`` and are deterministic for a given
seed, which the test suite relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

#: The Graph500 reference initiator probabilities used in Figure 10.
GRAPH500_INITIATOR = (0.57, 0.19, 0.19, 0.05)

#: The balanced (Erdos-Renyi-like) initiator used in Figure 10.
BALANCED_INITIATOR = (0.25, 0.25, 0.25, 0.25)


def rmat(
    scale: int,
    edge_factor: int = 16,
    initiator: tuple[float, float, float, float] = GRAPH500_INITIATOR,
    seed: int = 0,
    directed: bool = True,
    dedupe: bool = True,
    name: str | None = None,
) -> CSRGraph:
    """Generate an RMAT graph with ``2**scale`` vertices.

    Each of the ``edge_factor * 2**scale`` edges is placed by recursively
    descending ``scale`` levels of the adjacency matrix, choosing the
    quadrant at each level according to the initiator probabilities
    ``(a, b, c, d)``.  Every level draws into one reused buffer and
    shifts its boolean bits into the two endpoint rows in place; the
    rows reach :func:`~repro.graph.builders.from_edges` as a transposed
    view, which builds the CSR from one sort of their ``src * |V| + dst``
    keys.

    Parameters
    ----------
    scale:
        Log2 of the vertex count (``SC16`` in the paper means scale 16).
    edge_factor:
        Edges per vertex before deduplication (paper uses 8 and 32).
    initiator:
        Quadrant probabilities ``(a, b, c, d)``; must sum to 1.
    directed:
        When ``False``, each generated edge is mirrored.
    dedupe:
        Drop duplicate edges (Graph500 reference behaviour).
    """
    if scale < 1:
        raise GraphError(f"scale must be >= 1, got {scale}")
    if edge_factor < 1:
        raise GraphError(f"edge_factor must be >= 1, got {edge_factor}")
    a, b, c, d = initiator
    total = a + b + c + d
    if not np.isclose(total, 1.0):
        raise GraphError(f"initiator probabilities must sum to 1, got {total}")
    if min(initiator) < 0:
        raise GraphError("initiator probabilities must be non-negative")

    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    # Descend the recursion levels for all edges at once.  At each level a
    # uniform draw selects the quadrant: a -> (0,0), b -> (0,1), c -> (1,0),
    # d -> (1,1); row and column bits accumulate most-significant first.
    ends = np.zeros((2, m), dtype=np.int64)
    src, dst = ends
    draw = np.empty(m, dtype=np.float64)
    row_bit = np.empty(m, dtype=bool)
    col_bit = np.empty(m, dtype=bool)
    top, right = a + b, a + b + c
    for _ in range(scale):
        rng.random(out=draw)
        np.greater_equal(draw, top, out=row_bit)
        src <<= 1
        src |= row_bit
        # Quadrant b is [a, a + b): at least a, and not yet a row bit.
        np.greater_equal(draw, a, out=col_bit)
        col_bit ^= row_bit
        np.greater_equal(draw, right, out=row_bit)
        col_bit |= row_bit
        dst <<= 1
        dst |= col_bit
    label = name or f"rmat-sc{scale}-ef{edge_factor}"
    return from_edges(
        ends.T,
        num_vertices=n,
        directed=directed,
        dedupe=dedupe,
        name=label,
    )


def powerlaw(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.1,
    dangling_fraction: float = 0.0,
    directed: bool = True,
    preferential: bool = True,
    max_in_share: float | None = 0.01,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Generate a graph with Zipf-distributed out-degrees.

    Out-degrees follow a truncated power law with the given ``exponent``;
    edge targets are drawn preferentially (proportional to an independent
    Zipf popularity) or uniformly.  A ``dangling_fraction`` of vertices is
    forced to zero out-degree, reproducing the early-termination structure
    of directed web/citation graphs that drives the paper's scheduler
    results (Section VIII-D notes ~80% of real graphs are directed).

    The realized edge count approximates ``num_edges`` (duplicates are
    removed).

    ``max_in_share`` caps the fraction of in-edge mass any single vertex
    attracts (water-filling the clipped popularity back onto the rest).
    Full-scale graphs spread their hubs over millions of vertices, so the
    top vertex attracts well under 1% of traffic; an *unclipped* Zipf
    distribution over a scaled-down vertex set would concentrate ~10% on
    one vertex and hot-spot a single memory channel — an artifact of
    downscaling, not a property of the Table II datasets.
    """
    if num_vertices < 1:
        raise GraphError("num_vertices must be >= 1")
    if num_edges < 0:
        raise GraphError("num_edges must be >= 0")
    if not 0.0 <= dangling_fraction < 1.0:
        raise GraphError(f"dangling_fraction must be in [0, 1), got {dangling_fraction}")
    if exponent <= 1.0:
        raise GraphError(f"exponent must exceed 1, got {exponent}")
    if dangling_fraction > 0.0 and not directed:
        raise GraphError("dangling_fraction requires a directed graph")

    rng = np.random.default_rng(seed)
    n = np.int64(num_vertices)
    # Zipf-shaped endpoint popularities.  In-degree carries the full skew
    # (hubs attract edges); out-degree skew is softened to half the tail
    # exponent, matching real web/citation graphs whose out-degrees are
    # far narrower than their in-degrees.
    src_ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    rng.shuffle(src_ranks)
    src_weight = src_ranks ** (-(exponent - 1.0) * 0.5)
    if preferential:
        dst_ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
        rng.shuffle(dst_ranks)
        dst_weight = dst_ranks ** (-(exponent - 1.0))
        dst_p = dst_weight / dst_weight.sum()
        if max_in_share is not None:
            if not 0.0 < max_in_share <= 1.0:
                raise GraphError(f"max_in_share must be in (0, 1], got {max_in_share}")
            # Tiny graphs cannot honor a small cap (n*cap must exceed 1);
            # relax toward uniform rather than failing.
            feasible_cap = max(max_in_share, 2.0 / num_vertices)
            if feasible_cap < 1.0:
                dst_p = _clip_distribution(dst_p, feasible_cap)
    else:
        dst_p = None

    dangling = np.empty(0, dtype=np.int64)
    if dangling_fraction > 0.0:
        num_dangling = int(round(dangling_fraction * num_vertices))
        if dst_p is not None:
            # Dangling vertices are the *unpopular* tail (crawl-frontier
            # pages, freshly added users): they have few in-links, so a
            # walk dies with a few-percent hazard per hop rather than
            # immediately — mean walk lengths land in the tens of hops,
            # which is what the paper's early-termination analysis shows.
            dangling = np.argsort(dst_p)[:num_dangling].astype(np.int64)
        else:
            dangling = rng.choice(num_vertices, size=num_dangling, replace=False)
        src_weight[dangling] = 0.0
    src_p = src_weight / src_weight.sum()

    def _draw_dst(count: int) -> np.ndarray:
        if dst_p is None:
            return rng.integers(0, num_vertices, size=count, dtype=np.int64)
        return rng.choice(num_vertices, size=count, p=dst_p)

    # Seed round: every non-dangling vertex gets one out-edge, so the
    # realized dangling fraction stays pinned to the requested one.
    non_dangling = np.setdiff1d(np.arange(num_vertices, dtype=np.int64), dangling)
    seed_dst = _draw_dst(non_dangling.size)
    keep = non_dangling != seed_dst
    unique_keys = np.unique(non_dangling[keep] * n + seed_dst[keep])

    # Top-up rounds: duplicate edges collapse under dedup, so keep drawing
    # until the unique count reaches the target (or growth stalls on tiny
    # dense graphs where the target is unreachable).
    target = num_edges
    for _ in range(30):
        missing = target - unique_keys.size
        if missing <= 0:
            break
        batch = int(missing * 1.5) + 16
        src = rng.choice(num_vertices, size=batch, p=src_p)
        dst = _draw_dst(batch)
        keep = src != dst  # no self loops
        keys = src[keep].astype(np.int64) * n + dst[keep]
        merged = np.union1d(unique_keys, keys)
        if merged.size == unique_keys.size:
            break  # saturated: every possible edge already present
        unique_keys = merged
    if unique_keys.size > target:
        unique_keys = rng.choice(unique_keys, size=target, replace=False)

    edges = np.stack([unique_keys // n, unique_keys % n]).T
    label = name or f"powerlaw-n{num_vertices}"
    return from_edges(edges, num_vertices=num_vertices, directed=directed, name=label)


def _clip_distribution(p: np.ndarray, cap: float) -> np.ndarray:
    """Clip a probability vector at ``cap`` and redistribute the excess
    proportionally over unclipped entries (water-filling)."""
    if cap * p.size < 1.0:
        raise GraphError(
            f"cap {cap} is infeasible for a distribution over {p.size} entries"
        )
    p = p.copy()
    for _ in range(64):
        over = p > cap
        excess = float((p[over] - cap).sum())
        if excess <= 1e-15:
            break
        p[over] = cap
        under = ~over
        headroom = p[under]
        p[under] = headroom + excess * headroom / headroom.sum()
    return p / p.sum()


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    directed: bool = True,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Uniform random graph with approximately ``num_edges`` edges."""
    if num_vertices < 1:
        raise GraphError("num_vertices must be >= 1")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]]).T
    label = name or f"er-n{num_vertices}"
    return from_edges(edges, num_vertices=num_vertices, directed=directed, dedupe=True, name=label)


def cycle_graph(num_vertices: int, name: str = "cycle") -> CSRGraph:
    """Directed cycle ``0 -> 1 -> ... -> n-1 -> 0``."""
    if num_vertices < 1:
        raise GraphError("num_vertices must be >= 1")
    src = np.arange(num_vertices, dtype=np.int64)
    dst = (src + 1) % num_vertices
    return from_edges(np.stack([src, dst]).T, num_vertices=num_vertices, name=name)


def path_graph(num_vertices: int, name: str = "path") -> CSRGraph:
    """Directed path ``0 -> 1 -> ... -> n-1`` (last vertex dangles)."""
    if num_vertices < 1:
        raise GraphError("num_vertices must be >= 1")
    src = np.arange(num_vertices - 1, dtype=np.int64)
    dst = src + 1
    return from_edges(np.stack([src, dst]).T, num_vertices=num_vertices, name=name)


def star_graph(num_leaves: int, name: str = "star") -> CSRGraph:
    """Hub vertex 0 pointing at ``num_leaves`` dangling leaves."""
    if num_leaves < 1:
        raise GraphError("num_leaves must be >= 1")
    src = np.zeros(num_leaves, dtype=np.int64)
    dst = np.arange(1, num_leaves + 1, dtype=np.int64)
    return from_edges(np.stack([src, dst]).T, num_vertices=num_leaves + 1, name=name)


def complete_graph(num_vertices: int, name: str = "complete") -> CSRGraph:
    """Complete directed graph without self loops."""
    if num_vertices < 1:
        raise GraphError("num_vertices must be >= 1")
    src, dst = np.nonzero(~np.eye(num_vertices, dtype=bool))
    return from_edges(
        np.stack([src, dst]).T,
        num_vertices=num_vertices,
        name=name,
    )
