"""Hot-walk caching: pre-generated pools for repeated queries.

Real walk traffic is heavily repeated: the same PPR / DeepWalk queries
hit the same hot vertices over and over (ThunderRW's application mix),
and a random-walk response is *query-id-independent* whenever the
caller asked for "a walk from v" rather than "the walk for id 17".
Those requests can be served from a **pool** of walks generated ahead
of time, as long as every pooled walk stays replayable:

* Every pooled walk is generated by the engine itself under a
  *reserved* query id (``>=`` :data:`POOL_ID_BASE`, disjoint from client
  ids), so a cache hit returns a path that is bit-identical to
  ``replay_paths(graph, spec, {id: v}, seed)`` for the id it hands back.
  The response carries that id (:class:`ServedWalk.query_id`); nothing
  about caching is outside the ``SeedSequence((seed, query_id))``
  contract.  Entries are consumed at most once, so no two responses
  ever share a path.
* Pools are keyed by start vertex: a cache holds walks of one graph,
  the one its service serves.

The cache itself is passive bookkeeping: the service decides when to
look up (only for id-independent submissions), and pool *generation*
rides the service's own dispatch queue as gate-exempt fill work, so
pools are always produced by the same prepared engine as the requests
they serve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServeError
from repro.walks.base import WalkBatch

#: First query id reserved for cache pools.  Client query ids must stay
#: below this; the service enforces it at submission.  2**40 leaves
#: room for ~10^12 client requests per service lifetime while keeping
#: pool ids exact in float64-free int64 arithmetic everywhere.
POOL_ID_BASE = 1 << 40


@dataclass(frozen=True)
class ServedWalk:
    """Resolution of a query-id-independent (cacheable) submission.

    ``query_id`` is the id that *actually* keyed the walk's randomness —
    a pool-reserved id on a cache hit, the service-assigned id on a miss
    — so ``replay_paths(graph, spec, {query_id: path[0]}, seed)``
    reproduces ``path`` bit-for-bit.
    """

    query_id: int
    path: np.ndarray
    cache_hit: bool


class HotWalkCache:
    """Consume-once walk pools keyed by start vertex.

    ``pool_size``
        Walks generated per pool fill.
    ``hot_threshold``
        Cacheable misses a vertex must accumulate before a
        pool fill is triggered for it — cold vertices never earn pools.
    ``max_pools``
        Bound on live pools (memory cap); while at the bound, no new
        fills trigger.  Exhausted pools leave the bound.
    """

    def __init__(self, pool_size: int = 32, hot_threshold: int = 8,
                 max_pools: int = 256) -> None:
        if pool_size < 1:
            raise ServeError(f"pool_size must be >= 1, got {pool_size}")
        if hot_threshold < 1:
            raise ServeError(f"hot_threshold must be >= 1, got {hot_threshold}")
        if max_pools < 1:
            raise ServeError(f"max_pools must be >= 1, got {max_pools}")
        self.pool_size = pool_size
        self.hot_threshold = hot_threshold
        self.max_pools = max_pools
        self._pools: dict[int, list[tuple[int, np.ndarray]]] = {}
        self._misses: dict[int, int] = {}
        #: Start vertices with a pool fill in flight.
        self._filling: set[int] = set()
        self._next_id = POOL_ID_BASE
        self.hits = 0
        self.misses = 0
        self.pools_built = 0

    @property
    def live_pools(self) -> int:
        return len(self._pools)

    def take(self, start_vertex: int) -> tuple[int, np.ndarray] | None:
        """Consume one pooled ``(query_id, path)`` from ``start_vertex``."""
        pool = self._pools.get(start_vertex)
        if pool is None:
            return None
        self.hits += 1
        entry = pool.pop()
        if not pool:
            # Exhausted pools leave the max_pools budget immediately.
            del self._pools[start_vertex]
        return entry

    def note_miss(self, start_vertex: int) -> WalkBatch | None:
        """Count one cacheable miss; return pool-fill queries at threshold.

        Returns ``None`` until the vertex is hot (or while a fill for it
        is already in flight, or the pool budget is spent); at the
        threshold it allocates ``pool_size`` reserved query ids and
        returns the queries the service should run to build the pool.
        """
        self.misses += 1
        if start_vertex in self._filling or len(self._pools) >= self.max_pools:
            return None
        count = self._misses.get(start_vertex, 0) + 1
        if count < self.hot_threshold:
            self._misses[start_vertex] = count
            return None
        self._misses.pop(start_vertex, None)
        self._filling.add(start_vertex)
        queries = WalkBatch(np.arange(self._next_id, self._next_id + self.pool_size),
                            np.full(self.pool_size, start_vertex))
        self._next_id += self.pool_size
        return queries

    def install(self, start_vertex: int, entries: list[tuple[int, np.ndarray]]) -> None:
        """Publish one generated pool for ``start_vertex``.

        Reversed so :meth:`take` pops ids in generation order.
        """
        self._filling.discard(start_vertex)
        if not entries:
            return
        self._pools[start_vertex] = list(reversed(entries))
        self.pools_built += 1

    def fill_aborted(self, start_vertex: int) -> None:
        """Forget an in-flight fill that failed; misses may re-trigger it."""
        self._filling.discard(start_vertex)

    def snapshot(self) -> dict:
        """JSON-ready counters (embedded in serve benchmark records)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else None,
            "live_pools": self.live_pools,
            "pools_built": self.pools_built,
        }
