"""What rides a :class:`~repro.serve.service.WalkService`'s dispatch queue.

Two kinds of item share one queue, so their order *is* the order of
events: a client request and a cache pool fill.  The dispatcher in
``frontier.py`` reads them.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.serve.qos import DEFAULT_TENANT
from repro.walks.base import WalkBatch


@dataclass(slots=True, eq=False)
class _PendingRequest:
    """One admitted request waiting for (or undergoing) execution.

    The request is its own query: it carries ``query_id`` and
    ``start_vertex`` (validated at submission), and the dispatcher reads
    the two fields when it seats it.
    """

    query_id: int
    start_vertex: int
    future: asyncio.Future
    submitted_at: float
    tenant: str = DEFAULT_TENANT
    #: Query-id-independent submissions resolve with a
    #: :class:`~repro.serve.cache.ServedWalk` instead of ``WalkResults``.
    cacheable: bool = False
    #: Stream state of ``(service seed, query id)``; the dispatcher
    #: derives it for everything it ingests in a turn at once.
    state: int = 0


@dataclass
class _PoolFill:
    """Gate-exempt cache pool generation riding the dispatch queue.

    Carries the reserved-id queries of one pool; executed by the same
    prepared engine as client requests and installed into the cache
    whole.  No future, no admission accounting — a fill the service
    drops on teardown is only a lost warm-up.
    """

    start_vertex: int
    queries: WalkBatch

