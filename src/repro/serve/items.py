"""What rides a :class:`~repro.serve.service.WalkService`'s dispatch queue.

Three kinds of item share one queue, so their order *is* the order of
events: a client request, a cache pool fill, a graph swap.  Both
dispatchers (the closed micro-batcher in ``service.py``, the open
frontier in ``frontier.py``) read them.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.serve.qos import DEFAULT_TENANT
from repro.walks.base import Query


@dataclass
class _PendingRequest:
    """One admitted request waiting for (or undergoing) execution."""

    query: Query
    future: asyncio.Future
    submitted_at: float
    tenant: str = DEFAULT_TENANT
    #: Query-id-independent submissions resolve with a
    #: :class:`~repro.serve.cache.ServedWalk` instead of ``WalkResults``.
    cacheable: bool = False
    #: Stream state of ``(service seed, query id)``; the frontier
    #: dispatcher derives it for everything it ingests in a turn at once.
    state: int = 0


@dataclass
class _PoolFill:
    """Gate-exempt cache pool generation riding the dispatch queue.

    Carries the reserved-id queries of one pool; executed by the same
    prepared engine as client requests and installed into the cache
    whole, keyed by the one epoch it actually ran on.  No future, no
    admission accounting — a fill the service drops on teardown is only
    a lost warm-up.
    """

    start_vertex: int
    queries: list[Query] = field(default_factory=list)


@dataclass
class _EpochSwap:
    """A graph-version change queued behind already-admitted requests.

    Rides the same queue as requests, so ordering *is* the epoch
    boundary: everything admitted before the swap executes on the old
    version, everything after on the new one.
    """

    snapshot: object
    future: asyncio.Future
