"""What rides a :class:`~repro.serve.service.WalkService`'s dispatch queue.

One item: an admitted client request, in arrival order.  The service
enqueues it and the dispatcher in ``frontier.py`` seats it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.serve.qos import DEFAULT_TENANT


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
    #: Stream state of ``(service seed, query id)``; the dispatcher
    #: derives it for everything it ingests in a turn at once.
    state: int = 0
