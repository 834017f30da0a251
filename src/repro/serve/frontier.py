"""The service's one dispatcher: one frontier step per event-loop turn.

The service does not batch.  Its dispatcher steps the frontier the
engine opens — ``batch``'s :class:`~repro.walks.batch.OpenFrontier`, one
superstep a step, or any other engine's
:class:`~repro.walks.engine.RunFrontier`, one closed ``run`` of
everything seated a step — on the event loop itself; every turn

1. **ingests** what the queue holds into the tenant scheduler, deriving
   the stream states of everything that arrived in one call (a few ids
   are hashed one by one in Python ints, a burst in one array pass);
2. **seats** ``scheduler.next_batch(free)`` — requests by weighted
   round-robin — into the frontier's free slots;
3. runs **one step** over the live walkers;
4. **resolves** the walks that ended in one pass
   (``WalkService._resolve``): each request gets a ``WalkResults`` of its
   own path, every ledger books the turn's completions in one call, each
   tenant its hops and engine time, and each tenant's gate places are
   released together — on ``serve_poisson``'s saturating bursts (a turn
   ends ~10 of 64 walks) that pass, with one slotted record per request
   in place of three objects, took saturated ``hops_per_s`` from 308k to
   366k (2-core host, medians of ten alternating runs).  A turn that
   ends no walk books only its step: the engine counters catch up with
   the frontier's on the next turn that ends one;
5. **yields** (``await asyncio.sleep(0)``), so submitters and callers'
   callbacks run between steps.

With nothing live and nothing buffered the loop blocks on the queue; it
never spins.  If ``step()`` raises, exactly the seated requests fail and
the loop carries on with what is buffered.

**A served walk's latency is its turns times the turn.**  A request is
seated on the first turn after it arrives and moves one hop a turn, so
it waits about ``hops + 1`` turns, and at the few walkers a paced
service holds (3-5 at 4000 req/s) a turn costs what it costs whatever
it carries: the fixed cost of each phase *is* the latency.  The budget
of one turn, µs, on ``serve_poisson``'s paced phase (PPR on RMAT-16 at
4000 req/s through the suite's generator, one CPU of a 2-CPU host; each
phase's calls wrapped and timed, idle waits left out, medians of five
alternating runs a side), before and after the superstep and the turn
shed their fixed costs (one degree read, one stream view, one
compaction, no clamp and no end scan in the superstep; single ids
hashed in Python ints; nothing booked on a turn that ends no walk):

=========  ======  =====
phase      before  after
=========  ======  =====
ingest       20.8   10.7
seat         10.5    8.2
superstep    81.3   58.2
book         11.9    7.9
rest         41.9   31.0
turn          165    116
=========  ======  =====

"rest" is the loop's own glue, the event loop and the generator's
submits and callbacks.  p50 went from 1.21 to 0.91 ms (7.3 and 7.9
turns of the turn each side measured).

This is :class:`~repro.serve.service.WalkService`'s own dispatcher,
split out by file: it works on the service's state directly.  Nothing
under ``serve/`` starts a thread or touches an executor (``tests/serve/
test_dispatch_guard.py``).
"""

from __future__ import annotations

import asyncio
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.trace import active as _active_tracer
from repro.sampling.vectorized import stream_states
from repro.serve.items import _PendingRequest
from repro.walks.batch import OpenFrontier
from repro.walks.engine import RunFrontier, add_counts

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.service import WalkService


def _queued(queue: asyncio.Queue):
    """What ``queue`` holds right now, taken one by one."""
    while not queue.empty():
        yield queue.get_nowait()


async def frontier_loop(service: "WalkService", frontier: OpenFrontier | RunFrontier) -> None:
    """Serve ``service``'s queue through ``frontier`` until cancelled."""
    queue, scheduler = service._queue, service._scheduler
    stats, engine_stats = service.stats, service.engine_stats
    seed = service._seed
    clock = asyncio.get_running_loop().time
    #: slot -> the request seated there
    clients: dict[int, _PendingRequest] = {}
    # Engine seconds a walker seated since the start would have been
    # charged: each step's time, split evenly over its walkers.  A
    # request is charged ``share`` when it ends less its slot's entry.
    share = 0.0
    seated_share = [0.0] * frontier.capacity
    booked = frontier.counts.copy()

    def book_ended(ended: list[int], now: float) -> int:
        """Hand out the walks of the ``ended`` slots and book them: their
        requests resolve, and the engine counters catch up with the
        frontier's.  Returns the hops of the walks.  Only a turn that
        ends walks books anything."""
        done = [clients.pop(slot) for slot in ended]
        paths = [frontier.take(slot) for slot in ended]
        busy = [share - seated_share[slot] for slot in ended]
        hops = [path.size - 1 for path in paths]
        turn_hops = sum(hops)
        engine_stats.per_query_hops.extend(hops)
        engine_stats.total_hops += turn_hops
        add_counts(engine_stats, frontier.counts - booked)
        booked[:] = frontier.counts
        service._resolve(done, paths, busy, now)
        return turn_hops

    def fail_seated(error: Exception, now: float) -> None:
        """``step()`` raised: exactly what was seated is lost."""
        service._fail(list(clients.values()), error, now)
        clients.clear()
        frontier.abandon()

    try:
        while True:
            # -- ingest ------------------------------------------------
            # Idle — nothing to step until something arrives: block.
            idle = not (frontier.live or scheduler.has_work())
            if idle or not queue.empty():
                arrived = list(chain([await queue.get()] if idle else (), _queued(queue)))
                states = stream_states(seed, [request.query_id for request in arrived]).tolist()
                for request, state in zip(arrived, states):
                    request.state = state
                    scheduler.push(request)

            tracer = _active_tracer()
            if tracer is not None:
                _t_step = tracer.begin()

            # -- seat --------------------------------------------------
            seated = 0
            if frontier.free and scheduler.has_work():
                group = scheduler.next_batch(frontier.free)
                try:
                    slots = frontier.admit(
                        [request.query_id for request in group],
                        [request.start_vertex for request in group],
                        np.array([request.state for request in group], dtype=np.uint64),
                    )
                except Exception as error:
                    # Nothing was seated.
                    service._fail(group, error, clock())
                else:
                    for slot, request in zip(slots.tolist(), group):
                        clients[slot] = request
                        seated_share[slot] = share
                    stats.record_admission(len(group))
                    service._record_tenant_admission(group)
                    seated = len(group)

            # -- step, resolve -----------------------------------------
            live = frontier.live
            if live:
                began = clock()
                try:
                    ended = frontier.step().tolist()
                except Exception as error:
                    fail_seated(error, clock())
                    ended = None
                else:
                    now = clock()
                    share += (now - began) / live
                    turn_hops = 0
                    if ended:
                        turn_hops = book_ended(ended, now)
                    stats.record_step(live, turn_hops, now - began)
                if tracer is not None:
                    tracer.end(_t_step, "serve.step", live=live, seated=seated,
                               ended=len(ended) if ended is not None else live,
                               failed=ended is None,
                               backlog=scheduler.pending_clients)

            await asyncio.sleep(0)
    except asyncio.CancelledError:
        # A stop.  Hand every unresolved request back to the queue — seated
        # requests first, they were admitted first — so stop() fails the
        # futures in one place.
        for request in chain(clients.values(), scheduler.drain_all()):
            queue.put_nowait(request)
        frontier.abandon()
        raise
