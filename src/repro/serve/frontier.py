"""The service's one dispatcher: one frontier step per event-loop turn.

The service does not batch.  Its dispatcher steps the frontier the
engine opens — ``batch``'s :class:`~repro.walks.batch.OpenFrontier`, one
superstep a step, or any other engine's
:class:`~repro.walks.engine.RunFrontier`, one closed ``run`` of
everything seated a step — on the event loop itself; every turn

1. **ingests** what the queue holds into the tenant scheduler, deriving
   the stream states of everything that arrived in one call (a few ids
   are hashed one by one in Python ints, a burst in one array pass);
2. **seats** ``scheduler.next_batch(free)`` — clients by weighted
   round-robin, then pool-fill walkers — into the frontier's free slots;
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
never spins.  A pool fill's walkers take the slots clients leave, over
as many turns as that needs, and the pool installs whole when its last
walker ends.  If ``step()`` raises, exactly the seated
requests fail and the loop carries on with what is buffered.

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
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.trace import active as _active_tracer
from repro.sampling.vectorized import seed_sequence_states
from repro.serve.items import _PendingRequest, _PoolFill
from repro.walks.batch import OpenFrontier
from repro.walks.engine import RunFrontier, add_counts

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.service import WalkService


@dataclass(eq=False)
class _FillRun:
    """One pool fill on its way through the frontier."""

    fill: _PoolFill
    states: np.ndarray
    #: Walkers seated so far, and walks still to come back.
    seated: int = 0
    left: int = field(init=False)
    entries: list = field(init=False)

    def __post_init__(self) -> None:
        self.left = len(self.fill.queries)
        self.entries = [None] * self.left


def _queued(queue: asyncio.Queue):
    """What ``queue`` holds right now, taken one by one."""
    while not queue.empty():
        yield queue.get_nowait()


def _seat_fill(frontier: OpenFrontier | RunFrontier, run: _FillRun, walkers: dict) -> int:
    """Seat as many of ``run``'s unseated walkers as there are free slots."""
    queries = run.fill.queries[run.seated:run.seated + frontier.free]
    slots = frontier.admit(queries.ids, queries.starts,
                           run.states[run.seated:run.seated + len(queries)])
    for index, slot in enumerate(slots.tolist(), start=run.seated):
        walkers[slot] = (run, index)
    run.seated += len(queries)
    return len(queries)


async def frontier_loop(service: "WalkService", frontier: OpenFrontier | RunFrontier) -> None:
    """Serve ``service``'s queue through ``frontier`` until cancelled."""
    queue, scheduler = service._queue, service._scheduler
    stats, engine_stats, cache = service.stats, service.engine_stats, service.cache
    seed = service._seed
    clock = asyncio.get_running_loop().time
    #: slot -> the request seated there
    clients: dict[int, _PendingRequest] = {}
    #: slot -> (fill run, index of the walker in its pool)
    pool_walkers: dict[int, tuple[_FillRun, int]] = {}
    #: Fills with walkers still to seat, oldest first.
    fills: deque[_FillRun] = deque()
    # Engine seconds a walker seated since the start would have been
    # charged: each step's time, split evenly over its walkers.  A
    # request is charged ``share`` when it ends less its slot's entry.
    share = 0.0
    seated_share = [0.0] * frontier.capacity
    booked = frontier.counts.copy()

    def book_ended(ended: list[int], now: float, tracer) -> int:
        """Hand out the walks of the ``ended`` slots and book them: their
        requests resolve, a pool whose last walk came back installs, and
        the engine counters catch up with the frontier's.  Returns the
        hops of the walks.  Only a turn that ends walks books anything."""
        hops: list[int] = []
        done: list[_PendingRequest] = []
        paths: list[np.ndarray] = []
        busy: list[float] = []
        for slot in ended:
            path = frontier.take(slot)
            hops.append(path.size - 1)
            request = clients.pop(slot, None)
            if request is not None:
                done.append(request)
                paths.append(path)
                busy.append(share - seated_share[slot])
                continue
            run, index = pool_walkers.pop(slot)
            run.entries[index] = (run.fill.queries.ids.item(index), path)
            run.left -= 1
            if run.left == 0:
                cache.install(run.fill.start_vertex, run.entries)
                if tracer is not None:
                    tracer.instant("serve.cache_fill", vertex=run.fill.start_vertex,
                                   entries=len(run.entries))
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
        for run in dict.fromkeys(run for run, _ in pool_walkers.values()):
            cache.fill_aborted(run.fill.start_vertex)
            if run in fills:
                fills.remove(run)
        clients.clear()
        pool_walkers.clear()
        frontier.abandon()

    try:
        while True:
            # -- ingest ------------------------------------------------
            # Idle — nothing to step until something arrives: block.
            idle = not (frontier.live or fills or scheduler.has_work())
            if idle or not queue.empty():
                arrived = list(chain([await queue.get()] if idle else (), _queued(queue)))
                requests = [item for item in arrived if isinstance(item, _PendingRequest)]
                if requests:
                    states = seed_sequence_states(
                        seed, [request.query_id for request in requests]
                    ).tolist()
                    for request, state in zip(requests, states):
                        request.state = state
                for item in arrived:
                    scheduler.push(item)

            tracer = _active_tracer()
            if tracer is not None:
                _t_step = tracer.begin()

            # -- seat --------------------------------------------------
            seated = 0
            if frontier.free and scheduler.has_work():
                group = scheduler.next_batch(frontier.free)
                if isinstance(group[-1], _PoolFill):
                    fill = group.pop()
                    fills.append(_FillRun(fill, seed_sequence_states(
                        seed, fill.queries.ids)))
                if group:
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
            while fills and frontier.free:
                try:
                    seated += _seat_fill(frontier, fills[0], pool_walkers)
                except Exception:
                    # As for clients: nothing of this call was seated.
                    # Walkers of the fill seated on earlier turns walk
                    # out; their pool, one walker short, never installs.
                    cache.fill_aborted(fills.popleft().fill.start_vertex)
                    continue
                if fills[0].seated == len(fills[0].fill.queries):
                    fills.popleft()

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
                        turn_hops = book_ended(ended, now, tracer)
                    stats.record_step(live, turn_hops, now - began)
                if tracer is not None:
                    tracer.end(_t_step, "serve.step", live=live, seated=seated,
                               ended=len(ended) if ended is not None else live,
                               failed=ended is None,
                               backlog=scheduler.pending_clients)

            await asyncio.sleep(0)
    except asyncio.CancelledError:
        # A stop.  Hand everything unresolved back to the queue — seated
        # requests first, they were admitted first — so stop() fails the
        # futures and aborts the fills in one place.
        for request in clients.values():
            queue.put_nowait(request)
        for run in dict.fromkeys((*fills, *(run for run, _ in pool_walkers.values()))):
            queue.put_nowait(run.fill)
        for item in scheduler.drain_all():
            queue.put_nowait(item)
        frontier.abandon()
        raise
