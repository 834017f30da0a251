"""The open-frontier dispatcher: one superstep per event-loop turn.

For an engine that can keep a run open
(:class:`~repro.walks.batch.OpenFrontier`), the service does not batch at
all.  Its dispatcher is the engine's superstep loop, run on the event
loop itself; every turn

1. **ingests** what the queue holds into the tenant scheduler, deriving
   the stream states of everything that arrived in one array pass;
2. **seats** ``scheduler.next_batch(free)`` — clients by weighted
   round-robin, then pool-fill walkers — into the frontier's free slots;
3. runs **one superstep** over the live walkers;
4. **resolves** each walk that ended with its own result, books it, and
   frees its slot and its place in the admission gates;
5. **yields** (``await asyncio.sleep(0)``), so submitters and callers'
   callbacks run between supersteps.

With nothing live and nothing buffered the loop blocks on the queue; it
never spins.  A queued :class:`~repro.serve.items._EpochSwap` stops
ingest where it sits; what was admitted before it is seated and walked
out on the old graph, and the swap applies once the frontier has
drained — a frontier never spans an epoch, as micro-batches never did.
It applies on the loop, where the closed path hands it to its executor:
nothing is seated by then, but submitters and every other coroutine
wait out ``swap_snapshot``.  A snapshot maintains the sampler state its
readers have read: build the service from a
:class:`~repro.dynamic.graph.GraphSnapshot` (not its ``.graph``) and
the engine's construction-time prepare *is* that read, so every swap
after it is a hand-off.  Measured on RMAT-16 (edge factor 12, the
service's ``sampler="auto"``): such a swap takes 0.9 ms for PPR, 0.6 ms
for DeepWalk and 5 ms for rejection Node2Vec (the edge filter is
derived from the maintained keys at each epoch).  A service built from
a plain ``CSRGraph`` prepared privately, so its *first* swap onto a
snapshot builds from scratch what the kernel reads — 13 ms for PPR (the
strategy map), 89 ms for DeepWalk, 15 ms for Node2Vec — and later ones
inherit as above; a plain ``CSRGraph`` as the swap target runs the whole
``prepare`` every time (12.5 / 55-83 / 15 ms).  Hand a frontier-served
service snapshots, from construction on, where that stall matters.
A pool fill's walkers take the slots clients leave, over as many turns
as that needs, and the pool installs whole, on the one epoch it ran on,
when its last walker ends.  If ``step()`` raises, exactly the seated
requests fail and the loop carries on with what is buffered.

This is :class:`~repro.serve.service.WalkService`'s own dispatcher,
split out by file: it works on the service's state directly.  Nothing
here starts a thread or touches an executor (``tests/serve/
test_dispatch_guard.py``); an engine that needs one is served by the
closed path in ``service.py``.
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
from repro.serve.items import _EpochSwap, _PendingRequest, _PoolFill
from repro.walks.batch import OpenFrontier
from repro.walks.engine import add_counts

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


def _seat_fill(frontier: OpenFrontier, run: _FillRun, walkers: dict) -> int:
    """Seat as many of ``run``'s unseated walkers as there are free slots."""
    queries = run.fill.queries[run.seated:run.seated + frontier.free]
    slots = frontier.admit(
        [query.query_id for query in queries],
        [query.start_vertex for query in queries],
        run.states[run.seated:run.seated + len(queries)],
    )
    for index, slot in enumerate(slots.tolist(), start=run.seated):
        walkers[slot] = (run, index)
    run.seated += len(queries)
    return len(queries)


async def frontier_loop(service: "WalkService", frontier: OpenFrontier) -> None:
    """Serve ``service``'s queue through ``frontier`` until cancelled."""
    queue, scheduler = service._queue, service._scheduler
    stats, engine_stats, cache = service.stats, service.engine_stats, service.cache
    seed = service._seed
    clock = asyncio.get_running_loop().time
    #: slot -> (request, engine-share clock when it was seated)
    clients: dict[int, tuple[_PendingRequest, float]] = {}
    #: slot -> (fill run, index of the walker in its pool)
    pool_walkers: dict[int, tuple[_FillRun, int]] = {}
    #: Fills with walkers still to seat, oldest first.
    fills: deque[_FillRun] = deque()
    pending_swap: _EpochSwap | None = None
    # Engine seconds a walker seated since the start would have been
    # charged: each superstep's time, split evenly over its walkers.
    share = 0.0
    booked = frontier.counts.copy()

    def fail_seated(error: Exception, now: float) -> None:
        """``step()`` raised: exactly what was seated is lost."""
        for request, _ in clients.values():
            service._fail(request, error, now)
            service._release(request.tenant)
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
            idle = not (frontier.live or fills or scheduler.has_work() or pending_swap)
            if pending_swap is None and (idle or not queue.empty()):
                arrived: list = []
                for item in chain([await queue.get()] if idle else (), _queued(queue)):
                    if isinstance(item, _EpochSwap):
                        pending_swap = item
                        break
                    arrived.append(item)
                requests = [item for item in arrived if isinstance(item, _PendingRequest)]
                if requests:
                    states = seed_sequence_states(
                        seed, [request.query.query_id for request in requests]
                    ).tolist()
                    for request, state in zip(requests, states):
                        request.state = state
                for item in arrived:
                    scheduler.push(item)

            tracer = _active_tracer()
            if tracer is not None:
                _t_step = tracer.begin()
            epoch = service._epoch

            # -- seat --------------------------------------------------
            seated = 0
            if frontier.free and scheduler.has_work():
                group = scheduler.next_batch(frontier.free)
                if isinstance(group[-1], _PoolFill):
                    fill = group.pop()
                    fills.append(_FillRun(fill, seed_sequence_states(
                        seed, [query.query_id for query in fill.queries])))
                if group:
                    try:
                        slots = frontier.admit(
                            [request.query.query_id for request in group],
                            [request.query.start_vertex for request in group],
                            np.array([request.state for request in group], dtype=np.uint64),
                        )
                    except Exception as error:
                        # Nothing was seated (a start vertex admitted
                        # against a swap that then failed to apply).
                        now = clock()
                        for request in group:
                            service._fail(request, error, now)
                            service._release(request.tenant)
                    else:
                        for slot, request in zip(slots.tolist(), group):
                            clients[slot] = (request, share)
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
                    hops = 0
                    for slot in ended:
                        path = frontier.take(slot)
                        hops += path.size - 1
                        engine_stats.per_query_hops.append(path.size - 1)
                        if slot in clients:
                            request, share_seated = clients.pop(slot)
                            service._complete(request, path, epoch, now, share - share_seated)
                            service._release(request.tenant)
                            continue
                        run, index = pool_walkers.pop(slot)
                        run.entries[index] = (run.fill.queries[index].query_id, path)
                        run.left -= 1
                        if run.left == 0:
                            cache.install(epoch, run.fill.start_vertex, run.entries)
                            if tracer is not None:
                                tracer.instant("serve.cache_fill", vertex=run.fill.start_vertex,
                                               entries=len(run.entries), epoch=epoch)
                    engine_stats.total_hops += hops
                    stats.record_step(live, hops, now - began)
                    add_counts(engine_stats, frontier.counts - booked)
                    booked[:] = frontier.counts
                if tracer is not None:
                    tracer.end(_t_step, "serve.step", live=live, seated=seated,
                               ended=len(ended) if ended is not None else live,
                               failed=ended is None,
                               backlog=scheduler.pending_clients, epoch=epoch)

            # -- swap --------------------------------------------------
            if pending_swap is not None and not (
                frontier.live or fills or scheduler.has_work()
            ):
                # Everything admitted before the swap has walked out.
                if tracer is not None:
                    _t_swap = tracer.begin()
                error: Exception | None = None
                try:
                    service._runner.swap_snapshot(pending_swap.snapshot)
                except Exception as exc:
                    error = exc
                service._settle_swap(pending_swap, error)
                pending_swap = None
                if tracer is not None:
                    tracer.end(_t_swap, "serve.epoch_swap", epoch=service._epoch,
                               applied=error is None)

            await asyncio.sleep(0)
    except asyncio.CancelledError:
        # A stop.  Hand everything unresolved back to the queue — seated
        # requests first, they were admitted first — so stop() fails the
        # futures and aborts the fills in one place.
        for request, _ in clients.values():
            queue.put_nowait(request)
        for run in dict.fromkeys((*fills, *(run for run, _ in pool_walkers.values()))):
            queue.put_nowait(run.fill)
        for item in scheduler.drain_all():
            queue.put_nowait(item)
        if pending_swap is not None:
            queue.put_nowait(pending_swap)
        frontier.abandon()
        raise
