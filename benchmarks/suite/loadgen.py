"""Open-loop request generator of the suite's own.

``repro.serve.run_open_loop`` stamps latency at submit, so a stalled
generator hides the wait it imposes on later requests.  This one works
from due times precomputed from the seed: every request is timed from
the instant it was *due*, the generator's own lateness is recorded, and
completion is stamped by a done-callback on the service's loop rather
than by whoever later awaits the future.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.errors import ServeOverloadError

#: Back-to-back submits between bare yields: a burst that never yields
#: would admit everything before the dispatcher gets a turn.
YIELD_EVERY = 256


def poisson_due_offsets(count: int, rate_per_second: float, rng: np.random.Generator) -> np.ndarray:
    """Due time of each request, in seconds after the phase starts."""
    return np.cumsum(rng.exponential(1.0 / rate_per_second, size=count))


@dataclass
class PhaseLog:
    """Per-request clock readings of one phase (``perf_counter`` seconds).

    ``done`` is NaN for a request that was shed or failed.  Only every
    ``keep_every``-th served path is kept (for the replay check): holding
    every future alive would grow the heap the collector scans and stall
    the generator.
    """

    first_id: int
    starts: np.ndarray
    due: np.ndarray
    submitted: np.ndarray
    admit_seconds: np.ndarray
    done: np.ndarray
    keep_every: int
    paths: dict[int, np.ndarray] = field(default_factory=dict)
    dropped: int = 0
    failed: int = 0
    unresolved: int = 0

    @property
    def offered(self) -> int:
        return int(self.due.size)

    def latency(self) -> np.ndarray:
        """Due-to-done seconds; NaN where the request did not complete."""
        return self.done - self.due

    def lateness(self) -> np.ndarray:
        """How long after its due time each request was handed to the service."""
        return self.submitted - self.due

    def seconds(self) -> float:
        """First submit to last completion."""
        return float(np.nanmax(self.done) - self.submitted[0])


def _resolved(log: PhaseLog, position: int, drained: asyncio.Event, future) -> None:
    """Done-callback of one request: stamp it, or count it as failed."""
    if future.cancelled() or future.exception() is not None:
        log.failed += 1
    else:
        log.done[position] = time.perf_counter()
        if position % log.keep_every == 0:
            log.paths[log.first_id + position] = future.result().path_of(0)
    log.unresolved -= 1
    if log.unresolved == 0:
        drained.set()


async def drive(service, starts: np.ndarray, due_offsets: np.ndarray, first_id: int,
                keep_every: int = 1) -> PhaseLog:
    """Submit ``starts[k]`` as query ``first_id + k`` at its due time.

    One coroutine on the service's loop.  It sleeps until the next request
    is due, then submits every request that has become due, yielding after
    each :data:`YIELD_EVERY` back-to-back submits; all-zero offsets make a
    saturating burst.  Returns once every admitted request has resolved.
    """
    count = int(starts.size)
    start_list = starts.tolist()
    began = time.perf_counter()
    due = (began + np.asarray(due_offsets, dtype=np.float64)).tolist()
    log = PhaseLog(
        first_id=first_id,
        starts=starts,
        due=np.asarray(due),
        submitted=np.empty(count),
        admit_seconds=np.empty(count),
        done=np.full(count, np.nan),
        keep_every=keep_every,
        unresolved=1,  # the generator's own hold, released after the last submit
    )
    drained = asyncio.Event()
    position = 0
    since_yield = 0
    while position < count:
        now = time.perf_counter()
        if due[position] > now:
            await asyncio.sleep(due[position] - now)
            since_yield = 0
            continue
        try:
            future = service.try_submit(start_list[position], query_id=first_id + position)
        except ServeOverloadError:
            log.dropped += 1
        else:
            log.unresolved += 1
            future.add_done_callback(partial(_resolved, log, position, drained))
        log.submitted[position] = now
        log.admit_seconds[position] = time.perf_counter() - now
        position += 1
        since_yield += 1
        if since_yield == YIELD_EVERY:
            await asyncio.sleep(0)
            since_yield = 0
    log.unresolved -= 1
    if log.unresolved:
        await drained.wait()
    return log
