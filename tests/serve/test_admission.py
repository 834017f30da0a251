"""Admission control: bounded occupancy and shedding."""

import asyncio
import selectors

import numpy as np
import pytest

from repro.errors import ServeError, ServeOverloadError
from repro.graph import powerlaw
from repro.serve import (
    AdmissionGate,
    ServeConfig,
    WalkService,
    run_open_loop,
)
from repro.walks import URWSpec

from test_service import SlowEngine


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop on a clock of its own: ``time()`` reads a counter that
    moves only when a timed wait is due (the wait jumps the counter to its
    deadline instead of sleeping) or when :meth:`advance` moves it.  Work
    done on the loop takes no time unless it says so, and a stall of the
    host delays arrivals and service alike: neither sees it."""

    def __init__(self) -> None:
        self._now = 0.0
        super().__init__(_VirtualSelector(self))

    def time(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        self._now += seconds


class _VirtualSelector(selectors.DefaultSelector):
    """Polls without blocking, and turns a timed wait into a clock jump."""

    def __init__(self, loop: VirtualClockLoop) -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        if timeout is None:
            # Nothing scheduled: block as a real loop does (a thread's
            # call_soon_threadsafe still wakes it).
            return super().select(None)
        events = super().select(0)
        if not events and timeout > 0:
            self._loop.advance(timeout)
        return events


class ClockedEngine(SlowEngine):
    """The stub, whose batch takes ``step_seconds`` of the running loop's
    virtual clock instead of blocking the host."""

    def __init__(self, step_seconds: float) -> None:
        super().__init__()
        self.step_seconds = step_seconds

    def run(self, queries, seed=0, stats=None):
        asyncio.get_running_loop().advance(self.step_seconds)
        return super().run(queries, seed=seed, stats=stats)


class TestAdmissionGate:
    def test_counts_in_and_out(self):
        gate = AdmissionGate(high_water=3)
        gate.admit()
        gate.admit()
        assert gate.occupancy == 2
        gate.release(2)
        assert gate.occupancy == 0

    def test_sheds_past_high_water(self):
        gate = AdmissionGate(high_water=2)
        gate.admit()
        gate.admit()
        with pytest.raises(ServeOverloadError) as excinfo:
            gate.admit()
        assert excinfo.value.occupancy == 2
        assert excinfo.value.high_water == 2
        # Shedding does not consume capacity: a release reopens the gate.
        gate.release()
        gate.admit()

    def test_release_cannot_go_negative(self):
        gate = AdmissionGate(high_water=2)
        with pytest.raises(ServeError):
            gate.release()

    def test_rejects_degenerate_high_water(self):
        with pytest.raises(ServeError):
            AdmissionGate(high_water=0)


class TestServiceShedding:
    def test_flood_sheds_and_recovers(self):
        """A burst past the high-water sheds the overflow with the typed
        error, serves everything admitted, and accepts again once
        drained."""
        graph = powerlaw(num_vertices=40, num_edges=160, seed=2)
        engine = SlowEngine(delay_seconds=0.02)

        async def scenario():
            config = ServeConfig(max_batch=4, max_wait_ms=1.0, queue_depth=6)
            async with WalkService(graph, URWSpec(max_length=5), engine=engine,
                                   config=config) as service:
                admitted, shed = [], 0
                for vertex in range(20):
                    try:
                        admitted.append(service.try_submit(vertex % 40))
                    except ServeOverloadError:
                        shed += 1
                assert shed == 20 - 6
                assert service.stats.dropped == shed
                await asyncio.gather(*admitted)
                # Occupancy drained: the gate reopens.
                results = await service.submit(0)
                assert results.num_queries == 1
                return service

            return None

        asyncio.run(scenario())

    def test_nominal_open_loop_load_never_sheds(self):
        """At an offered load well under capacity, with a depth of two
        full batches, zero requests are dropped — the invariant the CI
        smoke also asserts.  On a virtual clock: the arrivals and the
        stub's service time run on it, so a stalled host cannot bunch
        arrivals behind a late step and shed them."""
        graph = powerlaw(num_vertices=40, num_edges=160, seed=2)
        # The stub serves a batch in 1ms -> capacity ~ max_batch / 1ms.
        engine = ClockedEngine(step_seconds=0.001)
        arrival_rate = 500.0  # requests/s, ~6% of the stub's capacity
        depth = 16

        async def scenario():
            config = ServeConfig(max_batch=8, max_wait_ms=2.0, queue_depth=depth)
            async with WalkService(graph, URWSpec(max_length=5), engine=engine,
                                   config=config) as service:
                report = await run_open_loop(
                    service,
                    np.arange(60, dtype=np.int64) % 40,
                    rate_per_second=arrival_rate,
                    arrival_seed=4,
                )
                return report, service

        with asyncio.Runner(loop_factory=VirtualClockLoop) as runner:
            report, service = runner.run(scenario())
        assert report.dropped == []
        assert report.completed == 60
        assert service.stats.dropped == 0
