"""Failure injection: the simulator must *detect* broken hardware, not
silently produce wrong walks.

Three fault classes are injected into otherwise-correct machines:
task loss (a module eats tasks), task duplication (a module forges
copies), and wedged modules (a stage stops serving).  In each case the
consistency machinery — the recorder's exactly-once accounting and the
kernel's progress-based deadlock detector — must turn the fault into a
loud error.
"""

import pytest

from repro.core import RidgeWalkerConfig, Task, TaskStatus, WalkRecorder
from repro.core.accelerator import _Machine
from repro.errors import DeadlockError, SimulationError
from repro.graph import load_dataset
from repro.memory.spec import MemorySpec
from repro.sampling import QueryStream
from repro.sim import Module, SimulationKernel
from repro.walks import URWSpec, make_queries

FAST_MEM = MemorySpec(
    "fast-test",
    num_channels=8,
    random_tx_rate_mhz=320.0,
    sequential_gbs=80.0,
    round_trip_cycles=8,
    max_outstanding=16,
)


def build_machine(num_queries=24):
    g = load_dataset("WG", scale=0.05, seed=1)
    queries = make_queries(g, num_queries, seed=2)
    cfg = RidgeWalkerConfig(num_pipelines=2, memory=FAST_MEM, recirculation_depth=32)
    return _Machine(g, URWSpec(max_length=12), cfg, seed=3, queries=queries), queries


class TaskEater(Module):
    """Silently consumes every task in a FIFO (models a lost beat)."""

    def __init__(self, fifo, after: int = 5):
        super().__init__("eater")
        self._fifo = fifo
        self._after = after
        self.eaten = 0

    def tick(self, cycle):
        if self.eaten >= self._after:
            return
        if not self._fifo.is_empty():
            self._fifo.pop()
            self.eaten += 1


class TaskForger(Module):
    """Injects a duplicate task for an already-running query."""

    def __init__(self, fifo, query_id: int, fire_at: int = 200):
        super().__init__("forger")
        self._fifo = fifo
        self._query_id = query_id
        self._fire_at = fire_at
        self.fired = False

    def tick(self, cycle):
        if not self.fired and cycle >= self._fire_at and not self._fifo.is_full():
            self._fifo.push(Task(query_id=self._query_id, vertex=0, stream=QueryStream(0)))
            self.fired = True


class TestTaskLoss:
    def test_lost_tasks_are_detected_as_deadlock(self):
        machine, queries = build_machine()
        # Eat tasks out of one pipeline's recirculation stream: those
        # queries can never finish, so progress stops and the kernel's
        # deadlock detector fires rather than hanging forever.
        recirc = next(f for f in machine.kernel.fifos if f.name == "recirc0")
        machine.kernel.add_module(TaskEater(recirc, after=5), prepend=True)
        with pytest.raises((DeadlockError, SimulationError)):
            machine.kernel.run_until(
                lambda: machine.writer.completed >= len(queries), max_cycles=50_000
            )


class TestTaskDuplication:
    def test_forged_task_trips_recorder(self):
        machine, queries = build_machine()
        loader_out = next(f for f in machine.kernel.fifos if f.name == "loader.out")
        machine.kernel.add_module(TaskForger(loader_out, query_id=0, fire_at=300))
        # The duplicate eventually produces a hop or finish for a query
        # whose path is already closed -> exactly-once accounting raises.
        with pytest.raises(SimulationError):
            machine.kernel.run_until(
                lambda: machine.writer.completed >= len(queries) + 1,
                max_cycles=50_000,
            )


class TestWedgedModule:
    def test_wedged_sampler_is_detected(self):
        machine, queries = build_machine()
        # Break one sampling module: it stops ticking (hard hang).  The
        # kernel ticks through the methods it bound at registration, so
        # the hang goes where it reads them.
        broken = machine.pipelines[0].sampling
        ticks = machine.kernel._ticks
        ticks[ticks.index(broken.tick)] = lambda cycle: None
        with pytest.raises((DeadlockError, SimulationError)):
            machine.kernel.run_until(
                lambda: machine.writer.completed >= len(queries), max_cycles=80_000
            )


class TestRecorderGuards:
    def test_double_finish_is_loud(self):
        recorder = WalkRecorder()
        recorder.start_query(0, 1)
        recorder.finish_query(0)
        with pytest.raises(SimulationError):
            recorder.finish_query(0)

    def test_results_refuse_partial_state(self):
        recorder = WalkRecorder()
        recorder.start_query(0, 1)
        recorder.start_query(1, 2)
        recorder.finish_query(0)
        with pytest.raises(SimulationError, match="unfinished"):
            recorder.to_results([0, 1])


class TestKernelGuards:
    def test_cycle_budget_is_enforced_with_live_traffic(self):
        # A machine making progress forever (endless loader) must still
        # respect the explicit cycle budget.
        g = load_dataset("WG", scale=0.05, seed=1)
        queries = make_queries(g, 8, seed=2)
        cfg = RidgeWalkerConfig(num_pipelines=2, memory=FAST_MEM)
        machine = _Machine(g, URWSpec(max_length=12), cfg, seed=3,
                           queries=queries, endless=True)
        with pytest.raises(SimulationError, match="exceeded"):
            machine.kernel.run_until(lambda: False, max_cycles=3000)
