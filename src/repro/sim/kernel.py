"""Two-phase synchronous simulation kernel.

Each cycle the kernel (1) ticks every module in registration order,
(2) commits every FIFO that was pushed or popped this cycle so staged
pushes become visible, and (3) checks progress for deadlock detection.
FIFO writes are registered (:mod:`repro.sim.fifo`), so FIFO traffic
does not depend on the tick order — the kernel is a synchronous digital
circuit evaluator, not an event queue.  Random draws do not either: each
task carries its query's own stream.  One coupling outside the FIFOs
does: two access engines that submit to one memory channel in one cycle
queue there in tick order.  Reversing the sampling modules' tick order
leaves every counter and path of a run as it was
(``tests/sim/test_cycle_golden.py``).

Nothing is re-derived per cycle that hardware would hold in a register.
A FIFO's empty/full flags are its ``ready`` / ``space`` counters, which
the commit reloads; progress is two running counts, FIFO commits and the
memory requests the channels have accepted, so the deadlock check reads
counters instead of sweeping FIFOs or channels.

The kernel deliberately has no notion of tasks or graphs; RidgeWalker,
its ablated variants and the FPGA baselines are all just module graphs
wired over FIFOs and memory channels.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import DeadlockError, SimulationError
from repro.memory.system import MemorySystem
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module

#: Cycles without observable progress before declaring deadlock.  Must
#: exceed the largest memory round-trip plus scheduler latency.
_DEADLOCK_WINDOW = 2048


class SimulationKernel:
    """Owns the module list, FIFOs and memory; advances the clock."""

    def __init__(self) -> None:
        self._modules: list[Module] = []
        # The modules' bound ``tick`` methods in the same order, bound as
        # each module is added, so a cycle resolves no method.
        self._ticks: list[Callable[[int], None]] = []
        self._fifos: list[StreamFifo] = []
        # FIFOs pushed or popped this cycle (each lists itself once), and
        # how many have been committed so far — the FIFO half of progress.
        self._touched: list[StreamFifo] = []
        self._fifo_commits = 0
        self._memories: list[MemorySystem] = []
        self.cycle = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_module(self, module: Module, prepend: bool = False) -> Module:
        """Register a module to be ticked each cycle.

        ``prepend`` ticks the module before everything already
        registered, for fault injectors and probes that must win
        same-cycle FIFO pop races.  The order does not change FIFO
        traffic (FIFO writes are registered), but it does change shared
        random-root draws and same-cycle channel submissions (see the
        module docstring).
        """
        if prepend:
            self._modules.insert(0, module)
            self._ticks.insert(0, module.tick)
        else:
            self._modules.append(module)
            self._ticks.append(module.tick)
        return module

    def add_modules(self, modules: Iterable[Module]) -> None:
        """Register several modules."""
        for module in modules:
            self.add_module(module)

    def make_fifo(self, capacity: int, name: str) -> StreamFifo:
        """Create and register a stream FIFO."""
        fifo = StreamFifo(capacity, name=name, touched=self._touched)
        self._fifos.append(fifo)
        return fifo

    def add_memory(self, memory: MemorySystem) -> MemorySystem:
        """Register a memory system to be ticked each cycle."""
        self._memories.append(memory)
        return memory

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance exactly one cycle."""
        cycle = self.cycle
        for tick in self._ticks:
            tick(cycle)
        for memory in self._memories:
            memory.tick()
        touched = self._touched
        for fifo in touched:
            fifo.commit()
        self._fifo_commits += len(touched)
        touched.clear()
        self.cycle = cycle + 1

    def run_until(
        self,
        done: Callable[[], bool],
        max_cycles: int = 10_000_000,
    ) -> int:
        """Run until ``done()`` or raise on deadlock / cycle budget.

        Progress is measured by FIFOs touched plus requests accepted by
        any memory channel (however they were submitted); if neither
        moves for a full deadlock window while ``done()`` stays
        false, the module graph has wedged and a :class:`DeadlockError`
        with the in-flight census is raised — far more debuggable than an
        infinite loop.
        """
        last_progress_marker = self._progress_marker()
        last_progress_cycle = self.cycle
        start = self.cycle
        while not done():
            if self.cycle - start >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles without finishing"
                )
            self.step()
            marker = self._progress_marker()
            if marker != last_progress_marker:
                last_progress_marker = marker
                last_progress_cycle = self.cycle
            elif self.cycle - last_progress_cycle > _DEADLOCK_WINDOW:
                raise DeadlockError(
                    cycle=self.cycle,
                    in_flight=self.total_in_flight(),
                    detail=self._census(),
                )
        return self.cycle

    def _progress_marker(self) -> int:
        # Both counts only grow, so their sum moves exactly when either does.
        marker = self._fifo_commits
        for memory in self._memories:
            marker += memory.total_requests()
        return marker

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_in_flight(self) -> int:
        """Items held in FIFOs plus busy modules (deadlock census)."""
        fifo_items = sum(f.in_flight() for f in self._fifos)
        busy_modules = sum(1 for m in self._modules if m.busy())
        return fifo_items + busy_modules

    def _census(self) -> str:
        occupied = [f"{f.name}={f.in_flight()}" for f in self._fifos if f.in_flight()]
        busy = [m.name for m in self._modules if m.busy()]
        return f"fifos[{', '.join(occupied)}] busy[{', '.join(busy)}]"

    @property
    def modules(self) -> list[Module]:
        return list(self._modules)

    @property
    def fifos(self) -> list[StreamFifo]:
        return list(self._fifos)
