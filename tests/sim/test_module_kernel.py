"""Unit tests for pipelined modules, the kernel, and run metrics."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.memory import ChannelGroup, MemoryRequest, MemorySystem
from repro.memory.spec import HBM2_U55C
from repro.sim import (
    Module,
    RunMetrics,
    SimulationKernel,
    StreamFifo,
)
from repro.sim.kernel import _DEADLOCK_WINDOW

from pipelined_module import PipelinedModule


class Doubler(PipelinedModule):
    def process(self, item, cycle):
        return item * 2


class DropOdd(PipelinedModule):
    def process(self, item, cycle):
        return item if item % 2 == 0 else None


def pump(kernel, fifo, items):
    for item in items:
        fifo.push(item)
    fifo.commit()
    # fifo already registered with kernel; commit once manually to seed


class TestPipelinedModule:
    def run_through(self, module_cls, items, latency=1, cycles=50):
        kernel = SimulationKernel()
        src = kernel.make_fifo(16, "src")
        dst = kernel.make_fifo(16, "dst")
        kernel.add_module(module_cls("m", src, dst, latency=latency))
        for item in items:
            src.push(item)
        for _ in range(cycles):
            kernel.step()
        out = []
        while not dst.is_empty():
            out.append(dst.pop())
        return out

    def test_transform(self):
        assert self.run_through(Doubler, [1, 2, 3]) == [2, 4, 6]

    def test_filter_drops_but_counts(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(16, "src")
        dst = kernel.make_fifo(16, "dst")
        mod = DropOdd("m", src, dst)
        kernel.add_module(mod)
        for item in (1, 2, 3, 4):
            src.push(item)
        for _ in range(20):
            kernel.step()
        assert mod.stats.items_processed == 4

    def test_latency_is_respected(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(4, "src")
        dst = kernel.make_fifo(4, "dst")
        kernel.add_module(Doubler("m", src, dst, latency=5))
        src.push(7)
        for cycle in range(5):
            kernel.step()
            assert dst.is_empty(), f"output too early at cycle {cycle}"
        for _ in range(3):
            kernel.step()
        assert dst.pop() == 14

    def test_ii_one_throughput(self):
        # latency 3, II=1: N items take ~N + latency cycles, not 3N.
        kernel = SimulationKernel()
        src = kernel.make_fifo(64, "src")
        dst = kernel.make_fifo(64, "dst")
        kernel.add_module(Doubler("m", src, dst, latency=3))
        for i in range(20):
            src.push(i)
        cycles = 0
        while dst.occupancy() < 20 and cycles < 100:
            kernel.step()
            cycles += 1
        assert cycles < 20 + 3 + 5

    def test_backpressure_blocks(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(16, "src")
        dst = kernel.make_fifo(1, "dst")  # tiny output
        mod = Doubler("m", src, dst)
        kernel.add_module(mod)
        for i in range(8):
            src.push(i)
        for _ in range(20):
            kernel.step()
        assert mod.stats.blocked_cycles > 0
        assert dst.occupancy() == 1

    def test_starvation_counted(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(4, "src")
        dst = kernel.make_fifo(4, "dst")
        mod = Doubler("m", src, dst)
        kernel.add_module(mod)
        for _ in range(10):
            kernel.step()
        assert mod.stats.starved_cycles == mod.stats.total_cycles() == 10

    def test_latency_validation(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(4, "src")
        dst = kernel.make_fifo(4, "dst")
        with pytest.raises(SimulationError):
            Doubler("m", src, dst, latency=0)


class TestKernel:
    def test_run_until_condition(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(8, "src")
        dst = kernel.make_fifo(8, "dst")
        kernel.add_module(Doubler("m", src, dst))
        for i in range(4):
            src.push(i)
        kernel.run_until(lambda: dst.occupancy() == 4, max_cycles=100)
        assert kernel.cycle < 100

    def test_cycle_budget_enforced(self):
        kernel = SimulationKernel()
        kernel.make_fifo(2, "unused")
        with pytest.raises(SimulationError, match="exceeded"):
            kernel.run_until(lambda: False, max_cycles=10)

    def test_deadlock_detected(self):
        # A module blocked forever on a full output with items waiting.
        kernel = SimulationKernel()
        src = kernel.make_fifo(8, "src")
        dst = kernel.make_fifo(1, "dst")  # never drained
        kernel.add_module(Doubler("m", src, dst))
        for i in range(5):
            src.push(i)
        with pytest.raises(DeadlockError) as err:
            kernel.run_until(lambda: False, max_cycles=100_000)
        assert err.value.in_flight > 0


class CommitAllKernel(SimulationKernel):
    """The kernel before touched-list commits: every FIFO committed and
    every FIFO counter re-summed each cycle."""

    def step(self):
        for module in self._modules:
            module.tick(self.cycle)
        for memory in self._memories:
            memory.tick()
        for fifo in self._fifos:
            fifo.commit()
        self._touched.clear()
        self.cycle += 1

    def _progress_marker(self):
        return (sum(f.total_pushed + f.total_popped for f in self._fifos),
                sum(m.total_requests() for m in self._memories))


class Thief(Module):
    """A probe that pops every third cycle from a FIFO it does not own."""

    def __init__(self, fifo):
        super().__init__("thief")
        self.fifo = fifo
        self.stolen = []

    def tick(self, cycle):
        if cycle % 3 == 0 and not self.fifo.is_empty():
            self.stolen.append(self.fifo.pop())

    def busy(self):
        return False


KERNELS = pytest.mark.parametrize("kernel_cls", [SimulationKernel, CommitAllKernel])


def fifo_counters(kernel):
    return [(f.name, f.total_pushed, f.total_popped, f.peak_occupancy, f.occupancy())
            for f in kernel.fifos]


class TestTouchedListCommits:
    """Committing only the FIFOs pushed or popped in a cycle is
    indistinguishable from committing all of them."""

    def two_stage(self, kernel_cls, out_capacity=64):
        kernel = kernel_cls()
        src = kernel.make_fifo(64, "src")
        mid = kernel.make_fifo(2, "mid")
        dst = kernel.make_fifo(out_capacity, "dst")
        kernel.make_fifo(4, "idle")              # never touched
        kernel.add_module(Doubler("a", src, mid, latency=2))
        kernel.add_module(DropOdd("b", mid, dst, latency=3))
        for item in range(40):
            src.push(item)
        return kernel, src, dst

    def test_counters_match_cycle_by_cycle(self):
        new, _, _ = self.two_stage(SimulationKernel)
        old, _, _ = self.two_stage(CommitAllKernel)
        for _ in range(80):
            new.step()
            old.step()
            assert fifo_counters(new) == fifo_counters(old)
            assert new.total_in_flight() == old.total_in_flight()
        assert [f.peak_occupancy for f in new.fifos] == [40, 1, 40, 0]

    def test_only_moving_fifos_are_committed(self):
        kernel, _, _ = self.two_stage(SimulationKernel)
        kernel.step()
        assert kernel._touched == []
        before = kernel._fifo_commits
        for _ in range(200):
            kernel.step()                        # long after the stream drained
        quiet = kernel._fifo_commits
        kernel.step()
        assert before < quiet == kernel._fifo_commits

    @KERNELS
    def test_wedged_graph_deadlocks_after_the_same_window(self, kernel_cls):
        kernel, _, dst = self.two_stage(kernel_cls, out_capacity=1)   # dst never drained
        with pytest.raises(DeadlockError) as err:
            kernel.run_until(lambda: False, max_cycles=100_000)
        assert (err.value.cycle, err.value.in_flight) == self.wedge()
        assert dst.occupancy() == 1

    def wedge(self):
        kernel, _, _ = self.two_stage(CommitAllKernel, out_capacity=1)
        with pytest.raises(DeadlockError) as err:
            kernel.run_until(lambda: False, max_cycles=100_000)
        return err.value.cycle, err.value.in_flight

    @KERNELS
    def test_prepended_probe_wins_the_pop_race(self, kernel_cls):
        kernel, src, dst = self.two_stage(kernel_cls)
        thief = Thief(src)
        kernel.add_module(thief, prepend=True)
        kernel.run_until(lambda: dst.occupancy() + len(thief.stolen) == 40, max_cycles=500)
        out = []
        while not dst.is_empty():
            out.append(dst.pop())
        assert thief.stolen[:3] == [2, 6, 10]    # the head of the line on its cycles
        assert sorted(thief.stolen + [item // 2 for item in out]) == list(range(40))
        assert src.total_popped == 40 and dst.total_pushed == len(out)

    def test_a_hand_commit_between_steps_is_not_applied_twice(self):
        kernel = SimulationKernel()
        fifo = kernel.make_fifo(8, "f")
        for item in (1, 2, 3):
            fifo.push(item)
        fifo.commit()                            # seeds the fifo, still listed
        assert fifo.pop() == 1                   # lists it a second time
        kernel.step()
        assert (fifo.occupancy(), fifo.total_pushed, fifo.total_popped) == (2, 3, 1)
        assert fifo.front() == 2 and fifo.peak_occupancy == 3
        kernel.step()                            # nothing moved: nothing to commit
        assert fifo.occupancy() == 2 and kernel._touched == []

    def test_a_free_standing_fifo_lists_itself_nowhere(self):
        fifo = StreamFifo(4, "alone")
        fifo.push(1)
        fifo.commit()
        assert fifo.pop() == 1
        fifo.commit()
        assert fifo.is_empty() and fifo._touched is None


class ChannelFeeder(Module):
    """Submits a request straight to a channel every ``every`` cycles
    until cycle ``stop``, touching no FIFO and bypassing the system."""

    def __init__(self, channel, every, stop):
        super().__init__("feeder")
        self.channel, self.every, self.stop = channel, every, stop

    def tick(self, cycle):
        if cycle < self.stop and cycle % self.every == 0:
            self.channel.submit(MemoryRequest(tag=cycle))


class TestDeadlockProgress:
    """Progress is FIFO commits plus requests accepted at any channel."""

    def feeding_kernel(self, stop):
        kernel = SimulationKernel()
        memory = kernel.add_memory(MemorySystem(HBM2_U55C, 320.0, 1))
        kernel.add_module(ChannelFeeder(memory.channel(ChannelGroup.ROW, 0), 500, stop))
        return kernel

    def test_the_wedged_graph_reports_the_same_cycle_and_census(self):
        kernel, _, _ = TestTouchedListCommits().two_stage(SimulationKernel, out_capacity=1)
        with pytest.raises(DeadlockError) as err:
            kernel.run_until(lambda: False, max_cycles=100_000)
        assert str(err.value) == ("simulation deadlocked at cycle 2058 with 37 tasks in "
                                  "flight: fifos[src=32, mid=2, dst=1] busy[a, b]")

    def test_memory_traffic_alone_is_progress(self):
        long_run = 4 * _DEADLOCK_WINDOW
        kernel = self.feeding_kernel(stop=long_run)
        assert kernel.run_until(lambda: kernel.cycle >= long_run) == long_run

    def test_a_graph_whose_traffic_stops_deadlocks_one_window_later(self):
        kernel = self.feeding_kernel(stop=1000)
        with pytest.raises(DeadlockError) as err:
            kernel.run_until(lambda: False, max_cycles=100_000)
        assert err.value.cycle == 501 + _DEADLOCK_WINDOW + 1


class TestRunMetrics:
    def metrics(self, **kw):
        defaults = dict(
            total_steps=1000,
            cycles=2000,
            core_mhz=320.0,
            random_transactions=2000,
            words_transferred=2000,
            peak_random_tx_per_cycle=2.0,
            bubble_cycles=100,
            pipeline_cycles=1000,
        )
        defaults.update(kw)
        return RunMetrics(**defaults)

    def test_msteps(self):
        m = self.metrics()
        # 1000 steps / (2000 / 320e6) s = 160 MStep/s
        assert m.msteps_per_second() == pytest.approx(160.0)

    def test_bandwidth(self):
        m = self.metrics()
        # 2000 words * 8B / 6.25us = 2.56 GB/s
        assert m.effective_bandwidth_gbs() == pytest.approx(2.56)

    def test_utilization(self):
        m = self.metrics()
        # peak = 2 words/cycle * 320e6 * 8B = 5.12 GB/s -> 50%
        assert m.bandwidth_utilization() == pytest.approx(0.5)

    def test_bubble_ratio(self):
        assert self.metrics().bubble_ratio() == pytest.approx(0.1)

    def test_steps_per_cycle(self):
        assert self.metrics().steps_per_cycle() == pytest.approx(0.5)

    def test_summary_contains_key_numbers(self):
        text = self.metrics().summary()
        assert "MStep/s" in text and "GB/s" in text

    def test_validation(self):
        with pytest.raises(SimulationError):
            self.metrics(cycles=0)
        with pytest.raises(SimulationError):
            self.metrics(total_steps=-1)
        with pytest.raises(SimulationError):
            self.metrics(peak_random_tx_per_cycle=0).bandwidth_utilization()
