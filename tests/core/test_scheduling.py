"""Unit tests for Dispatcher (Alg VI.1) and Merger (Alg VI.2)."""

import pytest

from repro.core import Dispatcher, Merger
from repro.core.scheduling import UNIT_LATENCY
from repro.errors import SchedulerError
from repro.sim import SimulationKernel


def crossing_cycles(kernel, source, outputs):
    """Cycles one item pushed into an idle unit takes to reach an output."""
    source.push("x")
    steps = 0
    while all(fifo.is_empty() for fifo in outputs) and steps < 20:
        kernel.step()
        steps += 1
    return steps


def drain(fifo):
    out = []
    while not fifo.is_empty():
        out.append(fifo.pop())
    return out


class TestDispatcher:
    def build(self, out_capacity=8):
        kernel = SimulationKernel()
        src = kernel.make_fifo(32, "src")
        out0 = kernel.make_fifo(out_capacity, "out0")
        out1 = kernel.make_fifo(out_capacity, "out1")
        d = Dispatcher("d", src, out0, out1)
        kernel.add_module(d)
        return kernel, src, out0, out1, d

    def test_alternates_when_both_free(self):
        kernel, src, out0, out1, d = self.build()
        for i in range(10):
            src.push(i)
        for _ in range(30):
            kernel.step()
        assert d.sent == [5, 5]

    def test_no_items_lost(self):
        kernel, src, out0, out1, _ = self.build(out_capacity=32)
        for i in range(20):
            src.push(i)
        for _ in range(50):
            kernel.step()
        items = drain(out0) + drain(out1)
        assert sorted(items) == list(range(20))

    def test_routes_around_full_output(self):
        kernel, src, out0, out1, d = self.build(out_capacity=2)
        # Nothing drains out0; after it fills, everything must go to out1.
        for i in range(12):
            src.push(i)
        for _ in range(40):
            kernel.step()
            drain(out1)  # keep out1 empty
        assert out0.occupancy() == 2
        assert d.sent[1] == 10

    def test_two_cycle_latency(self):
        kernel, src, out0, out1, _ = self.build()
        src.push("x")
        kernel.step()  # accept (cycle 0) — becomes visible to module at 1
        kernel.step()
        kernel.step()
        kernel.step()
        kernel.step()
        assert not (out0.is_empty() and out1.is_empty())

    def test_measured_crossing_time(self):
        # One cycle on the input wire, UNIT_LATENCY inside, one on the output wire.
        kernel, src, out0, out1, _ = self.build()
        assert crossing_cycles(kernel, src, [out0, out1]) == UNIT_LATENCY + 2 == 4

    def test_throughput_ii_one(self):
        kernel, src, out0, out1, d = self.build(out_capacity=64)
        for i in range(30):
            src.push(i)
        cycles = 0
        while d.stats.items_processed < 30 and cycles < 100:
            kernel.step()
            cycles += 1
        assert cycles <= 30 + 6

    def test_commit_patience_escapes_wedge(self):
        # Both outputs full; the committed one never drains; the other
        # does.  The dispatcher must escape within the patience window.
        kernel, src, out0, out1, d = self.build(out_capacity=1)
        for i in range(4):
            src.push(i)
        for _ in range(4):
            kernel.step()
        # out0 and out1 now hold one item each (full). Drain only out1.
        for _ in range(Dispatcher.COMMIT_PATIENCE + 20):
            drain(out1)
            kernel.step()
        assert d.stats.items_processed >= 3


class TestMerger:
    def build(self, priority=None):
        kernel = SimulationKernel()
        in0 = kernel.make_fifo(16, "in0")
        in1 = kernel.make_fifo(16, "in1")
        out = kernel.make_fifo(64, "out")
        m = Merger("m", in0, in1, out, priority_input=priority)
        kernel.add_module(m)
        return kernel, in0, in1, out, m

    def test_alternates_between_busy_inputs(self):
        kernel, in0, in1, out, m = self.build()
        for i in range(8):
            in0.push(("a", i))
            in1.push(("b", i))
        for _ in range(40):
            kernel.step()
        assert m.received == [8, 8]
        # strict alternation in the output order
        labels = [label for label, _ in drain(out)]
        assert labels[:6] in (["a", "b"] * 3, ["b", "a"] * 3)

    def test_forwards_single_busy_input(self):
        kernel, in0, in1, out, m = self.build()
        for i in range(5):
            in1.push(i)
        for _ in range(20):
            kernel.step()
        assert drain(out) == [0, 1, 2, 3, 4]

    def test_priority_input_preempts(self):
        kernel, in0, in1, out, m = self.build(priority=0)
        for i in range(6):
            in0.push(("recirc", i))
            in1.push(("new", i))
        for _ in range(40):
            kernel.step()
        labels = [label for label, _ in drain(out)]
        # all recirculated tasks come out before any new one
        assert labels[:6] == ["recirc"] * 6

    def test_priority_falls_back_when_empty(self):
        kernel, in0, in1, out, m = self.build(priority=0)
        in1.push("new-only")
        for _ in range(10):
            kernel.step()
        assert drain(out) == ["new-only"]

    def test_backpressure_respected(self):
        kernel = SimulationKernel()
        in0 = kernel.make_fifo(16, "in0")
        in1 = kernel.make_fifo(16, "in1")
        out = kernel.make_fifo(1, "out")
        m = Merger("m", in0, in1, out)
        kernel.add_module(m)
        for i in range(6):
            in0.push(i)
        for _ in range(20):
            kernel.step()
        assert out.occupancy() == 1
        assert m.stats.blocked_cycles > 0

    def test_no_items_lost_under_contention(self):
        kernel, in0, in1, out, m = self.build()
        for i in range(12):
            in0.push(i)
        for i in range(100, 107):
            in1.push(i)
        for _ in range(60):
            kernel.step()
        assert sorted(drain(out)) == sorted(list(range(12)) + list(range(100, 107)))

    @pytest.mark.parametrize("port", [0, 1])
    def test_measured_crossing_time(self, port):
        kernel, in0, in1, out, _ = self.build()
        source = (in0, in1)[port]
        assert crossing_cycles(kernel, source, [out]) == UNIT_LATENCY + 2 == 4

    def test_priority_validation(self):
        kernel = SimulationKernel()
        f = kernel.make_fifo(2, "f")
        with pytest.raises(SchedulerError):
            Merger("m", f, f, f, priority_input=2)
