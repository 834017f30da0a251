"""Unit tests for the butterfly balancer and the distribution tree."""

from dataclasses import dataclass

import pytest

from repro.core import ButterflyBalancer, DistributionTree
from repro.errors import SchedulerError
from repro.sim import SimulationKernel


@dataclass
class Packet:
    value: int


def build_fifos(kernel, n, capacity, prefix):
    return [kernel.make_fifo(capacity, f"{prefix}{i}") for i in range(n)]


def crossing_cycles(kernel, source, outputs):
    """Cycles one task pushed into an idle fabric takes to reach an output."""
    source.push(Packet(value=0))
    steps = 0
    while all(fifo.is_empty() for fifo in outputs) and steps < 100:
        kernel.step()
        steps += 1
    return steps


def drain(fifo):
    out = []
    while not fifo.is_empty():
        out.append(fifo.pop())
    return out


class TestButterflyBalancer:
    def test_width_must_be_power_of_two(self):
        kernel = SimulationKernel()
        ins = build_fifos(kernel, 3, 8, "i")
        outs = build_fifos(kernel, 3, 8, "o")
        with pytest.raises(SchedulerError, match="power of two"):
            ButterflyBalancer(kernel, "b", ins, outs)

    def test_mismatched_widths_rejected(self):
        kernel = SimulationKernel()
        with pytest.raises(SchedulerError, match="equal"):
            ButterflyBalancer(
                kernel, "b", build_fifos(kernel, 4, 8, "i"), build_fifos(kernel, 2, 8, "o")
            )

    def test_no_items_lost(self):
        kernel = SimulationKernel()
        ins = build_fifos(kernel, 4, 16, "i")
        outs = build_fifos(kernel, 4, 64, "o")
        ButterflyBalancer(kernel, "b", ins, outs)
        for k, fifo in enumerate(ins):
            for i in range(10):
                fifo.push(Packet(value=k * 100 + i))
        for _ in range(120):
            kernel.step()
        received = [p.value for f in outs for p in drain(f)]
        assert sorted(received) == sorted(k * 100 + i for k in range(4) for i in range(10))

    def test_single_input_spreads_to_all_outputs(self):
        kernel = SimulationKernel()
        ins = build_fifos(kernel, 4, 64, "i")
        outs = build_fifos(kernel, 4, 64, "o")
        ButterflyBalancer(kernel, "b", ins, outs)
        for i in range(40):
            ins[0].push(Packet(value=i))
        for _ in range(150):
            kernel.step()
        counts = [len(drain(f)) for f in outs]
        assert sum(counts) == 40
        assert all(c >= 5 for c in counts), f"unbalanced spread: {counts}"

    def test_congestion_routes_around_slow_output(self):
        # Figure 7b's example: one throttled output must not capture flow.
        kernel = SimulationKernel()
        ins = build_fifos(kernel, 4, 64, "i")
        outs = build_fifos(kernel, 4, 4, "o")
        ButterflyBalancer(kernel, "b", ins, outs)
        for i in range(60):
            ins[i % 4].push(Packet(value=i))
        delivered = [0, 0, 0, 0]
        for cycle in range(300):
            kernel.step()
            for k, f in enumerate(outs):
                if k == 0:
                    continue  # output 0 never drained (throttled)
                got = drain(f)
                delivered[k] += len(got)
        assert sum(delivered) + outs[0].occupancy() >= 50
        assert min(delivered[1:]) > 5

    def test_width_one_forwarder(self):
        kernel = SimulationKernel()
        ins = build_fifos(kernel, 1, 8, "i")
        outs = build_fifos(kernel, 1, 8, "o")
        ButterflyBalancer(kernel, "b", ins, outs)
        ins[0].push(Packet(value=7))
        for _ in range(5):
            kernel.step()
        assert drain(outs[0])[0].value == 7

    @pytest.mark.parametrize(
        "width, cycles", [(1, 2), (2, 7), (4, 13), (8, 19), (16, 25)]
    )
    def test_measured_crossing_time(self, width, cycles):
        # Dispatcher and Merger hold a task 2 cycles and each wire adds 1.
        kernel = SimulationKernel()
        ins = build_fifos(kernel, width, 4, "i")
        outs = build_fifos(kernel, width, 4, "o")
        ButterflyBalancer(kernel, "b", ins, outs)
        assert crossing_cycles(kernel, ins[0], outs) == cycles
        if width > 1:
            assert cycles == 6 * (width.bit_length() - 1) + 1


class TestDistributionTree:
    def test_distributes_from_one_root(self):
        kernel = SimulationKernel()
        root = kernel.make_fifo(64, "root")
        outs = build_fifos(kernel, 8, 64, "o")
        DistributionTree(kernel, "t", root, outs)
        for i in range(64):
            root.push(Packet(value=i))
        for _ in range(200):
            kernel.step()
        counts = [len(drain(f)) for f in outs]
        assert sum(counts) == 64
        assert all(c == 8 for c in counts), f"uneven: {counts}"

    def test_width_one(self):
        kernel = SimulationKernel()
        root = kernel.make_fifo(4, "root")
        outs = build_fifos(kernel, 1, 4, "o")
        DistributionTree(kernel, "t", root, outs)
        root.push(Packet(value=9))
        for _ in range(5):
            kernel.step()
        assert drain(outs[0])[0].value == 9

    def test_non_power_of_two_rejected(self):
        kernel = SimulationKernel()
        root = kernel.make_fifo(4, "root")
        with pytest.raises(SchedulerError):
            DistributionTree(kernel, "t", root, build_fifos(kernel, 3, 4, "o"))

    @pytest.mark.parametrize(
        "width, cycles", [(1, 2), (2, 4), (4, 7), (8, 10), (16, 13)]
    )
    def test_measured_crossing_time(self, width, cycles):
        kernel = SimulationKernel()
        root = kernel.make_fifo(4, "root")
        outs = build_fifos(kernel, width, 4, "o")
        DistributionTree(kernel, "t", root, outs)
        assert crossing_cycles(kernel, root, outs) == cycles
        if width > 1:
            assert cycles == 3 * (width.bit_length() - 1) + 1
