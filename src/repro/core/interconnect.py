"""Butterfly interconnects built from Dispatcher/Merger primitives.

Three fabrics (paper Figures 7a/7b):

* :class:`DistributionTree` — 1-to-N dispatcher tree distributing newly
  loaded queries (scheduler module 1);
* :class:`ButterflyBalancer` — the N-to-N availability-routed balancer
  (scheduler module 3, Figure 7b): ``log2(N)`` stages, each pairing node
  ``i`` with ``i XOR 2^s`` through one Dispatcher and one Merger per
  node.  Dispatchers spread load by backpressure, so local congestion is
  averaged upstream exactly as the 100/4 pkt/s example in Section VI-C1;
* :class:`ButterflyRouter` — the same topology routed by destination bits
  (the Task Router of Section IV-A): stage ``s`` corrects bit ``s`` of
  the destination, giving a unique path per (input, dest) pair.

All units are fully pipelined (II=1, latency 2), so a task crosses any
fabric in ``2*log2(N)`` cycles when uncongested — the ``C`` that sizes
the Theorem VI.1 FIFOs.
"""

from __future__ import annotations

import math

from repro.errors import SchedulerError
from repro.sim.fifo import StreamFifo
from repro.sim.kernel import SimulationKernel
from repro.sim.module import Module
from repro.core.scheduling import Dispatcher, Merger, RoutingDispatcher

#: Capacity of the shallow CLB FIFOs between stages (the paper notes a
#: single-CLB 32-entry FIFO suffices; 4 keeps pipelining without bulk).
_WIRE_DEPTH = 4


def _require_power_of_two(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise SchedulerError(f"butterfly width must be a power of two, got {n}")
    return int(math.log2(n)) if n > 1 else 0


class Forwarder(Module):
    """Degenerate 1-wide fabric: copies input to output, II=1, latency 1."""

    def __init__(self, name: str, input_fifo: StreamFifo, output_fifo: StreamFifo) -> None:
        super().__init__(name)
        self.input_fifo = input_fifo
        self.output_fifo = output_fifo

    def tick(self, cycle: int) -> None:
        if self.input_fifo.ready:
            if self.output_fifo.space:
                self.output_fifo.push(self.input_fifo.pop())
                self.stats.active_cycles += 1
                self.stats.items_processed += 1
            else:
                self.stats.blocked_cycles += 1
        else:
            self.stats.starved_cycles += 1


class ButterflyBalancer:
    """N-to-N availability-routed balancer (Figure 7b).

    Wires ``inputs[i] -> stages -> outputs[i]``; callers own the input
    and output FIFOs, the balancer creates its internal wires and units
    and registers them with the kernel.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        name: str,
        inputs: list[StreamFifo],
        outputs: list[StreamFifo],
    ) -> None:
        if len(inputs) != len(outputs):
            raise SchedulerError("balancer needs equal input/output counts")
        self.width = len(inputs)
        num_stages = _require_power_of_two(self.width)
        self.name = name
        self.modules: list[Module] = []

        if num_stages == 0:
            self.modules.append(Forwarder(f"{name}.fwd", inputs[0], outputs[0]))
            kernel.add_modules(self.modules)
            return

        current = inputs
        for stage in range(num_stages):
            straight = [
                kernel.make_fifo(_WIRE_DEPTH, f"{name}.s{stage}.straight{i}")
                for i in range(self.width)
            ]
            cross = [
                kernel.make_fifo(_WIRE_DEPTH, f"{name}.s{stage}.cross{i}")
                for i in range(self.width)
            ]
            is_last = stage == num_stages - 1
            nxt = (
                outputs
                if is_last
                else [
                    kernel.make_fifo(_WIRE_DEPTH, f"{name}.s{stage}.out{i}")
                    for i in range(self.width)
                ]
            )
            for i in range(self.width):
                partner = i ^ (1 << stage)
                dispatcher = Dispatcher(
                    f"{name}.s{stage}.d{i}", current[i], straight[i], cross[i]
                )
                merger = Merger(
                    f"{name}.s{stage}.m{i}", straight[i], cross[partner], nxt[i]
                )
                self.modules.extend((dispatcher, merger))
            current = nxt
        kernel.add_modules(self.modules)

    @property
    def latency_bound(self) -> int:
        """Uncongested traversal latency: 2 units of 2 cycles per stage."""
        stages = _require_power_of_two(self.width)
        return 4 * stages


class ButterflyRouter:
    """N-to-N destination-routed butterfly (the Task Router).

    Items must expose an integer ``dest`` attribute in ``[0, N)``.
    Stage ``s`` sends the item straight or across depending on whether
    bit ``s`` of ``dest`` matches the node index, so after ``log2(N)``
    stages every item sits at its destination output.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        name: str,
        inputs: list[StreamFifo],
        outputs: list[StreamFifo],
    ) -> None:
        if len(inputs) != len(outputs):
            raise SchedulerError("router needs equal input/output counts")
        self.width = len(inputs)
        num_stages = _require_power_of_two(self.width)
        self.name = name
        self.modules: list[Module] = []

        if num_stages == 0:
            self.modules.append(Forwarder(f"{name}.fwd", inputs[0], outputs[0]))
            kernel.add_modules(self.modules)
            return

        current = inputs
        for stage in range(num_stages):
            straight = [
                kernel.make_fifo(_WIRE_DEPTH, f"{name}.s{stage}.straight{i}")
                for i in range(self.width)
            ]
            cross = [
                kernel.make_fifo(_WIRE_DEPTH, f"{name}.s{stage}.cross{i}")
                for i in range(self.width)
            ]
            is_last = stage == num_stages - 1
            nxt = (
                outputs
                if is_last
                else [
                    kernel.make_fifo(_WIRE_DEPTH, f"{name}.s{stage}.out{i}")
                    for i in range(self.width)
                ]
            )
            for i in range(self.width):
                partner = i ^ (1 << stage)
                # Output 0 keeps bit ``stage`` equal to the node's bit
                # (straight), output 1 flips it (cross to the partner).
                dispatcher = _BitRouter(
                    f"{name}.s{stage}.d{i}",
                    current[i],
                    straight[i],
                    cross[i],
                    bit=stage,
                    node_bit=(i >> stage) & 1,
                )
                merger = Merger(
                    f"{name}.s{stage}.m{i}", straight[i], cross[partner], nxt[i]
                )
                self.modules.extend((dispatcher, merger))
            current = nxt
        kernel.add_modules(self.modules)


class _BitRouter(RoutingDispatcher):
    """Stage dispatcher: straight if dest bit matches node bit, else cross."""

    def __init__(self, name, input_fifo, out0, out1, bit, node_bit):
        super().__init__(name, input_fifo, out0, out1, bit=bit)
        self.node_bit = node_bit

    def _choose(self):
        item = self._pipe[0][1]
        wanted = 0 if ((item.dest >> self.bit) & 1) == self.node_bit else 1
        if not self.outputs[wanted].space:
            return None
        return wanted


class DistributionTree:
    """1-to-N dispatcher tree (scheduler module 1: initial balancing)."""

    def __init__(
        self,
        kernel: SimulationKernel,
        name: str,
        root: StreamFifo,
        outputs: list[StreamFifo],
    ) -> None:
        width = len(outputs)
        levels = _require_power_of_two(width)
        self.name = name
        self.modules: list[Module] = []
        if levels == 0:
            self.modules.append(Forwarder(f"{name}.fwd", root, outputs[0]))
            kernel.add_modules(self.modules)
            return
        current = [root]
        for level in range(levels):
            is_last = level == levels - 1
            nxt = (
                outputs
                if is_last
                else [
                    kernel.make_fifo(_WIRE_DEPTH, f"{name}.l{level}.out{i}")
                    for i in range(2 ** (level + 1))
                ]
            )
            for i, fifo in enumerate(current):
                self.modules.append(
                    Dispatcher(f"{name}.l{level}.d{i}", fifo, nxt[2 * i], nxt[2 * i + 1])
                )
            current = nxt
        kernel.add_modules(self.modules)
