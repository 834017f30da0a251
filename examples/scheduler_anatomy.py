"""Anatomy of the zero-bubble scheduler — the paper's Section VI, live.

Walks through the scheduler's three layers with direct measurements:

1. a single Dispatcher/Merger pair (Algorithms VI.1/VI.2) balancing a
   stream across unequal consumers;
2. the butterfly balancer smoothing a hot output (the 100-vs-4 pkt/s
   example of Figure 7b);
3. Theorem VI.1's buffer bound: bubble ratio vs FIFO depth under
   delayed feedback, then the same effect on the full accelerator.

Run:  python examples/scheduler_anatomy.py
"""

from repro.core import (
    ButterflyBalancer,
    Dispatcher,
    RidgeWalker,
    RidgeWalkerConfig,
    theorem_fifo_depth,
)
from repro.graph import load_dataset
from repro.memory.spec import HBM2_U55C
from repro.queueing import depth_sweep
from repro.sim import SimulationKernel
from repro.walks import URWSpec, make_queries


def dispatcher_demo() -> None:
    print("== 1. Dispatcher (Algorithm VI.1) ==")
    kernel = SimulationKernel()
    src = kernel.make_fifo(64, "src")
    fast = kernel.make_fifo(4, "fast")
    slow = kernel.make_fifo(4, "slow")
    dispatcher = Dispatcher("d", src, fast, slow)
    kernel.add_module(dispatcher)
    sent = 0
    for cycle in range(400):
        if not src.is_full():
            src.push(sent)
            sent += 1
        # fast consumer drains every cycle, slow one every 8th
        if not fast.is_empty():
            fast.pop()
        if cycle % 8 == 0 and not slow.is_empty():
            slow.pop()
        kernel.step()
    print(f"  routed to fast/slow: {dispatcher.sent[0]}/{dispatcher.sent[1]} "
          f"(backpressure-aware, no stall on the slow side)\n")


def butterfly_demo() -> None:
    print("== 2. Butterfly balancer (Figure 7b) ==")
    kernel = SimulationKernel()
    ins = [kernel.make_fifo(16, f"in{i}") for i in range(4)]
    outs = [kernel.make_fifo(4, f"out{i}") for i in range(4)]
    ButterflyBalancer(kernel, "bal", ins, outs)
    pushed = 0
    drained = [0, 0, 0, 0]
    for cycle in range(600):
        for f in ins:
            if not f.is_full():
                f.push(pushed)
                pushed += 1
        for k, out in enumerate(outs):
            # output 2 is throttled to 1/8 rate (the "4 pkt/s" channel)
            if k == 2 and cycle % 8 != 0:
                continue
            if not out.is_empty():
                out.pop()
                drained[k] += 1
        kernel.step()
    print(f"  delivered per output: {drained}")
    print("  the throttled output receives less; the others stay at line rate\n")


def theorem_demo() -> None:
    print("== 3. Theorem VI.1: depth vs bubbles (N=16, C=16) ==")
    theorem = theorem_fifo_depth(16)
    sweep = depth_sweep(num_servers=16, feedback_delay=16,
                        depths=[1, 4, 8, theorem, 2 * theorem], cycles=6000)
    for depth, bubbles in sweep.items():
        marker = " <- theorem depth" if depth == theorem else ""
        print(f"  depth {depth:3d}: bubble ratio {bubbles * 100:5.2f}%{marker}")
    print()


def accelerator_demo() -> None:
    print("== 4. Latency hiding on the full accelerator ==")
    print("  (the asynchronous engine's outstanding window vs throughput)")
    graph = load_dataset("AS", scale=0.2, seed=1)
    queries = make_queries(graph, 256, seed=2)
    for outstanding in (1, 8, 128):
        config = RidgeWalkerConfig(
            num_pipelines=8, memory=HBM2_U55C, engine_outstanding=outstanding
        )
        metrics = RidgeWalker(graph, URWSpec(max_length=80), config, seed=3).run_streaming(
            queries, warmup_cycles=2000, measure_cycles=6000
        )
        print(f"  outstanding={outstanding:3d}: {metrics.msteps_per_second():7.1f} MStep/s, "
              f"bubbles {metrics.bubble_ratio() * 100:4.1f}%")


def main() -> None:
    dispatcher_demo()
    butterfly_demo()
    theorem_demo()
    accelerator_demo()


if __name__ == "__main__":
    main()
