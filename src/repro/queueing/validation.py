"""Simulation validation of Theorem VI.1.

A minimal, self-contained model of the theorem's setting — deliberately
independent of the full accelerator so it validates the *theory*, not
the implementation:

* ``N`` servers with stochastic service: each cycle a server completes a
  burst of tasks with mean rate ``mu`` (service-time variation is what
  makes delayed observation costly);
* a dispatcher issuing up to ``N`` tasks per cycle, allocated greedily to
  the FIFOs it *believes* have the most space — beliefs are ``C`` cycles
  stale (the delayed backpressure observation of Section VI-A);
* an always-backlogged task source (the theorem's premise).

With per-server FIFO depth at or above the theorem's ``1 + mu*C`` the
servers should essentially never starve after warm-up; with depth well
below it, bubbles appear.  The test suite asserts that crossover and the
scheduler microbenchmark sweeps it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import SchedulerError


@dataclass
class DelayedFeedbackResult:
    """Outcome of one delayed-feedback dispatch simulation."""

    cycles: int
    served: int
    bubble_cycles: int
    server_cycles: int

    @property
    def bubble_ratio(self) -> float:
        """Fraction of post-warmup server-cycles spent starved."""
        return self.bubble_cycles / self.server_cycles if self.server_cycles else 0.0


def simulate_delayed_feedback(
    num_servers: int,
    fifo_depth: int,
    feedback_delay: int,
    cycles: int = 4000,
    mu: float = 1.0,
    burst: int = 4,
    warmup: int = 128,
    seed: int = 0,
) -> DelayedFeedbackResult:
    """Run the theorem's setting and measure post-warmup starvation.

    Service is bursty-Bernoulli: each cycle a server completes ``burst``
    tasks with probability ``mu / burst`` (mean ``mu``, variance > 0).
    The dispatcher refills based on occupancy snapshots that are
    ``feedback_delay`` cycles old, so a burst can drain a shallow FIFO
    before the dispatcher reacts — that starvation window is exactly
    what Theorem VI.1's depth eliminates.
    """
    if num_servers < 1:
        raise SchedulerError("num_servers must be >= 1")
    if fifo_depth < 1:
        raise SchedulerError("fifo_depth must be >= 1")
    if feedback_delay < 0:
        raise SchedulerError("feedback_delay must be >= 0")
    if mu <= 0 or burst < 1 or mu / burst > 1:
        raise SchedulerError("need 0 < mu and burst >= 1 and mu/burst <= 1")

    rng = np.random.default_rng(seed)
    fifos = np.zeros(num_servers, dtype=np.int64)
    history: deque[np.ndarray] = deque(
        [fifos.copy() for _ in range(feedback_delay + 1)], maxlen=feedback_delay + 1
    )
    served = 0
    bubble_cycles = 0
    server_cycles = 0

    for cycle in range(cycles):
        observed = history[0]
        # Dispatch up to num_servers tasks to the believed-emptiest FIFOs;
        # ties go to the lower server index (a stable sort: the host's
        # SIMD sort orders ties by CPU).
        budget = num_servers
        believed_space = fifo_depth - observed
        for i in np.argsort(-believed_space, kind="stable"):
            if budget <= 0:
                break
            want = int(believed_space[i])
            if want <= 0:
                continue
            # Physical capacity still binds (writes cannot overflow).
            take = min(want, budget, fifo_depth - int(fifos[i]))
            if take > 0:
                fifos[i] += take
                budget -= take
        # Stochastic bursty service.
        bursts = rng.random(num_servers) < (mu / burst)
        for i in range(num_servers):
            if cycle >= warmup:
                server_cycles += 1
            if not bursts[i]:
                continue
            if fifos[i] > 0:
                take = min(burst, int(fifos[i]))
                fifos[i] -= take
                served += take
            elif cycle >= warmup:
                bubble_cycles += 1
        history.append(fifos.copy())

    return DelayedFeedbackResult(
        cycles=cycles,
        served=served,
        bubble_cycles=bubble_cycles,
        server_cycles=server_cycles,
    )


def depth_sweep(
    num_servers: int,
    feedback_delay: int,
    depths: list[int],
    cycles: int = 4000,
    mu: float = 1.0,
    burst: int = 4,
    seed: int = 0,
) -> dict[int, float]:
    """Bubble ratio for each candidate FIFO depth."""
    return {
        depth: simulate_delayed_feedback(
            num_servers,
            depth,
            feedback_delay,
            cycles=cycles,
            mu=mu,
            burst=burst,
            seed=seed,
        ).bubble_ratio
        for depth in depths
    }
