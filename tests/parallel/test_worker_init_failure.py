"""Regression: a worker whose initializer crashes must report, not hang.

``multiprocessing.Pool`` respawns any worker whose initializer raises —
before the fix, a corrupt handle or unloadable kernel state put the pool
in a crash-and-respawn loop with the parent blocked on its first result
forever, each dead worker leaking its half-attached segment.  The
initializer now stashes the error and the first task dispatched to the
worker re-raises it into the parent's result path; a failed worker still
holds its swap-barrier party so graph-swap broadcasts surface the error
instead of deadlocking the healthy workers.
"""

import os
import signal

import pytest

from repro.graph import load_dataset
from repro.parallel import ParallelWalkEngine
from repro.walks import URWSpec, make_queries


def _shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs hosts
        return set()


@pytest.fixture
def hang_guard():
    """Fail loudly if a regression turns these tests back into hangs."""
    signal.alarm(120)
    yield
    signal.alarm(0)


@pytest.fixture
def broken_worker_init(monkeypatch):
    """Make every forked worker's initializer fail (inherited via fork)."""
    import repro.parallel.worker as worker_mod

    def explode(store):
        raise RuntimeError("injected init failure")

    monkeypatch.setattr(worker_mod, "graph_from_store", explode)


class TestCrashedWorkerInit:
    def test_run_raises_promptly(self, hang_guard, broken_worker_init):
        graph = load_dataset("WG", scale=0.05, seed=1)
        before = _shm_segments()
        with ParallelWalkEngine(graph, URWSpec(max_length=5), workers=2) as engine:
            with pytest.raises(RuntimeError, match="injected init failure"):
                engine.run(make_queries(graph, 16, seed=2), seed=3)
        # The parent's own segment is unlinked by close(); the failed
        # workers' attaches were closed in the initializer's error path.
        assert _shm_segments() <= before

    def test_swap_broadcast_surfaces_error_not_deadlock(
        self, hang_guard, broken_worker_init
    ):
        # Every worker shows up for the swap barrier even when its init
        # failed — a missing party would hang this call forever.
        graph = load_dataset("WG", scale=0.05, seed=1)
        before = _shm_segments()
        with ParallelWalkEngine(graph, URWSpec(max_length=5), workers=2) as engine:
            with pytest.raises(RuntimeError, match="injected init failure"):
                engine.swap_snapshot(graph)
        assert _shm_segments() <= before
