"""Fault injection for the one worker runtime under ``parallel`` and ``dist``.

The failure contract (:mod:`repro.parallel.runtime`): a worker fault —
a handler that raises, a process that dies — surfaces in the parent as
one ``WorkerError`` naming the rank, in seconds and never after a
timeout; the engine then reads as closed, no worker process survives
and no ``/dev/shm`` segment leaks.  The same the other way round: a
worker whose parent was killed exits on its own and the orphaned
segments are unlinked.

Kills are made deterministic with ``SIGSTOP`` first: a stopped worker
accepts its request and never answers, so the parent is certainly
blocked mid-conversation when the ``SIGKILL`` lands.  (Before the one
runtime, each of these either hung — ``Pool`` respawned the worker and
lost the task, dist waited out a 300 s reply timeout — or leaked.)
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.dist import DistWalkEngine
from repro.errors import WalkConfigError, WorkerError
from repro.graph import load_dataset
from repro.parallel import ParallelWalkEngine
from repro.parallel.runtime import WorkerGroup
from repro.parallel.shared_graph import SharedArrayStore
from repro.serve import WalkService
from repro.walks import URWSpec, make_queries, run_walks_batch

#: Every fault must surface, and every clean-up finish, within this.
DEADLINE_SECONDS = 10

BUILDERS = {
    "parallel": lambda graph, spec: ParallelWalkEngine(graph, spec, workers=2),
    "dist": lambda graph, spec: DistWalkEngine(graph, spec, shards=2),
}
#: Where each engine's handler rebuilds its graph from the segment: the
#: function the injected constructor failure replaces.
ATTACH_HOOKS = {
    "parallel": "repro.parallel.worker.graph_from_store",
    "dist": "repro.dist.worker.shard_view_from_store",
}


def _graph():
    return load_dataset("WG", scale=0.05, seed=1)


def _shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs hosts
        return set()


def _alive(pid):
    """Running (not gone, not a zombie awaiting an absent reaper)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _in_thread(function, *args, **kwargs):
    """Run ``function`` on a daemon thread (a hang must not block the
    test's exit); returns the future of its outcome."""
    outcome = Future()

    def target():
        try:
            outcome.set_result(function(*args, **kwargs))
        except BaseException as error:
            outcome.set_exception(error)

    threading.Thread(target=target, daemon=True).start()
    return outcome


def _kill_under(engine, rank, call):
    """``call()`` with worker ``rank`` killed while it is in flight: the
    ``WorkerError`` must arrive within the deadline of the kill."""
    victim = engine.worker_pids[rank]
    os.kill(victim, signal.SIGSTOP)
    outcome = _in_thread(call)
    time.sleep(0.2)
    assert not outcome.done(), "the call cannot finish past a stopped worker"
    os.kill(victim, signal.SIGKILL)
    with pytest.raises(WorkerError, match=f"{engine.name} worker {rank} .*exit code -9"):
        outcome.result(timeout=DEADLINE_SECONDS)


def _assert_closed_and_clean(engine, queries, segments_before):
    with pytest.raises(WalkConfigError, match="engine is closed"):
        engine.run(queries, seed=3)
    with pytest.raises(WalkConfigError, match="engine is closed"):
        engine.swap_snapshot(_graph())
    assert not any(_alive(pid) for pid in engine.worker_pids)
    assert _shm_segments() <= segments_before
    engine.close()  # still idempotent


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestWorkerKilled:
    def test_mid_run(self, name):
        graph = _graph()
        queries = make_queries(graph, 200, seed=2)
        before = _shm_segments()
        engine = BUILDERS[name](graph, URWSpec(max_length=8))
        _kill_under(engine, 1, lambda: engine.run(queries, seed=3))
        _assert_closed_and_clean(engine, queries, before)

    def test_mid_swap(self, name):
        graph = _graph()
        before = _shm_segments()
        engine = BUILDERS[name](graph, URWSpec(max_length=8))
        _kill_under(engine, 1, lambda: engine.swap_snapshot(_graph()))
        # The half-adopted new generation is unlinked with the old one.
        _assert_closed_and_clean(engine, make_queries(graph, 8, seed=2), before)

    def test_failing_handler_constructor(self, name, monkeypatch):
        """A worker that cannot come up fails the engine's constructor
        with its own traceback — no hang, no respawn loop, no leak."""

        def explode(store):
            raise RuntimeError("injected init failure")

        monkeypatch.setattr(ATTACH_HOOKS[name], explode)  # inherited via fork
        before = _shm_segments()
        with pytest.raises(WorkerError, match="injected init failure") as raised:
            BUILDERS[name](_graph(), URWSpec(max_length=5))
        assert f"{name} worker" in str(raised.value)
        assert "Traceback" in str(raised.value)
        assert _shm_segments() <= before

    def test_parent_killed(self, name, tmp_path):
        """Workers must not outlive a dead parent, nor their segments."""
        script = tmp_path / "doomed_parent.py"
        script.write_text(textwrap.dedent(f"""
            import json, time
            from repro.dist import DistWalkEngine
            from repro.graph import load_dataset
            from repro.parallel import ParallelWalkEngine
            from repro.walks import URWSpec, make_queries, run_walks_batch

            graph = load_dataset("WG", scale=0.05, seed=1)
            spec = URWSpec(max_length=8)
            engine = {"ParallelWalkEngine(graph, spec, workers=2)" if name == "parallel"
                      else "DistWalkEngine(graph, spec, shards=2)"}
            engine.run(make_queries(graph, 32, seed=2), seed=3)
            print(json.dumps(engine.worker_pids), flush=True)
            time.sleep(120)
        """))
        before = _shm_segments()
        parent = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            pids = json.loads(parent.stdout.readline())
            assert len(pids) == 2 and all(_alive(pid) for pid in pids)
            assert _shm_segments() - before, "the engine holds segments"
            parent.kill()
            parent.wait(timeout=DEADLINE_SECONDS)
            deadline = time.monotonic() + DEADLINE_SECONDS
            while time.monotonic() < deadline and (
                any(_alive(pid) for pid in pids) or _shm_segments() - before
            ):
                time.sleep(0.05)
            assert not any(_alive(pid) for pid in pids)
            assert _shm_segments() <= before
        finally:
            parent.kill()
            parent.wait()


def test_service_books_a_killed_worker_as_failed():
    """The micro-batch in flight resolves with the ``WorkerError``, the
    ledger identity holds, and later submits fail fast, not hang."""
    graph = _graph()
    spec = URWSpec(max_length=6)
    before = _shm_segments()

    async def scenario():
        engine = ParallelWalkEngine(graph, spec, workers=2)
        # Rank 0 is handed the first shard of every run, however small.
        victim = engine.worker_pids[0]
        async with WalkService(graph, spec, engine=engine, seed=11) as service:
            os.kill(victim, signal.SIGSTOP)
            futures = [service.try_submit(start) for start in range(8)]
            await asyncio.sleep(0.2)
            assert not any(future.done() for future in futures)
            os.kill(victim, signal.SIGKILL)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), DEADLINE_SECONDS
            )
            late = await asyncio.wait_for(
                asyncio.gather(service.try_submit(0), return_exceptions=True),
                DEADLINE_SECONDS,
            )
            return engine, outcomes, late, service.stats

    engine, outcomes, late, stats = asyncio.run(scenario())
    assert isinstance(outcomes[0], WorkerError)
    assert "parallel worker 0" in str(outcomes[0])
    # Requests coalesced behind the faulted micro-batch meet a closed engine.
    assert all(isinstance(o, (WorkerError, WalkConfigError)) for o in outcomes)
    assert isinstance(late[0], WalkConfigError) and "engine is closed" in str(late[0])
    assert stats.failed == len(outcomes) + 1 and stats.completed == 0
    assert stats.offered == stats.completed + stats.dropped + stats.failed
    assert not any(_alive(pid) for pid in engine.worker_pids)
    assert _shm_segments() <= before


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_threads_sharing_an_engine_take_turns(name):
    """A conversation is exclusive: concurrent ``run`` calls on one
    engine (more threads than workers, more workers than this test needs)
    must each read their own replies — every result bit-identical."""
    graph = _graph()
    spec = URWSpec(max_length=8)
    queries = make_queries(graph, 120, seed=2)
    oracle = run_walks_batch(graph, spec, queries, seed=3)
    with BUILDERS[name](graph, spec) as engine:
        runs = [
            _in_thread(lambda: [engine.run(queries, seed=3) for _ in range(3)])
            for _ in range(4)
        ]
        for outcome in runs:
            for results in outcome.result(timeout=60):
                assert all(map(np.array_equal, oracle.paths, results.paths))


def test_spawn_context_leaves_the_resource_tracker_alone(tmp_path):
    """Spawned workers share the parent's resource tracker just as forked
    ones do, so a worker must not unregister the segment it attaches:
    doing so (as the parallel engine once did under spawn) makes the
    tracker forget a live segment and log a ``KeyError`` traceback when
    the owner unlinks it."""
    script = tmp_path / "under_spawn.py"
    script.write_text(textwrap.dedent("""
        import multiprocessing
        import numpy as np
        import repro.dist.engine, repro.parallel.runtime

        def spawn():
            return multiprocessing.get_context("spawn")

        repro.parallel.runtime.worker_context = spawn
        repro.dist.engine.worker_context = spawn

        from repro.engines import prepare_engine
        from repro.graph import load_dataset
        from repro.walks import URWSpec, make_queries, run_walks_batch

        if __name__ == "__main__":
            graph = load_dataset("WG", scale=0.05, seed=1)
            spec = URWSpec(max_length=8)
            queries = make_queries(graph, 32, seed=2)
            oracle = run_walks_batch(graph, spec, queries, seed=3)
            for name, options in (("parallel", {"workers": 2}), ("dist", {"shards": 2})):
                with prepare_engine(name, graph, spec, **options) as engine:
                    engine.swap_snapshot(graph)
                    results = engine.run(queries, seed=3)
                assert all(map(np.array_equal, oracle.paths, results.paths)), name
            print("identical")
    """))
    before = _shm_segments()
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=90
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "identical"
    assert "KeyError" not in done.stderr and "leaked" not in done.stderr, done.stderr
    assert _shm_segments() <= before


class _Echo:
    """A toy handler: what the runtime itself promises, engine aside."""

    def __init__(self, rank, store, greeting):
        self._rank = rank
        self._greeting = greeting
        self.adopt(store)

    def adopt(self, store):
        self._values = store.arrays()["values"]

    def greet(self, name):
        return f"{self._greeting} {name} from {self._rank}"

    def total(self):
        return int(self._values.sum())

    def fail(self):
        raise ValueError("handler blew up")


class TestWorkerGroup:
    def _group(self, ranks=2):
        store = SharedArrayStore.create({"values": np.arange(5)})
        return WorkerGroup("echo", [store] * ranks, _Echo, [("hello",)] * ranks)

    def test_requests_replies_and_clean_close(self):
        before = _shm_segments()
        group = self._group()
        with group.session():
            group.send(1, "greet", "you")
            assert group.recv("greet") == (1, "hello you from 1")
            group.broadcast("total")
            assert group.gather("total") == [10, 10]
            group.adopt([SharedArrayStore.create({"values": np.arange(7)})] * 2)
            group.broadcast("total")
            assert group.gather("total") == [21, 21]
        group.close()
        group.close()  # idempotent
        assert not any(_alive(pid) for pid in group.pids)
        assert _shm_segments() - before == set()
        with pytest.raises(WalkConfigError, match="echo engine is closed"):
            with group.session():
                pass

    def test_handler_error_arrives_with_the_worker_traceback(self):
        group = self._group()
        with pytest.raises(WorkerError, match="echo worker 1 .*ValueError: handler blew up") as raised:
            with group.session():
                group.send(1, "fail")
                group.recv("fail")
        assert "in fail" in str(raised.value)  # the worker-side frame
        assert not any(_alive(pid) for pid in group.pids)

    def test_interrupted_conversation_closes_the_group(self):
        """Unanswered requests left behind by an interrupt would be read
        as the next conversation's replies: closed, never poisoned."""
        group = self._group()
        with pytest.raises(KeyboardInterrupt):
            with group.session():
                group.broadcast("total")
                raise KeyboardInterrupt
        with pytest.raises(WalkConfigError, match="closed"):
            with group.session():
                pass
        assert not any(_alive(pid) for pid in group.pids)

    def test_error_outside_a_conversation_leaves_the_group_open(self):
        group = self._group()
        with pytest.raises(LookupError):
            with group.session():
                raise LookupError("nothing was in flight")
        with group.session():
            group.broadcast("total")
            assert group.gather("total") == [10, 10]
        group.close()
