"""The one multi-process worker runtime under ``parallel`` and ``dist``.

Both engines are long-lived worker processes over shared-memory
segments; the process plumbing is written once here.  A
:class:`WorkerGroup` starts one process per rank and talks to each over
its own duplex pipe: ``(verb, payload)`` out (``None`` to stop), exactly
one ``(verb, result)`` back per request — or ``("error", report)`` with
the worker's traceback.  The worker side is one loop (:func:`_serve`):
attach the rank's segment, build ``handler = factory(rank, store,
*extra)``, then answer each request with ``getattr(handler,
verb)(*payload)``.  What a handler does is the engine's business
(``parallel.worker.ShardRunner`` runs shards, ``dist.worker._ShardState``
owns a partition and exchanges walkers); every handler has
``adopt(store)``.  The engine side of that split is
:class:`WorkerGroupEngine`: lifecycle and snapshot swap, written once.

Failure contract: a worker fault — a handler that raises, a process that
dies for any reason — reaches the parent as one
:class:`~repro.errors.WorkerError` naming the rank, as soon as the OS
reports the death rather than after a timeout.  The group then kills the
other workers, unlinks every segment and reads as closed
(``WalkConfigError`` from the engine on top); nothing is retried,
nothing leaks.  The other way round, a worker whose parent died exits on
its own, and once no process holds the segments the resource tracker
unlinks them.

Replies travel on one pipe per worker, never a shared queue: a worker
killed mid-write tears a shared stream and hangs its reader although the
sentinel fired, while a torn private pipe is that worker's end-of-file.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import traceback
from contextlib import contextmanager
from multiprocessing import connection
from typing import Any, Callable, Iterator, NoReturn, Sequence

from repro.errors import WalkConfigError, WorkerError
from repro.graph.csr import CSRGraph
from repro.obs.trace import active as _active_tracer
from repro.parallel.shared_graph import SharedArrayStore
from repro.sampling.vectorized import VectorizedKernel
from repro.walks.engine import PreparedEngine

#: Seconds a graceful close gives a worker to exit before killing it.
_JOIN_TIMEOUT = 10.0


def worker_context() -> multiprocessing.context.BaseContext:
    """Fork on Linux (cheap start, inherited modules); the platform
    default elsewhere — macOS offers fork but deliberately defaults to
    spawn because forking a process with framework threads is unsafe.
    The shared-memory design works under both start methods."""
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _serve(rank: int, pipe, factory: Callable, handle, extra: tuple) -> None:
    """Worker-process entry point: attach, build the handler, answer.

    The segment's worker-side lifetime is handled here, not per handler:
    on ``adopt`` the new segment is attached and handed over before the
    old one is dropped, and the last mapping goes with the process.  Any
    failure, the handler's constructor included, is reported with this
    process's traceback and ends the worker — the parent closes the
    whole group on a fault, so no request follows a failed one.
    """
    # Watched beside the pipe: forked siblings inherit each other's pipe
    # ends, so with the parent killed end-of-file alone never arrives.
    parent_gone = multiprocessing.parent_process().sentinel
    try:
        store = SharedArrayStore.attach(handle)
        handler = factory(rank, store, *extra)
        pipe.send(("ready", None))
        while parent_gone not in connection.wait([pipe, parent_gone]):
            request = pipe.recv()
            if request is None:
                break
            verb, payload = request
            if verb == "adopt":
                fresh = SharedArrayStore.attach(*payload)
                handler.adopt(fresh)
                store.close()
                store, result = fresh, None
            else:
                result = getattr(handler, verb)(*payload)
            pipe.send((verb, result))
    except EOFError:  # every parent end of the pipe closed: a stop
        pass
    except BaseException as error:
        try:
            pipe.send(("error", f"{type(error).__name__}: {error}\n"
                                f"{traceback.format_exc()}"))
        except OSError:  # parent already gone: nobody left to tell
            pass


class WorkerGroup:
    """N worker processes, one pipe each, and the segments they serve.

    The group owns ``stores`` from construction on — ``stores[rank]`` is
    the segment rank attaches (workers sharing one segment get it N
    times; closing is idempotent) — and unlinks them on :meth:`close`, on
    a failed bring-up and on any worker fault.  ``extras[rank]`` are the
    further constructor arguments of rank's handler.  :meth:`send` /
    :meth:`recv` conversations run inside :meth:`session`.
    """

    def __init__(self, name: str, stores: Sequence[SharedArrayStore],
                 factory: Callable, extras: Sequence[tuple]) -> None:
        self._name = name
        self._stores = list(stores)
        self._lock = threading.RLock()
        self._closed = False
        self._pipes: list = []
        self._processes: list = []
        context = worker_context()
        try:
            for rank, (store, extra) in enumerate(zip(self._stores, extras)):
                pipe, worker_end = context.Pipe()
                self._pipes.append(pipe)
                process = context.Process(
                    target=_serve, name=f"repro-{name}-{rank}", daemon=True,
                    args=(rank, worker_end, factory, store.handle, extra),
                )
                process.start()
                self._processes.append(process)
                # At once, before the next rank forks: only the worker
                # may hold its end, or its death is no end-of-file here.
                worker_end.close()
            self._sentinels = [process.sentinel for process in self._processes]
            self._outstanding = len(self._processes)
            self.gather("ready")
        except BaseException:
            self._shutdown(graceful=False)
            raise

    @property
    def pids(self) -> list[int]:
        """Worker process ids by rank (still readable after close)."""
        return [process.pid for process in self._processes]

    @contextmanager
    def session(self) -> Iterator[None]:
        """One exclusive conversation; ``WalkConfigError`` if closed.

        Holds the group's lock, so threads sharing an engine take turns
        instead of reading each other's replies.  A conversation cut
        short with requests unanswered (an interrupt, an alarm raised
        from a signal handler) closes the group: the stale replies would
        be read as the answers to the next one.
        """
        with self._lock:
            if self._closed:
                raise WalkConfigError(f"{self._name} engine is closed")
            try:
                yield
            except BaseException:
                if self._outstanding:
                    self._shutdown(graceful=False)
                raise

    def send(self, rank: int, verb: str, *payload: Any) -> None:
        """Ask worker ``rank`` for ``handler.verb(*payload)``."""
        try:
            self._pipes[rank].send((verb, payload))
        except OSError:  # the worker died between conversations
            self._fault(rank)
        self._outstanding += 1

    def broadcast(self, verb: str, *payload: Any) -> None:
        """The same request to every worker."""
        for rank in range(len(self._pipes)):
            self.send(rank, verb, *payload)

    def recv(self, verb: str) -> tuple[int, Any]:
        """The next ``verb`` reply from any worker: ``(rank, result)``.

        Waits on every pipe *and* every process sentinel, so a worker
        that dies without a word is noticed as fast as one that answers.
        """
        ready = connection.wait(self._pipes + self._sentinels)
        # Pipes before sentinels: a worker that reported an error and
        # then exited has both ready, and the report is the real cause.
        for rank, pipe in enumerate(self._pipes):
            if pipe in ready:
                try:
                    kind, result = pipe.recv()
                except (EOFError, OSError):  # died, possibly mid-write
                    self._fault(rank)
                if kind == "error":
                    self._fault(rank, f"failed: {result}")
                if kind != verb:
                    self._fault(rank, f"answered {kind!r} where {verb!r} was expected")
                self._outstanding -= 1
                return rank, result
        self._fault(self._sentinels.index(ready[0]))

    def gather(self, verb: str) -> list:
        """One ``verb`` reply from every worker, indexed by rank."""
        replies = [None] * len(self._pipes)
        for _ in replies:
            rank, result = self.recv(verb)
            replies[rank] = result
        return replies

    def adopt(self, new_stores: Sequence[SharedArrayStore]) -> None:
        """Move every worker onto ``new_stores[rank]``, new before old.

        Each worker attaches its new segment before dropping the old
        one, and the old generation is unlinked only after every worker
        has answered — no worker ever holds a name that is gone.  One
        channel per worker makes the broadcast exactly-once by
        construction.  The group owns ``new_stores`` from the call on: a
        fault unlinks them with the old ones.
        """
        new_stores = list(new_stores)
        try:
            for rank, store in enumerate(new_stores):
                self.send(rank, "adopt", store.handle)
            self.gather("adopt")
        except BaseException:
            for store in new_stores:
                store.close()
            raise
        old_stores, self._stores = self._stores, new_stores
        for store in old_stores:
            store.close()

    def _fault(self, rank: int, report: str | None = None) -> NoReturn:
        """Close the group and raise the one error a worker fault becomes."""
        process = self._processes[rank]
        if report is None:
            process.join(1.0)  # reap it, so the exit code is known
            report = f"died with exit code {process.exitcode}"
        self._shutdown(graceful=False)
        raise WorkerError(
            f"{self._name} worker {rank} (pid {process.pid}) {report}\n"
            f"the {self._name} engine is closed"
        )

    def close(self) -> None:
        """Stop the workers and unlink every segment; idempotent.  Waits
        out a conversation another thread has in progress."""
        with self._lock:
            self._shutdown(graceful=True)

    def _shutdown(self, graceful: bool) -> None:
        if self._closed:
            return
        self._closed = True
        for pipe, process in zip(self._pipes, self._processes):
            if graceful:
                try:
                    pipe.send(None)
                except OSError:  # already dead
                    pass
            else:
                # SIGKILL, not SIGTERM: a peer blocked on a dead worker
                # or stopped by a debugger must go too, and workers hold
                # nothing that needs an orderly exit (attach-only maps).
                process.kill()
        for process in self._processes:
            process.join(_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - hung worker
                process.kill()
                process.join()
        for pipe in self._pipes:
            pipe.close()
        for store in self._stores:
            store.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self._shutdown(graceful=True)
        except Exception:
            pass


class WorkerGroupEngine(PreparedEngine):
    """A prepared engine whose per-graph state lives in a worker group.

    Subclasses build ``self._group`` in their constructor from
    :meth:`_segments` and implement ``_run_arrays`` as a
    :meth:`WorkerGroup.session`; the swap hand-off, ``worker_pids`` and
    ``close`` are the same for every such engine and live here.
    """

    runs_after_close = False
    _group: WorkerGroup

    def _segments(self, graph: CSRGraph, kernel: VectorizedKernel) -> list[SharedArrayStore]:
        """Fresh segments serving ``graph`` through ``kernel``, one per
        rank.  Also repoints the parent-side state derived from the
        graph — only once the last segment exists, so a failed build
        leaves the engine serving the old version."""
        raise NotImplementedError

    @property
    def worker_pids(self) -> list[int]:
        """Process ids of the workers, by rank; a swap keeps them."""
        return self._group.pids

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        """Point the live workers at a new graph version.

        The processes survive — only the segments are replaced: the
        parent serializes the new graph (plus ``kernel``'s prepared
        state) into fresh ones and the group moves every worker over,
        new before old, so no worker can observe a mixed epoch (and no
        walkers exist between runs to straddle one).
        """
        if graph.num_vertices != self._graph.num_vertices:
            # Work planned against the old vertex universe would index
            # out of range; a changed one needs a new engine.
            raise WalkConfigError(
                f"cannot swap to a graph with {graph.num_vertices} vertices; "
                f"the engine was built for {self._graph.num_vertices}"
            )
        with self._group.session():
            tracer = _active_tracer()
            if tracer is not None:
                _t_swap = tracer.begin()
            self._group.adopt(self._segments(graph, kernel))
            self._graph = graph
            if tracer is not None:
                tracer.end(_t_swap, f"{self.name}.swap", workers=len(self._group.pids))

    def close(self) -> None:
        """Stop the workers and unlink every segment."""
        self._group.close()
