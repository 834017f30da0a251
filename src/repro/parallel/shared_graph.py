"""Shared-memory backing for CSR graphs and prepared kernel state.

The multi-process engines run one batch-engine instance per worker
process.  Copying a multi-hundred-megabyte CSR graph into every worker —
or rebuilding alias tables and edge keys per worker — would dwarf the
walk time, so the parent serializes every array exactly once into one
``multiprocessing.shared_memory`` segment and hands workers a small
picklable :class:`SharedStoreHandle`.  Workers attach zero-copy
read-only views; the graph is built and prepared once, period.

Layout: a single shared segment holding all arrays back to back at
64-byte-aligned offsets, described by per-array ``(name, offset, shape,
dtype)`` records in the handle (a record array keeps its field names).
One segment (rather than one per array) keeps the attach/cleanup surface
minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.sampling.hybrid import make_walk_kernel
from repro.sampling.vectorized import VectorizedKernel

_ALIGN = 64

#: Key prefixes separating graph arrays from kernel state in one store.
GRAPH_PREFIX = "graph:"
KERNEL_PREFIX = "kernel:"

_GRAPH_FIELDS = ("row_ptr", "col", "weights", "edge_types", "vertex_types")


@dataclass(frozen=True)
class _ArrayRecord:
    """Where one array lives inside the shared segment."""

    name: str
    offset: int
    shape: tuple[int, ...]
    #: ``dtype.str``; for a record dtype ``dtype.descr``, since its
    #: ``str`` is an opaque ``|V<n>`` that would drop the field names.
    dtype: str | list


@dataclass(frozen=True)
class SharedStoreHandle:
    """Picklable description of a :class:`SharedArrayStore` segment."""

    segment_name: str
    records: tuple[_ArrayRecord, ...]
    graph_name: str = "graph"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArrayStore:
    """A named set of numpy arrays in one shared-memory segment.

    The creating process owns the segment (``owner=True``) and must call
    :meth:`close` — unlinking the segment — when the worker pool is done;
    attaching processes only detach.  Arrays returned by :meth:`arrays`
    are read-only views valid until :meth:`close`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: SharedStoreHandle,
                 owner: bool) -> None:
        self._shm = shm
        self._handle = handle
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray], graph_name: str = "graph") -> "SharedArrayStore":
        """Copy ``arrays`` into a fresh shared segment (the one-time cost)."""
        records = []
        offset = 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _aligned(offset)
            dtype = array.dtype.descr if array.dtype.names else array.dtype.str
            records.append(_ArrayRecord(name, offset, array.shape, dtype))
            offset += array.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            for record, array in zip(records, arrays.values()):
                # Bytes, not items: one memcpy whatever the dtype (numpy
                # copies a record array field by field).
                source = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
                np.ndarray(source.size, dtype=np.uint8, buffer=shm.buf,
                           offset=record.offset)[:] = source
            handle = SharedStoreHandle(shm.name, tuple(records), graph_name)
            return cls(shm, handle, owner=True)
        except BaseException:
            # Until the owning wrapper exists, nothing else can unlink
            # the segment — a failure here (a dtype that won't cast, a
            # caller mapping that lies about its values) would leak it
            # in /dev/shm until reboot (RW103).
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise

    @classmethod
    def attach(cls, handle: SharedStoreHandle) -> "SharedArrayStore":
        """Map an existing segment (worker side) without taking ownership.

        Attaching registers the name with the resource tracker a second
        time (Python < 3.13 has no ``track=False``), which is harmless
        for every process ``multiprocessing`` starts: forked, spawned and
        forkserver children all inherit the *creator's* tracker, whose
        registry is a set — the segment stays registered exactly once,
        the owner's unlink clears it, and if the owner is killed the
        tracker unlinks it once the last worker is gone.  (A worker that
        unregisters its attach instead makes the tracker forget a live
        segment and fail the owner's own unregister with a ``KeyError``.)
        """
        return cls(shared_memory.SharedMemory(name=handle.segment_name), handle,
                   owner=False)

    @property
    def handle(self) -> SharedStoreHandle:
        return self._handle

    def arrays(self) -> dict[str, np.ndarray]:
        """Read-only zero-copy views of every stored array."""
        if self._closed:
            raise GraphError("shared array store is closed")
        out: dict[str, np.ndarray] = {}
        for record in self._handle.records:
            view = np.ndarray(record.shape, dtype=record.dtype, buffer=self._shm.buf,
                              offset=record.offset)
            view.setflags(write=False)
            out[record.name] = view
        return out

    def close(self) -> None:
        """Detach; the owning process also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def graph_arrays(graph: CSRGraph) -> dict[str, np.ndarray]:
    """The graph's defining arrays, keyed for a shared store."""
    out = {}
    for name in _GRAPH_FIELDS:
        array = getattr(graph, name)
        if array is not None:
            out[GRAPH_PREFIX + name] = array
    return out


def graph_from_store(store: SharedArrayStore) -> CSRGraph:
    """Rebuild the CSR graph from a store's zero-copy views.

    ``CSRGraph`` keeps already-contiguous arrays of the right dtype as-is,
    so no copy happens; the construction cost is one validation pass per
    worker process.
    """
    arrays = store.arrays()
    fields = {
        name: arrays[GRAPH_PREFIX + name]
        for name in _GRAPH_FIELDS
        if GRAPH_PREFIX + name in arrays
    }
    return CSRGraph(name=store.handle.graph_name, **fields)


def kernel_state_from_store(store: SharedArrayStore) -> dict[str, np.ndarray]:
    """The prepared-kernel arrays a store carries (possibly empty)."""
    return {
        name[len(KERNEL_PREFIX):]: array
        for name, array in store.arrays().items()
        if name.startswith(KERNEL_PREFIX)
    }


def kernel_from_store(spec, sampler_mode: str, store: SharedArrayStore) -> VectorizedKernel:
    """The worker-side kernel: the shell ``spec`` and ``sampler_mode``
    name, loaded with the prepared state the parent broadcast in
    ``store`` — no per-worker alias-table or edge-key build."""
    kernel = make_walk_kernel(spec.make_sampler(), sampler_mode)
    kernel.load_state(kernel_state_from_store(store))
    return kernel
