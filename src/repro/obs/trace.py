"""Structured span tracing with a pay-for-what-you-use hot path.

The tracer answers the question the end-of-run aggregates
(:class:`~repro.walks.EngineStats`, :class:`~repro.serve.ServeStats`)
cannot: *where does the time go* inside a superstep, a dynamic
snapshot, or a QoS dispatch cycle.  Every instrumented site records a
:class:`SpanEvent` — a name, a wall-clock interval measured with
``time.perf_counter()``, the recording thread, and a small payload of
subsystem context (frontier width, batch shape, epoch, tenant) — into a
bounded ring buffer that the exporters (:mod:`repro.obs.exporters`)
turn into JSONL, Chrome ``trace_event`` JSON, or nothing at all.

Design contract (held by ``tests/obs/test_tracer.py``):

* **Disabled by default, nearly free when disabled.**  The module-level
  :func:`active` returns ``None`` unless tracing is on, so hot loops
  hoist one call per run (``tracer = active()``) and pay a single local
  ``is not None`` branch per superstep thereafter: an untraced closed
  batch run calls :func:`active` exactly once, whatever its lanes.
* **Bounded memory with drop accounting.**  The ring holds at most
  ``capacity`` events; once full, the *oldest* events are evicted and
  counted in :attr:`Tracer.dropped` — a long traced run degrades into a
  suffix trace plus an honest drop count, never into unbounded growth.
* **No effect on results.**  Tracing never touches RNG state or walk
  data; enabling it must be bit-identical to disabling it.

Timestamps are ``perf_counter`` seconds relative to the tracer's own
start; they order events within one process and support duration
arithmetic (the whole point of RW107), but are not wall-clock dates.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ObservabilityError

#: Default ring capacity: enough for ~an hour of serve-layer events or a
#: few thousand traced supersteps while staying a few MB of payload dicts.
DEFAULT_CAPACITY = 65_536

#: Complete (duration) event, Chrome trace_event phase "X".
PHASE_COMPLETE = "X"
#: Instantaneous event, Chrome trace_event phase "i".
PHASE_INSTANT = "i"


@dataclass(frozen=True)
class SpanEvent:
    """One recorded span or instant.

    ``ts`` and ``dur`` are seconds on the tracer's ``perf_counter``
    timeline (``dur == 0.0`` for instants); ``tid`` is the OS thread
    ident of the recording thread, which is what makes a batch run's
    lanes visibly parallel in Perfetto.
    """

    name: str
    ts: float
    dur: float
    tid: int
    phase: str = PHASE_COMPLETE
    args: dict = field(default_factory=dict)


class _NullSpan:
    """The no-op context manager :meth:`Tracer.span` hands out when off."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def annotate(self, **args) -> None:
        pass

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that records one complete event on exit.

    Exceptions propagate (``__exit__`` returns ``False``) but the span
    still lands in the ring with an ``"error": True`` payload mark, so a
    trace of a failing run shows *where* it failed.
    """

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: Tracer, name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0.0

    def __enter__(self) -> _LiveSpan:
        self._start = time.perf_counter()
        return self

    def annotate(self, **args) -> None:
        """Add payload fields only known once the span's work is under way."""
        self._args = {**self._args, **args}

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._args = {**self._args, "error": True}
        self._tracer.end(self._start, self._name, **self._args)
        return False


class Tracer:
    """Bounded, thread-safe event recorder.

    All mutation funnels through :meth:`_record`, which appends to a
    ``deque(maxlen=capacity)`` — eviction of the oldest event is then a
    property of the container, and the drop count is derived as
    ``recorded - len(ring)`` so it can never disagree with the ring.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ObservabilityError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = False
        self._ring: deque[SpanEvent] = deque(maxlen=capacity)
        self._recorded = 0
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    # -- lifecycle ----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop every buffered event and reset the drop accounting."""
        with self._lock:
            self._ring.clear()
            self._recorded = 0

    # -- recording ----------------------------------------------------

    def begin(self) -> float:
        """Start token for the hot-loop span API (a raw ``perf_counter``).

        Usage (hoist ``tracer = active()`` outside the loop)::

            if tracer is not None:
                t0 = tracer.begin()
            ...vectorized work...
            if tracer is not None:
                tracer.end(t0, "batch.superstep", superstep=index, frontier=width)
        """
        return time.perf_counter()

    def end(self, token: float, name: str, **args) -> None:
        """Record a complete span started at ``token``."""
        now = time.perf_counter()
        self._record(SpanEvent(
            name=name,
            ts=token - self._origin,
            dur=now - token,
            tid=threading.get_ident(),
            phase=PHASE_COMPLETE,
            args=args,
        ))

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker (a shed decision, ...)."""
        self._record(SpanEvent(
            name=name,
            ts=time.perf_counter() - self._origin,
            dur=0.0,
            tid=threading.get_ident(),
            phase=PHASE_INSTANT,
            args=args,
        ))

    def span(self, name: str, **args):
        """Context-manager span; a shared no-op singleton when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, args)

    def _record(self, event: SpanEvent) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._ring.append(event)
            self._recorded += 1

    # -- inspection ---------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since the last :meth:`clear`."""
        with self._lock:
            return self._recorded - len(self._ring)

    def events(self) -> tuple[SpanEvent, ...]:
        """Consistent snapshot of the buffered events, oldest first."""
        with self._lock:
            return tuple(self._ring)

    def snapshot(self) -> dict:
        """JSON-ready tracer accounting (embedded next to exports)."""
        with self._lock:
            buffered = len(self._ring)
            recorded = self._recorded
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "buffered": buffered,
            "recorded": recorded,
            "dropped": recorded - buffered,
        }


# -- the global tracer ------------------------------------------------
#
# One process-wide instance, off by default.  Instrumented sites call
# ``active()`` once per run; everything else (CLI wrappers, benchmarks,
# tests) goes through enable/disable or the ``tracing()`` guard.

_tracer = Tracer()


def active() -> Tracer | None:
    """The global tracer when tracing is on, else ``None``.

    This is the only call hot paths make: hoisting the result means the
    disabled cost per iteration is one local ``is not None`` check, and
    the disabled code path is byte-for-byte the uninstrumented one.
    """
    return _tracer if _tracer.enabled else None


def configure_tracer(capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Replace the global tracer with a fresh (disabled) one."""
    global _tracer
    _tracer = Tracer(capacity=capacity)
    return _tracer


def enable_tracing(capacity: int | None = None) -> Tracer:
    """Turn the global tracer on, optionally resizing its ring first."""
    if capacity is not None and capacity != _tracer.capacity:
        configure_tracer(capacity)
    _tracer.enable()
    return _tracer


def disable_tracing() -> Tracer:
    """Turn the global tracer off (buffered events remain exportable)."""
    _tracer.disable()
    return _tracer


def span(name: str, **args):
    """Module-level convenience: a span on the global tracer (or no-op)."""
    return _tracer.span(name, **args)


@contextmanager
def tracing(capacity: int | None = None) -> Iterator[Tracer]:
    """Scoped enable/disable guard used by tests and benchmarks.

    Restores the previous enabled state on exit so a test that traces
    never leaks an enabled global tracer into the next test.
    """
    was_enabled = _tracer.enabled
    tracer = enable_tracing(capacity)
    try:
        yield tracer
    finally:
        if not was_enabled:
            tracer.disable()
