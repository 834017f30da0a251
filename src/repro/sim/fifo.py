"""Registered stream FIFOs with backpressure.

Modules in the simulated accelerator communicate exclusively through
these FIFOs, mirroring the paper's "shallow FIFOs within the AXI-Stream
protocol, enabling backpressure-based flow control" (Section IV-B).

Semantics are *registered* (two-phase): items pushed during cycle ``t``
become visible to consumers at cycle ``t + 1``, when the simulation
kernel commits all staged writes.  This makes module evaluation order
within a cycle irrelevant — exactly like flip-flop-separated hardware —
and is what lets the kernel call modules in any fixed order without
combinational races.

The status flags are registers too, kept as two running counters rather
than recomputed from the queue on every read:

* ``ready`` — committed items a consumer may still pop this cycle (the
  AXI-Stream ``valid`` side; ``is_empty()`` is ``ready == 0``);
* ``space`` — pushes a producer may still stage this cycle (the
  ``ready`` side of the producer's handshake; ``is_full()`` is
  ``space == 0``).  It counts committed occupancy plus staged pushes, the
  same conservatively-registered full flag a hardware FIFO exports, so a
  pop frees no space until the commit.

One deque holds the committed items still unpopped, then this cycle's
pushes behind them.  ``ready`` guards the committed head, so ``pop``
takes from the left at once and ``push`` appends at the right; the
commit moves no item, it only reloads both counters (and the peak) from
the deque's length.  Hot modules read the counters directly;
``is_empty()`` / ``is_full()`` stay the public API with the same meaning.

A FIFO made by :meth:`SimulationKernel.make_fifo` shares the kernel's
touched-list: its first push or pop of a cycle appends it there, and the
kernel commits only the FIFOs on the list (a handful of ~60 move in a
typical cycle).  A free-standing ``StreamFifo`` lists itself nowhere and
is committed by whoever owns it.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.errors import SimulationError

T = TypeVar("T")


class StreamFifo(Generic[T]):
    """Bounded FIFO with registered push visibility.

    The paper's Dispatcher/Merger algorithms are written against exactly
    this interface: ``is_full`` / ``is_empty`` status flags plus
    non-blocking reads and writes.
    """

    def __init__(
        self, capacity: int, name: str = "fifo", touched: list | None = None
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"fifo capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        # ``touched`` is the owning kernel's commit list; ``_listed`` says
        # this fifo is already on it this cycle (always, when there is none).
        self._touched = touched
        self._listed = touched is None
        #: Committed items not yet popped, then this cycle's pushes.
        self._queue: deque[T] = deque()
        #: Registered flags: committed items minus this cycle's pops, and
        #: ``capacity`` minus committed items and this cycle's pushes.
        self.ready = 0
        self.space = capacity
        self.total_pushed = 0
        self.total_popped = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def is_full(self) -> bool:
        """Registered full flag (committed occupancy + staged pushes)."""
        return not self.space

    def push(self, item: T) -> None:
        """Stage a push; visible to consumers next cycle."""
        if not self.space:
            raise SimulationError(f"push into full fifo {self.name!r}")
        self._queue.append(item)
        self.space -= 1
        self.total_pushed += 1
        if not self._listed:
            self._listed = True
            self._touched.append(self)

    def try_push(self, item: T) -> bool:
        """Push if space; returns whether the push happened."""
        if not self.space:
            return False
        self.push(item)
        return True

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Whether no committed item is available this cycle."""
        return not self.ready

    def front(self) -> T:
        """Peek the oldest committed item."""
        if not self.ready:
            raise SimulationError(f"front of empty fifo {self.name!r}")
        return self._queue[0]

    def pop(self) -> T:
        """Consume the oldest committed item."""
        if not self.ready:
            raise SimulationError(f"pop from empty fifo {self.name!r}")
        self.ready -= 1
        self.total_popped += 1
        if not self._listed:
            self._listed = True
            self._touched.append(self)
        return self._queue.popleft()

    def try_pop(self) -> T | None:
        """Pop if available; ``None`` otherwise (non-blocking read)."""
        if not self.ready:
            return None
        return self.pop()

    # ------------------------------------------------------------------
    # Kernel side
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """End-of-cycle: make this cycle's pushes visible and its pops
        free their space."""
        held = len(self._queue)
        self.ready = held
        self.space = self.capacity - held
        if held > self.peak_occupancy:
            self.peak_occupancy = held
        self._listed = self._touched is None

    def occupancy(self) -> int:
        """Committed items currently held (before this cycle's pops)."""
        # ``capacity - space`` is committed plus pushed; the pushes are
        # what the deque holds beyond ``ready``.
        return self.capacity - self.space - len(self._queue) + self.ready

    def in_flight(self) -> int:
        """Committed plus staged items — work the fifo is responsible for."""
        return len(self._queue)

    def __len__(self) -> int:
        return self.occupancy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamFifo({self.name!r}, {self.occupancy()}/{self.capacity})"
