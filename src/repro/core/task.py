"""The stateless task tuple (paper Section V-A, Figure 5a).

RidgeWalker decomposes each GRW hop into a minimal task
``Q_sx^y = <v_last, ID_y, x, ...>`` — the last visited vertex (or two for
second-order walks), the query id, and the hop counter.  Everything a hop
needs travels *inside* the task; no module keeps per-query state, which is
what allows out-of-order execution and per-cycle rescheduling without
rollback (Section V-C).

The simulator's :class:`Task` carries the same fields, plus its query's
random stream (so a hop's draws depend on the walk alone, not on which
pipeline serves it or when), plus the transient values a hop accumulates
as it flows through the pipeline (decoded RP entry, sampled index, priced
burst length).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sampling.vectorized import QueryStream


class TaskStatus(Enum):
    """Lifecycle of one task as it flows through the pipeline."""

    RUNNING = "running"
    #: Reached a vertex with no outgoing edges (Figure 1b case II).
    TERMINATED_DANGLING = "dangling"
    #: Sampler found no admissible neighbor (MetaPath type mismatch).
    TERMINATED_FILTERED = "filtered"
    #: Probabilistic termination (PPR teleport, Figure 1b case I).
    TERMINATED_PROBABILISTIC = "probabilistic"
    #: Hit the configured maximum walk length.
    TERMINATED_LENGTH = "length"
    #: Dead slot in a bulk-synchronous schedule: the query terminated but
    #: its reserved slots keep cycling (the static-scheduling bubble the
    #: zero-bubble scheduler eliminates; used only by ablation modes).
    GHOST = "ghost"


#: Statuses that end a query (ghosts are *not* terminal: they keep
#: occupying slots, which is exactly their point).
TERMINAL_STATUSES = frozenset(
    {
        TaskStatus.TERMINATED_DANGLING,
        TaskStatus.TERMINATED_FILTERED,
        TaskStatus.TERMINATED_PROBABILISTIC,
        TaskStatus.TERMINATED_LENGTH,
    }
)


#: The two live statuses, bound once: an ``Enum`` attribute read or hash
#: costs more than the rest of a status test, so the tests below compare
#: identities (every other status is in ``TERMINAL_STATUSES``).
_RUNNING = TaskStatus.RUNNING
_GHOST = TaskStatus.GHOST


@dataclass(slots=True)
class Task:
    """One in-flight GRW hop.

    Persistent fields (the paper's tuple): ``query_id``, ``step``,
    ``vertex`` (v_last) and ``prev_vertex`` (second dependent vertex for
    higher-order walks), plus ``stream``, the query's own
    :class:`~repro.sampling.vectorized.QueryStream`, which Sampling and
    the termination draw read.  The rest is per-hop transient state
    produced by Row Access (decoded RP entry) and Sampling (chosen index,
    priced column burst).
    """

    query_id: int
    vertex: int
    stream: QueryStream
    step: int = 0
    prev_vertex: int = -1
    status: TaskStatus = TaskStatus.RUNNING
    # --- filled by Row Access ---
    degree: int = -1
    column_address: int = -1
    # --- filled by Sampling ---
    sample_index: int = -1
    column_burst_words: int = 1

    def is_terminal(self) -> bool:
        """Whether the owning query is finished."""
        status = self.status
        return status is not _RUNNING and status is not _GHOST

    def is_running(self) -> bool:
        return self.status is _RUNNING

    def is_ghost(self) -> bool:
        return self.status is _GHOST

    def needs_memory(self) -> bool:
        """Terminated tasks flow through without touching memory.

        Ghosts *do* touch memory: a bulk-synchronous schedule "without
        early-termination handling" keeps issuing the dead slot's
        accesses every round, wasting bandwidth as well as issue slots —
        that waste is precisely what Figure 11's scheduler bars recover.
        """
        status = self.status
        return status is _RUNNING or status is _GHOST

    def reset_hop_state(self) -> None:
        """Clear per-hop transients before recirculating to the next hop."""
        self.degree = -1
        self.column_address = -1
        self.sample_index = -1
        self.column_burst_words = 1
