"""Walk recording: reassembling query paths from out-of-order hops.

Tasks carry their query id precisely so results can be associated with
queries despite out-of-order completion (Section V-A: "tasks are tagged
with a unique query index for result tracking").  The recorder is the
simulator-side analogue of that mechanism plus the Query Writer's
path collection.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.walks.base import WalkResults


class WalkRecorder:
    """Collects per-query paths as hops complete in any order."""

    def __init__(self) -> None:
        self._paths: dict[int, list[int]] = {}
        self._finished: set[int] = set()
        self.total_hops = 0

    def start_query(self, query_id: int, start_vertex: int) -> None:
        """Register a query at injection time."""
        if query_id in self._paths:
            raise SimulationError(f"query {query_id} started twice")
        self._paths[query_id] = [start_vertex]

    def record_hop(self, query_id: int, vertex: int) -> None:
        """Append one traversed vertex to a query's path."""
        try:
            path = self._paths[query_id]
        except KeyError:
            raise SimulationError(f"hop recorded for unknown query {query_id}") from None
        if query_id in self._finished:
            raise SimulationError(f"hop recorded after query {query_id} finished")
        path.append(vertex)
        self.total_hops += 1

    def finish_query(self, query_id: int) -> None:
        """Mark a query complete (Query Writer write-back)."""
        if query_id not in self._paths:
            raise SimulationError(f"finish for unknown query {query_id}")
        if query_id in self._finished:
            raise SimulationError(f"query {query_id} finished twice")
        self._finished.add(query_id)

    @property
    def started(self) -> int:
        return len(self._paths)

    @property
    def finished(self) -> int:
        return len(self._finished)

    def all_done(self) -> bool:
        """Whether every started query has finished."""
        return len(self._finished) == len(self._paths)

    def to_results(self, query_ids: list[int]) -> WalkResults:
        """Assemble final :class:`WalkResults`, one path per id of
        ``query_ids``, in that order (the batch's)."""
        if not self.all_done():
            unfinished = sorted(set(self._paths) - self._finished)[:8]
            raise SimulationError(
                f"{len(self._paths) - len(self._finished)} queries unfinished "
                f"(first: {unfinished})"
            )
        results = WalkResults()
        for query_id in query_ids:
            results.add_path(self._paths[query_id])
        return results
