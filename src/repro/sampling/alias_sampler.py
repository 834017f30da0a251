"""Alias sampling (DeepWalk on weighted graphs — Table I row 2).

Two uniforms and one table lookup give an exact weighted draw in O(1).
The price is preprocessing (flat alias tables, built once per graph) and a
256-bit RP entry carrying the alias-table pointer and size, exactly as the
paper's template-based graph representation does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SamplingError
from repro.graph.alias import AliasTable, build_alias_table
from repro.graph.csr import CSRGraph
from repro.sampling.base import DANGLING_MESSAGE, Sampler

if TYPE_CHECKING:
    from repro.sampling.vectorized import QueryStream


class AliasSampler(Sampler):
    """Weighted O(1) sampling via per-vertex alias tables."""

    rp_entry_bits = 256
    name = "alias"

    def __init__(self) -> None:
        self._table: AliasTable | None = None

    def prepare(self, graph: CSRGraph) -> None:
        """Build (or rebuild) the flat alias tables for ``graph``."""
        self._table = build_alias_table(graph)

    @property
    def table(self) -> AliasTable:
        """The alias tables; raises if :meth:`prepare` was never called."""
        if self._table is None:
            raise SamplingError("AliasSampler.prepare(graph) must be called before sampling")
        return self._table

    def draw(self, graph: CSRGraph, vertex: int, degree: int, previous: int,
             admissible_type: int | None, stream: QueryStream) -> tuple[int, int, int]:
        """One draw picks the table slot, as ``AliasKernel`` draws it; a
        second keeps the slot or takes its alias.  Two reads: the alias
        slot and the chosen neighbor."""
        if degree < 1:
            raise SamplingError(DANGLING_MESSAGE.format(vertex))
        table = self.table
        slot = stream.randint(degree)
        accept = stream.uniform()
        element = int(graph.row_ptr[vertex]) + slot
        return (slot if accept < table.prob[element] else int(table.alias[element])), 1, 2
