"""Alias sampling (DeepWalk on weighted graphs — Table I row 2).

Two uniforms and one table lookup give an exact weighted draw in O(1).
The price is preprocessing (flat alias tables, built once per graph) and a
256-bit RP entry carrying the alias-table pointer and size, exactly as the
paper's template-based graph representation does.
"""

from __future__ import annotations

from repro.errors import SamplingError
from repro.graph.alias import AliasTable, build_alias_table
from repro.graph.csr import CSRGraph
from repro.sampling.base import RandomSource, SampleOutcome, Sampler, StepContext


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

    def draw(
        self, graph: CSRGraph, vertex: int, degree: int, random_source: RandomSource
    ) -> int:
        """The index of ``vertex``'s next neighbour, ``degree >= 1``: one
        uniform picks the table slot, a second keeps it or takes its alias."""
        table = self.table
        slot = min(int(random_source.uniform() * degree), degree - 1)
        accept = random_source.uniform()
        element = int(graph.row_ptr[vertex]) + slot
        return slot if accept < table.prob[element] else int(table.alias[element])

    def sample(
        self,
        graph: CSRGraph,
        context: StepContext,
        random_source: RandomSource,
    ) -> SampleOutcome:
        degree = self._require_degree(graph, context.vertex)
        index = self.draw(graph, context.vertex, degree, random_source)
        # One read for the alias slot, one for the chosen neighbor.
        return SampleOutcome(index=index, proposals=1, neighbor_reads=2)
