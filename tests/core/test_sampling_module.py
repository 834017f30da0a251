"""Unit tests for the Sampling stage and its cost model."""

import pytest

from repro.core import SamplingModule, Task, TaskStatus
from repro.core.sampling_module import MAX_SCAN_BURST_WORDS, SCAN_WORDS_PER_CYCLE
from repro.errors import SimulationError
from repro.graph import from_edges
from repro.sampling import (
    AliasSampler,
    QueryStream,
    RejectionSampler,
    ReservoirSampler,
    UniformSampler,
)
from repro.sim import SimulationKernel
from repro.walks import MetaPathSpec, Node2VecSpec, URWSpec


def stage(sampler, graph, spec):
    kernel = SimulationKernel()
    return SamplingModule("sp", kernel.make_fifo(1, "src"), kernel.make_fifo(1, "dst"),
                          graph, spec, sampler)


def priced(module, vertex, degree, prev_vertex=-1, state=0):
    """``(occupancy, column burst words)`` of the stage's decision for one
    live task."""
    task = Task(query_id=0, vertex=vertex, stream=QueryStream(state), degree=degree,
                prev_vertex=prev_vertex)
    service = module._decide(task)
    return service, task.column_burst_words


def fan(degree):
    """Vertex 0 with ``degree`` weighted out-edges; every leaf points back."""
    edges = [(0, v) for v in range(1, degree + 1)] + [(v, 0) for v in range(1, degree + 1)]
    return from_edges(edges, weights=[1.0 + v % 3 for v in range(len(edges))],
                      num_vertices=degree + 1)


class TestCostModel:
    """The stage prices each real decision from the counters its draw
    reports."""

    def test_uniform_and_alias_are_single_cycle(self):
        g = fan(100)
        alias = AliasSampler()
        alias.prepare(g)
        assert priced(stage(UniformSampler(), g, URWSpec()), 0, 100) == (1, 1)
        assert priced(stage(alias, g, URWSpec()), 0, 100) == (1, 2)

    def test_rejection_costs_proposals(self):
        # 1 -> {0, 2, 3} after 0 -> 1: a return, an adjacent and an
        # explore candidate, so proposals and probe reads both vary.
        g = from_edges([(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (3, 1)],
                       num_vertices=4)
        sampler = RejectionSampler(p=10.0, q=10.0)
        module = stage(sampler, g, Node2VecSpec(p=10.0, q=10.0))
        seen = set()
        for state in range(40):
            _, proposals, reads = sampler.draw(g, 1, 3, 0, None, QueryStream(state))
            assert priced(module, 1, 3, prev_vertex=0, state=state) == (
                proposals, min(reads, MAX_SCAN_BURST_WORDS))
            seen.add(proposals)
        assert len(seen) > 1  # some decisions took more than one proposal

    def test_reservoir_scans_by_beat(self):
        """A reservoir reads its whole row, one 512-bit beat per cycle,
        tiled at the burst cap."""
        for degree, expected in ((8, (1, 8)), (17, (3, 17)), (500, (
                MAX_SCAN_BURST_WORDS // SCAN_WORDS_PER_CYCLE, MAX_SCAN_BURST_WORDS))):
            module = stage(ReservoirSampler(), fan(degree), URWSpec())
            assert priced(module, 0, degree) == expected

    def test_a_filtered_hop_takes_one_cycle(self):
        g = from_edges([(0, 1), (0, 2)], edge_types=[1, 1], num_vertices=3)
        task = Task(query_id=0, vertex=0, stream=QueryStream(0), degree=2)
        module = stage(ReservoirSampler(), g, MetaPathSpec(pattern=(0,)))
        assert module._decide(task) == 1
        assert task.status is TaskStatus.TERMINATED_FILTERED


#: The name-keyed cost table the stage priced decisions by before it read
#: the draw's counters, kept as the sweep's oracle.
FIXED_COSTS = {"uniform": (1, 1), "alias": (1, 2)}


def table_service_cycles(name, proposals, degree):
    fixed = FIXED_COSTS.get(name)
    if fixed is not None:
        return fixed[0]
    if name == "rejection":
        return max(1, proposals)
    words = min(degree, MAX_SCAN_BURST_WORDS)
    return max(1, (words + SCAN_WORDS_PER_CYCLE - 1) // SCAN_WORDS_PER_CYCLE)


def table_burst_words(name, neighbor_reads, degree):
    fixed = FIXED_COSTS.get(name)
    if fixed is not None:
        return fixed[1]
    if name == "rejection":
        return min(max(1, neighbor_reads), MAX_SCAN_BURST_WORDS)
    return min(max(1, degree), MAX_SCAN_BURST_WORDS)


class Reports:
    """A Table I row that reports the counters it is told to."""

    counters = (0, 1, 1)

    def draw(self, graph, vertex, degree, previous, admissible_type, stream):
        return self.counters


#: Row -> the ``(proposals, neighbor_reads)`` its draws report at a
#: degree, for a decision that took ``proposals`` proposals: uniform and
#: alias decide at once, reading one word and two; rejection reads one
#: candidate a proposal and, unless it is the previous vertex, probes the
#: previous row (here of the same degree); a reservoir reads its row.
REPORTS = {
    UniformSampler: lambda degree, proposals: [(1, 1)],
    AliasSampler: lambda degree, proposals: [(1, 2)],
    RejectionSampler: lambda degree, proposals: [
        (proposals, proposals), (proposals, proposals * (1 + degree))],
    ReservoirSampler: lambda degree, proposals: [(1, degree)],
}


@pytest.mark.parametrize("row", list(REPORTS), ids=lambda row: row.name)
def test_pricing_from_counters_equals_the_name_keyed_table(row):
    """All four rows, degrees 1-200, proposals 1-8: the counters each
    row's draw reports price every decision as the table did."""
    sampler = type(f"Reporting{row.__name__}", (Reports, row), {})()
    module = stage(sampler, fan(1), URWSpec())
    for degree in range(1, 201):
        for proposals in range(1, 9):
            for drawn, reads in REPORTS[row](degree, proposals):
                sampler.counters = (0, drawn, reads)
                assert priced(module, 0, degree) == (
                    table_service_cycles(row.name, drawn, degree),
                    table_burst_words(row.name, reads, degree),
                ), (degree, drawn, reads)


class TestSamplingModule:
    def build(self, graph, spec, sampler):
        kernel = SimulationKernel()
        src = kernel.make_fifo(8, "src")
        dst = kernel.make_fifo(8, "dst")
        module = SamplingModule("sp", src, dst, graph, spec, sampler)
        kernel.add_module(module)
        return kernel, src, dst, module

    def graph(self):
        return from_edges([(0, 1), (0, 2), (0, 3), (1, 0)], num_vertices=4)

    def test_samples_running_task(self):
        g = self.graph()
        kernel, src, dst, module = self.build(g, URWSpec(max_length=5), UniformSampler())
        task = Task(query_id=0, vertex=0, stream=QueryStream(0), degree=3, column_address=0)
        src.push(task)
        for _ in range(5):
            kernel.step()
        out = dst.pop()
        assert out.sample_index == QueryStream(0).randint(3)  # the task's own stream
        assert module.samples_taken == 1

    def test_passthrough_for_terminated(self):
        g = self.graph()
        kernel, src, dst, module = self.build(g, URWSpec(max_length=5), UniformSampler())
        src.push(Task(query_id=0, vertex=0, stream=QueryStream(0),
                      status=TaskStatus.TERMINATED_DANGLING))
        for _ in range(5):
            kernel.step()
        assert dst.pop().status is TaskStatus.TERMINATED_DANGLING
        assert module.samples_taken == 0

    def test_zero_degree_running_task_is_a_bug(self):
        g = self.graph()
        kernel, src, dst, module = self.build(g, URWSpec(max_length=5), UniformSampler())
        src.push(Task(query_id=0, vertex=0, stream=QueryStream(0), degree=0))
        with pytest.raises(SimulationError, match="dangling"):
            for _ in range(5):
                kernel.step()

    def test_ii_one_for_uniform(self):
        g = self.graph()
        kernel, src, dst, module = self.build(g, URWSpec(max_length=5), UniformSampler())
        for i in range(6):
            src.push(Task(query_id=i, vertex=0, stream=QueryStream(i), degree=3,
                          column_address=0))
        cycles = 0
        while dst.occupancy() < 6 and cycles < 40:
            kernel.step()
            cycles += 1
        assert cycles <= 12  # 6 tasks, 1/cycle + pipeline fill
