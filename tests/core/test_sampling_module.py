"""Unit tests for the Sampling stage and its cost model."""

import pytest

from repro.core import SamplingModule, Task, TaskStatus, sampling_service_cycles
from repro.core.sampling_module import (
    MAX_SCAN_BURST_WORDS,
    SCAN_WORDS_PER_CYCLE,
    column_burst_words,
)
from repro.errors import SimulationError
from repro.graph import from_edges
from repro.sampling import (
    AliasSampler,
    QueryStream,
    RejectionSampler,
    ReservoirSampler,
    SampleOutcome,
    UniformSampler,
)
from repro.sim import SimulationKernel
from repro.walks import URWSpec


class TestCostModel:
    def test_uniform_and_alias_are_single_cycle(self):
        outcome = SampleOutcome(index=0)
        assert sampling_service_cycles(UniformSampler(), outcome, degree=100) == 1
        assert sampling_service_cycles(AliasSampler(), outcome, degree=100) == 1

    def test_rejection_costs_proposals(self):
        outcome = SampleOutcome(index=0, proposals=7)
        assert sampling_service_cycles(RejectionSampler(), outcome, degree=10) == 7

    def test_reservoir_scans_by_beat(self):
        outcome = SampleOutcome(index=0)
        sampler = ReservoirSampler()
        assert sampling_service_cycles(sampler, outcome, degree=8) == 1
        assert sampling_service_cycles(sampler, outcome, degree=17) == 3
        # capped at one tile
        assert (
            sampling_service_cycles(sampler, outcome, degree=10_000)
            == MAX_SCAN_BURST_WORDS // SCAN_WORDS_PER_CYCLE
        )

    def test_column_burst_words(self):
        outcome = SampleOutcome(index=0, neighbor_reads=5)
        assert column_burst_words(UniformSampler(), outcome, degree=50) == 1
        assert column_burst_words(AliasSampler(), outcome, degree=50) == 2
        assert column_burst_words(ReservoirSampler(), outcome, degree=20) == 20
        assert column_burst_words(ReservoirSampler(), outcome, degree=500) == 64
        assert column_burst_words(RejectionSampler(), outcome, degree=50) == 5


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
