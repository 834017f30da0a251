"""Unit tests for the graph memory layout and the multi-channel system."""

import numpy as np
import pytest

from repro.core.pipeline import _HopLogic
from repro.core.recorder import WalkRecorder
from repro.core.task import Task, TaskStatus
from repro.errors import MemoryModelError
from repro.graph import cycle_graph, from_edges, powerlaw, rmat
from repro.memory import (
    ChannelGroup,
    GraphMemoryLayout,
    MemoryRequest,
    MemorySpec,
    MemorySystem,
)
from repro.rng.thundering import ThunderRing
from repro.sampling.base import RingRandomSource
from repro.walks import URWSpec

SPEC = MemorySpec(
    "t", num_channels=8, random_tx_rate_mhz=160, sequential_gbs=10, round_trip_cycles=5
)


def graph():
    return powerlaw(num_vertices=200, num_edges=1000, seed=1)


def replicated_set(layout):
    """Vertices every home channel serves from itself.  A vertex that is
    not replicated has one hash channel, which differs from all but one
    home channel, so with two or more channels this is the set exactly."""
    tables = [layout.row_channel_table(home_channel=h) for h in range(layout.num_channels)]
    return {v for v in range(layout.graph.num_vertices)
            if all(table[v] == h for h, table in enumerate(tables))}


class TestLayout:
    def test_row_partitioning_is_deterministic_hash(self):
        g = graph()
        layout = GraphMemoryLayout(g, 4)
        channels = [layout.row_channel(v) for v in range(g.num_vertices)]
        assert channels == [layout.row_channel(v) for v in range(g.num_vertices)]
        assert set(channels) == {0, 1, 2, 3}
        # Random partition: roughly balanced entry counts per channel.
        for c in range(4):
            count = channels.count(c)
            assert abs(count - g.num_vertices / 4) < g.num_vertices * 0.15

    def test_hot_entries_served_from_home_channel(self):
        g = graph()
        layout = GraphMemoryLayout(g, 4)
        hot = int(np.argmax(np.bincount(g.col, minlength=g.num_vertices)))
        for home in range(4):
            assert layout.row_channel(hot, home_channel=home) == home
        # Without a home channel, the hash placement is used.
        assert 0 <= layout.row_channel(hot) < 4

    def test_ties_at_the_cutoff_go_to_the_lower_vertex_id(self):
        """Every in-degree of a 200-cycle is 1, so every vertex ties and the
        replicated set is the K = 64 lowest ids, on any host."""
        layout = GraphMemoryLayout(cycle_graph(200), 4)
        for home in range(4):
            table = layout.row_channel_table(home_channel=home)
            assert table[:64] == [home] * 64
            assert table[64:] == [layout.row_channel(v) for v in range(64, 200)]

    def test_replicated_set_is_the_hottest_by_in_degree_then_id(self):
        """RMAT-8 seed 1 has 9 vertices at the cutoff in-degree and takes 2:
        the set is a plain sort on (-in-degree, id), whatever numpy's dispatch."""
        g = rmat(8, seed=1)
        in_degree = np.bincount(g.col, minlength=g.num_vertices).tolist()
        ranked = sorted(range(g.num_vertices), key=lambda v: (-in_degree[v], v))
        cutoff = in_degree[ranked[63]]
        assert in_degree.count(cutoff) > sum(in_degree[v] == cutoff for v in ranked[:64])
        assert replicated_set(GraphMemoryLayout(g, 4)) == set(ranked[:64])

    @pytest.mark.parametrize("num_vertices,count", [(40, 40), (200, 64), (64 * 80, 80)])
    def test_replicated_count_is_min_max_64_v_over_64_v(self, num_vertices, count):
        layout = GraphMemoryLayout(cycle_graph(num_vertices), 2)
        assert len(replicated_set(layout)) == count

    def test_an_edgeless_graph_replicates_nothing(self):
        layout = GraphMemoryLayout(from_edges([], num_vertices=10), 2)
        assert replicated_set(layout) == set()

    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_decode_tables_equal_the_per_vertex_answers(self, channels):
        g = graph()
        layout = GraphMemoryLayout(g, channels)
        vertices = range(g.num_vertices)
        assert layout.row_channel_table() == [layout.row_channel(v) for v in vertices]
        for home in range(channels):
            assert layout.row_channel_table(home_channel=home) == [
                layout.row_channel(v, home_channel=home) for v in vertices]
        with pytest.raises(MemoryModelError):
            layout.row_channel_table(home_channel=channels)

    def test_row_entry_decodes_graph(self):
        g = graph()
        degrees, addresses = GraphMemoryLayout(g, 4).row_entries
        assert degrees[17] == g.degree(17)
        assert addresses[17] == int(g.row_ptr[17])
        vertices = range(g.num_vertices)
        assert degrees == [g.degree(v) for v in vertices]
        assert addresses == [int(g.row_ptr[v]) for v in vertices]

    def test_rp_entry_words_by_width(self):
        g = graph()
        assert GraphMemoryLayout(g, 2, rp_entry_bits=64).rp_entry_words() == 1
        assert GraphMemoryLayout(g, 2, rp_entry_bits=128).rp_entry_words() == 2
        assert GraphMemoryLayout(g, 2, rp_entry_bits=256).rp_entry_words() == 4

    def test_invalid_rp_width_rejected(self):
        with pytest.raises(MemoryModelError, match="Table I"):
            GraphMemoryLayout(graph(), 2, rp_entry_bits=96)

    def test_vertex_bounds_checked(self):
        layout = GraphMemoryLayout(graph(), 4)
        with pytest.raises(MemoryModelError):
            layout.row_channel(9999)
        # The home channel is checked whether or not the vertex is replicated,
        # as the table checks it.
        for vertex in range(layout.graph.num_vertices):
            with pytest.raises(MemoryModelError):
                layout.row_channel(vertex, home_channel=99)
        with pytest.raises(MemoryModelError):
            layout.row_channel_table(home_channel=99)


class TestColumnInterleave:
    """Element ``e`` of the column list lives on column channel ``e mod N``,
    checked through the route the machine runs (Figure 4b)."""

    N = 4

    def route(self):
        g = graph()
        memory = MemorySystem(SPEC, core_mhz=320, num_channels=self.N)
        ring = ThunderRing(1, seed=0)
        hop = _HopLogic(0, g, GraphMemoryLayout(g, self.N), memory, URWSpec(max_length=4),
                        RingRandomSource(ring, 0), WalkRecorder())
        # Column channel ids follow the N row channel ids.
        return g, hop, lambda task: hop.route_column(task)[0].channel_id - self.N

    def test_a_sampled_element_routes_to_its_interleaved_channel(self):
        g, _, channel_of = self.route()
        for vertex in range(0, g.num_vertices, 7):
            start = int(g.row_ptr[vertex])
            for index in range(g.degree(vertex)):
                task = Task(query_id=0, vertex=vertex, column_address=start,
                            sample_index=index)
                assert channel_of(task) == (start + index) % self.N

    def test_a_hub_list_spans_every_channel(self):
        g, _, channel_of = self.route()
        hub = int(np.argmax(g.degrees()))
        start = int(g.row_ptr[hub])
        touched = {channel_of(Task(query_id=0, vertex=hub, column_address=start,
                                   sample_index=i)) for i in range(g.degree(hub))}
        assert touched == set(range(self.N))

    def test_a_ghost_routes_by_query_id(self):
        _, hop, channel_of = self.route()
        for query_id in range(2 * self.N):
            ghost = Task(query_id=query_id, vertex=0, status=TaskStatus.GHOST)
            assert channel_of(ghost) == query_id % self.N
            assert hop.route_column(ghost)[1] == 1


class TestMemorySystem:
    def test_group_split(self):
        system = MemorySystem(SPEC, core_mhz=320, num_channels=3)
        assert len(system.all_channels()) == 6
        assert [system.channel(ChannelGroup.ROW, i).channel_id for i in range(3)] == [0, 1, 2]
        assert [system.channel(ChannelGroup.COLUMN, i).channel_id for i in range(3)] == [3, 4, 5]

    def test_submit_routes_to_group(self):
        system = MemorySystem(SPEC, core_mhz=320, num_channels=2)
        system.channel(ChannelGroup.ROW, 1).submit(MemoryRequest(tag="r"))
        system.channel(ChannelGroup.COLUMN, 0).submit(MemoryRequest(tag="c"))
        # Channel ids: rows 0-1, then columns 2-3.
        assert [c.stats.requests_accepted for c in system.all_channels()] == [0, 1, 1, 0]

    def test_rejects_overprovisioning(self):
        with pytest.raises(MemoryModelError, match="exposes"):
            MemorySystem(SPEC, core_mhz=320, num_channels=5)
        with pytest.raises(MemoryModelError, match="at least one"):
            MemorySystem(SPEC, core_mhz=320, num_channels=0)

    def test_tick_advances_every_channel(self):
        system = MemorySystem(SPEC, core_mhz=320, num_channels=1)
        row = system.channel(ChannelGroup.ROW, 0)
        column = system.channel(ChannelGroup.COLUMN, 0)
        row.submit(MemoryRequest(tag="r"))
        column.submit(MemoryRequest(tag="c"))
        for _ in range(20):
            system.tick()
        assert row.pop_response().tag == "r"
        assert column.pop_response().tag == "c"
        for channel in (row, column):
            assert channel.stats.requests_completed == channel.stats.requests_accepted == 1
            assert not channel.response_queue()

    def test_bandwidth_accounting(self):
        system = MemorySystem(SPEC, core_mhz=320, num_channels=1)
        system.channel(ChannelGroup.ROW, 0).submit(MemoryRequest(tag="x", burst_words=2))
        for _ in range(10):
            system.tick()
        assert system.total_words_transferred() == 2
        assert system.total_requests() == 1

    def test_requests_are_counted_at_the_channel(self):
        system = MemorySystem(SPEC, core_mhz=320, num_channels=2)
        system.channel(ChannelGroup.ROW, 1).submit(MemoryRequest(tag="row"))
        system.channel(ChannelGroup.COLUMN, 1).submit(MemoryRequest(tag="column"))
        assert system.total_requests() == 2 == sum(
            c.stats.requests_accepted for c in system.all_channels())

    def test_channel_index_bounds(self):
        system = MemorySystem(SPEC, core_mhz=320, num_channels=2)
        with pytest.raises(MemoryModelError, match="out of range"):
            system.channel(ChannelGroup.ROW, 2)
