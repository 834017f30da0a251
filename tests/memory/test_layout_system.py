"""Unit tests for the graph memory layout and the multi-channel system."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.graph import powerlaw
from repro.memory import (
    ChannelGroup,
    GraphMemoryLayout,
    MemoryRequest,
    MemorySpec,
    MemorySystem,
)

SPEC = MemorySpec(
    "t", num_channels=8, random_tx_rate_mhz=160, sequential_gbs=10, round_trip_cycles=5
)


class TestLayout:
    def graph(self):
        return powerlaw(num_vertices=200, num_edges=1000, seed=1)

    def test_row_partitioning_is_deterministic_hash(self):
        g = self.graph()
        layout = GraphMemoryLayout(g, 4, 4, replicate_hot_entries=0)
        channels = [layout.row_channel(v) for v in range(g.num_vertices)]
        assert channels == [layout.row_channel(v) for v in range(g.num_vertices)]
        assert set(channels) == {0, 1, 2, 3}
        # Random partition: roughly balanced entry counts per channel.
        for c in range(4):
            count = channels.count(c)
            assert abs(count - g.num_vertices / 4) < g.num_vertices * 0.15

    def test_hot_entries_served_from_home_channel(self):
        g = self.graph()
        layout = GraphMemoryLayout(g, 4, 4, replicate_hot_entries=16)
        import numpy as np

        hot = int(np.argmax(np.bincount(g.col, minlength=g.num_vertices)))
        assert layout.is_replicated(hot)
        for home in range(4):
            assert layout.row_channel(hot, home_channel=home) == home
        # Without a home channel, the hash placement is used.
        assert 0 <= layout.row_channel(hot) < 4

    def test_column_interleaving(self):
        layout = GraphMemoryLayout(self.graph(), 4, 4)
        # consecutive elements cycle through channels
        channels = [layout.column_channel_of(e) for e in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_hub_list_spans_all_channels(self):
        g = self.graph()
        layout = GraphMemoryLayout(g, 4, 4)
        hub = int(np.argmax(g.degrees()))
        lo = int(g.row_ptr[hub])
        degree = g.degree(hub)
        touched = {layout.column_channel_of(lo + i) for i in range(degree)}
        assert touched == {0, 1, 2, 3}

    def test_row_entry_decodes_graph(self):
        g = self.graph()
        layout = GraphMemoryLayout(g, 4, 4)
        v = 17
        entry = layout.row_entry(v)
        assert entry.degree == g.degree(v)
        assert entry.column_address == int(g.row_ptr[v])
        assert entry.column_channel == layout.column_channel_of(entry.column_address)

    @pytest.mark.parametrize("rows,columns,replicated", [(1, 1, 0), (4, 4, 16), (3, 5, 200)])
    def test_decode_tables_equal_the_per_vertex_answers(self, rows, columns, replicated):
        g = self.graph()
        layout = GraphMemoryLayout(g, rows, columns, replicate_hot_entries=replicated)
        vertices = range(g.num_vertices)
        assert layout.row_channel_table() == [layout.row_channel(v) for v in vertices]
        for home in range(rows):
            assert layout.row_channel_table(home_channel=home) == [
                layout.row_channel(v, home_channel=home) for v in vertices]
        entries = [layout.row_entry(v) for v in vertices]
        assert layout.row_entries == (
            [e.degree for e in entries],
            [e.column_channel for e in entries],
            [e.column_address for e in entries],
        )
        with pytest.raises(MemoryModelError):
            layout.row_channel_table(home_channel=rows)

    def test_rp_entry_words_by_width(self):
        g = self.graph()
        assert GraphMemoryLayout(g, 2, 2, rp_entry_bits=64).rp_entry_words() == 1
        assert GraphMemoryLayout(g, 2, 2, rp_entry_bits=128).rp_entry_words() == 2
        assert GraphMemoryLayout(g, 2, 2, rp_entry_bits=256).rp_entry_words() == 4

    def test_invalid_rp_width_rejected(self):
        with pytest.raises(MemoryModelError, match="Table I"):
            GraphMemoryLayout(self.graph(), 2, 2, rp_entry_bits=96)

    def test_column_load_balance_near_one(self):
        layout = GraphMemoryLayout(self.graph(), 4, 4)
        assert layout.column_load_balance() == pytest.approx(1.0, abs=0.01)

    def test_row_partition_bytes_sum(self):
        g = self.graph()
        layout = GraphMemoryLayout(g, 4, 4, rp_entry_bits=128)
        total = sum(layout.row_partition_bytes(c) for c in range(4))
        assert total == g.num_vertices * 16

    def test_column_partition_bytes_sum(self):
        g = self.graph()
        layout = GraphMemoryLayout(g, 4, 4)
        total = sum(layout.column_partition_bytes(c) for c in range(4))
        assert total == g.num_edges * 8

    def test_vertex_bounds_checked(self):
        layout = GraphMemoryLayout(self.graph(), 4, 4)
        with pytest.raises(MemoryModelError):
            layout.row_channel(9999)
        with pytest.raises(MemoryModelError):
            layout.column_channel_of(-1)


class TestMemorySystem:
    def test_group_split(self):
        system = MemorySystem(SPEC, core_mhz=320, num_row_channels=3, num_column_channels=5)
        assert system.num_row_channels == 3
        assert system.num_column_channels == 5
        assert len(system.all_channels()) == 8

    def test_rejects_overprovisioning(self):
        with pytest.raises(MemoryModelError, match="exposes"):
            MemorySystem(SPEC, core_mhz=320, num_row_channels=5, num_column_channels=5)

    def test_submit_routes_to_group(self):
        system = MemorySystem(SPEC, core_mhz=320, num_row_channels=2, num_column_channels=2)
        system.submit(ChannelGroup.ROW, 1, MemoryRequest(tag="r"))
        system.submit(ChannelGroup.COLUMN, 0, MemoryRequest(tag="c"))
        assert system.channel(ChannelGroup.ROW, 1).pending_count() == 1
        assert system.channel(ChannelGroup.COLUMN, 0).pending_count() == 1

    def test_idle_and_tick(self):
        system = MemorySystem(SPEC, core_mhz=320, num_row_channels=1, num_column_channels=1)
        assert system.idle()
        system.submit(ChannelGroup.ROW, 0, MemoryRequest(tag="x"))
        assert not system.idle()
        for _ in range(20):
            system.tick()
        system.channel(ChannelGroup.ROW, 0).pop_response()
        assert system.idle()

    def test_bandwidth_accounting(self):
        system = MemorySystem(SPEC, core_mhz=320, num_row_channels=1, num_column_channels=1)
        system.submit(ChannelGroup.ROW, 0, MemoryRequest(tag="x", burst_words=2))
        for _ in range(10):
            system.tick()
        assert system.total_words_transferred() == 2
        assert system.total_requests() == 1

    def test_requests_are_counted_at_the_channel(self):
        system = MemorySystem(SPEC, core_mhz=320, num_row_channels=2, num_column_channels=2)
        system.submit(ChannelGroup.ROW, 1, MemoryRequest(tag="via system"))
        system.channel(ChannelGroup.COLUMN, 1).submit(MemoryRequest(tag="straight"))
        assert system.total_requests() == 2 == sum(
            c.stats.requests_accepted for c in system.all_channels())

    def test_channel_index_bounds(self):
        system = MemorySystem(SPEC, core_mhz=320, num_row_channels=2, num_column_channels=2)
        with pytest.raises(MemoryModelError, match="out of range"):
            system.channel(ChannelGroup.ROW, 2)
