"""Unit tests for walk specs, queries and results containers."""

import re

import numpy as np
import pytest

from repro.errors import WalkConfigError
from repro.graph import cycle_graph, from_edges, star_graph
from repro.walks import (
    DeepWalkSpec,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    Query,
    URWSpec,
    WalkBatch,
    WalkResults,
    make_queries,
)


class TestQuery:
    def test_fields(self):
        q = Query(3, 7)
        assert q.query_id == 3 and q.start_vertex == 7

    def test_rejects_negative(self):
        with pytest.raises(WalkConfigError):
            Query(-1, 0)
        with pytest.raises(WalkConfigError):
            Query(0, -1)

    @pytest.mark.parametrize("bad", [1.5, True, False, "7", None, np.float64(2.0)])
    def test_rejects_non_integral_values_by_name(self, bad):
        with pytest.raises(WalkConfigError,
                           match=re.escape(f"query_id must be an integer, got {bad!r}")):
            Query(bad, 0)
        with pytest.raises(WalkConfigError, match="start_vertex must be an integer"):
            Query(0, bad)

    def test_numpy_integers_pass(self):
        q = Query(np.int64(3), np.int32(7))
        assert q.query_id == 3 and q.start_vertex == 7

    def test_rejects_values_past_int64_by_name(self):
        """The engines hold ids and starts as int64: one past it is refused
        up front, not left to overflow in an engine."""
        with pytest.raises(WalkConfigError, match="query_id must fit in int64"):
            Query(2**63, 0)
        with pytest.raises(WalkConfigError, match="start_vertex must fit in int64"):
            Query(0, np.uint64(2**63))
        assert Query(2**63 - 1, 0).query_id == 2**63 - 1



def offer(form, field, value):
    """``value`` as ``field`` (query id or start vertex) through one of
    the ways it reaches the bound check; returns the value stored."""
    ids, starts = ([value], [0]) if field == "query_id" else ([0], [value])
    if form == "Query int":
        return getattr(Query(ids[0], starts[0]), field)
    if form == "Query numpy uint64":
        return int(getattr(Query(np.uint64(ids[0]), np.uint64(starts[0])), field))
    if form == "WalkBatch list":
        batch = WalkBatch(ids, starts)
    else:
        batch = WalkBatch(np.array(ids, dtype=np.uint64), np.array(starts, dtype=np.uint64))
    return int((batch.ids if field == "query_id" else batch.starts)[0])


OFFER_FORMS = ("Query int", "Query numpy uint64", "WalkBatch list", "WalkBatch uint64 array")
INDEX_FIELDS = ("query_id", "start_vertex")


class TestInt64Bound:
    """Ids and starts are int64 in every engine: each way in refuses a
    value past it by name, with the value unwrapped, and keeps the
    largest one exactly."""

    @pytest.mark.parametrize("value", [2**63, 2**64 - 1])
    @pytest.mark.parametrize("field", INDEX_FIELDS)
    @pytest.mark.parametrize("form", OFFER_FORMS)
    def test_past_int64_is_refused_by_name(self, form, field, value):
        with pytest.raises(WalkConfigError,
                           match=re.escape(f"{field} must fit in int64, got {value}")):
            offer(form, field, value)

    @pytest.mark.parametrize("field", INDEX_FIELDS)
    @pytest.mark.parametrize("form", OFFER_FORMS)
    def test_int64_max_is_kept_exactly(self, form, field):
        assert offer(form, field, 2**63 - 1) == 2**63 - 1


class TestMakeQueries:
    def test_count(self):
        qs = make_queries(cycle_graph(5), 10, seed=1)
        assert len(qs) == 10
        assert [q.query_id for q in qs] == list(range(10))

    def test_deterministic(self):
        a = make_queries(cycle_graph(50), 20, seed=3)
        b = make_queries(cycle_graph(50), 20, seed=3)
        assert [q.start_vertex for q in a] == [q.start_vertex for q in b]

    def test_avoids_dangling_starts(self):
        g = star_graph(10)  # only vertex 0 has out-edges
        qs = make_queries(g, 50, seed=2)
        assert all(q.start_vertex == 0 for q in qs)

    def test_explicit_starts(self):
        qs = make_queries(cycle_graph(5), 3, start_vertices=[4, 2, 0])
        assert [q.start_vertex for q in qs] == [4, 2, 0]

    def test_returns_a_batch_of_the_same_draw(self):
        batch = make_queries(cycle_graph(50), 20, seed=3)
        assert isinstance(batch, WalkBatch)
        assert batch.ids.tolist() == list(range(20))
        assert batch.starts.tolist() == [q.start_vertex for q in batch]

    @pytest.mark.parametrize("starts", [[1.5, True], [True, 2], np.array([2.9, 1.0]),
                                        np.array([True, False]), ["1", 2]])
    def test_explicit_starts_must_be_integers(self, starts):
        """A bool or a float never walks from the vertex it truncates to."""
        with pytest.raises(WalkConfigError, match="start_vertex must be an integer"):
            make_queries(cycle_graph(5), 2, start_vertices=starts)

    @pytest.mark.parametrize("starts", [[2, -1], np.array([0, -3])])
    def test_explicit_starts_must_be_non_negative(self, starts):
        with pytest.raises(WalkConfigError, match="start_vertex must be non-negative"):
            make_queries(cycle_graph(5), 2, start_vertices=starts)

    def test_explicit_starts_accept_integer_arrays(self):
        starts = np.array([4, 2], dtype=np.int32)
        batch = make_queries(cycle_graph(5), 2, start_vertices=starts)
        starts[0] = 0  # the batch holds its own copy
        assert batch.starts.tolist() == [4, 2]

    def test_explicit_starts_length_mismatch(self):
        with pytest.raises(WalkConfigError, match="entries"):
            make_queries(cycle_graph(5), 3, start_vertices=[1])

    def test_no_outgoing_anywhere_rejected(self):
        g = from_edges([], num_vertices=3)
        with pytest.raises(WalkConfigError, match="outgoing"):
            make_queries(g, 2)

    def test_rejects_zero_count(self):
        with pytest.raises(WalkConfigError):
            make_queries(cycle_graph(4), 0)


class TestWalkBatch:
    def batch(self):
        return WalkBatch(np.array([10, 11, 12, 13, 14]), [4, 3, 2, 1, 0])

    def test_an_unsigned_array_inside_int64_passes(self):
        batch = WalkBatch(np.array([2**63 - 1], dtype=np.uint64), np.array([3], dtype=np.uint8))
        assert batch.ids.tolist() == [2**63 - 1] and batch.starts.tolist() == [3]

    def test_len_and_arrays(self):
        batch = self.batch()
        assert len(batch) == 5
        assert batch.ids.dtype == batch.starts.dtype == np.int64
        assert batch.ids.tolist() == [10, 11, 12, 13, 14]
        assert batch.starts.tolist() == [4, 3, 2, 1, 0]

    def test_index_gives_a_query_of_python_ints(self):
        batch = self.batch()
        assert batch[1] == Query(11, 3)
        assert batch[-1] == Query(14, 0)
        assert batch[np.int64(2)] == Query(12, 2)
        assert type(batch[0].query_id) is int and type(batch[0].start_vertex) is int

    def test_index_past_the_end(self):
        with pytest.raises(IndexError):
            self.batch()[5]
        with pytest.raises(IndexError):
            self.batch()[-6]

    def test_slice_is_a_batch(self):
        part = self.batch()[3:0:-2]
        assert isinstance(part, WalkBatch)
        assert list(part) == [Query(13, 1), Query(11, 3)]
        assert list(self.batch()[::2]) == [Query(10, 4), Query(12, 2), Query(14, 0)]
        assert len(self.batch()[7:]) == 0

    def test_iteration_and_sequence_mixins(self):
        batch = self.batch()
        assert list(batch) == [Query(10 + k, 4 - k) for k in range(5)]
        assert list(reversed(batch))[0] == Query(14, 0)
        assert Query(12, 2) in batch and Query(12, 3) not in batch
        assert batch.index(Query(13, 1)) == 3

    def test_arrays_are_read_only_and_the_batch_owns_them(self):
        ids = np.array([0, 1])
        batch = WalkBatch(ids, np.array([1, 1]))
        ids[0] = 7
        assert batch.ids.tolist() == [0, 1]
        for array in (batch.ids, batch.starts, batch[:1].ids):
            with pytest.raises(ValueError):
                array[0] = 5
        with pytest.raises(AttributeError):
            batch.ids = np.zeros(2, dtype=np.int64)

    def test_empty(self):
        batch = WalkBatch([], np.empty(0, dtype=np.int64))
        assert len(batch) == 0 and list(batch) == [] and not batch
        assert batch.ids.dtype == np.int64

    def test_validated_once_when_built(self):
        with pytest.raises(WalkConfigError, match="query_id must be an integer"):
            WalkBatch([0, 1.5], [0, 0])
        with pytest.raises(WalkConfigError, match="query_id must be non-negative"):
            WalkBatch(np.array([0, -1]), [0, 0])
        # An unsigned array is checked before it could wrap to a negative.
        with pytest.raises(WalkConfigError, match="start_vertex must fit in int64"):
            WalkBatch([0], np.array([2**63], dtype=np.uint64))
        with pytest.raises(WalkConfigError, match="query_id must fit in int64"):
            WalkBatch([2**63], [0])
        with pytest.raises(WalkConfigError, match="2 query ids for 1 start vertices"):
            WalkBatch([0, 1], [0])
        with pytest.raises(WalkConfigError, match="one dimension"):
            WalkBatch(np.zeros((1, 2), dtype=np.int64), np.zeros((1, 2), dtype=np.int64))

    def test_of_reads_a_query_sequence_once(self):
        queries = [Query(5, 1), Query(2, 0)]
        batch = WalkBatch.of(queries)
        assert list(batch) == queries
        assert WalkBatch.of(batch) is batch


class TestWalkResults:
    def test_add_and_count(self):
        r = WalkResults()
        r.add_path([0, 1, 2])
        r.add_path([3])
        assert r.num_queries == 2
        assert r.total_steps == 2  # 2 hops + 0 hops
        assert r.lengths().tolist() == [2, 0]

    def test_visit_counts(self):
        r = WalkResults()
        r.add_path([0, 1, 1])
        counts = r.visit_counts(num_vertices=3)
        assert counts.tolist() == [1, 2, 0]

    def test_visit_counts_exclude_start(self):
        r = WalkResults()
        r.add_path([0, 1])
        counts = r.visit_counts(num_vertices=2, include_start=False)
        assert counts.tolist() == [0, 1]

    def test_transition_counts(self):
        r = WalkResults()
        r.add_path([0, 1, 0])
        m = r.transition_counts(num_vertices=2)
        assert m[0, 1] == 1 and m[1, 0] == 1

    def test_path_of(self):
        r = WalkResults()
        r.add_path([5, 6])
        assert r.path_of(0).tolist() == [5, 6]

    def test_extend_from_matrix(self):
        r = WalkResults()
        matrix = np.array([[0, 1, 2, 9], [3, 9, 9, 9], [4, 5, 9, 9]])
        r.extend_from_matrix(matrix, np.array([2, 0, 1]))
        assert r.num_queries == 3
        assert r.total_steps == 3
        assert r.path_of(0).tolist() == [0, 1, 2]
        assert r.path_of(1).tolist() == [3]
        assert r.path_of(2).tolist() == [4, 5]

    def test_extend_from_matrix_appends_after_add_path(self):
        r = WalkResults()
        r.add_path([7, 8])
        r.extend_from_matrix(np.array([[1, 2]]), np.array([1]))
        assert r.num_queries == 2
        assert r.total_steps == 2
        assert r.path_of(1).tolist() == [1, 2]

    def test_extend_from_matrix_matches_add_path_loop(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 50, size=(20, 9))
        hops = rng.integers(0, 9, size=20)
        bulk, loop = WalkResults(), WalkResults()
        bulk.extend_from_matrix(matrix, hops)
        for i in range(20):
            loop.add_path(matrix[i, : hops[i] + 1])
        assert bulk.total_steps == loop.total_steps
        for a, b in zip(bulk.paths, loop.paths):
            assert np.array_equal(a, b)

    def test_extend_from_matrix_empty(self):
        r = WalkResults()
        r.extend_from_matrix(np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64))
        assert r.num_queries == 0 and r.total_steps == 0

    def test_extend_from_matrix_validates_shapes(self):
        r = WalkResults()
        with pytest.raises(WalkConfigError):
            r.extend_from_matrix(np.zeros((2, 3), dtype=np.int64), np.zeros(3, dtype=np.int64))
        with pytest.raises(WalkConfigError):
            r.extend_from_matrix(np.zeros((2, 3), dtype=np.int64), np.array([1, 3]))


class TestSpecValidation:
    def test_max_length_positive(self):
        for spec_cls in (URWSpec, DeepWalkSpec):
            with pytest.raises(WalkConfigError):
                spec_cls(max_length=0)

    def test_max_length_validated_on_reassignment(self):
        # The CLI and benchmarks re-assign max_length to apply --length;
        # a bad value must fail there as a config error too.
        spec = URWSpec(max_length=5)
        with pytest.raises(WalkConfigError):
            spec.max_length = 0
        spec.max_length = 7
        assert spec.max_length == 7

    def test_ppr_alpha_range(self):
        with pytest.raises(WalkConfigError):
            PPRSpec(alpha=0.0)
        with pytest.raises(WalkConfigError):
            PPRSpec(alpha=1.0)

    def test_node2vec_strategy_validation(self):
        with pytest.raises(WalkConfigError, match="strategy"):
            Node2VecSpec(strategy="magic")
        with pytest.raises(WalkConfigError):
            Node2VecSpec(p=-1.0)

    def test_metapath_pattern_validation(self):
        with pytest.raises(WalkConfigError):
            MetaPathSpec(pattern=[])
        with pytest.raises(WalkConfigError):
            MetaPathSpec(pattern=[0, -1])

    def test_metapath_pattern_cycles(self):
        spec = MetaPathSpec(pattern=[3, 1])
        assert [spec.admissible_type(i) for i in range(5)] == [3, 1, 3, 1, 3]

    def test_rp_entry_bits_match_table_one(self):
        assert URWSpec().rp_entry_bits == 64
        assert PPRSpec().rp_entry_bits == 64
        assert DeepWalkSpec().rp_entry_bits == 256
        assert Node2VecSpec(strategy="rejection").rp_entry_bits == 64
        assert Node2VecSpec(strategy="reservoir").rp_entry_bits == 128
        assert MetaPathSpec(pattern=[0]).rp_entry_bits == 128

    def test_needs_prev_vertex(self):
        assert Node2VecSpec().needs_prev_vertex
        assert not URWSpec().needs_prev_vertex
        assert not DeepWalkSpec().needs_prev_vertex
