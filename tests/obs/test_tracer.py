"""Tracer contracts: pay-for-what-you-use, bounded ring, no effect on walks.

The three promises ``src/repro/obs/trace.py`` makes:

* disabled is the default and the disabled path records nothing —
  ``active()`` is ``None``, ``span()`` is a shared no-op singleton;
* the ring is bounded with honest drop accounting — ``dropped`` is
  derived from the same lock-protected state as the buffer, so the two
  can never disagree;
* tracing never touches walk results — a traced batch run is
  bit-identical to an untraced one;
* the disabled path costs one lookup per run — a closed batch run
  consults the tracer once, whatever its lanes and supersteps.
"""

import pytest

import numpy as np

from repro.errors import ObservabilityError
from repro.graph import powerlaw
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    PHASE_COMPLETE,
    PHASE_INSTANT,
    Tracer,
    active,
    configure_tracer,
    disable_tracing,
    enable_tracing,
    tracing,
)
from repro.sampling import vectorized
from repro.walks import DeepWalkSpec, EngineStats, batch, make_queries
from repro.walks.batch import BatchEngine, run_walks_batch


@pytest.fixture(autouse=True)
def fresh_global_tracer():
    """Every test gets a pristine disabled global tracer and cannot leak
    an enabled one into the rest of the suite."""
    configure_tracer(DEFAULT_CAPACITY)
    yield
    configure_tracer(DEFAULT_CAPACITY)


class TestDisabledPath:
    def test_disabled_is_the_default(self):
        assert configure_tracer().enabled is False
        assert active() is None

    def test_active_returns_the_tracer_only_when_enabled(self):
        tracer = enable_tracing()
        assert active() is tracer
        disable_tracing()
        assert active() is None

    def test_disabled_recording_is_a_no_op(self):
        tracer = configure_tracer()
        tracer.instant("ignored")
        tracer.end(tracer.begin(), "ignored")
        with tracer.span("ignored"):
            pass
        assert tracer.events() == ()
        assert tracer.dropped == 0

    def test_disabled_span_is_a_shared_singleton(self):
        tracer = configure_tracer()
        assert tracer.span("a") is tracer.span("b")


class TestRecording:
    def test_end_records_a_complete_span_with_payload(self):
        tracer = enable_tracing()
        token = tracer.begin()
        tracer.end(token, "work.step", step=3, width=64)
        (event,) = tracer.events()
        assert event.name == "work.step"
        assert event.phase == PHASE_COMPLETE
        assert event.dur >= 0.0
        assert event.args == {"step": 3, "width": 64}
        assert event.tid > 0

    def test_instant_records_zero_duration_marker(self):
        tracer = enable_tracing()
        tracer.instant("serve.shed", tenant="premium")
        (event,) = tracer.events()
        assert event.phase == PHASE_INSTANT
        assert event.dur == 0.0
        assert event.args == {"tenant": "premium"}

    def test_span_context_manager_records_on_success(self):
        tracer = enable_tracing()
        with tracer.span("outer", epoch=2):
            pass
        (event,) = tracer.events()
        assert event.name == "outer"
        assert event.args == {"epoch": 2}

    def test_span_annotate_adds_payload_known_mid_span(self):
        tracer = configure_tracer()
        with tracer.span("off") as span:
            span.annotate(rows=3)          # disabled: the shared no-op
        assert tracer.events() == ()
        tracer.enable()
        with tracer.span("outer", epoch=2) as span:
            span.annotate(rows=3)
        (event,) = tracer.events()
        assert event.args == {"epoch": 2, "rows": 3}

    def test_span_marks_and_propagates_exceptions(self):
        tracer = enable_tracing()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (event,) = tracer.events()
        assert event.args["error"] is True

    def test_timestamps_are_monotone_within_a_thread(self):
        tracer = enable_tracing()
        for i in range(5):
            tracer.instant("tick", i=i)
        stamps = [event.ts for event in tracer.events()]
        assert stamps == sorted(stamps)


class TestRingBounds:
    def test_capacity_bounds_the_ring_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        tracer.enable()
        for i in range(12):
            tracer.instant("event", i=i)
        assert tracer.dropped == 8
        # Oldest evicted: only the suffix survives.
        assert [event.args["i"] for event in tracer.events()] == [8, 9, 10, 11]

    def test_snapshot_is_consistent_accounting(self):
        tracer = Tracer(capacity=3)
        tracer.enable()
        for i in range(5):
            tracer.instant("event", i=i)
        snap = tracer.snapshot()
        assert snap == {
            "enabled": True, "capacity": 3,
            "buffered": 3, "recorded": 5, "dropped": 2,
        }

    def test_clear_resets_buffer_and_drop_count(self):
        tracer = Tracer(capacity=2)
        tracer.enable()
        for i in range(5):
            tracer.instant("event", i=i)
        tracer.clear()
        assert tracer.events() == ()
        assert tracer.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            Tracer(capacity=0)


class TestGlobalLifecycle:
    def test_enable_tracing_resizes_by_replacing_the_tracer(self):
        before = configure_tracer()
        after = enable_tracing(capacity=16)
        assert after is not before
        assert after.capacity == 16
        assert active() is after

    def test_enable_tracing_without_capacity_keeps_the_tracer(self):
        before = configure_tracer()
        assert enable_tracing() is before

    def test_tracing_guard_restores_prior_state(self):
        with tracing() as tracer:
            assert tracer.enabled
            tracer.instant("inside")
        assert not tracer.enabled and active() is None
        # Buffered events survive the guard for post-hoc export.
        assert len(tracer.events()) == 1

    def test_tracing_guard_nests_without_disabling_the_outer(self):
        with tracing() as outer:
            with tracing():
                pass
            assert active() is outer


class TestNoEffectOnWalks:
    def test_traced_batch_run_is_bit_identical_to_untraced(self):
        graph = powerlaw(num_vertices=80, num_edges=400, seed=3, name="obs")
        spec = DeepWalkSpec(max_length=12)
        queries = make_queries(graph, 32, seed=5)

        def run():
            stats = EngineStats()
            results = run_walks_batch(graph, spec, queries, seed=7, stats=stats)
            return results, stats

        untraced, untraced_stats = run()
        with tracing() as tracer:
            traced, traced_stats = run()
        assert tracer.events(), "the superstep loop should have spans"
        assert traced_stats.total_hops == untraced_stats.total_hops
        assert traced_stats.per_query_hops == untraced_stats.per_query_hops
        for a, b in zip(traced.paths, untraced.paths):
            assert np.array_equal(a, b)


class TestDisabledCost:
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_closed_run_looks_the_tracer_up_once(self, monkeypatch, lanes):
        """The pay-for-what-you-use contract made countable: untraced, a
        closed run asks for the tracer once and hands the answer to every
        lane and superstep; DeepWalk's alias kernel never asks."""
        graph = powerlaw(num_vertices=80, num_edges=400, seed=3, name="obs")
        queries = make_queries(graph, 64, seed=5)
        engine = BatchEngine(graph, DeepWalkSpec(max_length=12))
        monkeypatch.setattr(batch, "usable_cpus", lambda: 8)
        monkeypatch.setattr(batch, "_MIN_BLOCK_WALKERS", len(queries) // lanes
                            if lanes > 1 else len(queries) + 1)
        assert batch.lane_count(len(queries)) == lanes
        calls = {}
        for module in (batch, vectorized):
            def counted(module=module, lookup=module._active_tracer):
                calls[module.__name__] = calls.get(module.__name__, 0) + 1
                return lookup()
            monkeypatch.setattr(module, "_active_tracer", counted)
        results = engine.run(queries, seed=7)
        assert results.total_steps > len(queries)
        assert calls == {batch.__name__: 1}
