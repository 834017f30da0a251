"""Error-path coverage for the ``sampler=`` engine option.

Mirrors the ``make_kernel`` unknown-sampler test at the engine-registry
level: an unknown ``sampler=`` value must fail loudly on *every* engine,
through every entry path (one-shot registry runs, prepared engines, the
serving layer, and the engine functions called directly), and the error
must name the valid choices — including ``auto`` — so the fix is obvious
from the message.  The registry's ``_validate_engine_options`` is the one
shared validation point; these tests pin that the value check happens
there (before any graph work) and is not re-implemented per engine.
"""

import numpy as np
import pytest

from repro.engines import ENGINE_OPTIONS, prepare_engine, run_software_walks
from repro.errors import WalkConfigError
from repro.graph import cycle_graph
from repro.parallel import ParallelWalkEngine
from repro.sampling import SAMPLER_MODES, validate_sampler_mode
from repro.walks import Query, URWSpec, run_walks, run_walks_batch

SOFTWARE_ENGINE_NAMES = tuple(sorted(ENGINE_OPTIONS))


def _expect_naming_choices(excinfo):
    message = str(excinfo.value)
    for mode in SAMPLER_MODES:
        assert mode in message
    assert "auto" in message  # the choice this option exists for


def test_every_engine_declares_the_sampler_option():
    for engine in SOFTWARE_ENGINE_NAMES:
        assert "sampler" in ENGINE_OPTIONS[engine]


@pytest.mark.parametrize("engine", SOFTWARE_ENGINE_NAMES)
def test_unknown_sampler_option_rejected_by_registry(engine):
    graph = cycle_graph(4)
    with pytest.raises(WalkConfigError, match="sampler") as excinfo:
        run_software_walks(engine, graph, URWSpec(max_length=3),
                           [Query(0, 0)], seed=1, sampler="alias-only")
    _expect_naming_choices(excinfo)


@pytest.mark.parametrize("engine", SOFTWARE_ENGINE_NAMES)
def test_unknown_sampler_option_rejected_by_prepare_engine(engine):
    graph = cycle_graph(4)
    with pytest.raises(WalkConfigError, match="sampler") as excinfo:
        prepare_engine(engine, graph, URWSpec(max_length=3), sampler="hybrid2")
    _expect_naming_choices(excinfo)


def test_unknown_sampler_option_rejected_by_service():
    from repro.serve import WalkService

    graph = cycle_graph(4)
    with pytest.raises(WalkConfigError, match="sampler") as excinfo:
        WalkService(graph, URWSpec(max_length=3), engine="batch",
                    sampler="bogus")
    _expect_naming_choices(excinfo)


def test_direct_engine_calls_validate_too():
    """The engine functions validate eagerly when called off-registry —
    even before an empty query batch short-circuits."""
    graph = cycle_graph(4)
    with pytest.raises(WalkConfigError, match="auto"):
        run_walks_batch(graph, URWSpec(max_length=3), [], seed=1, sampler="x")
    with pytest.raises(WalkConfigError, match="auto"):
        run_walks(graph, URWSpec(max_length=3), [], seed=1, sampler="x")
    with pytest.raises(WalkConfigError, match="auto"):
        ParallelWalkEngine(graph, URWSpec(max_length=3), workers=1, sampler="x")


def test_validate_sampler_mode_is_the_shared_place():
    assert validate_sampler_mode("default") == "default"
    assert validate_sampler_mode("auto") == "auto"
    with pytest.raises(WalkConfigError) as excinfo:
        validate_sampler_mode("its")
    _expect_naming_choices(excinfo)


def test_valid_modes_run_on_every_engine():
    graph = cycle_graph(4)
    spec = URWSpec(max_length=4)
    queries = [Query(0, 0), Query(1, 2)]
    for engine in SOFTWARE_ENGINE_NAMES:
        options = {"workers": 1} if engine == "parallel" else {}
        for mode in SAMPLER_MODES:
            results, _ = run_software_walks(engine, graph, spec, queries,
                                            seed=1, sampler=mode, **options)
            assert results.num_queries == 2
    # URW on a cycle is fully deterministic, so auto == default exactly.
    a, _ = run_software_walks("batch", graph, spec, queries, seed=1,
                              sampler="auto")
    b, _ = run_software_walks("batch", graph, spec, queries, seed=1,
                              sampler="default")
    for pa, pb in zip(a.paths, b.paths):
        assert np.array_equal(pa, pb)


def test_unknown_engine_error_names_every_choice():
    """A typo'd engine name lists the full registry — including jit."""
    graph = cycle_graph(4)
    with pytest.raises(WalkConfigError, match="unknown software engine") as excinfo:
        run_software_walks("turbo", graph, URWSpec(max_length=3),
                           [Query(0, 0)], seed=1)
    message = str(excinfo.value)
    for engine in ("batch", "jit", "parallel", "reference"):
        assert engine in message
