"""Every engine samples with its spec's own kernel: what that refuses.

There is no ``sampler`` option, no ``backend``, no engine option of any
kind and no ``jit``, ``parallel`` or ``dist`` engine.  Each row below is
an input that must fail before any graph work: a ``TypeError`` for a
keyword no entry point takes, a ``WalkConfigError`` or an argparse error
that names what *is* accepted.  The two names the benchmark suite
still calls — ``make_walk_kernel(sampler, mode)`` and
``replay_paths(..., sampler=)`` — accept ``"default"`` and nothing else.
"""

import pytest

from repro.cli import main
import repro.engines
from repro.engines import ENGINES, SOFTWARE_ENGINES, prepare_engine, run_software_walks
from repro.errors import WalkConfigError
from repro.graph import cycle_graph
from repro.sampling.hybrid import make_walk_kernel
from repro.sampling.vectorized import UniformKernel
from repro.serve import WalkService, replay_paths
from repro.walks import Query, URWSpec

SPEC = URWSpec(max_length=3)
SOFTWARE_ENGINE_NAMES = tuple(sorted(SOFTWARE_ENGINES))

GONE_OPTIONS = [("sampler", "auto"), ("sampler", "default"), ("backend", "jit"),
                ("backend", "batch"), ("workers", 2), ("shards", 2)]


def test_the_engine_surface():
    assert ENGINES == ("sim", "batch", "reference")
    assert not hasattr(repro.engines, "ENGINE_OPTIONS")
    for cls in SOFTWARE_ENGINES.values():
        assert not hasattr(cls, "options") and not hasattr(cls, "runs_after_close")


@pytest.mark.parametrize("option,value", GONE_OPTIONS)
@pytest.mark.parametrize("engine", SOFTWARE_ENGINE_NAMES)
def test_no_entry_path_takes_an_engine_option(engine, option, value):
    entries = (
        lambda: prepare_engine(engine, cycle_graph(4), SPEC, **{option: value}),
        lambda: run_software_walks(engine, cycle_graph(4), SPEC, [Query(0, 0)],
                                   **{option: value}),
        lambda: WalkService(cycle_graph(4), SPEC, engine=engine, **{option: value}),
    )
    for entry in entries:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{option}'"):
            entry()


@pytest.mark.parametrize("gone", ["jit", "parallel", "dist"])
def test_retired_engines_are_unknown_names(gone):
    for entry in (
        lambda: prepare_engine(gone, cycle_graph(4), SPEC),
        lambda: run_software_walks(gone, cycle_graph(4), SPEC, [Query(0, 0)]),
        lambda: WalkService(cycle_graph(4), SPEC, engine=gone),
    ):
        with pytest.raises(WalkConfigError, match=f"unknown software engine '{gone}'") as excinfo:
            entry()
        for engine in SOFTWARE_ENGINE_NAMES:
            assert engine in str(excinfo.value)


COMMON_FLAGS = ["--algorithm", "URW", "--dataset", "WG", "--scale", "0.05"]


@pytest.mark.parametrize("command", ["walk", "serve-bench"])
@pytest.mark.parametrize("flags", [["--sampler", "auto"], ["--sampler", "default"],
                                   ["--backend", "jit"], ["--workers", "2"],
                                   ["--shards", "2"]])
def test_the_cli_refuses_gone_flags(command, flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--engine", "batch", *COMMON_FLAGS, *flags])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    # The usage line argparse prints names every flag the command accepts.
    assert f"usage: repro {command}" in err and "--engine" in err


@pytest.mark.parametrize("gone", ["jit", "parallel", "dist"])
@pytest.mark.parametrize("command", ["walk", "serve-bench"])
def test_the_cli_refuses_retired_engines(command, gone, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--engine", gone, *COMMON_FLAGS])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{gone}'" in err
    for engine in SOFTWARE_ENGINE_NAMES:
        assert repr(engine) in err


def test_the_suite_names_accept_only_default():
    sampler = SPEC.make_sampler()
    assert isinstance(make_walk_kernel(sampler), UniformKernel)
    assert isinstance(make_walk_kernel(sampler, "default"), UniformKernel)
    assert list(replay_paths(cycle_graph(4), SPEC, {0: 1}, seed=1, sampler="default")) == [0]
    with pytest.raises(WalkConfigError, match="mode accepts only 'default'"):
        make_walk_kernel(sampler, "auto")
    with pytest.raises(WalkConfigError, match="sampler accepts only 'default'"):
        replay_paths(cycle_graph(4), SPEC, {0: 1}, seed=1, sampler="auto")


def test_unknown_engine_error_names_every_choice():
    with pytest.raises(WalkConfigError, match="unknown software engine") as excinfo:
        run_software_walks("turbo", cycle_graph(4), SPEC, [Query(0, 0)], seed=1)
    for engine in SOFTWARE_ENGINE_NAMES:
        assert engine in str(excinfo.value)
