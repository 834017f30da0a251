"""``scripts/reachability.py``: its AST map, its profiler hook, its entry
wrapper and its report — and that its CLI smokes still parse and follow
``scripts/check.sh``, so a full run (17-21 minutes) does not find a
stale smoke only at its end."""

import importlib.util
import shlex
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.graph import cycle_graph

ROOT = Path(__file__).resolve().parents[2]


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = load_script("reachability")


@pytest.fixture
def fresh(monkeypatch):
    """The script's module-level ledgers, emptied for one test."""
    monkeypatch.setattr(reachability, "_called", set())
    monkeypatch.setattr(reachability, "_failures", [])
    return reachability


def defs_of(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return reachability.functions(path)


# --- the AST map ---------------------------------------------------------------


def test_a_top_level_def_has_its_first_line_and_line_count(tmp_path):
    found = defs_of(tmp_path, """\
        import os


        def one():
            a = 1
            return a
        """)
    assert found == [("one", 4, 3, None)]


def test_decorators_start_the_def(tmp_path):
    found = defs_of(tmp_path, """\
        import functools


        @functools.cache
        @staticmethod
        def cached():
            return 1
        """)
    assert found == [("cached", 4, 4, None)]


def test_methods_are_qualified_by_their_classes(tmp_path):
    found = defs_of(tmp_path, """\
        class Outer:
            class Inner:
                def deep(self):
                    pass

            def method(self):
                pass
        """)
    assert [(name, first) for name, first, _, _ in found] == [
        ("Outer.Inner.deep", 3), ("Outer.method", 6)]
    assert all(parent is None for *_, parent in found)


def test_a_nested_def_points_at_its_parent(tmp_path):
    found = defs_of(tmp_path, """\
        def outer():
            def inner():
                def innermost():
                    pass
                return innermost
            return inner
        """)
    assert found == [("outer", 1, 6, None), ("outer.inner", 2, 4, 0),
                     ("outer.inner.innermost", 3, 2, 1)]


def test_async_defs_are_listed(tmp_path):
    found = defs_of(tmp_path, """\
        async def serve():
            await other()
        """)
    assert found == [("serve", 1, 2, None)]


def test_a_class_inside_a_def_is_qualified_under_it(tmp_path):
    found = defs_of(tmp_path, """\
        def factory():
            class Made:
                def run(self):
                    pass
            return Made
        """)
    assert found == [("factory", 1, 5, None), ("factory.Made.run", 3, 2, 0)]


def test_defs_under_control_flow_are_found(tmp_path):
    found = defs_of(tmp_path, """\
        import sys

        if sys.platform:
            def chosen():
                pass
        else:
            def fallback():
                pass
        """)
    assert [name for name, *_ in found] == ["chosen", "fallback"]


def test_every_source_module_parses():
    """The map covers all of ``src/repro``: every module parses and
    every def it finds has a positive line count."""
    paths = sorted(reachability.SOURCE.rglob("*.py"))
    assert paths
    defs = [found for path in paths for found in reachability.functions(path)]
    assert len(defs) > 500
    assert all(count >= 1 for _, _, count, _ in defs)


# --- the profiler hook -----------------------------------------------------------


def test_the_hook_records_source_code_objects_only(fresh):
    def local_helper():
        return 1

    sys.setprofile(fresh._hook)
    try:
        cycle_graph(4)
        local_helper()
    finally:
        sys.setprofile(None)
    files = {filename for filename, _ in fresh._called}
    assert files and all(name.startswith(fresh._prefix) for name in files)
    source = str(fresh.SOURCE / "graph" / "generators.py")
    assert (source, cycle_graph.__code__.co_firstlineno) in fresh._called


# --- the entry wrapper -------------------------------------------------------------


def raise_error():
    raise ValueError("boom")


def exit_with(code):
    def run():
        raise SystemExit(code)
    return run


@pytest.mark.parametrize("call,failed", [
    (lambda: None, False),
    (lambda: 0, False),
    (exit_with(0), False),
    (exit_with(None), False),
    (lambda: 3, True),
    (exit_with(2), True),
    (exit_with("usage"), True),
    (raise_error, True),
], ids=["none", "zero", "exit-0", "exit-none", "returns-3", "exit-2", "exit-message",
        "raises"])
def test_an_entry_fails_on_a_nonzero_exit_or_an_exception(fresh, capsys, call, failed):
    fresh._entry("the entry", call)
    assert fresh._failures == (["the entry"] if failed else [])
    err = capsys.readouterr().err
    assert ("FAILED the entry" in err) == failed
    assert err.rstrip().endswith("s  the entry")


def test_an_entry_keeps_its_output_off_the_report(fresh, capsys):
    def noisy():
        print("from the entry")
        print("to stderr", file=sys.stderr)

    fresh._entry("noisy", noisy)
    out, err = capsys.readouterr()
    assert "from the entry" not in out and "to stderr" not in err


def test_a_failed_entry_shows_its_output_and_traceback(fresh, capsys):
    def fails():
        print("last words")
        raise RuntimeError("entry broke")

    fresh._entry("fails", fails)
    err = capsys.readouterr().err
    assert "last words" in err and "RuntimeError: entry broke" in err


# --- the report ---------------------------------------------------------------------


@pytest.fixture
def package(tmp_path, fresh, monkeypatch):
    """A two-module source tree standing in for ``src/repro``."""
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "a.py").write_text(textwrap.dedent("""\
        def reached():
            return 1


        def unreached():
            def inner():
                return 2
            return inner
        """), encoding="utf-8")
    (source / "b.py").write_text("def also_reached():\n    return 3\n", encoding="utf-8")
    monkeypatch.setattr(fresh, "SOURCE", source)
    fresh._called.update({(str(source / "a.py"), 1), (str(source / "b.py"), 1)})
    return fresh


def test_the_report_counts_a_nested_defs_lines_once(package, capsys):
    assert package.report() == 0
    out = capsys.readouterr().out
    assert "pkg/a.py: 2 functions, 4 lines" in out
    assert "    5     4  unreached" in out and "    6     2  unreached.inner" in out
    assert out.rstrip().endswith("total: 2 of 4 functions unreached, 4 lines")


def test_a_fully_reached_module_is_not_listed(package, capsys):
    package.report()
    assert "pkg/b.py" not in capsys.readouterr().out


def test_a_reached_nested_def_is_counted_in_its_own_lines(package, capsys):
    package._called.add((str(package.SOURCE / "a.py"), 6))
    package.report()
    out = capsys.readouterr().out
    assert "pkg/a.py: 1 functions, 4 lines" in out
    assert "total: 1 of 4 functions unreached, 4 lines" in out


def test_the_report_exits_one_after_a_failed_entry(package, capsys):
    package._failures.append("repro info")
    assert package.report() == 1


# --- the CLI smokes -------------------------------------------------------------------

SMOKES = reachability.cli_smokes(Path("/work"))


@pytest.mark.parametrize("argv", SMOKES, ids=[" ".join(argv[:3]) + f"#{i}"
                                              for i, argv in enumerate(SMOKES)])
def test_every_cli_smoke_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
    if argv[0] in ("trace", "metrics"):
        # The wrappers hand the rest to the wrapped command's own parser.
        wrapped = argv[argv.index("--") + 1:]
        assert build_parser().parse_args(wrapped).command == wrapped[0]


def check_sh_invocations():
    """Each ``python -m repro ...`` command of ``scripts/check.sh``, up to
    any pipe."""
    text = (ROOT / "scripts" / "check.sh").read_text(encoding="utf-8")
    return [shlex.split(line.split(" | ")[0])[3:]
            for line in text.replace("\\\n", " ").splitlines()
            if line.startswith("python -m repro ")]


def test_the_smokes_follow_check_sh():
    """The map runs what ``scripts/check.sh`` runs, with the trace and
    metrics files in the work directory instead of ``benchmarks/``."""
    expected = check_sh_invocations()
    assert len(expected) >= 10
    mapped = [[arg.replace("/work/", "benchmarks/") for arg in argv] for argv in SMOKES]
    for argv in expected:
        assert argv in mapped, argv
