"""The ``repro lint`` subcommand and the repository's own gate.

The last two tests ARE the acceptance criteria: the shipped source tree
must lint clean (every finding fixed or waived with a written reason),
and fast enough for the PR lane.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(repro.__file__).resolve().parent


def test_lint_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "fine.py").write_text("x = 1\n", encoding="utf-8")
    assert main(["lint", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_findings_exit_one_with_locations(capsys):
    flag = FIXTURES / "rw102_flag.py"
    assert main(["lint", str(flag)]) == 1
    out = capsys.readouterr().out
    assert "RW102" in out
    assert f"{flag.name}:" in out or "rw102_flag.py:" in out


def test_lint_json_format_is_machine_readable(capsys):
    assert main(["lint", str(FIXTURES / "rw102_flag.py"),
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["counts"]["active"] >= 3
    rules = {f["rule"] for f in payload["findings"]}
    assert rules == {"RW102"}
    locations = [(f["path"], f["line"], f["col"]) for f in payload["findings"]]
    assert locations == sorted(locations)


def test_lint_verbose_lists_suppression_reasons(capsys):
    assert main(["lint", str(FIXTURES / "rw102_suppressed.py"),
                 "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "suppressed (frozen stream: golden files pin" in out


def test_lint_json_marks_waived_findings(capsys):
    assert main(["lint", str(FIXTURES / "rw102_suppressed.py"),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"active": 0, "suppressed": 1}
    [finding] = payload["findings"]
    assert finding["status"] == "suppressed"
    assert finding["reason"].startswith("frozen stream:")


def test_lint_select_restricts_rules(capsys):
    assert main(["lint", str(FIXTURES / "rw101_flag.py"),
                 "--select", "RW104"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RW100", "RW101", "RW102", "RW104", "RW105", "RW107"):
        assert rule_id in out
    assert "RW103" not in out


def test_unknown_select_is_a_clean_error(capsys):
    assert main(["lint", "--select", "RW042"]) == 1
    assert "unknown rule id" in capsys.readouterr().err


def test_repro_source_tree_is_lint_clean():
    """Acceptance gate: zero unsuppressed findings over src/repro, and
    every waiver carries a written reason."""
    report = lint_paths([SRC])
    assert report.files_scanned > 80
    assert not report.active, "\n".join(
        f"{f.location()}: {f.rule_id} {f.message}" for f in report.active
    )
    for finding in report.suppressed:
        assert finding.suppression_reason.strip(), finding
    assert report.exit_code == 0


def test_lint_is_fast_enough_for_the_pr_lane():
    """Acceptance gate: the CI invocation finishes in well under 5 s."""
    report = lint_paths([SRC])
    assert report.elapsed_seconds < 5.0


def test_default_paths_lint_the_installed_package(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
