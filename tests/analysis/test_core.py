"""Framework-level behavior: suppression grammar, ordering, reports."""

import json

import numpy as np
import pytest

from repro.analysis import lint_paths, lint_source, render_json, render_text
from repro.analysis.core import AnalysisError

FLAGGED = "import numpy as np\nrng = np.random.default_rng(seed + 1)\n"


def violation(prefix="", comment="", above=""):
    lines = ["import numpy as np"]
    if above:
        lines.append(above)
    lines.append(f"{prefix}rng = np.random.default_rng(seed + 1){comment}")
    return "\n".join(lines) + "\n"


seed = 0  # referenced by the snippet text only


class TestSuppressionGrammar:
    def test_same_line_allow_with_reason_suppresses(self):
        findings = lint_source(violation(
            comment="  # repro: allow[RW102] frozen golden stream"))
        assert [f.suppressed for f in findings] == [True]
        assert findings[0].suppression_reason == "frozen golden stream"

    def test_standalone_previous_line_allow_suppresses(self):
        findings = lint_source(violation(
            above="# repro: allow[RW102] frozen golden stream"))
        assert [f.suppressed for f in findings] == [True]

    def test_previous_line_allow_behind_code_does_not_reach_down(self):
        src = (
            "import numpy as np\n"
            "x = 1  # repro: allow[RW102] reason on a code line above\n"
            "rng = np.random.default_rng(seed + 1)\n"
        )
        findings = lint_source(src)
        rw102 = [f for f in findings if f.rule_id == "RW102"]
        assert [f.suppressed for f in rw102] == [False]

    def test_reasonless_allow_does_not_suppress_and_is_reported(self):
        findings = lint_source(violation(comment="  # repro: allow[RW102]"))
        by_rule = {f.rule_id: f for f in findings}
        assert not by_rule["RW102"].suppressed
        assert "no reason" in by_rule["RW100"].message

    def test_multi_rule_allow(self):
        src = (
            "import numpy as np\n"
            "# repro: allow[RW101, RW102] legacy trace replay pins both\n"
            "np.random.shuffle(np.random.default_rng(seed + 1).permutation(4))\n"
        )
        findings = lint_source(src)
        assert findings, "expected findings"
        assert all(f.suppressed for f in findings)

    def test_wrong_rule_id_does_not_suppress(self):
        findings = lint_source(violation(
            comment="  # repro: allow[RW101] aimed at the wrong rule"))
        rw102 = [f for f in findings if f.rule_id == "RW102"]
        assert [f.suppressed for f in rw102] == [False]
        # ...and the mistargeted allow is reported as unused.
        assert any(
            f.rule_id == "RW100" and "unused" in f.message for f in findings
        )

    def test_allow_inside_string_literal_is_ignored(self):
        src = (
            "import numpy as np\n"
            'text = "# repro: allow[RW102] not a comment"\n'
            "rng = np.random.default_rng(seed + 1)\n"
        )
        rw102 = [f for f in lint_source(src) if f.rule_id == "RW102"]
        assert [f.suppressed for f in rw102] == [False]


class TestDeterministicOutput:
    def test_findings_sorted_and_stable_across_path_order(self, tmp_path):
        first = tmp_path / "a_module.py"
        second = tmp_path / "b_module.py"
        first.write_text(FLAGGED, encoding="utf-8")
        second.write_text(FLAGGED, encoding="utf-8")
        forward = lint_paths([first, second])
        backward = lint_paths([second, first])
        keys = [f.sort_key() for f in forward.findings]
        assert keys == sorted(keys)
        assert keys == [f.sort_key() for f in backward.findings]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            lint_source(FLAGGED, select=["RW042"])

    def test_select_runs_only_requested_rules(self):
        src = (
            "import numpy as np\n"
            "np.random.shuffle([1])\n"
            "rng = np.random.default_rng(seed + 1)\n"
        )
        findings = lint_source(src, select=["RW101"])
        assert {f.rule_id for f in findings} == {"RW101"}


MIXED = (
    "import numpy as np\n"
    "rng = np.random.default_rng(seed + 1)\n"
    "# repro: allow[RW102] frozen golden stream\n"
    "old = np.random.default_rng(seed ^ 0x5EED)\n"
)


class TestReport:
    """Only an active finding fails a run; both reporters count both kinds."""

    def test_suppressed_findings_do_not_fail_the_run(self, tmp_path):
        module = tmp_path / "waived.py"
        module.write_text(violation(comment="  # repro: allow[RW102] frozen golden stream"),
                          encoding="utf-8")
        report = lint_paths([module])
        assert (len(report.active), len(report.suppressed)) == (0, 1)
        assert report.exit_code == 0

    def test_one_active_finding_fails_the_run(self, tmp_path):
        module = tmp_path / "mixed.py"
        module.write_text(MIXED, encoding="utf-8")
        report = lint_paths([module])
        assert (len(report.active), len(report.suppressed)) == (1, 1)
        assert report.exit_code == 1

    def test_json_counts_statuses_and_reasons(self, tmp_path):
        module = tmp_path / "mixed.py"
        module.write_text(MIXED, encoding="utf-8")
        payload = json.loads(render_json(lint_paths([module])))
        assert payload["counts"] == {"active": 1, "suppressed": 1}
        assert [(f["line"], f["status"]) for f in payload["findings"]] == [
            (2, "active"), (4, "suppressed")]
        active, suppressed = payload["findings"]
        assert "reason" not in active
        assert suppressed["reason"] == "frozen golden stream"

    def test_text_summary_counts_both_kinds(self, tmp_path):
        module = tmp_path / "mixed.py"
        module.write_text(MIXED, encoding="utf-8")
        report = lint_paths([module])
        quiet = render_text(report).splitlines()
        assert quiet[-1].startswith("1 finding(s) (1 suppressed) in 1 file(s)")
        assert not any("suppressed (" in line for line in quiet)
        verbose = render_text(report, verbose=True).splitlines()
        assert sum("suppressed (frozen golden stream)" in line for line in verbose) == 1


def test_missing_path_raises():
    with pytest.raises(AnalysisError, match="no such file"):
        lint_paths(["/nonexistent/lint/target"])


def test_derive_seed_streams_are_independent():
    """The helper the RW102 fixes migrated to: distinct tag paths give
    distinct, reproducible child seeds for every root."""
    from repro.sampling.base import derive_seed

    seeds = {derive_seed(7, tag) for tag in ("queries", "engine", "arrivals", 1, 2)}
    assert len(seeds) == 5
    assert derive_seed(7, "queries") == derive_seed(7, "queries")
    assert derive_seed(7, "queries") != derive_seed(8, "queries")
    # Negative roots are normalized, not rejected (CLI contract).
    assert derive_seed(-3, "queries") == derive_seed(-3 & (2**64 - 1), "queries")
