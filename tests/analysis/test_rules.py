"""Fixture-based proof for every shipped lint rule.

For each RW rule there are three fixtures under ``fixtures/``:

* ``rw###_flag.py`` — realistic violations the rule must catch;
* ``rw###_clean.py`` — the sanctioned pattern, which must stay silent;
* ``rw###_suppressed.py`` — the violation under a reasoned
  ``# repro: allow[...]`` waiver, which must suppress (not delete) it.

This is the acceptance-criteria matrix: a rule regression — missed
pattern, false positive on the blessed idiom, broken suppression — is a
red cell here before it is a broken CI gate.
"""

from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = ("RW100", "RW101", "RW102", "RW104", "RW105", "RW107")

#: Minimum *active* findings each flagging fixture must produce for its
#: own rule (the fixtures document each pattern they embed).
EXPECTED_FLAG_COUNTS = {
    "RW100": 3,  # reason-less, unknown-rule, and unused allows
    "RW101": 4,  # np.random.shuffle/seed, random.choice, from-import shuffle
    "RW102": 3,  # seed + 1, seed ^ salt, seed * 31
    "RW104": 3,  # time.sleep, sync engine call, open()
    "RW105": 3,  # list(setcomp), join(set var), for-over-set
    "RW107": 3,  # inline time()-start, finish-start tracked names, bare time()
}


def lint_fixture(name: str):
    path = FIXTURES / name
    assert path.is_file(), f"missing fixture {name}"
    return lint_paths([path])


def test_registry_covers_the_documented_rule_table():
    assert tuple(rule.id for rule in all_rules()) == RULE_IDS
    for rule in all_rules():
        assert rule.name, rule.id
        assert len(rule.description) > 40, f"{rule.id} needs a real description"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_flagging_fixture_is_caught(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_flag.py")
    hits = [f for f in report.active if f.rule_id == rule_id]
    assert len(hits) >= EXPECTED_FLAG_COUNTS[rule_id], report.findings
    assert report.exit_code == 1
    for finding in hits:
        assert finding.line > 0 and finding.message and finding.snippet


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_stays_silent(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_clean.py")
    assert not report.active, [f.message for f in report.active]
    assert not [f for f in report.findings if f.rule_id == rule_id]
    assert report.exit_code == 0
    if rule_id != "RW100":
        # Only the hygiene fixture legitimately carries (suppressed)
        # findings of *other* rules — a healthy waiver needs something
        # to waive.  Every other clean fixture is findings-free.
        assert not report.findings, [f.message for f in report.findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_suppressed_fixture_waives_with_reason(rule_id):
    report = lint_fixture(f"{rule_id.lower()}_suppressed.py")
    assert not report.active, [f.message for f in report.active]
    assert report.exit_code == 0
    waived = [f for f in report.suppressed if f.rule_id == rule_id]
    assert waived, report.findings
    for finding in waived:
        assert finding.suppression_reason.strip()


def test_flag_fixtures_do_not_bleed_into_other_rules():
    """Each flagging fixture trips only the rule it documents (so a rule
    change cannot silently re-route coverage through a sibling).  RW100
    is exempt: suppression hygiene is only observable alongside the
    rule whose waiver rotted, so its fixture necessarily trips RW101
    too (the reason-less allow suppresses nothing by design).
    """
    for rule_id in RULE_IDS:
        if rule_id == "RW100":
            continue
        report = lint_fixture(f"{rule_id.lower()}_flag.py")
        others = {f.rule_id for f in report.active} - {rule_id}
        assert not others, f"{rule_id} fixture also trips {others}"


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = lint_paths([bad])
    assert [f.rule_id for f in report.active] == ["RW000"]
    assert report.exit_code == 1


def test_rw104_table_covers_every_public_engine_entry_point():
    """Every synchronous walk entry point the engine packages export must
    be a key of RW104's bare-name table, so a new one cannot be called
    from a coroutine unflagged."""
    import re

    import repro.engines
    import repro.walks
    from repro.analysis.rules import _BLOCKING_BARE

    entry_point = re.compile(r"run_\w*walks\w*|prepare_engine")
    exported = {
        name
        for module in (repro.engines, repro.walks)
        for name, value in vars(module).items()
        if callable(value) and entry_point.fullmatch(name)
    }
    assert {"run_software_walks", "prepare_engine", "run_walks_batch"} <= exported
    assert exported <= set(_BLOCKING_BARE), exported - set(_BLOCKING_BARE)
