"""``scripts/compare.py``: its verdict and digest rules, on synthetic
trial arrays (no benchmark runs, no worktrees)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location("script_compare", ROOT / "scripts" / "compare.py")
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)

HOPS = {"name": "hops_per_s", "unit": "hops/s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def trials(base, head, digests=None):
    """Pairs of (base, head) values, both metrics the same numbers."""
    rows = np.zeros(2 * len(base), dtype=compare.trial_dtype(["hops_per_s", "setup_s"]))
    for pair, values in enumerate(zip(base, head)):
        for slot, side in enumerate(compare.SIDES):
            row = rows[2 * pair + slot]
            row["pair"], row["side"] = pair, side
            row["hops_per_s"] = row["setup_s"] = values[slot]
            row["digest"] = "a" * 64 if digests is None else digests[2 * pair + slot]
    return rows


def verdict(base, head, metric=HOPS):
    return compare.summarise(trials(base, head), metric)["verdict"]


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_nine_wins_and_a_gap_past_the_parents_iqr_is_better():
    head = [value * 1.39 for value in BASE]
    head[3] = 90.0  # one loss: 9/10 wins still count
    summary = compare.summarise(trials(BASE, head), HOPS)
    assert summary["wins"] == 9 and summary["pairs"] == 10
    assert summary["verdict"] == "better"
    assert summary["ratio"] == pytest.approx(1.39, rel=0.01)


def test_fewer_than_ten_pairs_is_never_better():
    head = [value * 1.39 for value in BASE]
    summary = compare.summarise(trials(BASE[:9], head[:9]), HOPS)
    assert summary["wins"] == 9 and summary["verdict"] == "unchanged"


def test_eight_wins_is_not_better():
    head = [value * 1.10 for value in BASE]
    head[3] = head[4] = 90.0
    assert verdict(BASE, head) == "unchanged"


def test_a_gap_inside_the_parents_iqr_is_not_better():
    head = [value + 0.1 for value in BASE]
    summary = compare.summarise(trials(BASE, head), HOPS)
    assert summary["wins"] == 10
    assert summary["verdict"] == "unchanged"


def test_ties_count_for_neither_side():
    summary = compare.summarise(trials(BASE, BASE), HOPS)
    assert summary["wins"] == 0 and summary["p"] == 1.0
    assert summary["verdict"] == "unchanged"


def test_a_lower_is_better_metric_wins_by_falling():
    head = [value * 0.66 for value in BASE]
    summary = compare.summarise(trials(BASE, head), SETUP)
    assert summary["wins"] == 10 and summary["verdict"] == "better"
    assert verdict(BASE, head, HOPS) == "worse"


def test_a_median_past_the_bound_is_worse():
    assert verdict(BASE, [value * 0.74 for value in BASE]) == "worse"
    assert verdict(BASE, [value * 0.80 for value in BASE]) == "unchanged"


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = [60.0, 140.0, 70.0, 130.0, 100.0] * 2
    head = [value * 0.95 for value in base]
    assert verdict(base, head) == "unresolved"


def test_a_wide_spread_where_every_head_run_is_better_is_not_unresolved():
    base = [60.0, 140.0, 70.0, 130.0, 100.0] * 2
    head = [200.0 + value for value in base]
    # Every head run beats every base run; 10/10 wins past the IQR.
    assert verdict(base, head) == "better"
    head = [141.0] * 9 + [50.0]
    summary = compare.summarise(trials(base, head), HOPS)
    # 9/10 wins, but the median gap sits inside the parent's IQR.
    assert summary["wins"] == 9 and summary["verdict"] == "unresolved"


def test_the_p_value_is_small_for_separated_samples():
    summary = compare.summarise(trials(BASE, [value * 2 for value in BASE]), HOPS)
    assert summary["p"] < 0.001


def test_equal_timed_digests_raise_no_problem():
    assert compare.digest_problems(trials(BASE, BASE), "serve_poisson") == []


def test_a_timed_digest_mismatch_names_its_run():
    digests = ["a" * 64] * 20
    digests[7] = "b" * 64
    problems = compare.digest_problems(trials(BASE, BASE, digests), "deepwalk_batch")
    assert problems == [f"pair 3 head: paths_sha256 {'b' * 64} != {'a' * 64}"]


def test_dynamic_churn_digests_may_differ_between_runs():
    digests = [f"{index:064x}" for index in range(20)]
    assert compare.digest_problems(trials(BASE, BASE, digests), "dynamic_churn") == []
    assert len(compare.digest_problems(trials(BASE, BASE, digests), "sim_deepwalk")) == 19


def test_render_prints_one_row_per_metric():
    summaries = [compare.summarise(trials(BASE, BASE), metric) for metric in (HOPS, SETUP)]
    table = compare.render(summaries).splitlines()
    assert len(table) == 4
    assert table[2].startswith("| hops_per_s (hops/s) | 100 [99.83, 100.2] |")
    assert table[3].endswith("| 1.000x | 0/10 | 1 | unchanged |")
