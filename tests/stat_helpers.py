"""Statistical and exact helpers shared across engine-equivalence test suites.

Importable from any test module because ``tests/conftest.py`` puts this
directory on ``sys.path``; keeping one copy of the oracle means a tuning
change (binning rule, significance floor) cannot silently leave two
suites testing different statistics.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.walks import EngineStats, run_walks, run_walks_batch

#: Shared significance floor for every chi-square assertion in the suite.
#: One constant — not per-file copies — so loosening or tightening the
#: statistical tier is a single reviewed change.  At 1e-3, a correct
#: sampler fails a given test about once per thousand (seed-pinned, so in
#: practice: never or always).
CHI_SQUARE_ALPHA = 1e-3


def chi_square_gof(observed_counts, expected_probs, min_expected=5.0):
    """One-sample goodness-of-fit p-value of counts vs exact probabilities.

    Bins whose expected count falls below ``min_expected`` are pooled
    into one tail bin (keeping total mass, so the statistic stays valid
    on heavy-tailed rows) before the chi-square is computed.
    """
    observed = np.asarray(observed_counts, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if observed.shape != probs.shape:
        raise ValueError(f"shape mismatch: {observed.shape} vs {probs.shape}")
    total = observed.sum()
    expected = probs * total
    keep = expected >= min_expected
    obs = list(observed[keep])
    exp = list(expected[keep])
    if not np.all(keep):
        obs.append(observed[~keep].sum())
        exp.append(expected[~keep].sum())
    if len(obs) < 2:
        pytest.skip("not enough populated bins for a chi-square test")
    obs, exp = np.asarray(obs), np.asarray(exp)
    chi2 = float((((obs - exp) ** 2) / exp).sum())
    return 1.0 - scipy_stats.chi2.cdf(chi2, len(obs) - 1)


def assert_chi_square_fit(observed_counts, expected_probs, label,
                          alpha=CHI_SQUARE_ALPHA, min_expected=5.0):
    """Assert observed counts fit the exact distribution (shared floor)."""
    p = chi_square_gof(observed_counts, expected_probs, min_expected=min_expected)
    assert p > alpha, (
        f"{label} diverges from its exact distribution "
        f"(p={p:.6f} <= alpha={alpha})"
    )


def assert_reference_equals_batch(graph, spec, queries, seed):
    """Walk ``queries`` on the batch and on the reference engine and
    assert they agree walk by walk and on every ``EngineStats`` counter
    (``per_query_hops`` included); returns the batch run's stats."""
    runs = []
    for run in (run_walks_batch, run_walks):
        stats = EngineStats()
        runs.append((run(graph, spec, queries, seed=seed, stats=stats), stats))
    (batch, batch_stats), (reference, reference_stats) = runs
    for row, (a, b) in enumerate(zip(batch.paths, reference.paths, strict=True)):
        assert np.array_equal(a, b), row
    assert dataclasses.asdict(batch_stats) == dataclasses.asdict(reference_stats)
    return batch_stats
