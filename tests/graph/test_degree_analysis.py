"""The synthetic graphs carry the heavy degree tails the catalog promises."""

import numpy as np

from repro.graph import load_dataset, powerlaw


def hill_exponent(in_degrees: np.ndarray, minimum_degree: int = 2) -> float:
    """Maximum-likelihood (Hill) tail exponent over degrees >= the minimum:
    ``1 + n / sum(ln(d_i / (d_min - 1/2)))`` (Clauset-Shalizi-Newman's
    discrete approximation)."""
    tail = in_degrees[in_degrees >= minimum_degree].astype(np.float64)
    assert tail.size >= 10
    return float(1.0 + tail.size / np.log(tail / (minimum_degree - 0.5)).sum())


class TestPowerlawTail:
    def test_synthetic_tail_is_heavy(self):
        # Table II stand-ins must carry the catalog's heavy in-degree tail.
        for name in ("WG", "LJ"):
            g = load_dataset(name, scale=0.3, seed=1)
            alpha = hill_exponent(np.bincount(g.col, minlength=g.num_vertices))
            assert 1.2 < alpha < 3.5, (name, alpha)

    def test_preferential_tail_heavier_than_uniform(self):
        # Preferential target selection produces a far heavier in-degree
        # tail than uniform selection: its largest in-degree is far larger.
        pref = powerlaw(num_vertices=2000, num_edges=10_000, exponent=2.0,
                        preferential=True, seed=1, max_in_share=None)
        unif = powerlaw(num_vertices=2000, num_edges=10_000, exponent=2.0,
                        preferential=False, seed=1)
        assert np.bincount(pref.col).max() > 10 * np.bincount(unif.col).max()
