"""Figure 10 — RMAT graphs: balanced vs Graph500 initiators (DeepWalk).

Paper shape: on balanced RMAT the GPU runs near its random-access peak
(~9473 MStep/s on SC24) and beats RidgeWalker's absolute throughput; the
Graph500 initiator's skew collapses the GPU by over an order of
magnitude (592 MStep/s) through warp lockstep divergence, while
RidgeWalker holds roughly constant (~2130-2241) — architectural
tolerance to imbalance beats raw bandwidth.
"""

from conftest import run_once

from repro.bench.experiments import fig10_rmat


def test_fig10_balanced_vs_graph500(benchmark, record_result):
    result = record_result(run_once(benchmark, fig10_rmat))

    balanced = [r for r in result.rows if r["initiator"] == "balanced"]
    skewed = [r for r in result.rows if r["initiator"] == "graph500"]

    # Balanced: the GPU's lockstep efficiency is near perfect and its
    # absolute throughput beats RidgeWalker (the paper concedes this).
    for row in balanced:
        assert row["lockstep_efficiency"] > 0.9, row
        assert row["gsampler_msteps"] > row["ridgewalker_msteps"], row
        # ...and it runs near its own random-access peak.
        assert row["gsampler_msteps"] > 0.9 * row["gpu_peak_msteps"], row

    # Graph500 skew: warp divergence costs the GPU a large factor.
    gpu_balanced = sum(r["gsampler_msteps"] for r in balanced) / len(balanced)
    gpu_skewed = sum(r["gsampler_msteps"] for r in skewed) / len(skewed)
    assert gpu_balanced > 1.4 * gpu_skewed, (gpu_balanced, gpu_skewed)
    for row in skewed:
        assert row["lockstep_efficiency"] < 0.75, row

    # RidgeWalker is nearly flat across initiators — the architectural
    # tolerance to imbalance that is Figure 10's headline.
    rw_balanced = sum(r["ridgewalker_msteps"] for r in balanced) / len(balanced)
    rw_skewed = sum(r["ridgewalker_msteps"] for r in skewed) / len(skewed)
    assert rw_skewed > 0.8 * rw_balanced, (rw_balanced, rw_skewed)

    # Consequently RidgeWalker's position vs the GPU improves sharply
    # under skew (the crossover direction; our scaled RMAT reproduces a
    # 1.5-2.5x GPU collapse rather than the paper's full 16x: RMAT skew
    # compounds once per recursion level, and the scaled graphs have
    # fewer levels).
    ratio_balanced = rw_balanced / gpu_balanced
    ratio_skewed = rw_skewed / gpu_skewed
    assert ratio_skewed > 1.3 * ratio_balanced, (ratio_balanced, ratio_skewed)
