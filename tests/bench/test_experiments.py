"""The paper's shape claims, one test per experiment in ``EXPERIMENTS``.

Each test runs its experiment once at a reduced :class:`BenchSize` and
asserts the qualitative shape of the paper's table or figure — who
wins, what grows, what collapses — not its absolute numbers.  ``repro
experiment ID`` regenerates the same rows at the full size.

The experiments that drive the cycle-level simulator are ``slow``: the
fast CI lane skips them, the full lane and tier-1 run them.
"""

import pytest

from repro.bench import EXPERIMENTS, BenchSize, geometric_mean

#: The size every experiment runs at here.
SMALL = BenchSize(graph_scale=0.25, warmup_cycles=500, measure_cycles=1500, num_queries=128)

#: For the two sweeps whose claims compare short-window throughputs
#: (Figure 11's variants, the pipeline-count sweep): at ``SMALL`` the
#: ramp into steady state still dominates the window and decides them.
LONG_WINDOW = BenchSize(
    graph_scale=0.25, warmup_cycles=1500, measure_cycles=2500, num_queries=256
)


def test_every_experiment_has_a_test():
    tested = {name for name in globals() if name.startswith("test_")}
    untested = [
        eid for eid in EXPERIMENTS if f"test_{eid.replace('-', '_')}" not in tested
    ]
    assert untested == []


def test_fig3a():
    """FastRW's bandwidth cliff: WG's row pointers fit the on-chip
    cache, LJ's spill, and neither beats the Equation (1) peak."""
    result = EXPERIMENTS["fig3a"](SMALL)
    wg = result.row_for(graph="WG")
    lj = result.row_for(graph="LJ")
    assert wg["cache_hit_rate"] > 0.9
    assert lj["cache_hit_rate"] < 0.8
    assert wg["utilization"] > 2 * lj["utilization"]
    assert wg["effective_gbs"] <= wg["peak_gbs"] * 1.01
    assert lj["effective_gbs"] <= lj["peak_gbs"] * 1.01


@pytest.mark.slow
def test_fig8a():
    """DeepWalk vs FastRW on U50: RidgeWalker wins everywhere, a little
    on cache-resident WG and most on the large graphs (paper: 2.2x on
    WG up to 71x on LJ)."""
    result = EXPERIMENTS["fig8a"](SMALL)
    speedups = {row["graph"]: row["speedup"] for row in result.rows}
    assert all(s > 1.0 for s in speedups.values()), speedups
    assert speedups["WG"] < 6.0
    assert speedups["LJ"] > 2 * speedups["WG"]
    assert min(speedups["AS"], speedups["LJ"]) > min(speedups["WG"], speedups["CP"])


@pytest.mark.slow
def test_fig8b():
    """PPR and URW vs Su et al. on U280 (paper: 9.2x and 9.9x).  URW
    sustains PPR-level throughput: PPR walks are short, so query
    injection bounds them harder."""
    result = EXPERIMENTS["fig8b"](SMALL)
    ppr = result.row_for(algorithm="PPR")
    urw = result.row_for(algorithm="URW")
    assert ppr["speedup"] > 3.0
    assert urw["speedup"] > 3.0
    assert urw["ridgewalker_msteps"] >= 0.8 * ppr["ridgewalker_msteps"]


@pytest.mark.slow
def test_fig8c():
    """Node2Vec vs LightRW on U250: modest, consistent wins (paper:
    1.1x-1.5x) — LightRW is deeply pipelined too."""
    speedups = EXPERIMENTS["fig8c"](SMALL).column("speedup")
    assert all(s > 0.7 for s in speedups), speedups
    assert geometric_mean(speedups) > 1.0
    assert max(speedups) < 8.0


@pytest.mark.slow
def test_fig8d():
    """MetaPath vs LightRW on U250 (paper: 1.3x-1.7x): typed walks end
    early, and LightRW's static slots ride empty on directed graphs."""
    result = EXPERIMENTS["fig8d"](SMALL)
    speedups = result.column("speedup")
    assert all(s > 0.7 for s in speedups), speedups
    assert geometric_mean(speedups) > 1.1
    bubbles = {row["graph"]: row["lightrw_bubbles"] for row in result.rows}
    assert bubbles["WG"] > 0.1
    assert bubbles["CP"] > 0.1


@pytest.mark.slow
def test_fig9():
    """vs gSampler on H100: RidgeWalker wins every algorithm on average;
    Node2Vec (rejection's bulk probes suit the GPU) is the smallest gap,
    PPR and DeepWalk the GPU's worst cases."""
    result = EXPERIMENTS["fig9"](SMALL)
    by_algorithm: dict[str, list[float]] = {}
    for row in result.rows:
        by_algorithm.setdefault(row["algorithm"], []).append(row["speedup"])
    means = {alg: geometric_mean(vals) for alg, vals in by_algorithm.items()}
    assert all(m > 1.0 for m in means.values()), means
    assert means["Node2Vec"] == min(means.values()), means
    assert means["PPR"] > means["URW"]
    assert means["DeepWalk"] > means["Node2Vec"]
    assert all(row["speedup"] > 0.8 for row in result.rows)


@pytest.fixture(scope="module")
def fig10():
    result = EXPERIMENTS["fig10"](SMALL)
    balanced = [r for r in result.rows if r["initiator"] == "balanced"]
    skewed = [r for r in result.rows if r["initiator"] == "graph500"]
    return balanced, skewed


def _mean(rows, key):
    return sum(r[key] for r in rows) / len(rows)


@pytest.mark.slow
def test_fig10(fig10):
    """RMAT, balanced vs Graph500 initiator: the GPU runs near its peak
    and beats RidgeWalker on balanced graphs, then skew collapses it
    while RidgeWalker holds flat.  Scaled RMAT has fewer recursion
    levels to compound the skew, so the collapse is 1.5-2.5x, not the
    paper's 16x."""
    balanced, skewed = fig10
    for row in balanced:
        assert row["lockstep_efficiency"] > 0.9, row
        assert row["gsampler_msteps"] > row["ridgewalker_msteps"], row
        assert row["gsampler_msteps"] > 0.9 * row["gpu_peak_msteps"], row

    gpu_balanced = _mean(balanced, "gsampler_msteps")
    gpu_skewed = _mean(skewed, "gsampler_msteps")
    assert gpu_balanced > 1.4 * gpu_skewed, (gpu_balanced, gpu_skewed)

    rw_balanced = _mean(balanced, "ridgewalker_msteps")
    rw_skewed = _mean(skewed, "ridgewalker_msteps")
    assert rw_skewed > 0.8 * rw_balanced, (rw_balanced, rw_skewed)

    ratio_balanced = rw_balanced / gpu_balanced
    ratio_skewed = rw_skewed / gpu_skewed
    assert ratio_skewed > 1.3 * ratio_balanced, (ratio_balanced, ratio_skewed)


@pytest.mark.slow
def test_fig10_graph500_lockstep_efficiency(fig10):
    """Graph500 skew costs the GPU warp lockstep on every RMAT row.

    SC16-32's row sits near the bound and moves with the walks' random
    streams: it read 0.780 here (0.763 at the full size) under the old
    ``SeedSequence`` stream key, and reads 0.709 (0.748) under the
    splitmix64 key.  So this passing says nothing yet on whether the GPU
    lockstep model or the bound is wrong (ROADMAP item 9).
    """
    _, skewed = fig10
    for row in skewed:
        assert row["lockstep_efficiency"] < 0.75, row


@pytest.mark.slow
def test_fig11():
    """Breakdown on U55C: each optimisation helps, the asynchronous
    pipeline is the bigger lever, together they compound (paper:
    scheduler-only 1.6-4.8x, async-only 6.8-14.7x, full 12.4-16.7x at
    up to 88% of peak); ghost laps occur only bulk-synchronously."""
    result = EXPERIMENTS["fig11"](LONG_WINDOW)
    by_graph: dict[str, dict[str, dict]] = {}
    for row in result.rows:
        by_graph.setdefault(row["graph"], {})[row["variant"]] = row

    for graph, variants in by_graph.items():
        base = variants["baseline"]["msteps"]
        sched = variants["scheduler-only"]["msteps"]
        async_ = variants["async-only"]["msteps"]
        full = variants["full"]["msteps"]
        assert sched >= base * 0.95, (graph, base, sched)
        assert async_ > base * 1.5, (graph, base, async_)
        assert async_ > sched, (graph, sched, async_)
        assert full > async_ * 0.95, (graph, async_, full)
        assert full > base * 4.0, (graph, base, full)

    # The scheduler matters most where walks die early (directed WG)
    # and least on the undirected graphs (LJ).
    sched_gain = {
        g: v["scheduler-only"]["speedup_over_baseline"] for g, v in by_graph.items()
    }
    assert sched_gain["WG"] >= sched_gain["LJ"] * 0.95

    for variants in by_graph.values():
        assert variants["full"]["ghost_laps"] == 0
        assert variants["scheduler-only"]["ghost_laps"] == 0

    best = max(v["full"]["normalized_to_peak"] for v in by_graph.values())
    assert best > 0.5, best


def test_tab1():
    """Table I: each GRW gets its sampler family and RP entry width."""
    result = EXPERIMENTS["tab1"](SMALL)
    assert len(result.rows) == 6
    for row in result.rows:
        assert row["sampler"] == row["expected_sampler"], row
        assert row["rp_entry_bits"] == row["expected_bits"], row
    assert set(result.column("sampler")) == {"uniform", "alias", "rejection", "reservoir"}


def test_tab2():
    """Table II: the stand-ins keep the paper's order, mean degree
    within 25%, and dangling vertices only on the directed graphs."""
    result = EXPERIMENTS["tab2"](SMALL)
    assert [row["graph"] for row in result.rows] == ["WG", "CP", "AS", "LJ", "AB", "UK"]
    for row in result.rows:
        paper_mean = row["paper_edges"] / row["paper_vertices"]
        assert abs(row["sim_mean_degree"] - paper_mean) / paper_mean < 0.25, row
    paper_edges = result.column("paper_edges")
    assert paper_edges == sorted(paper_edges)
    by_name = {row["graph"]: row for row in result.rows}
    assert by_name["WG"]["sim_dangling"] > 0.05
    assert by_name["CP"]["sim_dangling"] > 0.15
    assert by_name["LJ"]["sim_dangling"] < 0.02


@pytest.mark.slow
def test_tab3():
    """Table III: URW throughput tracks each platform's random-access
    channels (U55C > U50 >> U250 > VCK5000) at healthy utilisation
    (paper: 81-88%)."""
    result = EXPERIMENTS["tab3"](SMALL)
    rows = {row["device"]: row for row in result.rows}
    assert rows["U55C"]["avg_msteps"] > 3 * rows["U250"]["avg_msteps"]
    assert rows["U50"]["avg_msteps"] > 3 * rows["VCK5000"]["avg_msteps"]
    assert rows["U55C"]["avg_msteps"] > rows["U50"]["avg_msteps"]
    assert rows["U250"]["avg_msteps"] > rows["VCK5000"]["avg_msteps"]
    for device, row in rows.items():
        assert row["avg_utilization"] > 0.4, (device, row["avg_utilization"])


def test_tab4():
    """Table IV: the resource model is within 6 points of the paper on
    every cell, keeps its heaviest/lightest kernels, and every kernel
    closes at 320 MHz."""
    rows = {row["kernel"]: row for row in EXPERIMENTS["tab4"](SMALL).rows}
    assert len(rows) == 4
    for kernel, row in rows.items():
        for model_key, paper_key in (
            ("luts_pct", "paper_luts"),
            ("regs_pct", "paper_regs"),
            ("brams_pct", "paper_brams"),
            ("dsps_pct", "paper_dsps"),
        ):
            assert abs(row[model_key] - row[paper_key]) < 6.0, (kernel, model_key, row)
    assert rows["Node2Vec"]["luts_pct"] == max(r["luts_pct"] for r in rows.values())
    assert rows["DeepWalk"]["brams_pct"] == max(r["brams_pct"] for r in rows.values())
    assert rows["URW"]["luts_pct"] == min(r["luts_pct"] for r in rows.values())
    assert all(row["frequency_mhz"] == 320.0 for row in rows.values())


def test_micro_depth():
    """Theorem VI.1: bubbles collapse once the FIFO depth reaches
    1 + 4*log2(N)."""
    result = EXPERIMENTS["micro-depth"](SMALL)
    theorem_rows = [r for r in result.rows if r["meets_theorem"]]
    assert theorem_rows, "sweep must include the theorem depth"
    by_depth = {r["depth"]: r["bubble_ratio"] for r in result.rows}
    shallow = by_depth[min(by_depth)]
    for row in theorem_rows:
        assert row["bubble_ratio"] < shallow / 4, row
    assert by_depth[max(by_depth)] < 0.01
    # Pinned exactly: bubble cycles over 16 servers x 5872 post-warmup
    # cycles.  Dispatch ties break by server index, so the rows are
    # equal on every host (CI reruns this at baseline SIMD dispatch).
    server_cycles = 16 * (6000 - 128)
    bubbles = {1: 7139, 2: 7138, 4: 7466, 8: 4262, 17: 1099, 34: 267}
    assert [(r["depth"], r["bubble_ratio"], r["meets_theorem"]) for r in result.rows] == [
        (depth, count / server_cycles, depth >= 17) for depth, count in bubbles.items()]


@pytest.mark.slow
def test_micro_outstanding():
    """Throughput climbs with the access engine's outstanding window
    until it covers the memory round trip (the paper provisions 128),
    and the async window is worth 5x over blocking access."""
    result = EXPERIMENTS["micro-outstanding"](SMALL)
    by_capacity = {row["outstanding"]: row["msteps"] for row in result.rows}
    assert by_capacity[4] > by_capacity[1]
    assert by_capacity[16] > by_capacity[4]
    assert by_capacity[64] > by_capacity[16] * 0.95
    assert by_capacity[128] < by_capacity[64] * 1.3
    assert by_capacity[128] > 5 * by_capacity[1]


@pytest.mark.slow
def test_micro_scaling():
    """Section VIII-F: throughput grows from 2 to 32 pipelines and the
    per-pipeline rate does not collapse — the scheduler is not the
    scaling limit."""
    rows = {row["pipelines"]: row for row in EXPERIMENTS["micro-scaling"](LONG_WINDOW).rows}
    assert rows[4]["msteps"] > 1.5 * rows[2]["msteps"]
    assert rows[16]["msteps"] > 2.5 * rows[4]["msteps"]
    assert rows[32]["msteps"] > 1.3 * rows[16]["msteps"]
    assert rows[32]["msteps_per_pipeline"] > 0.4 * rows[2]["msteps_per_pipeline"]
