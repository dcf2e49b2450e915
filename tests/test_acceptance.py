"""Release gate: ten numbered end-to-end checks with hard tolerances.

Every test prints one [PASS]/[FAIL] line carrying its measured numbers
(shown in the summary via -rP) and then asserts the same condition. The
desk-scale paired-run fixture is shared by criteria 6, 7, and 8 so the
whole gate stays within a few minutes.

Criterion 7 gates line tearing on metrics.worst_gap_ratio, each line's
largest consecutive map gap over its median consecutive gap. The beta
k-means pull packs consecutive points into tight beads, which shrinks the
median gap and so raises the ratio: beading can only count against the
full objective.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gtsne import objective
from gtsne.affinity import build_affinity_model, exact_knn
from gtsne.cli import main
from gtsne.core import EmbedConfig
from gtsne.datasets import (
    ThreeLinesSpec,
    gen_blobs,
    gen_sphere,
    gen_swiss_roll,
    gen_three_lines,
)
from gtsne.macro import MacroAffinity, kmeans_fit, macro_affinity, responsibility_matrix
from gtsne.metrics import centroid_distance_correlation, worst_gap_ratio
from gtsne.objective import gradient_bh
from gtsne.optimizer import init_embedding, run
from gtsne.pca import pca_fit

from oracles import (
    brute_knn,
    central_differences,
    dense_micro_gradient,
    dense_model,
    dense_objective,
)


def gate(num, ok, detail):
    """Print the one-line verdict and return it for the assert message."""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    return line


# Desk-scale three-lines setup used by criteria 6, 7, and 8: 100 points
# per line, cluster count scaled down with the data, 500 iterations.
DESK = EmbedConfig(
    perplexity=10.0, n_neighbors=30, n_clusters=15, alpha=0.01, beta=0.05, n_iter=500
)
SEGMENTS = [(0, 100), (100, 200), (200, 300)]
N_PAIRS = 10


def desk_macro_correlation(x, y):
    """Centroid-distance correlation of a desk-scale map against its input."""
    z = pca_fit(x, 3).z
    km = kmeans_fit(z, 15, seed=0)
    r = responsibility_matrix(z, km.t, d=2)
    c = (r @ y) / r.sum(axis=1)[:, None]
    return centroid_distance_correlation(km.t, c)


@pytest.fixture(scope="module")
def paired_runs():
    """Ten seeds, each run twice: full objective vs micro-only baseline."""
    pairs = []
    for seed in range(N_PAIRS):
        data = gen_three_lines(ThreeLinesSpec(n_s=100, seed=seed))
        record = {}
        for arm, (a, b) in (("gtsne", (0.01, 0.05)), ("baseline", (0.0, 0.0))):
            cfg = dataclasses.replace(DESK, alpha=a, beta=b, seed=seed)
            start = time.perf_counter()
            emb, report = run(data, cfg, verbose=False)
            record[arm] = {
                "seconds": time.perf_counter() - start,
                "initial": report.loss_trace[0].total,
                "final": report.loss_trace[-1].total,
                "tear": worst_gap_ratio(emb.y, SEGMENTS),
                "corr": desk_macro_correlation(data.x, emb.y),
            }
        pairs.append(record)
    return pairs


def test_01_exact_gradient_matches_finite_differences():
    worst = 0.0
    start = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(15, 5))
        p, _ = build_affinity_model(x, n_neighbors=12, perplexity=4.0, tol=1e-8)
        km = kmeans_fit(x, 3, seed=seed)
        macro = MacroAffinity(
            r=responsibility_matrix(x, km.t, d=2),
            p_macro=macro_affinity(km.t),
        )
        y = rng.normal(size=(15, 2))
        cfg = EmbedConfig(alpha=0.01, beta=0.05, bh_theta=0.0)
        g, _ = gradient_bh(y, p, macro, cfg)
        args = (dense_model(p), macro.r, macro.p_macro, cfg.alpha, cfg.beta)
        fd = central_differences(lambda yy: dense_objective(yy, *args)[0], y, h=1e-5)
        rel = np.abs(g - fd) / np.maximum(1.0, np.abs(g))
        worst = max(worst, float(rel.max()))
    seconds = time.perf_counter() - start
    ok = worst < 1e-5 and seconds < 5.0
    line = gate(
        1,
        ok,
        f"finite differences, 10 seeds: max per-coordinate rel err "
        f"{worst:.2e} (< 1e-5) in {seconds:.2f} s (< 5 s)",
    )
    assert ok, line


def test_02_gradient_modes_agree_only_under_equal_masses():
    # Regular polygon with one centroid per point: the responsibility
    # matrix is doubly stochastic, every cluster mass is 1, and the mass
    # normalization cancels.
    n = 8
    angles = 2.0 * np.pi * np.arange(n) / n
    z = np.zeros((n, 4))
    z[:, 0] = np.cos(angles)
    z[:, 1] = np.sin(angles)
    r = responsibility_matrix(z, z, d=2)
    macro = MacroAffinity(r=r, p_macro=macro_affinity(z))
    p, _ = build_affinity_model(z, n_neighbors=3, perplexity=2.0, tol=1e-8)
    rng = np.random.default_rng(0)
    y = rng.normal(size=(n, 2))
    cfg = EmbedConfig(alpha=0.01, beta=0.05, bh_theta=0.0)
    paper_cfg = dataclasses.replace(cfg, gradient_mode="paper")
    g_exact, _ = gradient_bh(y, p, macro, cfg)
    g_paper, _ = gradient_bh(y, p, macro, paper_cfg)
    agree = float(np.abs(g_paper - g_exact).max())

    # Generic clustered data: unequal masses, so the modes must split.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 4))
    km = kmeans_fit(x, 3, seed=0)
    r = responsibility_matrix(x, km.t, d=2)
    assert float(np.ptp(r.sum(axis=1))) > 1e-3  # premise: lopsided masses
    macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
    p, _ = build_affinity_model(x, n_neighbors=5, perplexity=3.0, tol=1e-8)
    y = rng.normal(size=(16, 2))
    g_exact, _ = gradient_bh(y, p, macro, cfg)
    g_paper, _ = gradient_bh(y, p, macro, paper_cfg)
    differ = float(np.abs(g_paper - g_exact).max())

    ok = agree <= 1e-10 and differ > 1e-8
    line = gate(
        2,
        ok,
        f"equal-mass modes agree to {agree:.2e} (<= 1e-10), "
        f"unbalanced modes differ by {differ:.2e} (> 1e-8)",
    )
    assert ok, line


def test_03_tree_gradient_tracks_exact_gradient(monkeypatch):
    start = time.perf_counter()
    data = gen_blobs()
    p, _ = build_affinity_model(data.x, n_neighbors=90, perplexity=30.0)
    # Micro term only; the macro placeholder is inert at alpha = beta = 0.
    macro = MacroAffinity(
        r=np.full((2, len(data.x)), 0.5),
        p_macro=np.array([[0.0, 0.5], [0.5, 0.0]]),
    )
    cfg = EmbedConfig(alpha=0.0, beta=0.0)
    y = init_embedding(len(data.x), 2, 1e-2, seed=0)
    g_dense, z_dense = dense_micro_gradient(y.y, p)
    g_exact, ws_exact = gradient_bh(y, p, macro, dataclasses.replace(cfg, bh_theta=0.0))
    # theta = 0 takes the exact sums, checked against the dense oracle and
    # then the reference for the other engines. At theta = 0.5 this small
    # map runs on the interpolation grid; the tree must meet the same
    # bounds where it runs, so it is forced once.
    half = dataclasses.replace(cfg, bh_theta=0.5)
    g_grid, ws_grid = gradient_bh(y, p, macro, half)
    with monkeypatch.context() as m:
        m.setattr(objective, "_GRID_NODES_PER_POINT", 0)
        m.setattr(objective, "_EXACT_MAX_POINTS", 0)
        g_tree, ws_tree = gradient_bh(y, p, macro, half)
    engines = (ws_exact.z_estimator, ws_grid.z_estimator, ws_tree.z_estimator)
    assert engines == ("exact", "interpolation", "barnes_hut")

    def errors(g, z, g_ref, z_ref):
        norms = np.linalg.norm(g_ref, axis=1)
        per_point = float((np.linalg.norm(g - g_ref, axis=1) / norms).max())
        return per_point, abs(z - z_ref) / z_ref

    rel_zero, z_zero = errors(g_exact, ws_exact.z_y, g_dense, z_dense)
    rel_grid, z_grid = errors(g_grid, ws_grid.z_y, g_exact, ws_exact.z_y)
    rel_tree, z_tree = errors(g_tree, ws_tree.z_y, g_exact, ws_exact.z_y)
    seconds = time.perf_counter() - start

    ok = rel_zero <= 1e-10 and z_zero <= 1e-10
    ok = ok and max(rel_grid, rel_tree) < 1e-2 and max(z_grid, z_tree) < 1e-3
    ok = ok and seconds < 10.0
    line = gate(
        3,
        ok,
        f"theta=0 rel err {rel_zero:.2e} (<= 1e-10), theta=0.5 per-point "
        f"grid {rel_grid:.2e} / tree {rel_tree:.2e} (< 1e-2), normalizer rel "
        f"grid {z_grid:.2e} / tree {z_tree:.2e} (< 1e-3), {seconds:.2f} s (< 10 s)",
    )
    assert ok, line


def test_04_probability_normalizations_hold_on_every_dataset():
    suites = [
        ("three-lines", gen_three_lines(ThreeLinesSpec(n_s=100)), 10.0, 30, 15),
        ("blobs", gen_blobs(), 30.0, 90, 90),
        ("sphere", gen_sphere(), 30.0, 90, 90),
        ("swiss-roll", gen_swiss_roll(), 30.0, 90, 90),
    ]
    worst = {"pair": 0.0, "column": 0.0, "macro": 0.0, "q_macro": 0.0, "perp": 0.0}
    for name, data, perp, n_neighbors, k in suites:
        n, d_in = data.x.shape
        p, rows = build_affinity_model(data.x, n_neighbors=n_neighbors, perplexity=perp)
        worst["pair"] = max(worst["pair"], abs(2 * p.val.sum() - 1.0))
        assert not any(row.degenerate for row in rows), name
        spread = max(abs(row.perplexity - perp) for row in rows)
        worst["perp"] = max(worst["perp"], spread)

        d_z = min(50, d_in)
        z = pca_fit(data.x, d_z).z
        km = kmeans_fit(z, k, seed=0)
        r = responsibility_matrix(z, km.t, d=2)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        worst["column"] = max(worst["column"], float(np.abs(r.sum(axis=0) - 1.0).max()))
        worst["macro"] = max(worst["macro"], abs(macro.p_macro.sum() - 1.0))
        y = init_embedding(n, 2, 1e-2, seed=0)
        _, ws = gradient_bh(y, p, macro, EmbedConfig(bh_theta=0.0))
        worst["q_macro"] = max(worst["q_macro"], abs(ws.q_macro.sum() - 1.0))

    ok = (
        worst["pair"] <= 1e-9
        and worst["column"] <= 1e-12
        and worst["macro"] <= 1e-12
        and worst["q_macro"] <= 1e-12
        and worst["perp"] <= 1e-4
    )
    line = gate(
        4,
        ok,
        f"4 datasets: pair sum off by {worst['pair']:.1e} (<= 1e-9), "
        f"R columns {worst['column']:.1e}, macro sums {worst['macro']:.1e} / "
        f"{worst['q_macro']:.1e} (<= 1e-12), perplexity off by "
        f"{worst['perp']:.1e} (<= 1e-4)",
    )
    assert ok, line


def test_05_exact_knn_matches_brute_force():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(500, 10))
    checked = 0
    for k in (1, 10, 90):
        ids, sq = exact_knn(points, k)
        for i in range(len(points)):
            want = brute_knn(points, i, k)
            # Ids must match in order; squared distances only up to
            # summation order (einsum vs the oracle's sum).
            assert ids[i].tolist() == [h[0] for h in want], (k, i)
            np.testing.assert_allclose(sq[i], [h[1] for h in want], rtol=1e-12)
            checked += 1
    line = gate(
        5, True, f"{checked} queries (k in 1/10/90) set- and order-exact vs brute force"
    )
    assert checked == 1500, line


def test_06_desk_runs_descend_within_time_budget(paired_runs):
    descended = sum(r["gtsne"]["final"] < r["gtsne"]["initial"] for r in paired_runs)
    # Both arms run on the same budget: a slow repulsion engine on the
    # baseline's wide-spread maps must not hide behind the full objective.
    slowest = max(r[arm]["seconds"] for r in paired_runs for arm in ("gtsne", "baseline"))
    ok = descended == N_PAIRS and slowest < 60.0
    line = gate(
        6,
        ok,
        f"final loss below initial in {descended}/{N_PAIRS} runs, "
        f"slowest run of either arm {slowest:.1f} s (< 60 s)",
    )
    assert ok, line


def test_07_line_breaks_no_worse_than_baseline(paired_runs):
    ours = float(np.median([r["gtsne"]["tear"] for r in paired_runs]))
    base = float(np.median([r["baseline"]["tear"] for r in paired_runs]))
    wins = sum(r["gtsne"]["tear"] <= r["baseline"]["tear"] for r in paired_runs)
    ok = ours <= base and wins >= 7
    line = gate(
        7,
        ok,
        f"median worst-gap ratio {ours:.1f} vs baseline {base:.1f} "
        f"(need <= baseline), no worse in {wins}/{N_PAIRS} paired seeds "
        "(need >= 7)",
    )
    assert ok, line


def test_07_guard_ratio_ranks_a_tear_above_beads():
    # Two 101-point lines along the x axis, built from their gaps.
    # Connected but beaded: gaps of 0.1 inside five-point beads, hops of
    # 0.8 between beads. Evenly spaced: unit gaps with one 50x tear.
    def along_x(gaps):
        return np.c_[np.cumsum(np.r_[0.0, gaps]), np.zeros(len(gaps) + 1)]

    beaded = along_x(np.tile([0.1, 0.1, 0.1, 0.1, 0.8], 20))
    torn = along_x(np.r_[np.ones(49), 50.0, np.ones(50)])
    line = [(0, 101)]
    assert worst_gap_ratio(beaded, line) == pytest.approx(8.0)
    assert worst_gap_ratio(torn, line) == pytest.approx(50.0)


def test_08_macro_correlation_beats_baseline(paired_runs):
    wins = sum(r["gtsne"]["corr"] >= r["baseline"]["corr"] for r in paired_runs)
    ours = float(np.median([r["gtsne"]["corr"] for r in paired_runs]))
    base = float(np.median([r["baseline"]["corr"] for r in paired_runs]))
    ok = wins >= 7
    line = gate(
        8,
        ok,
        f"centroid correlation wins {wins}/{N_PAIRS} paired seeds (need >= 7), "
        f"medians {ours:.3f} vs {base:.3f}",
    )
    assert ok, line


def test_09_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "blobs", "--n", "60", "--dims", "5", "--classes", "3",
                 "--seed", "2", "-o", str(data)]) == 0
    flags = ["--perplexity", "5", "--neighbors", "15", "--clusters", "5",
             "--n-iter", "25", "--log-every", "10", "--seed", "1"]
    outputs = []
    for tag in ("first", "second"):
        ymap = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        assert main(["embed", "-i", str(data), "-o", str(ymap), *flags]) == 0
        assert main(["plot", "-y", str(ymap), "-o", str(svg)]) == 0
        outputs.append((ymap.read_bytes(), svg.read_bytes()))
    ok = outputs[0] == outputs[1]
    line = gate(
        9,
        ok,
        f"embed CSV ({len(outputs[0][0])} bytes) and plot SVG "
        f"({len(outputs[0][1])} bytes) identical across reruns",
    )
    assert ok, line


def test_10_full_pipeline_smokes_on_every_generator(tmp_path):
    start = time.perf_counter()
    all_scores = []
    for name in ("blobs", "sphere", "swiss-roll"):
        base = tmp_path / name.replace("-", "_")
        data = base.with_suffix(".data.csv")
        ymap = base.with_suffix(".map.csv")
        scores = base.with_suffix(".scores.csv")
        svg = base.with_suffix(".svg")
        assert main(["generate", name, "-o", str(data)]) == 0, name
        assert main(["embed", "-i", str(data), "-o", str(ymap)]) == 0, name
        assert main(["evaluate", "-x", str(data), "-y", str(ymap),
                     "-o", str(scores)]) == 0, name
        assert main(["plot", "-y", str(ymap), "-o", str(svg)]) == 0, name
        header, row = scores.read_text().splitlines()
        values = [float(v) for v in row.split(",")]
        assert header == "knn_preservation,worst_gap_ratio,centroid_distance_correlation"
        assert all(math.isfinite(v) for v in values), (name, row)
        all_scores.append(f"{name} {row}")
    seconds = time.perf_counter() - start
    ok = seconds < 300.0
    line = gate(
        10,
        ok,
        f"generate/embed/evaluate/plot clean on 3 generators in {seconds:.0f} s "
        f"(< 300 s); scores {'; '.join(all_scores)}",
    )
    assert ok, line
