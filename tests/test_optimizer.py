"""Descent mechanics and the end-to-end run loop."""

import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gtsne import objective, optimizer
from gtsne.affinity import AffinityModel, build_affinity_model
from gtsne.core import Dataset, EmbedConfig
from gtsne.datasets import gen_blobs
from gtsne.metrics import centroid_distance_correlation
from gtsne.objective import gradient_bh
from gtsne.optimizer import (
    GAIN_FLOOR,
    OptimizerState,
    gains_update,
    init_embedding,
    run,
    step,
)

from oracles import use_reference_sweeps

SMALL_CFG = EmbedConfig(
    perplexity=5.0,
    n_neighbors=15,
    n_clusters=6,
    pca_dims=5,
    alpha=0.01,
    beta=0.05,
    learning_rate=100.0,
    momentum_switch_iter=40,
    n_iter=80,
    log_every=20,
    seed=3,
)


def small_blobs():
    return gen_blobs(n=120, dims=6, n_classes=3, seed=1)


class TestInitEmbedding:
    def test_deterministic(self):
        a = init_embedding(50, 2, 1e-2, seed=4)
        b = init_embedding(50, 2, 1e-2, seed=4)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_draw(self):
        a = init_embedding(50, 2, 1e-2, seed=4)
        b = init_embedding(50, 2, 1e-2, seed=5)
        assert np.abs(a.y - b.y).max() > 0

    def test_spread_matches_requested_stddev(self):
        y = init_embedding(20000, 2, 1e-2, seed=0).y
        assert y.shape == (20000, 2)
        assert 0.0097 < y.std() < 0.0103
        assert abs(y.mean()) < 5e-4

    def test_zero_stddev_gives_zero_map(self):
        y = init_embedding(7, 3, 0.0, seed=0).y
        np.testing.assert_array_equal(y, np.zeros((7, 3)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            init_embedding(0, 2, 1e-2, seed=0)
        with pytest.raises(ValueError):
            init_embedding(5, 0, 1e-2, seed=0)
        with pytest.raises(ValueError):
            init_embedding(5, 2, -1.0, seed=0)


class TestGainsUpdate:
    def test_matching_signs_decay(self):
        out = gains_update(np.array([1.0]), np.array([0.4]), np.array([2.0]))
        assert out[0] == pytest.approx(0.8, abs=1e-15)
        out = gains_update(np.array([1.0]), np.array([-0.4]), np.array([-2.0]))
        assert out[0] == pytest.approx(0.8, abs=1e-15)

    def test_opposing_signs_boost(self):
        out = gains_update(np.array([1.0]), np.array([0.4]), np.array([-2.0]))
        assert out[0] == pytest.approx(1.2, abs=1e-15)

    def test_zero_on_either_side_counts_as_matching(self):
        # No boost for a frozen coordinate: a zero gradient or a zero
        # velocity decays the gain like an agreeing sign would.
        out = gains_update(np.array([1.0]), np.array([0.4]), np.array([0.0]))
        assert out[0] == pytest.approx(0.8, abs=1e-15)
        out = gains_update(np.array([1.0]), np.array([0.0]), np.array([2.0]))
        assert out[0] == pytest.approx(0.8, abs=1e-15)
        out = gains_update(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        assert out[0] == pytest.approx(0.8, abs=1e-15)

    def test_floor(self):
        out = gains_update(np.array([0.012]), np.array([1.0]), np.array([1.0]))
        assert out[0] == GAIN_FLOOR

    def test_elementwise(self):
        gains = np.array([[1.0, 0.012], [0.05, 1.0]])
        g = np.array([[1.0, 1.0], [1.0, 0.0]])
        u = np.array([[-1.0, 1.0], [1.0, 0.0]])
        out = gains_update(gains, g, u)
        np.testing.assert_allclose(out, [[1.2, 0.01], [0.04, 0.8]], atol=1e-15)


class TestStep:
    def test_rest_state_stays_put(self):
        y = np.array([[1.0, 2.0]])
        state = OptimizerState(velocity=np.zeros((1, 2)), gains=np.ones((1, 2)))
        out = step(y, state, np.zeros((1, 2)), learning_rate=200.0, gamma=0.5)
        np.testing.assert_array_equal(out, y)
        np.testing.assert_array_equal(state.velocity, np.zeros((1, 2)))
        assert state.iteration == 1

    def test_gains_shrink_before_velocity_update(self):
        # Gradient and velocity agree in sign, so the gain drops to 0.8
        # and the velocity update already sees the smaller value.
        y = np.array([[0.0]])
        state = OptimizerState(velocity=np.array([[0.3]]), gains=np.array([[1.0]]))
        out = step(y, state, np.array([[0.1]]), learning_rate=2.0, gamma=0.5)
        assert state.gains[0, 0] == pytest.approx(0.8, abs=1e-15)
        # 0.5 * 0.3 - 2.0 * 0.8 * 0.1 = -0.01
        assert state.velocity[0, 0] == pytest.approx(-0.01, abs=1e-15)
        assert out[0, 0] == pytest.approx(-0.01, abs=1e-15)

    def test_gains_boost_before_velocity_update(self):
        y = np.array([[0.0]])
        state = OptimizerState(velocity=np.array([[-0.3]]), gains=np.array([[1.0]]))
        out = step(y, state, np.array([[0.1]]), learning_rate=2.0, gamma=0.5)
        assert state.gains[0, 0] == pytest.approx(1.2, abs=1e-15)
        # 0.5 * -0.3 - 2.0 * 1.2 * 0.1 = -0.39
        assert out[0, 0] == pytest.approx(-0.39, abs=1e-15)

    def test_first_step_from_rest_is_decayed_descent(self):
        # From a standing start the zero velocity counts as agreement, so
        # the very first move is -eta * 0.8 * g.
        y = np.array([[1.0]])
        state = OptimizerState(velocity=np.array([[0.0]]), gains=np.array([[1.0]]))
        out = step(y, state, np.array([[0.25]]), learning_rate=1.0, gamma=0.0)
        assert out[0, 0] == pytest.approx(1.0 - 0.2, abs=1e-15)

    def test_returns_new_array(self):
        y = np.array([[1.0, 2.0]])
        state = OptimizerState(velocity=np.zeros((1, 2)), gains=np.ones((1, 2)))
        out = step(y, state, np.array([[0.1, 0.1]]), learning_rate=1.0, gamma=0.0)
        assert out is not y
        np.testing.assert_array_equal(y, [[1.0, 2.0]])

    def test_non_finite_gradient_raises(self):
        y = np.zeros((2, 2))
        state = OptimizerState(velocity=np.zeros((2, 2)), gains=np.ones((2, 2)))
        g = np.array([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(RuntimeError, match="non-finite"):
            step(y, state, g, learning_rate=1.0, gamma=0.5)


@pytest.fixture(scope="module")
def result():
    return run(small_blobs(), SMALL_CFG, verbose=False)


class TestRun:
    def test_shapes_and_report(self, result):
        emb, report = result
        assert emb.y.shape == (120, 2)
        assert np.all(np.isfinite(emb.y))
        assert report.config.seed == SMALL_CFG.seed
        assert report.iterations_run == SMALL_CFG.n_iter
        assert report.stop_reason == "max_iter"
        assert report.degenerate_rows == []
        assert report.unconverged_rows == []
        assert report.config.n_neighbors == 15
        for key in ("pca", "kmeans", "macro", "affinity", "optimize", "total"):
            assert report.wall_times[key] >= 0.0

    def test_loss_decreases(self, result):
        _, report = result
        trace = report.loss_trace
        assert trace[-1].total < trace[0].total

    def test_trace_parts_add_up(self, result):
        _, report = result
        for rec in report.loss_trace:
            want = rec.micro + SMALL_CFG.alpha * rec.macro + SMALL_CFG.beta * rec.kmeans
            assert abs(rec.total - want) <= 1e-10 * max(1.0, abs(want))

    def test_momentum_switch_visible_in_trace(self, result):
        _, report = result
        for rec in report.loss_trace:
            want = 0.5 if rec.iteration < SMALL_CFG.momentum_switch_iter else 0.8
            assert rec.gamma == want

    def test_final_record_is_the_resting_state(self, result):
        _, report = result
        last = report.loss_trace[-1]
        assert last.iteration == report.iterations_run
        assert last.max_update == 0.0
        # 120 points are too few for the grid's floor of 16 intervals and
        # few enough for the exact sums.
        assert last.z_estimator == "exact"

    def test_logging_cadence(self, result):
        _, report = result
        iters = [rec.iteration for rec in report.loss_trace[:-1]]
        assert iters == list(range(0, SMALL_CFG.n_iter, SMALL_CFG.log_every))

    def test_deterministic(self, result):
        emb1, report1 = result
        emb2, report2 = run(small_blobs(), SMALL_CFG, verbose=False)
        np.testing.assert_array_equal(emb1.y, emb2.y)
        assert [r.total for r in report1.loss_trace] == [
            r.total for r in report2.loss_trace
        ]

    def test_seed_changes_map(self, result):
        emb1, _ = result
        emb2, _ = run(small_blobs(), dataclasses.replace(SMALL_CFG, seed=4), verbose=False)
        assert np.abs(emb1.y - emb2.y).max() > 0

    def test_plain_neighbor_embedding_runs(self):
        cfg = dataclasses.replace(SMALL_CFG, alpha=0.0, beta=0.0, n_iter=40)
        _, report = run(small_blobs(), cfg, verbose=False)
        trace = report.loss_trace
        assert trace[-1].total < trace[0].total
        # The side terms are still evaluated for the log even though they
        # no longer steer the descent.
        assert trace[-1].total == pytest.approx(trace[-1].micro, abs=1e-12)

    def test_converges_when_nothing_moves(self):
        cfg = dataclasses.replace(SMALL_CFG, learning_rate=1e-12, n_iter=300)
        _, report = run(small_blobs(), cfg, verbose=False)
        assert report.stop_reason == "converged"
        assert report.iterations_run < 300
        assert report.loss_trace[-1].iteration == report.iterations_run

    def test_divergence_raises(self):
        cfg = dataclasses.replace(SMALL_CFG, learning_rate=1e300, n_iter=10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError):
                run(small_blobs(), cfg, verbose=False)

    def test_early_exaggeration_phase(self):
        cfg = dataclasses.replace(
            SMALL_CFG, early_exaggeration=4.0, early_exaggeration_iter=20, n_iter=40
        )
        _, report = run(small_blobs(), cfg, verbose=False)
        plain = run(small_blobs(), dataclasses.replace(cfg, early_exaggeration=1.0),
                    verbose=False)[1]
        # Both runs start from the same map and log their losses against
        # the same P; exaggeration only scales the attraction.
        assert report.loss_trace[0].micro == plain.loss_trace[0].micro
        assert report.loss_trace[-1].micro != plain.loss_trace[-1].micro
        assert np.isfinite(report.loss_trace[-1].total)

    def test_logged_loss_is_the_objective_under_exaggeration(self, monkeypatch):
        cfg = dataclasses.replace(
            SMALL_CFG, early_exaggeration=12.0, early_exaggeration_iter=20,
            n_iter=3, log_every=1,
        )
        first = []

        def spy(y, p, macro, cfg, **kwargs):
            if not first:
                first.append((y.copy(), macro))
            return gradient_bh(y, p, macro, cfg, **kwargs)

        monkeypatch.setattr(optimizer, "gradient_bh", spy)
        data = small_blobs()
        _, report = run(data, cfg, verbose=False)
        resolved = report.config
        p, _ = build_affinity_model(
            data.x, resolved.n_neighbors, resolved.perplexity, tol=resolved.perplexity_tol
        )
        y0, macro = first[0]
        _, ws = gradient_bh(y0, p, macro, resolved)
        rec = report.loss_trace[0]
        assert rec.iteration == 0
        for got, want in zip((rec.total, rec.micro, rec.macro, rec.kmeans), ws.losses):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # Against a 12x-valued P the same map reads 12 KL + 12 ln 12.
        p12 = AffinityModel(row=p.row, col=p.col, val=12 * p.val, n=p.n)
        _, scaled = gradient_bh(y0, p12, macro, resolved)
        want = 12.0 * ws.losses.micro + 12.0 * np.log(12.0)
        assert scaled.losses.micro == pytest.approx(want)

    def test_records_report_clamped_underflow(self, monkeypatch):
        # The workspace's flag reaches the record it was logged in; a spy
        # sets it on the third call (iteration 2) instead of building a
        # map that underflows.
        cfg = dataclasses.replace(SMALL_CFG, n_iter=4, log_every=2)
        calls = []

        def spy(y, p, macro, cfg, **kwargs):
            g, ws = gradient_bh(y, p, macro, cfg, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                ws.losses = ws.losses._replace(underflow_clamped=True)
            return g, ws

        monkeypatch.setattr(optimizer, "gradient_bh", spy)
        _, report = run(small_blobs(), cfg, verbose=False)
        assert [rec.iteration for rec in report.loss_trace] == [0, 2, 4]
        assert [rec.underflow_clamped for rec in report.loss_trace] == [False, True, False]

    def test_unconverged_rows_are_reported(self, monkeypatch, capsys):
        monkeypatch.setattr(
            optimizer, "build_affinity_model",
            functools.partial(build_affinity_model, max_iter=2),
        )
        cfg = dataclasses.replace(SMALL_CFG, n_iter=2)
        _, report = run(small_blobs(), cfg, verbose=True)
        assert report.unconverged_rows == list(range(120))
        assert report.degenerate_rows == []
        assert "120 rows missed the target perplexity" in capsys.readouterr().err

    def test_losses_are_evaluated_only_when_logged(self, monkeypatch):
        calls = []
        real = objective._evaluate_losses
        monkeypatch.setattr(
            objective, "_evaluate_losses", lambda *a: calls.append(1) or real(*a)
        )
        cfg = dataclasses.replace(SMALL_CFG, n_iter=10, log_every=5)
        _, report = run(small_blobs(), cfg, verbose=False)
        assert [rec.iteration for rec in report.loss_trace] == [0, 5, 10]
        assert len(calls) == 3

    def test_map_matches_the_reference_sweeps(self, monkeypatch):
        # The descent through the table-driven sweep and the
        # both-direction attraction of tests/oracles.py lands on the same
        # map bit for bit, exaggeration phase included. Both runs are kept
        # on the tree, which 120 points would otherwise not reach.
        cfg = dataclasses.replace(
            SMALL_CFG, n_iter=60, early_exaggeration=4.0, early_exaggeration_iter=20
        )
        monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
        emb, report = run(small_blobs(), cfg, verbose=False)
        with monkeypatch.context() as m:
            use_reference_sweeps(m, objective)
            emb_ref, report_ref = run(small_blobs(), cfg, verbose=False)
        for rep in (report, report_ref):
            assert {rec.z_estimator for rec in rep.loss_trace} == {"barnes_hut"}
        assert np.array_equal(emb.y, emb_ref.y)
        assert report.iterations_run == report_ref.iterations_run

    def test_more_clusters_than_distinct_points(self):
        # 60 distinct 5-D points, each three times, and the default 90
        # clusters: k-means must fill its empty clusters without emptying
        # another, whose centroid would then be 0 / 0.
        x = np.repeat(np.random.default_rng(3).normal(size=(60, 5)), 3, axis=0)
        emb, report = run(Dataset(x=x), EmbedConfig(n_iter=5), verbose=False)
        assert report.config.n_clusters == 90
        assert np.all(np.isfinite(emb.y)) and np.isfinite(report.loss_trace[-1].total)

    def test_fewer_points_than_default_reduction_width(self):
        # 30 points in 100-D: the reduction defaults to 30 directions,
        # one per point, instead of 50.
        x = np.random.default_rng(0).normal(size=(30, 100))
        cfg = EmbedConfig(n_clusters=5, perplexity=5.0, n_iter=3)
        emb, report = run(Dataset(x=x), cfg, verbose=False)
        assert report.config.pca_dims == 30
        assert emb.y.shape == (30, 2) and np.all(np.isfinite(emb.y))

    def test_stages_call_the_module_names(self, monkeypatch):
        # perfbench/run.py wraps these names in gtsne.optimizer and checks
        # its spans against wall_times, whose stages before "optimize" it
        # sums as set-up: every stage must call them there, and wall_times
        # must keep its keys in this order.
        counts = {}
        for name in ("pca_fit", "kmeans_fit", "responsibility_matrix", "macro_affinity",
                     "build_affinity_model", "gradient_bh", "step"):
            counts[name] = 0

            def spy(*args, _name=name, _real=getattr(optimizer, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(optimizer, name, spy)
        cfg = dataclasses.replace(SMALL_CFG, n_iter=3)
        _, report = run(small_blobs(), cfg, verbose=False)
        assert counts == {
            "pca_fit": 1, "kmeans_fit": 1, "responsibility_matrix": 1, "macro_affinity": 1,
            "build_affinity_model": 1, "gradient_bh": 4, "step": 3,
        }
        assert list(report.wall_times) == [
            "pca", "kmeans", "macro", "affinity", "optimize", "total"
        ]

    def test_macro_correlation_scores_the_final_map(self, result):
        # The run's own partition, rebuilt by the shared macro stage,
        # against the returned map.
        emb, report = result
        _, km, macro = optimizer.macro_stage(small_blobs().x, report.config, {})
        want = centroid_distance_correlation(km.t, macro.centroids(emb.y))
        assert report.macro_correlation == want
        assert 0.5 < want <= 1.0

    def test_verbose_progress_goes_to_stderr(self, capsys):
        cfg = dataclasses.replace(SMALL_CFG, n_iter=2, log_every=1)
        run(small_blobs(), cfg, verbose=True)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "iter=0" in captured.err


# Runs both inputs in a fresh interpreter and prints, for each, the SHA-256
# of the map's bytes and of the loss trace's repr and the map's
# knn_preservation score in hex; then the SHA-256 of exact_knn(x, 90)'s ids
# and squared distances on the three-lines input.
_BLAS_THREADS_PROBE = """
import hashlib
from gtsne import (EmbedConfig, ThreeLinesSpec, exact_knn, gen_swiss_roll,
                   gen_three_lines, knn_preservation, run)
inputs = [
    (gen_three_lines(ThreeLinesSpec(n_s=500, dims=10, seed=1)),
     EmbedConfig(out_dims=3, early_exaggeration=12.0, early_exaggeration_iter=20,
                 n_iter=30, log_every=5, seed=1)),
    (gen_swiss_roll(n=1000, seed=1), EmbedConfig(n_iter=30, log_every=5, seed=1)),
]
for data, cfg in inputs:
    emb, report = run(data, cfg, verbose=False)
    print(hashlib.sha256(emb.y.tobytes()).hexdigest(),
          hashlib.sha256(repr(report.loss_trace).encode()).hexdigest(),
          knn_preservation(data.x, emb.y, 10).hex())
ids, sq = exact_knn(inputs[0][0].x, 90)
print(hashlib.sha256(ids.tobytes() + sq.tobytes()).hexdigest())
"""


def test_descent_bits_do_not_depend_on_blas_threads():
    # A BLAS call large enough for OpenBLAS to split over its threads may
    # sum in another order, and it wakes the pool, whose spinning workers
    # take the core that gradient_bh's repulsion runs on. Every product
    # and reduction the descent makes per iteration stays on the calling
    # thread on a 1500-point 3-D map and a 1000-point 2-D map, so one and
    # two BLAS threads give the same maps and losses. So do the two-thread
    # score and the search, whose products stay on their threads too.
    src = str(Path(objective.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    names = [
        "three-lines map", "three-lines losses", "three-lines score",
        "swiss-roll map", "swiss-roll losses", "swiss-roll score", "three-lines neighbours",
    ]
    assert len(outputs[0]) == len(names)
    differ = [name for name, a, b in zip(names, *outputs) if a != b]
    assert differ == [], f"differ between 1 and 2 BLAS threads: {differ}"
