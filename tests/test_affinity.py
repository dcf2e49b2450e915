"""Perplexity calibration and the symmetric joint affinity model."""

from types import SimpleNamespace

import numpy as np
import pytest

from gtsne import build_affinity_model, calibrate, symmetrize
from gtsne.affinity import AffinityModel
from oracles import calibrate_row, dense_affinities, row_perplexity, solve_beta

# d2 = (1, 4, 9) at effective neighbor count 2, solved independently by
# bisection; the row follows from the fitted precision.
FROZEN_BETA_149 = 0.37446067565143626
FROZEN_ROW_149 = (0.727177260826915, 0.23646217201215897, 0.03636056716092603)


def calibrate_one(d2, target, **kwargs):
    """calibrate on a single distance row, its fields read off that row."""
    cal = calibrate(np.asarray(d2, dtype=np.float64)[None, :], target, **kwargs)
    return SimpleNamespace(**{name: value[0] for name, value in cal._asdict().items()})


class TestCalibrateRow:
    def test_two_equal_distances(self):
        row = calibrate_one([5.0, 5.0], 2.0 - 1e-9)
        np.testing.assert_allclose(row.probs, [0.5, 0.5], atol=1e-12)
        assert abs(row.perplexity - 2.0) < 1e-5
        assert not row.degenerate

    def test_uniform_row_maximizes_effective_count(self):
        k = 6
        row = calibrate_one(np.full(k, 3.0), k - 1e-9)
        np.testing.assert_allclose(row.probs, np.full(k, 1.0 / k), atol=1e-12)
        np.testing.assert_allclose(row.perplexity, k, atol=1e-6)

    def test_frozen_bisection_case(self):
        row = calibrate_one([1.0, 4.0, 9.0], 2.0, tol=1e-9)
        assert abs(row.beta - FROZEN_BETA_149) < 1e-6
        np.testing.assert_allclose(row.probs, FROZEN_ROW_149, atol=1e-6)

    def test_matches_scalar_root_finder(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(5, 40))
            d2 = np.sort(rng.uniform(0.1, 20.0, size=k))
            target = float(rng.uniform(1.5, k - 0.5))
            row = calibrate_one(d2, target, tol=1e-9)
            ref_beta = solve_beta(d2, target)
            assert abs(row.beta - ref_beta) < 1e-6 * max(1.0, ref_beta)
            _, ref_probs = row_perplexity(d2, ref_beta)
            np.testing.assert_allclose(row.probs, ref_probs, atol=1e-6)

    def test_matches_scalar_loop_exactly(self):
        # The matrix search takes the same steps as the row-by-row loop, so
        # every row lands on the same beta, bit for bit, including rows
        # with infinite distances and an all-zero (degenerate) row.
        rng = np.random.default_rng(7)
        k, target = 24, 7.5
        d2 = rng.uniform(0.0, 30.0, size=(300, k)) * rng.uniform(0.01, 100.0, size=(300, 1))
        d2[::5, : k // 3] = np.inf
        d2[17] = 0.0
        cal = calibrate(d2, target, tol=1e-5)
        for i in range(len(d2)):
            beta, probs, perp, degenerate = calibrate_row(d2[i], target, tol=1e-5)
            assert cal.beta[i] == beta, i
            assert cal.degenerate[i] == degenerate, i
            np.testing.assert_allclose(cal.probs[i], probs, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(cal.perplexity[i], perp, rtol=1e-12)
        assert cal.degenerate.sum() == 1 and cal.converged.sum() == len(d2) - 1

    def test_achieves_target_within_tolerance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            k = int(rng.integers(4, 60))
            d2 = rng.uniform(0.0, 50.0, size=k)
            if np.all(d2 == 0.0):
                continue
            target = float(rng.uniform(1.1, k - 0.1))
            row = calibrate_one(d2, target, tol=1e-5)
            assert abs(row.perplexity - target) <= 1e-5
            assert abs(row.probs.sum() - 1.0) < 1e-12
            assert row.converged

    def test_all_zero_distances_fall_back_to_uniform(self):
        row = calibrate_one(np.zeros(4), 2.0)
        assert row.degenerate
        assert not row.converged
        assert row.beta == 0.0
        np.testing.assert_allclose(row.probs, np.full(4, 0.25))
        assert row.perplexity == 4.0

    def test_partially_infinite_distances_are_usable(self):
        row = calibrate_one([1.0, np.inf, 2.0, np.inf], 1.5)
        assert row.probs[1] == 0.0 and row.probs[3] == 0.0
        assert abs(row.perplexity - 1.5) <= 1e-5

    def test_running_out_of_evaluations_is_flagged(self):
        # Two evaluations cannot reach the tolerance; the row keeps the
        # better of its two betas and reports the miss.
        row = calibrate_one([1.0, 4.0, 9.0], 2.0, tol=1e-9, max_iter=2)
        assert not row.converged and not row.degenerate
        assert row.beta in (0.5, 1.0)
        assert abs(row.perplexity - 2.0) > 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            calibrate(np.array([[1.0]]), 0.5)
        with pytest.raises(ValueError, match=r"\(n, k\) matrix"):
            calibrate(np.array([1.0, 2.0, 3.0]), 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            calibrate(np.array([[1.0, -1.0]]), 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            calibrate(np.array([[1.0, np.nan]]), 1.5)
        with pytest.raises(ValueError, match="target perplexity"):
            calibrate(np.array([[1.0, 2.0]]), 2.0)
        with pytest.raises(ValueError, match="target perplexity"):
            calibrate(np.array([[1.0, 2.0]]), 0.0)
        with pytest.raises(ValueError, match="row 1: all neighbor distances are infinite"):
            calibrate(np.array([[1.0, 2.0], [np.inf, np.inf]]), 1.5)


class TestSymmetrize:
    def test_mutual_pair(self):
        model = symmetrize(np.array([[1], [0]]), np.array([[1.0], [1.0]]), n=2)
        assert model.nnz == 1
        assert (model.row[0], model.col[0]) == (0, 1)
        assert model.val[0] == 0.5
        assert model.total() == 1.0

    def test_one_sided_listing(self):
        # 0 lists 1 with conditional mass 0.2; 1 looks elsewhere. The
        # unordered pair still gets 0.2 / (2 * 10).
        ids = np.array([[1], [2]] + [[0]] * 8)
        probs = np.array([[0.2], [1.0]] + [[1.0]] * 8)
        model = symmetrize(ids, probs, n=10)
        pair = dict(zip(zip(model.row, model.col), model.val))
        assert pair[(0, 1)] == 0.2 / 20.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 5))
        model, _ = build_affinity_model(x, n_neighbors=10, perplexity=5, tol=1e-10)
        ref = dense_affinities(x, perplexity=5, n_neighbors=10)
        np.testing.assert_allclose(model.dense(), ref, atol=1e-8)
        assert abs(model.total() - 1.0) < 1e-9

    def test_self_listing_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            symmetrize(np.array([[0], [0]]), np.array([[1.0], [1.0]]), n=2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one calibrated row per point"):
            symmetrize(np.array([[1], [0]]), np.array([[1.0]]), n=2)
        with pytest.raises(ValueError, match="one calibrated row per point"):
            symmetrize(np.array([[1], [0]]), np.array([[1.0], [1.0]]), n=3)


class TestAffinityModel:
    def test_canonical_storage_enforced(self):
        with pytest.raises(ValueError, match="row < col"):
            AffinityModel(row=[1], col=[0], val=[0.5], n=2)
        with pytest.raises(ValueError, match="nonnegative"):
            AffinityModel(row=[0], col=[1], val=[-0.1], n=2)
        with pytest.raises(ValueError, match="out of range"):
            AffinityModel(row=[0], col=[5], val=[0.1], n=2)

    def test_dense_is_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 3))
        model, _ = build_affinity_model(x, n_neighbors=6, perplexity=3)
        d = model.dense()
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)


class TestBuildAffinityModel:
    def test_rows_carry_real_neighbor_ids(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 4))
        _, rows = build_affinity_model(x, n_neighbors=5, perplexity=3)
        for i, row in enumerate(rows):
            assert i not in row.neighbors
            assert len(set(row.neighbors.tolist())) == 5

    def test_every_row_hits_target_perplexity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 6))
        _, rows = build_affinity_model(x, n_neighbors=20, perplexity=8, tol=1e-5)
        for row in rows:
            assert abs(row.perplexity - 8.0) <= 1e-5
            assert row.converged
            np.testing.assert_allclose(row.sigma, 1.0 / np.sqrt(2.0 * row.beta))

    def test_row_support_is_neighbor_union(self):
        # Row i touches exactly the points it lists plus the points that
        # list it; the total pair count is bounded by the directed count.
        rng = np.random.default_rng(6)
        n, k = 60, 9
        x = rng.normal(size=(n, 5))
        model, rows = build_affinity_model(x, n_neighbors=k, perplexity=4)
        support = [set() for _ in range(n)]
        for i, row in enumerate(rows):
            for j in row.neighbors:
                support[i].add(int(j))
                support[int(j)].add(i)
        per_row = np.bincount(np.concatenate([model.row, model.col]), minlength=n)
        assert [len(s) for s in support] == per_row.tolist()
        assert model.nnz <= n * k
        assert per_row.mean() <= 2 * k

    def test_duplicate_points_survive(self):
        # Duplicates force zero-distance rows; they calibrate degenerate
        # but the joint model still normalizes.
        x = np.array([[0.0, 0.0]] * 4 + [[5.0, 5.0]] * 4)
        model, rows = build_affinity_model(x, n_neighbors=3, perplexity=2)
        assert any(r.degenerate for r in rows)
        assert all(r.sigma == np.inf for r in rows if r.degenerate)
        assert abs(model.total() - 1.0) < 1e-9

    def test_max_iter_two_leaves_rows_unconverged(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        model, rows = build_affinity_model(x, n_neighbors=9, perplexity=4, max_iter=2)
        assert not any(row.converged for row in rows)
        assert all(abs(row.perplexity - 4.0) > 1e-5 for row in rows)
        assert abs(model.total() - 1.0) < 1e-9
