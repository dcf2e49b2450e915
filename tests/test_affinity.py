"""Perplexity calibration and the symmetric joint affinity model."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gtsne import (
    ThreeLinesSpec,
    affinity,
    build_affinity_model,
    calibrate,
    core,
    exact_knn,
    gen_swiss_roll,
    gen_three_lines,
    symmetrize,
)
from gtsne.affinity import AffinityModel, Calibration, ConditionalRow
from oracles import (
    brute_knn,
    calibrate_row,
    dense_affinities,
    dense_model,
    row_perplexity,
    solve_beta,
)

# d2 = (1, 4, 9) at effective neighbor count 2, solved independently by
# bisection; the row follows from the fitted precision.
FROZEN_BETA_149 = 0.37446067565143626
FROZEN_ROW_149 = (0.727177260826915, 0.23646217201215897, 0.03636056716092603)


def record_row_stats(monkeypatch):
    """Route calibrate's row evaluations through a recorder; returns the
    list that collects the beta array of every call, in call order."""
    betas = []
    row_stats = affinity._row_stats

    def recording(shifted, beta, inf_as_zero):
        betas.append(beta.copy())
        return row_stats(shifted, beta, inf_as_zero)

    monkeypatch.setattr(affinity, "_row_stats", recording)
    return betas


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
        # The matrix search takes the same Newton and fallback steps as the
        # row-by-row loop, so every row lands on the same beta, bit for
        # bit, including rows with infinite distances, rows scaled over
        # four decades and an all-zero (degenerate) row.
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

    def test_running_out_of_evaluations_is_flagged(self, monkeypatch):
        # Two evaluations cannot reach the tolerance; the row keeps the
        # better of its two betas and reports the miss. The search starts
        # at 1 / (mean shifted distance) = 3 / 11.
        betas = record_row_stats(monkeypatch)
        row = calibrate_one([1.0, 4.0, 9.0], 2.0, tol=1e-9, max_iter=2)
        evaluated = [float(b[0]) for b in betas[:-1]]  # the last call refits the kept beta
        assert len(evaluated) == 2 and evaluated[0] == 1.0 / np.mean([0.0, 3.0, 8.0])
        assert not row.converged and not row.degenerate
        assert row.beta in evaluated
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
        with pytest.raises(
            ValueError, match=r"target_perplexity=2\.0: must be a number in \(0, 2\)"
        ):
            calibrate(np.array([[1.0, 2.0]]), 2.0)
        with pytest.raises(ValueError, match="target_perplexity=0.0"):
            calibrate(np.array([[1.0, 2.0]]), 0.0)
        with pytest.raises(ValueError, match="row 1: all neighbor distances are infinite"):
            calibrate(np.array([[1.0, 2.0], [np.inf, np.inf]]), 1.5)


class TestHardRows:
    """Rows at the edges of the search: extreme scales, unattainable
    targets and flat rows. None of them may produce a NaN or a warning."""

    @staticmethod
    def fit(d2, target, **kwargs):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            cal = calibrate(np.asarray(d2, dtype=np.float64), target, **kwargs)
        for field in (cal.probs, cal.beta, cal.perplexity):
            assert np.all(np.isfinite(field))
        np.testing.assert_allclose(cal.probs.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(cal.beta > 0.0)
        return cal

    def test_scales_from_1e_minus_6_to_1e6_in_one_matrix(self):
        # Scaling a row's distances by s scales its beta by 1 / s.
        base = np.random.default_rng(9).uniform(0.5, 20.0, size=30)
        scales = 10.0 ** np.arange(-6, 7)
        cal = self.fit(scales[:, None] * base, 7.0, tol=1e-9)
        assert cal.converged.all()
        assert np.all(np.abs(cal.perplexity - 7.0) <= 1e-9)
        np.testing.assert_allclose(cal.beta * scales, cal.beta[6], rtol=1e-6)

    @pytest.mark.parametrize(
        "d2, target",
        [
            # Three ties at the minimum: 2^H > 3 at every beta.
            ([2.0, 2.0, 2.0, 5.0, 7.0, 9.0, 11.0], 2.5),
            # One entry at the minimum: 2^H > 1 at every beta.
            ([1.0, 4.0, 9.0], 0.5),
            # Rows whose Newton steps jump close to the top of the float
            # range, from where unbounded 4 beta steps would overflow.
            ([2.0] * 8 + [94.0, np.inf], 3.9),
            ([1.0, 1.0, 1.0, 80.0, 150.0, np.inf, np.inf, np.inf], 2.2),
            # Three finite entries: 2^H < 3 at every beta.
            ([1.0, 2.0, np.inf, np.inf, 3.0, np.inf], 4.5),
            # Equal finite distances: 2^H is 4, 2 and 2 at every beta.
            ([3.0, 3.0, 3.0, 3.0], 2.0),
            ([5.0, 5.0, np.inf, np.inf], 1.5),
            ([0.0, 0.0, np.inf], 1.5),
        ],
    )
    @pytest.mark.parametrize("max_iter", [7, 200])
    def test_unattainable_target_spends_every_evaluation(self, monkeypatch, d2, target, max_iter):
        betas = record_row_stats(monkeypatch)
        cal = self.fit([d2], target, max_iter=max_iter)
        assert len(betas) == max_iter + 1  # and one call refits the kept beta
        assert not cal.converged[0] and not cal.degenerate[0]
        assert abs(cal.perplexity[0] - target) > 1e-5

    @pytest.mark.parametrize(
        "d2, target",
        [
            # Means near 1e-300 and 1e300, where BETA_REACH times the start
            # or the start over it leaves the float range.
            ([0.0, 1e-300, 2e-300, 5e-300, np.inf], 0.5),
            ([1e300, 2e300, 5e300, np.inf], 2.0),
            # A subnormal mean, whose inverse overflows.
            ([0.0, 1e-310, 3e-310, np.inf], 1.5),
            # Squared distances whose sum overflows.
            ([1e308, 1.5e308, 1.7e308, 1.7e308, np.inf], 2.5),
        ],
    )
    def test_extreme_scales_evaluate_finite_betas(self, monkeypatch, d2, target):
        betas = record_row_stats(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.fit([d2], target)
        for beta in betas:
            assert np.all(np.isfinite(beta)) and np.all(beta > 0.0)

    def test_equal_finite_distances_meet_their_own_count(self):
        cal = self.fit([[3.0, 3.0, np.inf, 3.0], [4.0, 4.0, 4.0, 4.0]], 3.0 - 1e-9)
        assert cal.converged[0] and not cal.converged[1]
        np.testing.assert_allclose(cal.probs[0], [1 / 3, 1 / 3, 0.0, 1 / 3], rtol=1e-12)
        np.testing.assert_allclose(cal.probs[1], 0.25, rtol=1e-12)


def test_evaluations_per_row_on_the_bench_inputs(monkeypatch):
    # Rows passed to _row_stats per row, the refit of the kept betas
    # included: grow-and-bisect took 24.4 and 32.2 on these inputs.
    inputs = [
        gen_swiss_roll(n=1000, seed=1).x,
        gen_three_lines(ThreeLinesSpec(n_s=500, dims=10, seed=1)).x,
    ]
    for x in inputs:
        _, sq = exact_knn(x, 90)
        betas = record_row_stats(monkeypatch)
        cal = calibrate(sq, 30.0)
        assert cal.converged.all()
        assert sum(len(b) for b in betas) / len(sq) <= 8.0


class TestSymmetrize:
    def test_mutual_pair(self):
        model = symmetrize(np.array([[1], [0]]), np.array([[1.0], [1.0]]), n=2)
        assert model.nnz == 1
        assert (model.row[0], model.col[0]) == (0, 1)
        assert model.val[0] == 0.5
        assert 2 * model.val.sum() == 1.0

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
        np.testing.assert_allclose(dense_model(model), ref, atol=1e-8)
        assert abs(2 * model.val.sum() - 1.0) < 1e-9

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
        d = dense_model(model)
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
            assert 0.0 < row.beta < np.inf

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
        assert all(r.beta == 0.0 for r in rows if r.degenerate)
        assert abs(2 * model.val.sum() - 1.0) < 1e-9

    def test_max_iter_two_leaves_rows_unconverged(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        model, rows = build_affinity_model(x, n_neighbors=9, perplexity=4, max_iter=2)
        assert not any(row.converged for row in rows)
        assert all(abs(row.perplexity - 4.0) > 1e-5 for row in rows)
        assert abs(2 * model.val.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("max_iter", [200, 2])
    def test_rows_are_the_search_and_the_calibration(self, max_iter):
        # Row i holds exact_knn's row i, then calibrate's entry i of every
        # Calibration field, bit for bit, with Python scalars. Twelve copies
        # of one point give degenerate rows; max_iter=2 leaves the other
        # rows unconverged.
        x = np.concatenate([gen_swiss_roll(n=200, seed=1).x, np.zeros((12, 3))])
        _, rows = build_affinity_model(x, n_neighbors=10, perplexity=5, max_iter=max_iter)
        ids, sq = exact_knn(x, 10)
        cal = calibrate(sq, 5, max_iter=max_iter)
        assert ConditionalRow._fields == ("neighbors", *Calibration._fields)
        assert len(rows) == len(x)
        for i, row in enumerate(rows):
            assert np.array_equal(row.neighbors, ids[i])
            assert np.array_equal(row.probs, cal.probs[i])
            for name in Calibration._fields[1:]:
                assert getattr(row, name) == getattr(cal, name)[i], (i, name)
            assert type(row.beta) is float and type(row.perplexity) is float
            assert type(row.converged) is bool and type(row.degenerate) is bool
        assert any(row.degenerate for row in rows)
        assert any(row.converged for row in rows) == (max_iter == 200)
        # The bench's tracer rebuilds the precisions this way.
        assert np.array_equal(np.array([r.beta for r in rows]), cal.beta)


class TestExactKnnReference:
    """exact_knn searching a separate reference set, row by row against
    the brute-force scan of that set."""

    @staticmethod
    def check(points, reference, k, rtol=0.0):
        ids, sq = exact_knn(points, k, reference=reference)
        assert ids.shape == sq.shape == (len(points), k)
        for i in range(len(points)):
            want = brute_knn(points, i, k, reference=reference)
            assert ids[i].tolist() == [j for j, _ in want]
            # The oracle sums each pair with sum, the search with einsum:
            # random inputs may differ in the last bits, exact ones not.
            if rtol:
                np.testing.assert_allclose(sq[i], [d2 for _, d2 in want], rtol=rtol)
            else:
                assert sq[i].tolist() == [d2 for _, d2 in want]

    @pytest.mark.parametrize("n, m", [(200, 20), (50, 300)], ids=["smaller", "larger"])
    @pytest.mark.parametrize("k", [1, 7])
    def test_random_points(self, n, m, k):
        rng = np.random.default_rng(n + m + k)
        points = rng.normal(size=(n, 5))
        self.check(points, 1.5 * rng.normal(size=(m, 5)), k, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 4])
    def test_lattice_ties_go_to_the_lower_index(self, k):
        # Cell centres of an integer lattice lie at squared distance 0.75,
        # exactly, from all 8 corners of their cell. The reference lists
        # the lattice backwards, so the lower index is not the lower
        # coordinate.
        g = np.arange(5.0)
        lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        centres = lattice[lattice.max(axis=1) < 4] + 0.5
        ids, sq = exact_knn(centres, k, reference=lattice[::-1])
        assert np.all(sq == 0.75)
        self.check(centres, lattice[::-1], k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_duplicate_reference_rows(self, k):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(6, 2))
        reference = base[rng.integers(0, 6, size=30)]
        points = np.concatenate([base, rng.normal(size=(20, 2))])
        self.check(points, reference, k)

    @pytest.mark.parametrize("k", [1, 6])
    def test_offset_by_1e6_keeps_exact_order(self, k):
        # Points on a 1e-3 grid at +1e6 and at -1e6, so centering by their
        # mean leaves norms near 1.4e6, where the expanded form's rounding
        # (about 1e-4 in squared distance) dwarfs the grid's 1e-6. The
        # reference is the grid listed backwards and shifted by 3e-4.
        g = np.arange(8) * 1e-3
        grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        points = np.concatenate([grid + 1e6, grid - 1e6])
        reference = np.concatenate([grid[::-1] + (1e6 + 3e-4), grid[::-1] - (1e6 + 3e-4)])
        mean = points.mean(axis=0)
        a, b = points - mean, reference - mean
        expanded = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1) - 2.0 * a @ b.T
        naive = np.argsort(expanded, axis=1, kind="stable")[:, :k]
        want = [brute_knn(points, i, k, reference=reference) for i in range(len(points))]
        assert any(naive[i].tolist() != [j for j, _ in want[i]] for i in range(len(points)))
        self.check(points, reference, k)

    def test_nothing_is_excluded_as_self(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(30, 3))
        ids, sq = exact_knn(points, 1, reference=points)
        assert ids[:, 0].tolist() == list(range(30))
        assert np.all(sq == 0.0)
        # k may reach the reference size: every row is then fully ranked.
        self.check(points, points[:9], 9, rtol=1e-12)

    def test_one_query_blocks_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(10)
        points, reference = rng.normal(size=(40, 3)), rng.normal(size=(12, 3))
        ids, sq = exact_knn(points, 3, reference=reference)
        monkeypatch.setattr(core, "BLOCK_FLOATS", 1)
        one_ids, one_sq = exact_knn(points, 3, reference=reference)
        assert np.array_equal(ids, one_ids)
        assert np.array_equal(sq, one_sq)

    def test_rejects_bad_reference(self):
        points = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValueError, match=r"k=4: must be an integer in \[1, 3\]"):
            exact_knn(points, 4, reference=points[:3])
        with pytest.raises(ValueError, match="k=0"):
            exact_knn(points, 0, reference=points[:3])
        with pytest.raises(ValueError, match="width 3"):
            exact_knn(points, 1, reference=np.ones((3, 3)))
        with pytest.raises(ValueError, match="non-finite entries in reference"):
            exact_knn(points, 1, reference=np.array([[0.0, 1.0], [np.inf, 0.0]]))
        with pytest.raises(ValueError, match="non-finite entries in reference"):
            exact_knn(points, 1, reference=np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="reference must be a nonempty"):
            exact_knn(points, 1, reference=np.zeros((0, 2)))
