"""Structure evaluation metrics."""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from gtsne import EmbedConfig, ThreeLinesSpec, gen_swiss_roll, gen_three_lines, run
from gtsne.affinity import exact_knn
from gtsne.metrics import centroid_distance_correlation, knn_preservation, worst_gap_ratio


class TestKnnPreservation:
    def test_identical_spaces_score_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        assert knn_preservation(x, x.copy(), k=5) == 1.0

    def test_three_point_hand_case(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        y = np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 0.0]])  # same order
        assert knn_preservation(x, y, k=1) == 1.0
        y_swapped = np.array([[0.0, 0.0], [10.0, 0.0], [1.0, 0.0]])
        # Every point's nearest neighbor changes identity.
        assert knn_preservation(x, y_swapped, k=1) == 0.0
        y_partial = np.array([[0.0, 0.0], [4.0, 0.0], [5.0, 0.0]])
        # Point 1 now sits nearer to 2 than to 0; the other two keep
        # their nearest neighbors.
        assert knn_preservation(x, y_partial, k=1) == pytest.approx(2.0 / 3.0)

    def test_unrelated_spaces_score_near_chance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 5))
        y = rng.normal(size=(500, 2))
        score = knn_preservation(x, y, k=10)
        assert score < 0.05  # chance level is k / (n - 1) = 0.02

    def test_duplicate_points_are_handled(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        score = knn_preservation(x, x.copy(), k=2)
        assert score == 1.0

    def test_validation(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError, match="k="):
            knn_preservation(x, x, k=0)
        with pytest.raises(ValueError, match="k="):
            knn_preservation(x, x, k=5)
        with pytest.raises(ValueError, match="rows"):
            knn_preservation(x, x[:-1], k=1)


# The bench's two workloads at seed 1: (input, map after the full run).
@pytest.fixture(scope="module")
def seed1_maps():
    roll = gen_swiss_roll(n=1000, seed=1)
    lines = gen_three_lines(ThreeLinesSpec(n_s=500, dims=10, seed=1))
    lines_cfg = EmbedConfig(
        out_dims=3, early_exaggeration=12.0, early_exaggeration_iter=125, n_iter=200, seed=1
    )
    return [
        (roll.x, run(roll, EmbedConfig(n_iter=300, seed=1), verbose=False)[0].y),
        (lines.x, run(lines, lines_cfg, verbose=False)[0].y),
    ]


class TestKnnPreservationOnTwoThreads:
    """knn_preservation searches x on the package's worker thread while
    the caller searches y."""

    @pytest.mark.parametrize("k", [1, 10])
    def test_equals_the_one_thread_composition(self, seed1_maps, k):
        for x, y in seed1_maps:
            n = len(x)
            owner = np.arange(n)[:, None] * n
            high = owner + exact_knn(x, k)[0]
            low = owner + exact_knn(y, k)[0]
            want = len(np.intersect1d(high, low, assume_unique=True)) / (n * k)
            assert knn_preservation(x, y, k).hex() == want.hex()

    def test_an_input_side_refusal_reaches_the_caller(self):
        # Finite points whose squared norms overflow: exact_knn's own
        # message, raised from the worker's search of x.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3)) * 1e155
        y = rng.normal(size=(50, 2))
        with pytest.raises(ValueError) as direct:
            exact_knn(x, 5)
        with pytest.raises(ValueError, match=r"^points: .*MAX_SQ_NORM") as scored:
            knn_preservation(x, y, k=5)
        assert str(scored.value) == str(direct.value)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_can_score(self):
        # The parent's worker exists before the fork and does not survive
        # it; the child makes its own and still scores.
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(300, 5)), rng.normal(size=(300, 2))
        want = knn_preservation(x, y, k=10)
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 and later warn about forking a threaded process.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.write(write_end, knn_preservation(x, y, k=10).hex().encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the forked child's score did not finish within 60 s")
        with os.fdopen(read_end, "rb") as fh:
            got = fh.read().decode()
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want.hex()


class TestWorstGapRatio:
    def test_even_spacing_scores_one(self):
        y = np.column_stack([np.arange(30.0), np.zeros(30)])
        assert worst_gap_ratio(y, [(0, 30)]) == 1.0

    def test_single_tear(self):
        y = np.column_stack([np.arange(11.0), np.zeros(11)])
        y[6:, 0] += 9.0  # one consecutive gap becomes 10, the rest stay 1
        assert worst_gap_ratio(y, [(0, 11)]) == 10.0

    def test_worst_segment_counts(self):
        a = np.column_stack([np.arange(6.0), np.zeros(6)])
        b = np.column_stack([np.arange(5.0), np.full(5, 40.0)])
        b[2:, 0] += 30.0
        y = np.vstack([a, b])
        # The first segment is even; the second's gaps are 1, 31, 1, 1.
        assert worst_gap_ratio(y, [(0, 6), (6, 11)]) == 31.0
        # Segments as an integer array, which once failed on its truth value.
        assert worst_gap_ratio(y, np.array([[0, 6], [6, 11]])) == 31.0

    def test_ratio_is_relative_to_the_segment(self):
        # A coarse clean segment scores 1 even though its absolute gaps
        # dwarf the fine segment's tear.
        fine = np.column_stack([np.arange(11.0) * 0.01, np.zeros(11)])
        fine[6:, 0] += 0.09
        coarse = np.column_stack([np.arange(11.0) * 100.0, np.full(11, 500.0)])
        y = np.vstack([fine, coarse])
        assert worst_gap_ratio(y, [(0, 11), (11, 22)]) == pytest.approx(10.0)
        assert worst_gap_ratio(y, [(11, 22)]) == 1.0

    def test_adjacent_segments_allowed(self):
        y = np.column_stack([np.arange(10.0), np.zeros(10)])
        assert worst_gap_ratio(y, [(0, 5), (5, 10)]) == 1.0

    def test_zero_median_gap(self):
        # Most points of the line coincide: the median gap is 0, and a
        # positive gap makes the tear unbounded; a line of one repeated
        # point has no tear at all. Neither divides by zero.
        torn = np.zeros((10, 2))
        torn[7:, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert worst_gap_ratio(torn, [(0, 10)]) == np.inf
            assert worst_gap_ratio(np.zeros((10, 2)), [(0, 10)]) == 1.0
            assert worst_gap_ratio(torn, [(0, 5), (5, 10)]) == np.inf

    def test_validation(self):
        y = np.zeros((10, 2))
        with pytest.raises(ValueError, match="segment"):
            worst_gap_ratio(y, [])
        with pytest.raises(
            ValueError, match=r"segments\[0\]\[1\]=11: must be an integer in \[2, 10\]"
        ):
            worst_gap_ratio(y, [(0, 11)])
        with pytest.raises(
            ValueError, match=r"segments\[0\]\[1\]=4: must be an integer in \[5, 10\]"
        ):
            worst_gap_ratio(y, [(3, 4)])  # fewer than 2 points
        with pytest.raises(ValueError, match="overlap"):
            worst_gap_ratio(y, [(0, 5), (4, 9)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_rejected(self, bad):
        # A NaN gap would make the max and median NaN, a score of no tear.
        y = np.column_stack([np.arange(30.0), np.zeros(30)])
        y[12, 0] = bad
        with pytest.raises(ValueError, match="non-finite entries in y"):
            worst_gap_ratio(y, [(0, 30)])


class TestCentroidDistanceCorrelation:
    def test_similarity_transform_scores_one(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(6, 4))
        angle = 0.7
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        c = 2.5 * (t[:, :2] @ rot.T) + np.array([3.0, -1.0])
        # Only the first two input columns survive, so build c's reference
        # distances from those same columns to keep the order identical.
        assert centroid_distance_correlation(t[:, :2], c) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_reversed_distance_order_scores_minus_one(self):
        t = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])  # sides 3, 4, 5
        c = np.array([[0.0, 0.0], [5.0, 0.0], [3.2, 2.4]])  # sides 5, 4, 3
        assert centroid_distance_correlation(t, c) == pytest.approx(-1.0, abs=1e-12)

    def test_unrelated_configurations_center_on_zero(self):
        rng = np.random.default_rng(3)
        vals = [
            centroid_distance_correlation(
                rng.normal(size=(10, 3)), rng.normal(size=(10, 2))
            )
            for _ in range(200)
        ]
        assert abs(float(np.mean(vals))) < 0.1

    def test_matches_reference_implementation(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = rng.normal(size=(8, 3))
            c = rng.normal(size=(8, 2))
            iu = np.triu_indices(8, k=1)
            dt = np.linalg.norm(t[iu[0]] - t[iu[1]], axis=1)
            dc = np.linalg.norm(c[iu[0]] - c[iu[1]], axis=1)
            want = stats.spearmanr(dt, dc).statistic
            got = centroid_distance_correlation(t, c)
            assert got == pytest.approx(want, abs=1e-12)

    def test_too_few_centroids_warn_nan(self):
        with pytest.warns(UserWarning, match="fewer than 3"):
            out = centroid_distance_correlation(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.isnan(out)

    def test_constant_distances_warn_nan(self):
        t = np.eye(3)  # equilateral: every pair distance equal
        c = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        with pytest.warns(UserWarning, match="constant"):
            out = centroid_distance_correlation(t, c)
        assert np.isnan(out)

    def test_validation(self):
        with pytest.raises(ValueError):
            centroid_distance_correlation(np.zeros(4), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            centroid_distance_correlation(np.zeros((4, 2)), np.zeros((5, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["t", "c"])
    def test_non_finite_centroids_rejected(self, side, bad):
        rng = np.random.default_rng(5)
        args = {"t": rng.normal(size=(6, 5)), "c": rng.normal(size=(6, 2))}
        args[side][2, 1] = bad
        with pytest.raises(ValueError, match=f"non-finite entries in {side}"):
            centroid_distance_correlation(**args)
