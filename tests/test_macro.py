"""k-means centroids, responsibilities, and centroid affinities."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gtsne import (
    MacroAffinity,
    ThreeLinesSpec,
    core,
    gen_swiss_roll,
    gen_three_lines,
    kmeans_fit,
    macro,
    macro_affinity,
    responsibility_matrix,
)
from gtsne.macro import pairwise_sq_dists
from oracles import (
    dense_centroid_affinity,
    dense_responsibilities,
    lloyd_best_of,
    lloyd_by_cluster,
)


class TestPairwiseSqDists:
    def test_matches_looped_reference(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(5, 3))
        got = pairwise_sq_dists(a, b)
        for i in range(7):
            for j in range(5):
                ref = ((a[i] - b[j]) ** 2).sum()
                assert abs(got[i, j] - ref) <= 1e-15 * ref

    def test_chunking_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(23, 4))
        whole = pairwise_sq_dists(a, a)
        # Three rows of 23 x 4 differences per block.
        monkeypatch.setattr(core, "BLOCK_FLOATS", 3 * 23 * 4)
        assert np.array_equal(pairwise_sq_dists(a, a), whole)

    @pytest.mark.parametrize("kernel", ["pairwise_sq_dists", "responsibility_matrix"])
    def test_memory_stays_within_the_output_and_a_few_blocks(self, kernel):
        # tracemalloc sees numpy's buffers and is deterministic. Besides the
        # 4.8 MB output, a call holds the difference array of one block of
        # z's rows (at most core.BLOCK_FLOATS entries), briefly the next
        # one too, and a few entries per row; blocks of 256 rows, each
        # (256, 300, 50) wide, peaked at 66 MB.
        rng = np.random.default_rng(0)
        z, t = rng.normal(size=(2000, 50)), rng.normal(size=(300, 50))
        call = {
            "pairwise_sq_dists": lambda: pairwise_sq_dists(z, t),
            "responsibility_matrix": lambda: responsibility_matrix(z, t, d=2),
        }[kernel]
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 3 * core.BLOCK_FLOATS * 8

    def test_one_block_is_alive_at_a_time(self):
        # A block's difference array goes before the next one is made: the
        # peak is the output plus about one block (1.9 blocks while the two
        # overlapped).
        rng = np.random.default_rng(0)
        z, t = rng.normal(size=(2000, 50)), rng.normal(size=(300, 50))
        tracemalloc.start()
        try:
            out = pairwise_sq_dists(z, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 1.5 * core.BLOCK_FLOATS * 8

    def test_identical_rows_give_exact_zero(self):
        a = np.array([[0.1, 0.2], [3.0, -4.0]])
        d2 = pairwise_sq_dists(a, a)
        assert d2[0, 0] == 0.0 and d2[1, 1] == 0.0


# Inputs on which Lloyd's iteration is compared with a slower route, bit
# for bit.
LLOYD_INPUTS = [
    (gen_swiss_roll(n=1000, seed=0).x, 90),
    (gen_three_lines(ThreeLinesSpec(n_s=500, dims=10, seed=0)).x, 90),
    (np.array([[0.0, 0.0]] * 6 + [[10.0, 0.0]] * 6 + [[0.0, 10.0]] * 2), 4),
    (np.random.default_rng(14).normal(size=(1000, 5)) + 1e4, 90),
    (np.indices((8, 8, 8), dtype=np.float64).reshape(3, -1).T, 90),
]
LLOYD_IDS = ["swiss-roll", "three-lines", "empty-clusters", "offset-1e4", "tie-lattice"]


class TestKmeans:
    def test_one_centroid_per_point(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 3))
        km = kmeans_fit(z, k=8, seed=0)
        assert km.inertia == 0.0
        assert sorted(km.assignment.tolist()) == list(range(8))

    def test_two_pair_clusters_find_midpoints(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]])
        km = kmeans_fit(z, k=2, seed=0)
        got = sorted(km.t[:, 0].tolist())
        assert got == [0.5, 100.5]

    def test_close_to_multi_restart_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(200, 3))
        km = kmeans_fit(z, k=5, seed=0)
        best = lloyd_best_of(z, k=5, n_restarts=50, seed=1)
        assert km.inertia <= 1.05 * best

    def test_inertia_never_increases(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            z = rng.normal(size=(120, 4)) * rng.uniform(0.5, 2.0, size=4)
            km = kmeans_fit(z, k=7, seed=seed)
            assert np.all(np.diff(km.inertia_trace) <= 1e-9)
            assert km.inertia == km.inertia_trace[-1]

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(90, 3))
        km = kmeans_fit(z, k=6, seed=2)
        for j in range(6):
            members = z[km.assignment == j]
            assert len(members) > 0
            np.testing.assert_allclose(km.t[j], members.mean(axis=0), atol=1e-8)

    def test_duplicate_heavy_data_repairs_empty_clusters(self):
        # Only three distinct positions but four clusters: the seeding's
        # fourth pick lands on a chosen position, and an assignment step,
        # which sends equal points to one cluster, leaves a cluster empty.
        # Four nonempty clusters therefore show that the repair ran.
        z = np.array([[0.0, 0.0]] * 6 + [[10.0, 0.0]] * 6 + [[0.0, 10.0]] * 2)
        km = kmeans_fit(z, k=4, seed=0)
        counts = np.bincount(km.assignment, minlength=4)
        assert np.all(counts > 0)
        assert np.all(np.diff(km.inertia_trace) <= 1e-9)
        assert np.all(np.isfinite(km.t))

    @pytest.mark.parametrize("seed", range(5))
    def test_repair_takes_no_cluster_s_only_member(self, seed):
        # Two distinct points, three clusters: the empty cluster's donor
        # must come from the pair at the origin, not the lone point at
        # (1, 0), whose cluster would otherwise average no members.
        km = kmeans_fit([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], k=3, seed=seed)
        assert sorted(km.assignment.tolist()) == [0, 1, 2]
        assert sorted(km.t.tolist()) == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        assert km.inertia == 0.0

    @pytest.mark.parametrize("z, k", LLOYD_INPUTS, ids=LLOYD_IDS)
    def test_centroids_match_the_per_cluster_loop(self, z, k):
        km = kmeans_fit(z, k=k, seed=0)
        start = macro._plus_plus_init(z, k, np.random.default_rng(0))
        t, assignment, trace = lloyd_by_cluster(z, start)
        assert np.array_equal(km.t, t)
        assert np.array_equal(km.assignment, assignment)
        assert np.array_equal(km.inertia_trace, trace)

    def test_assignment_memory_stays_bounded(self):
        # Points and centroids are 8 MB and 36 kB. Each assignment step
        # holds one augmented, centered copy of the points and a (rows, k)
        # block of about 1 MB; the inertia's differences take one more
        # copy, after the step's are gone. Whole (256, k, d) difference
        # chunks took the peak to over 45 MB.
        rng = np.random.default_rng(13)
        z = rng.normal(size=(20000, 50))
        tracemalloc.start()
        try:
            kmeans_fit(z, k=90, seed=0, max_iter=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(30, 2))
        km = kmeans_fit(z, k=1, seed=0)
        np.testing.assert_allclose(km.t[0], z.mean(axis=0), atol=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(50, 3))
        a = kmeans_fit(z, k=4, seed=9)
        b = kmeans_fit(z, k=4, seed=9)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.assignment, b.assignment)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="k="):
            kmeans_fit(np.ones((5, 2)), k=6)
        with pytest.raises(ValueError, match="k="):
            kmeans_fit(np.ones((5, 2)), k=0)
        with pytest.raises(ValueError, match="non-finite|finite"):
            kmeans_fit(np.array([[np.nan, 0.0]]), k=1)
        # Finite, but the squared distances overflow: refused before the
        # seeding computes any of them.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="MAX_SQ_NORM"):
                kmeans_fit(np.random.default_rng(0).normal(size=(20, 3)) * 1e155, k=3)

    @pytest.mark.parametrize("max_iter", [0, -1, float("nan")])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match=f"max_iter={max_iter}"):
            kmeans_fit(np.ones((5, 2)), k=2, max_iter=max_iter)

    def test_one_round_returns_its_assignment(self):
        z = np.array([[0.0], [0.1], [5.0], [5.1]])
        km = kmeans_fit(z, k=2, seed=0, max_iter=1)
        assert len(km.inertia_trace) == 1
        assert len(set(km.assignment[:2])) == 1 and len(set(km.assignment[2:])) == 1
        assert km.assignment[0] != km.assignment[2]


class TestResponsibilities:
    def test_single_centroid_all_ones(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(10, 4))
        r = responsibility_matrix(z, z.mean(axis=0, keepdims=True), d=2)
        np.testing.assert_allclose(r, np.ones((1, 10)))

    def test_two_centroid_hand_case(self):
        # Point on the first centroid, second centroid at squared
        # distance 4, width ratio 2/4 (z and t zero-padded to 4 columns):
        # kernels (1, 0.5) -> column (2/3, 1/3).
        z = np.array([[0.0, 0.0, 0.0, 0.0]])
        t = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        r = responsibility_matrix(z, t, d=2)
        np.testing.assert_allclose(r[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(30, 10))
        t = rng.normal(size=(4, 10))
        got = responsibility_matrix(z, t, d=2)
        ref = dense_responsibilities(z, t, d=2, d_z=10)
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_columns_normalized_entries_positive(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(40, 6)) * 10
        t = rng.normal(size=(7, 6)) * 10
        r = responsibility_matrix(z, t, d=2)
        np.testing.assert_allclose(r.sum(axis=0), np.ones(40), atol=1e-12)
        assert np.all(r > 0) and np.all(r <= 1)

    def test_temporary_stays_bounded(self):
        # The result is 1.4 MB; a whole (k, n, d_z) difference array
        # would be 72 MB.
        rng = np.random.default_rng(12)
        z = rng.normal(size=(2000, 50))
        t = rng.normal(size=(90, 50))
        tracemalloc.start()
        try:
            responsibility_matrix(z, t, d=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_width_ratio_validated(self):
        with pytest.raises(ValueError, match=r"d=2: must be an integer in \(0, 2\)"):
            responsibility_matrix(np.ones((3, 2)), np.ones((2, 2)), d=2)

    @pytest.mark.parametrize("side", ["z", "t"])
    def test_non_finite_input_rejected(self, side):
        rng = np.random.default_rng(2)
        args = {"z": rng.normal(size=(6, 4)), "t": rng.normal(size=(3, 4))}
        args[side][1, 2] = np.nan
        with pytest.raises(ValueError, match=f"non-finite entries in {side}"):
            responsibility_matrix(args["z"], args["t"], d=2)


class TestMacroAffinity:
    def test_two_centroids_always_half(self):
        for gap in (0.1, 1.0, 50.0):
            t = np.array([[0.0, 0.0], [gap, 0.0]])
            p = macro_affinity(t)
            np.testing.assert_allclose(p, [[0.0, 0.5], [0.5, 0.0]])

    def test_equilateral_centroids_uniform(self):
        p = macro_affinity(np.eye(3))
        expected = np.full((3, 3), 1.0 / 6.0)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        t = rng.normal(size=(4, 5))
        got = macro_affinity(t)
        np.testing.assert_allclose(got, dense_centroid_affinity(t), atol=1e-12)
        assert abs(got.sum() - 1.0) < 1e-12
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0)

    def test_needs_two_centroids(self):
        with pytest.raises(ValueError, match="at least 2"):
            macro_affinity(np.ones((1, 3)))

    def test_container_shape_checked(self):
        with pytest.raises(ValueError, match="p_macro"):
            MacroAffinity(r=np.ones((3, 5)), p_macro=np.ones((2, 2)))

    def test_non_finite_centroids_rejected(self):
        t = np.random.default_rng(3).normal(size=(6, 4))
        t[4, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite entries in t"):
            macro_affinity(t)

    @pytest.mark.parametrize("field", ["r", "p_macro"])
    def test_container_rejects_non_finite_entries(self, field):
        # Caught here, not as a non-finite gradient once the descent starts.
        args = {"r": np.full((2, 5), 0.5), "p_macro": np.array([[0.0, 0.5], [0.5, 0.0]])}
        args[field][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"non-finite entries in {field}"):
            MacroAffinity(**args)
