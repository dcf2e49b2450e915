"""Exact nearest-neighbor search, gtsne.affinity.exact_knn.

The file keeps the name of the vantage-point tree search that exact_knn
replaced, so that the tests carried over from it keep their ids.
"""

import tracemalloc

import numpy as np
import pytest

from gtsne import affinity, exact_knn
from oracles import brute_knn


def _hits(ids, sq, i):
    return list(zip(ids[i].tolist(), sq[i].tolist()))


def test_collinear_points_match_brute_force():
    pts = np.arange(10.0)[:, None]
    for k in (1, 3, 9):
        ids, sq = exact_knn(pts, k)
        for i in range(10):
            assert _hits(ids, sq, i) == brute_knn(pts, i, k)


def test_equilateral_triangle_ties_resolve_by_index():
    # Basis-vector vertices form an exactly representable equilateral
    # triangle: every pairwise squared distance is exactly 2.
    pts = np.eye(3)
    ids, sq = exact_knn(pts, 2)
    for q, others in ((0, [1, 2]), (1, [0, 2]), (2, [0, 1])):
        assert _hits(ids, sq, q) == [(others[0], 2.0), (others[1], 2.0)]


def test_line_hand_case():
    pts = np.array([[0.0], [1.0], [3.0], [7.0]])
    ids, sq = exact_knn(pts, 2)
    assert _hits(ids, sq, 1) == [(0, 1.0), (2, 4.0)]


def _assert_same_hits(got, expected):
    # Indices must match exactly; squared distances only up to summation
    # order (the oracle reduces each pair with a sum, the search with
    # einsum).
    assert [h[0] for h in got] == [h[0] for h in expected]
    np.testing.assert_allclose(
        [h[1] for h in got], [h[1] for h in expected], rtol=1e-12
    )


def test_random_queries_match_brute_force():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(500, 10))
    for k in (1, 10, 90):
        ids, sq = exact_knn(pts, k)
        for i in range(0, 500, 37):
            _assert_same_hits(_hits(ids, sq, i), brute_knn(pts, i, k))


def test_duplicates_match_brute_force():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(10, 2))
    pts = base[rng.integers(0, 10, size=60)]
    ids, sq = exact_knn(pts, 5)
    for i in range(60):
        assert _hits(ids, sq, i) == brute_knn(pts, i, 5)


def test_knn_all_matches_single_queries(monkeypatch):
    # The default blocks cover every query row at once; one-float blocks
    # search one row, and re-rank one candidate, at a time.
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(40, 2))
    ids, sq = exact_knn(pts, 4)
    monkeypatch.setattr(affinity, "KNN_BLOCK_FLOATS", 1)
    one_ids, one_sq = exact_knn(pts, 4)
    assert np.array_equal(ids, one_ids)
    np.testing.assert_allclose(sq, one_sq)


def _trap_grid():
    # A 10 x 10 grid with spacing 1e-3; the traps put copies at +-1e6.
    g = np.arange(10) * 1e-3
    return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)


def test_cancellation_trap_keeps_exact_order():
    # Two 10 x 10 grids with spacing 1e-3, one at +1e6 and one at -1e6 on
    # both axes, so centering leaves every norm near 1.4e6. There the
    # expanded form's rounding (about 1e-4 in squared distance) dwarfs the
    # 1e-6 squared distance between grid neighbors.
    grid = _trap_grid()
    pts = np.concatenate([grid + 1e6, grid - 1e6])
    k = 8
    want = [brute_knn(pts, i, k) for i in range(len(pts))]
    centered = pts - pts.mean(axis=0)
    norms = (centered**2).sum(axis=1)
    expanded = norms[:, None] + norms[None, :] - 2.0 * centered @ centered.T
    np.fill_diagonal(expanded, np.inf)
    naive = np.argsort(expanded, axis=1, kind="stable")[:, :k]
    assert any(naive[i].tolist() != [h[0] for h in want[i]] for i in range(len(pts)))
    ids, sq = exact_knn(pts, k)
    for i in range(len(pts)):
        assert _hits(ids, sq, i) == want[i]


def test_far_outlier_matches_brute_force():
    # One point 1e8 away: its pairs carry a huge rounding bound, which
    # must not spoil the order among the rest or the outlier's own row.
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(300, 5))
    pts[7] += 1e8
    ids, sq = exact_knn(pts, 10)
    for i in range(len(pts)):
        _assert_same_hits(_hits(ids, sq, i), brute_knn(pts, i, 10))


def _rerank_pairs(monkeypatch, *args, **kwargs):
    # Run exact_knn and count the pairs it re-ranks by direct differences,
    # that is the candidates its rounding bound admits.
    pairs = []
    rerank = affinity._sq_dists

    def spy(a, a_rows, b, b_rows):
        pairs.append(len(a_rows))
        return rerank(a, a_rows, b, b_rows)

    monkeypatch.setattr(affinity, "_sq_dists", spy)
    exact_knn(*args, **kwargs)
    return sum(pairs)


def test_far_outlier_admits_about_k_candidates_per_row(monkeypatch):
    # The outlier's norm enters only the bounds of its own pairs. A bound
    # that took the largest norm over all searched rows would admit nearly
    # all 300^2 pairs here.
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(300, 5))
    pts[7] += 1e8
    n, k = len(pts), 10
    assert n * k <= _rerank_pairs(monkeypatch, pts, k) <= 1.02 * n * k


@pytest.mark.parametrize("k, with_reference", [(8, False), (1, True), (6, True)])
def test_cancellation_trap_admits_only_the_own_grid(monkeypatch, k, with_reference):
    # Within one grid the expanded form cannot tell the 100 points apart,
    # so all of them may pass the test, but no point of the other grid,
    # 2.8e6 away, may.
    grid = _trap_grid()
    pts = np.concatenate([grid + 1e6, grid - 1e6])
    reference, own_grid = None, 99  # a point never lists itself
    if with_reference:
        reference = np.concatenate([grid[::-1] + (1e6 + 3e-4), grid[::-1] - (1e6 + 3e-4)])
        own_grid = 100
    pairs = _rerank_pairs(monkeypatch, pts, k, reference=reference)
    assert len(pts) * k <= pairs <= len(pts) * own_grid


@pytest.mark.parametrize("k, blocks", [(90, 3), (1, 2)])
def test_search_memory_stays_within_a_few_blocks(k, blocks):
    # tracemalloc sees numpy's buffers and is deterministic. Besides its
    # outputs, a search holds the augmented rows of the points and of the
    # searched rows (d + 3 entries each), one (rows, m) block that both
    # products fill in turn, at most a block of gathered rows in the
    # re-rank, and arrays of a few entries per query row. k = 1 against 90
    # centroids is a k-means assignment.
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(1500, 10))
    reference = pts[:90].copy() if k == 1 else None
    tracemalloc.start()
    try:
        ids, sq = exact_knn(pts, k, reference=reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ids.nbytes + sq.nbytes + blocks * affinity.KNN_BLOCK_FLOATS * 8


def _brute_ranking(pts, k, reference):
    # Every searched row by direct differences, ranked by (squared
    # distance, index): a stable sort keeps equal distances in index order.
    searched = pts if reference is None else reference
    d2 = ((pts[:, None, :] - searched[None, :, :]) ** 2).sum(axis=2)
    if reference is None:
        np.fill_diagonal(d2, np.inf)
    ids = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return ids, np.take_along_axis(d2, ids, axis=1)


@pytest.mark.parametrize("with_reference", [False, True])
def test_seeded_sweep_matches_brute_force_ranking(with_reference):
    # Scales 2^-500 and 2^500 (about 1e-150 and 1e150) reach the far ends
    # of the float range that the squared norms allow; offsets up to 1e9
    # make the expanded form cancel; small integers give exact ties, which
    # go to the lower index (power-of-two scales keep their distances
    # exact in any summation order); one point 1e8 away, among normal
    # draws so that its distances are far from tied, carries a bound of
    # its own. Each case searches at k = 1, 2, a random k and the
    # largest k.
    rng = np.random.default_rng(20 + with_reference)
    for case in range(48):
        n, dim = int(rng.integers(2, 90)), int(rng.integers(1, 9))
        if case % 3 == 0:
            pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim))
        scale = 2.0 ** float(rng.choice([-500, 0, 500]))
        pts = pts * scale + float(rng.choice([0.0, 1e3, 1e9])) * (scale <= 1.0)
        if case % 3 == 2 and scale <= 1.0:
            pts[rng.integers(n)] += 1e8
        reference = None
        if with_reference:
            reference = pts[rng.integers(0, n, size=int(rng.integers(1, 40)))]
            if case % 2:
                reference = reference + rng.normal(size=reference.shape) * scale
        limit = n - 1 if reference is None else len(reference)
        for k in sorted({1, min(2, limit), int(rng.integers(1, limit + 1)), limit}):
            ids, sq = exact_knn(pts, k, reference=reference)
            want_ids, want_sq = _brute_ranking(pts, k, reference)
            assert np.array_equal(ids, want_ids), (case, k)
            np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [1, 5])
def test_points_whose_squared_distances_overflow_are_refused(k):
    # Normal points scaled by 1e155 are finite, but their squared norms
    # overflow; the search names the limit rather than failing inside.
    pts = np.random.default_rng(k).normal(size=(50, 3))
    with pytest.raises(ValueError, match=r"^points: .*MAX_SQ_NORM = 2\.25e\+307"):
        exact_knn(pts * 1e155, k)
    with pytest.raises(ValueError, match=r"^reference: .*MAX_SQ_NORM"):
        exact_knn(pts, k, reference=pts[:10] * 1e155)
    # Up to the limit, the search still ranks exactly.
    centered = pts - pts.mean(axis=0)
    wide = pts * np.sqrt(0.9 * affinity.MAX_SQ_NORM / (centered**2).sum(axis=1).max())
    ids, sq = exact_knn(wide, k)
    want_ids, want_sq = _brute_ranking(wide, k, None)
    assert np.array_equal(ids, want_ids)
    np.testing.assert_allclose(sq, want_sq, rtol=1e-12, atol=0)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="nonempty"):
        exact_knn(np.zeros((0, 2)), 1)
    with pytest.raises(ValueError, match="nonempty"):
        exact_knn(np.arange(4.0), 1)
    with pytest.raises(ValueError, match="non-finite"):
        exact_knn(np.array([[np.nan, 0.0], [1.0, 1.0]]), 1)


def test_query_rejects_bad_arguments():
    pts = np.arange(6.0)[:, None]
    with pytest.raises(ValueError, match="k="):
        exact_knn(pts, 0)
    with pytest.raises(ValueError, match="k="):
        exact_knn(pts, 6)
    with pytest.raises(ValueError, match="k="):
        exact_knn(pts[:1], 1)
