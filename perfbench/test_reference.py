"""The benchmark's reference computations against the repository's dense
test oracles. Run with: python -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import reference as ref  # noqa: E402
from oracles import brute_knn, dense_affinities, dense_objective, row_perplexity  # noqa: E402


def dense(row, col, val, n):
    p = np.zeros((n, n))
    p[row, col] = val
    p[col, row] = val
    return p


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affinities_match_dense_oracle(seed):
    x = np.random.default_rng(seed).normal(size=(40, 4))
    row, col, val = ref.affinities(x, n_neighbors=12, perplexity=5.0)
    assert np.all(row < col)
    assert abs(2.0 * val.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(
        dense(row, col, val, 40), dense_affinities(x, perplexity=5.0, n_neighbors=12),
        rtol=1e-9, atol=1e-15,
    )


def test_knn_keeps_index_order_on_ties():
    # Integer grid points: many neighbours share a distance exactly.
    grid = np.array([[a, b] for a in range(6) for b in range(5)], dtype=np.float64)
    ids, sq = ref.knn(grid, 7)
    for i in range(len(grid)):
        want = brute_knn(grid, i, 7)
        assert ids[i].tolist() == [j for j, _ in want]
        assert sq[i].tolist() == [d2 for _, d2 in want]


def test_calibrate_hits_target_and_flattens_duplicate_rows():
    sq = np.vstack([np.random.default_rng(3).uniform(0.5, 9.0, size=(5, 20)), np.full((1, 20), 2.0)])
    probs, beta = ref.calibrate(sq, 7.0)
    for i in range(5):
        perp, want = row_perplexity(sq[i], beta[i])
        assert abs(perp - 7.0) < 1e-9
        np.testing.assert_allclose(probs[i], want, rtol=1e-12)
    assert beta[5] == 0.0
    np.testing.assert_allclose(probs[5], np.full(20, 1.0 / 20), rtol=1e-15)
    np.testing.assert_allclose(ref.perplexity_gap(sq[:5], beta[:5], 7.0), 0.0, atol=1e-9)


def test_exact_kl_matches_dense_objective():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 5))
    y = rng.normal(size=(30, 2))
    row, col, val = ref.affinities(x, n_neighbors=10, perplexity=4.0)
    r = np.full((2, 30), 0.5)
    p_macro = np.array([[0.0, 0.5], [0.5, 0.0]])
    _, micro, _, _ = dense_objective(y, dense(row, col, val, 30), r, p_macro, 0.0, 0.0)
    assert abs(ref.exact_kl(row, col, val, y) - micro) < 1e-12
    # A map with every point in one place has uniform Q.
    assert abs(ref.exact_kl(row, col, val, np.zeros((30, 2))) - ref.uniform_kl(val, 30)) < 1e-12


def test_overlap_and_label_agreement_count_entries():
    a = np.array([[1, 2], [0, 2], [0, 1]])
    b = np.array([[2, 0], [2, 0], [1, 0]])
    assert ref.overlap_count(a, b) == 1 + 2 + 2
    assert ref.label_agreement(a, np.array([0, 0, 1])) == pytest.approx(2 / 6)


def test_spearman_matches_scipy_with_ties():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    t = rng.integers(0, 3, size=(8, 2)).astype(np.float64)
    c = rng.normal(size=(8, 2))
    iu = np.triu_indices(8, k=1)
    dt = np.sqrt(ref.sq_dists_block(t, t)[iu])
    dc = np.sqrt(ref.sq_dists_block(c, c)[iu])
    want = stats.spearmanr(dt, dc).statistic
    assert ref.spearman_centroid_distances(t, c) == pytest.approx(want, abs=1e-12)
