"""Spectral pre-reduction."""

import numpy as np
import pytest

from gtsne import Dataset, ThreeLinesSpec, gen_three_lines, pca_fit


def _axis_variance_data():
    # Covariance is exactly diag(4, 1, 0): means are zero and the two
    # informative columns are independent sign patterns.
    return np.array(
        [
            [2.0, 1.0, 0.0],
            [2.0, -1.0, 0.0],
            [-2.0, 1.0, 0.0],
            [-2.0, -1.0, 0.0],
        ]
    )


def test_axis_aligned_variances():
    red = pca_fit(_axis_variance_data(), d_z=2)
    np.testing.assert_allclose(red.eigenvalues, [4.0, 1.0], atol=1e-12)
    # the basis is the first two coordinate axes, up to sign fixed positive
    np.testing.assert_allclose(np.abs(red.components), np.eye(3)[:, :2], atol=1e-12)
    np.testing.assert_allclose(red.z[:, 0], [2, 2, -2, -2], atol=1e-12)
    np.testing.assert_allclose(red.z[:, 1], [1, -1, 1, -1], atol=1e-12)


def test_full_width_reconstruction():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 6)) * rng.uniform(0.5, 3.0, size=6)
    red = pca_fit(x, d_z=6)
    rebuilt = red.z @ red.components.T + red.means
    np.testing.assert_allclose(rebuilt, x, rtol=1e-8, atol=1e-8)


def test_embedded_line_concentrates_variance():
    # 100 points on the diagonal of a 2-plane inside 5 dimensions: one
    # direction carries everything.
    rng = np.random.default_rng(3)
    t = rng.normal(size=100)
    x = np.zeros((100, 5))
    x[:, 0] = t
    x[:, 1] = t
    red = pca_fit(x, d_z=5)
    assert red.eigenvalues[0] / red.eigenvalues.sum() > 0.999


def test_matches_independent_dense_eigensolver():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
    red = pca_fit(x, d_z=5)
    xc = x - x.mean(axis=0)
    ref_vals = np.sort(np.linalg.eigvalsh((xc.T @ xc) / len(x)))[::-1]
    np.testing.assert_allclose(red.eigenvalues, ref_vals, rtol=1e-10, atol=1e-12)


def test_wide_matrix_auto_uses_gram():
    # More dimensions than points: 10 points in 40-D. (The name dates from
    # a separate Gram route for wide inputs; the one SVD now covers them.)
    x = np.random.default_rng(6).normal(size=(10, 40))
    red = pca_fit(x, d_z=4)
    xc = x - x.mean(axis=0)
    ref_vals = np.sort(np.linalg.eigvalsh((xc.T @ xc) / len(x)))[::-1][:4]
    np.testing.assert_allclose(red.eigenvalues, ref_vals, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(red.z, xc @ red.components, rtol=1e-12, atol=1e-12)


def test_components_orthonormal():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 8))
    red = pca_fit(x, d_z=5)
    gram = red.components.T @ red.components
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
    # n=90 points in 200-D whose centered rank is 30: directions 31-50
    # carry no variance but must still be orthonormal basis columns.
    wide = gen_three_lines(ThreeLinesSpec(n_s=30, dims=200)).x
    red = pca_fit(wide, d_z=50)
    gram = red.components.T @ red.components
    np.testing.assert_allclose(gram, np.eye(50), atol=1e-8)
    assert np.all(red.eigenvalues[30:] < 1e-8 * red.eigenvalues[0])


def test_eigenvalues_sorted_and_nonnegative():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 6))
    red = pca_fit(x, d_z=6)
    assert np.all(np.diff(red.eigenvalues) <= 1e-12)
    assert np.all(red.eigenvalues >= 0)


def test_sign_convention_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(25, 4))
    a = pca_fit(x, d_z=3)
    b = pca_fit(x, d_z=3)
    assert np.array_equal(a.components, b.components)
    for j in range(3):
        i = np.argmax(np.abs(a.components[:, j]))
        assert a.components[i, j] > 0


def test_uncentered_projects_second_moments():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 4)) + 3.0
    red = pca_fit(x, d_z=2, center=False)
    assert np.all(red.means == 0)
    ref_vals = np.sort(np.linalg.eigvalsh((x.T @ x) / len(x)))[::-1][:2]
    np.testing.assert_allclose(red.eigenvalues, ref_vals, rtol=1e-10)


def test_accepts_dataset():
    ds = Dataset(x=np.eye(3))
    red = pca_fit(ds, d_z=2)
    assert red.z.shape == (3, 2)
    assert red.components.shape == (3, 2)


def test_rejects_bad_width():
    with pytest.raises(ValueError, match="d_z"):
        pca_fit(np.ones((5, 3)), d_z=4)
    with pytest.raises(ValueError, match="d_z"):
        pca_fit(np.ones((5, 3)), d_z=0)


def test_gram_route_needs_enough_rows():
    # A thin SVD of 3 rows has 3 directions, so d_z=5 is rejected.
    x = np.random.default_rng(8).normal(size=(3, 10))
    with pytest.raises(ValueError, match="d_z=5"):
        pca_fit(x, d_z=5)
