"""Synthetic dataset generators."""

import numpy as np
import pytest

from gtsne.datasets import (
    ThreeLinesSpec,
    gen_blobs,
    gen_sphere,
    gen_swiss_roll,
    gen_three_lines,
)


class TestThreeLines:
    def test_default_shape_and_labels(self):
        data = gen_three_lines(ThreeLinesSpec())
        assert data.x.shape == (2100, 3)
        np.testing.assert_array_equal(data.labels, np.repeat([0, 1, 2], 700))

    def test_lines_start_at_the_offsets(self):
        data = gen_three_lines(ThreeLinesSpec(n_s=50))
        np.testing.assert_array_equal(data.x[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(data.x[50], [50.0, 50.0, 50.0])
        np.testing.assert_array_equal(data.x[100], [160.0, 160.0, 160.0])

    def test_lines_are_congruent(self):
        # One shared velocity sequence: consecutive displacements agree
        # across the three copies up to the rounding of the offset add.
        data = gen_three_lines(ThreeLinesSpec(n_s=200))
        steps = [np.diff(data.x[i * 200 : (i + 1) * 200], axis=0) for i in range(3)]
        np.testing.assert_allclose(steps[1], steps[0], atol=1e-9)
        np.testing.assert_allclose(steps[2], steps[0], atol=1e-9)

    def test_velocity_scale(self):
        data = gen_three_lines(ThreeLinesSpec(n_s=2000, velocity_std=6.0))
        steps = np.diff(data.x[:2000], axis=0)
        assert 5.5 < steps.std() < 6.5

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            gen_three_lines(ThreeLinesSpec(n_s=1))

    def test_deterministic(self):
        a = gen_three_lines(ThreeLinesSpec(seed=9))
        b = gen_three_lines(ThreeLinesSpec(seed=9))
        np.testing.assert_array_equal(a.x, b.x)
        assert np.abs(gen_three_lines(ThreeLinesSpec(seed=10)).x - a.x).max() > 0


class TestBlobs:
    def test_default_shape(self):
        data = gen_blobs()
        assert data.x.shape == (500, 10)
        np.testing.assert_array_equal(np.bincount(data.labels), [100] * 5)

    def test_remainder_goes_to_early_classes(self):
        data = gen_blobs(n=7, dims=2, n_classes=3)
        np.testing.assert_array_equal(np.bincount(data.labels), [3, 2, 2])

    def test_zero_std_collapses_each_class(self):
        data = gen_blobs(n=30, dims=4, n_classes=3, cluster_std=0.0)
        for cls in range(3):
            pts = data.x[data.labels == cls]
            np.testing.assert_array_equal(pts, np.tile(pts[0], (len(pts), 1)))

    def test_within_class_scatter(self):
        data = gen_blobs(n=600, dims=8, n_classes=3, cluster_std=2.0, seed=2)
        for cls in range(3):
            pts = data.x[data.labels == cls]
            centered = pts - pts.mean(axis=0)
            assert 1.8 < centered.std() < 2.2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_blobs(n=1)
        with pytest.raises(ValueError):
            gen_blobs(n=3, n_classes=4)
        with pytest.raises(ValueError):
            gen_blobs(cluster_std=-1.0)
        with pytest.raises(ValueError):
            gen_blobs(dims=0)

    def test_deterministic(self):
        a = gen_blobs(seed=5)
        b = gen_blobs(seed=5)
        np.testing.assert_array_equal(a.x, b.x)


class TestSphere:
    def test_rows_are_unit_vectors(self):
        data = gen_sphere()
        assert data.x.shape == (600, 3)
        np.testing.assert_allclose(
            np.linalg.norm(data.x, axis=1), 1.0, atol=1e-12
        )

    def test_no_labels(self):
        assert gen_sphere().labels is None

    def test_roughly_uniform(self):
        # The mean of many uniform sphere points is close to the origin.
        data = gen_sphere(n=2000, seed=1)
        assert np.linalg.norm(data.x.mean(axis=0)) < 0.1

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_sphere(seed=3).x, gen_sphere(seed=3).x)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            gen_sphere(n=1)


class TestSwissRoll:
    def test_noiseless_geometry(self):
        data = gen_swiss_roll(n=1000, noise=0.0, seed=0)
        assert data.x.shape == (1000, 3)
        t = np.hypot(data.x[:, 0], data.x[:, 2])
        assert t.min() >= 1.5 * np.pi - 1e-9
        assert t.max() <= 4.5 * np.pi + 1e-9
        np.testing.assert_allclose(data.x[:, 0], t * np.cos(t), atol=1e-9)
        np.testing.assert_allclose(data.x[:, 2], t * np.sin(t), atol=1e-9)
        assert data.x[:, 1].min() >= 0.0
        assert data.x[:, 1].max() <= 21.0

    def test_labels_are_parameter_quartiles(self):
        data = gen_swiss_roll(n=1000, seed=0)
        np.testing.assert_array_equal(np.bincount(data.labels), [250] * 4)
        # Label boundaries follow the roll parameter, not space.
        t = np.hypot(data.x[:, 0], data.x[:, 2])
        for a, b in ((0, 1), (1, 2), (2, 3)):
            assert t[data.labels == a].max() <= t[data.labels == b].min()

    def test_noise_perturbs_the_sheet(self):
        clean = gen_swiss_roll(n=200, noise=0.0, seed=4)
        noisy = gen_swiss_roll(n=200, noise=0.5, seed=4)
        assert np.abs(noisy.x - clean.x).max() > 0.1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_swiss_roll(n=1)
        with pytest.raises(ValueError):
            gen_swiss_roll(noise=-0.1)

    def test_deterministic(self):
        a = gen_swiss_roll(seed=8)
        b = gen_swiss_roll(seed=8)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.labels, b.labels)
