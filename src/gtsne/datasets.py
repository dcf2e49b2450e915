"""Synthetic benchmark datasets.

All generators are deterministic per seed and return Dataset objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, as_points, in_interval


@dataclass(frozen=True)
class ThreeLinesSpec:
    """Three translated copies of one random walk.

    A single velocity sequence with N(0, velocity_std^2) entries is shared
    by all three lines, so the lines are congruent and differ only by
    their start offsets. Labels are the line ids. The fields are checked
    when the spec is made, starts by as_points.
    """

    n_s: int = 700           # points per line
    dims: int = 3
    velocity_std: float = 6.0
    starts: Optional[np.ndarray] = None  # (3, dims); default 0, 50, 160 times ones
    seed: int = 0

    def __post_init__(self):
        in_interval(self.n_s, "n_s", 2, integer=True)
        in_interval(self.dims, "dims", 1, integer=True)
        in_interval(self.velocity_std, "velocity_std", 0)
        in_interval(self.seed, "seed", 0, integer=True)
        if self.starts is not None:
            starts = as_points(self.starts, "starts")
            if starts.shape != (3, self.dims):
                raise ValueError(f"starts must have shape (3, {self.dims}), got {starts.shape}")
            object.__setattr__(self, "starts", starts)


def gen_three_lines(spec: ThreeLinesSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    velocities = rng.normal(0.0, spec.velocity_std, size=(spec.n_s, spec.dims))
    walk = np.vstack(
        [np.zeros(spec.dims), np.cumsum(velocities[: spec.n_s - 1], axis=0)]
    )
    starts = spec.starts
    if starts is None:
        starts = np.array([0.0, 50.0, 160.0])[:, None] * np.ones(spec.dims)
    x = np.vstack([start + walk for start in starts])
    labels = np.repeat(np.arange(3), spec.n_s)
    return Dataset(x=x, labels=labels, name="three_lines")


def gen_blobs(
    n: int = 500,
    dims: int = 10,
    n_classes: int = 5,
    seed: int = 0,
    cluster_std: float = 1.0,
) -> Dataset:
    """Isotropic Gaussian blobs around uniformly drawn centers.

    Centers are drawn first, uniform over a box of side 10 * cluster_std
    centered at the origin, then each class's points in class order; the
    point count splits as evenly as possible across classes.
    """
    in_interval(n, "n", 2, integer=True)
    in_interval(dims, "dims", 1, integer=True)
    in_interval(n_classes, "n_classes", 1, n, "[]", integer=True)  # a point per class
    in_interval(cluster_std, "cluster_std", 0)
    rng = np.random.default_rng(in_interval(seed, "seed", 0, integer=True))
    box = 5.0 * cluster_std
    centers = rng.uniform(-box, box, size=(n_classes, dims))
    counts = np.full(n_classes, n // n_classes)
    counts[: n % n_classes] += 1
    parts = []
    labels = []
    for cls in range(n_classes):
        parts.append(centers[cls] + rng.normal(0.0, cluster_std, size=(counts[cls], dims)))
        labels.append(np.full(counts[cls], cls))
    return Dataset(x=np.vstack(parts), labels=np.concatenate(labels), name="blobs")


def gen_sphere(n: int = 600, seed: int = 0) -> Dataset:
    """Points uniform on the unit sphere (normalized Gaussian draws)."""
    in_interval(n, "n", 2, integer=True)
    rng = np.random.default_rng(in_interval(seed, "seed", 0, integer=True))
    g = rng.normal(size=(n, 3))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-12):  # essentially impossible, but stay exact
        redo = norms < 1e-12
        g[redo] = rng.normal(size=(int(redo.sum()), 3))
        norms = np.linalg.norm(g, axis=1)
    return Dataset(x=g / norms[:, None], name="sphere")


def gen_swiss_roll(n: int = 1000, noise: float = 0.0, seed: int = 0) -> Dataset:
    """Classic rolled sheet.

    The roll parameter t is uniform on [1.5 pi, 4.5 pi] and the height h
    uniform on [0, 21]; rows are (t cos t, h, t sin t) plus optional
    Gaussian noise. Labels are the sample quartile of t.
    """
    in_interval(n, "n", 2, integer=True)
    in_interval(noise, "noise", 0)
    rng = np.random.default_rng(in_interval(seed, "seed", 0, integer=True))
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    h = rng.uniform(0.0, 21.0, size=n)
    x = np.column_stack([t * np.cos(t), h, t * np.sin(t)])
    if noise > 0:
        x = x + rng.normal(0.0, noise, size=x.shape)
    quartiles = np.quantile(t, [0.25, 0.5, 0.75])
    labels = np.digitize(t, quartiles)
    return Dataset(x=x, labels=labels, name="swiss_roll")
