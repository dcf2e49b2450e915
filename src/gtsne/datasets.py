"""Synthetic benchmark datasets.

All generators are deterministic per seed and return Dataset objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset


@dataclass(frozen=True)
class ThreeLinesSpec:
    """Three translated copies of one random walk.

    A single velocity sequence with N(0, velocity_std^2) entries is shared
    by all three lines, so the lines are congruent and differ only by
    their start offsets. Labels are the line ids.
    """

    n_s: int = 700           # points per line
    dims: int = 3
    velocity_std: float = 6.0
    starts: Optional[np.ndarray] = None  # (3, dims); default 0, 50, 160 times ones
    seed: int = 0


def gen_three_lines(spec: ThreeLinesSpec) -> Dataset:
    if not spec.n_s >= 2:
        raise ValueError("need at least 2 points per line")
    if not spec.dims >= 1:
        raise ValueError("dims must be positive")
    if not 0.0 <= spec.velocity_std < math.inf:
        raise ValueError(f"velocity_std={spec.velocity_std}: must be finite and nonnegative")
    rng = np.random.default_rng(spec.seed)
    velocities = rng.normal(0.0, spec.velocity_std, size=(spec.n_s, spec.dims))
    walk = np.vstack(
        [np.zeros(spec.dims), np.cumsum(velocities[: spec.n_s - 1], axis=0)]
    )
    if spec.starts is None:
        starts = np.array([0.0, 50.0, 160.0])[:, None] * np.ones(spec.dims)
    else:
        starts = np.asarray(spec.starts, dtype=np.float64)
        if starts.shape != (3, spec.dims):
            raise ValueError(f"starts must have shape (3, {spec.dims})")
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
    if not (n >= 2 and n_classes >= 1 and dims >= 1):
        raise ValueError("need n >= 2, n_classes >= 1, dims >= 1")
    if not n >= n_classes:
        raise ValueError("need at least one point per class")
    if not 0.0 <= cluster_std < math.inf:
        raise ValueError(f"cluster_std={cluster_std}: must be finite and nonnegative")
    rng = np.random.default_rng(seed)
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
    if not n >= 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(seed)
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
    if not n >= 2:
        raise ValueError("need at least 2 points")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise={noise}: must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    h = rng.uniform(0.0, 21.0, size=n)
    x = np.column_stack([t * np.cos(t), h, t * np.sin(t)])
    if noise > 0:
        x = x + rng.normal(0.0, noise, size=x.shape)
    quartiles = np.quantile(t, [0.25, 0.5, 0.75])
    labels = np.digitize(t, quartiles)
    return Dataset(x=x, labels=labels, name="swiss_roll")
