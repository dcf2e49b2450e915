"""Macro structure model: k-means centroids, soft responsibilities, and
the centroid-level affinity distribution.

The centroids summarize the spectrally reduced input; responsibilities tie
every point softly to all centroids with a heavy-tailed kernel, and the
pairwise centroid affinities form the fixed macro target distribution that
the embedding's own centroid affinities are pulled toward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .affinity import _nearest, _Queries
from .core import as_points, chunked_matmul


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Squared Euclidean distances between rows of a and rows of b.

    Computed directly as sums of squared differences (not the expanded
    norm identity) so values carry no cancellation error; a is processed
    in row chunks to bound the temporary (chunk, len(b), d) array.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty((len(a), len(b)), dtype=np.float64)
    for start in range(0, len(a), chunk):
        stop = min(start + chunk, len(a))
        diff = a[start:stop, None, :] - b[None, :, :]
        out[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def student_t_kernel(points: np.ndarray):
    """Heavy-tailed kernel 1 / (1 + |a - b|^2) between all rows of points.

    Returns the (m, m) kernel with a zero diagonal and its sum.
    """
    kern = 1.0 / (1.0 + pairwise_sq_dists(points, points))
    np.fill_diagonal(kern, 0.0)
    return kern, float(kern.sum())


@dataclass
class CentroidModel:
    """Fitted k-means state on the reduced coordinates."""

    t: np.ndarray              # (k, d_z) centroid positions
    assignment: np.ndarray     # (n,) hard cluster of each point
    inertia: float             # final within-cluster sum of squares
    inertia_trace: np.ndarray  # per-iteration inertia, nonincreasing
    seed: int


def _plus_plus_init(z: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(z)
    centroids = np.empty((k, z.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = z[first]
    closest = ((z - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            # All remaining mass sits on already-chosen positions
            # (duplicates); any pick works, the repair step sorts it out.
            idx = int(rng.integers(n))
        centroids[j] = z[idx]
        closest = np.minimum(closest, ((z - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_fit(z: np.ndarray, k: int, seed: int = 0, max_iter: int = 300) -> CentroidModel:
    """Lloyd iteration from a k-means++ start.

    Each assignment step is one exact nearest-centroid search, exact_knn
    with the centroids as reference: a matrix product per block, and
    direct differences only where rounding could swap the order; the work
    on z alone (its mean, centered copy and norms) is done once per fit.
    Ties in assignment go to the lowest centroid index. A cluster left
    empty by an assignment step captures the point currently farthest
    from its own centroid (one point per empty cluster, in cluster order),
    so no cluster is ever empty and the recorded inertia never increases.
    Stops at an assignment fixpoint or after max_iter rounds.
    """
    z = as_points(z, "z")
    n = len(z)
    if not (1 <= k <= n):
        raise ValueError(f"k={k} must lie in [1, n={n}]")
    if max_iter < 1:
        raise ValueError(f"max_iter={max_iter}: must be at least 1")

    queries = _Queries.of(z)  # refuses z whose squared distances overflow
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(z, k, rng)
    assignment = None
    trace = []

    for _ in range(max_iter):
        nearest, sq = _nearest(queries, 1, centroids)
        new_assignment = nearest[:, 0]

        counts = np.bincount(new_assignment, minlength=k)
        if np.any(counts == 0):
            own = sq[:, 0]
            for empty in np.flatnonzero(counts == 0):
                donor = int(own.argmax())
                new_assignment[donor] = empty
                own[donor] = -1.0  # a point can rescue only one cluster
            counts = np.bincount(new_assignment, minlength=k)

        for ax in range(z.shape[1]):
            centroids[:, ax] = np.bincount(new_assignment, weights=z[:, ax], minlength=k)
        centroids /= counts[:, None]

        # c - z squares to the same bits as z - c, and with the gathered
        # centroids on the left numpy reuses their temporary array.
        within = ((centroids[new_assignment] - z) ** 2).sum(axis=1)
        trace.append(float(within.sum()))

        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    return CentroidModel(
        t=centroids,
        assignment=assignment,
        inertia=trace[-1],
        inertia_trace=np.asarray(trace),
        seed=seed,
    )


def responsibility_matrix(z: np.ndarray, t: np.ndarray, d: int) -> np.ndarray:
    """Soft membership of every point in every centroid.

    Row k, column i holds a heavy-tailed kernel of the point-to-centroid
    distance, scaled by (d / d_z)^2 to compensate for the drop from z's
    width d_z to the map's d, then normalized so each point's column sums
    to 1 over centroids.
    """
    z = as_points(z, "z")
    t = as_points(t, "t")
    d_z = z.shape[1]
    if d_z != t.shape[1]:
        raise ValueError(f"t has width {t.shape[1]}, z has width {d_z}")
    if not (0 < d < d_z):
        raise ValueError(f"need 0 < d < d_z, got d={d}, d_z={d_z}")
    scale = (d * d) / float(d_z * d_z)
    # Chunked over z; the C-ordered copy keeps column sums in centroid order.
    raw = 1.0 / (1.0 + scale * np.ascontiguousarray(pairwise_sq_dists(z, t).T))
    return raw / raw.sum(axis=0, keepdims=True)


def macro_affinity(t: np.ndarray) -> np.ndarray:
    """Heavy-tailed affinity distribution over centroid pairs.

    Off-diagonal kernel values normalized by their grand sum; the diagonal
    is zero and the whole matrix sums to 1.
    """
    t = as_points(t, "t")
    if len(t) < 2:
        raise ValueError("need at least 2 centroids")
    kern, total = student_t_kernel(t)
    return kern / total


@dataclass
class MacroAffinity:
    """Fixed macro-level targets used throughout one optimization.

    r: (k, n) responsibilities, columns summing to 1 over centroids.
    p_macro: (k, k) centroid affinity distribution, zero diagonal, sum 1.
    """

    r: np.ndarray
    p_macro: np.ndarray

    def __post_init__(self):
        self.r = as_points(self.r, "r")
        self.p_macro = as_points(self.p_macro, "p_macro")
        if self.p_macro.shape != (len(self.r), len(self.r)):
            raise ValueError("r must be (k, n) and p_macro (k, k)")

    @property
    def n_clusters(self) -> int:
        return len(self.r)

    @cached_property
    def masses(self) -> np.ndarray:
        """(k,) cluster masses, the row sums of r."""
        return self.r.sum(axis=1)

    @cached_property
    def r_by_mass(self) -> np.ndarray:
        """(k, n) responsibilities divided by their cluster's mass."""
        return self.r / self.masses[:, None]

    def centroids(self, y: np.ndarray) -> np.ndarray:
        """(k, d) map centroids: the responsibility-weighted means of y."""
        return chunked_matmul(self.r, y) / self.masses[:, None]
