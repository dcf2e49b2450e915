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

from . import core
from .affinity import check_sq_norms, exact_knn
from .core import as_points, chunked_matmul, in_interval


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and rows of b.

    Computed directly as sums of squared differences (not the expanded
    norm identity) so values carry no cancellation error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _fill_sq_dists(a, b, np.empty((len(a), len(b))))


def _fill_sq_dists(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    # pairwise_sq_dists into out, which may be a strided view. Each block
    # of a's rows holds one (rows, len(b), d) difference array of at most
    # core.BLOCK_FLOATS entries, or of one row where a row is wider; rows
    # are independent, so the blocking changes no bits.
    rows = max(1, core.BLOCK_FLOATS // (len(b) * a.shape[1]))
    for start in range(0, len(a), rows):
        diff = a[start : start + rows, None, :] - b[None, :, :]
        out[start : start + rows] = np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # before the next block's is made
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
    inertia_trace: np.ndarray  # each round's within-cluster sum of squares, nonincreasing


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
    direct differences only where rounding could swap the order. Ties in
    assignment go to the lowest centroid index. A cluster left empty by an
    assignment step captures the point farthest from its own centroid
    among the clusters that keep another member (one point per empty
    cluster, in cluster order), so no cluster is ever empty and the
    recorded inertia never increases. Stops at an assignment fixpoint or
    after max_iter rounds.
    """
    z = as_points(z, "z")
    in_interval(k, "k", 1, len(z), "[]", integer=True)
    in_interval(max_iter, "max_iter", 1, integer=True)
    # Refused before the seeding computes any squared distance, as every
    # assignment step would refuse it.
    with np.errstate(over="ignore", invalid="ignore"):
        check_sq_norms(((z - z.mean(axis=0)) ** 2).sum(axis=1), "z")

    rng = np.random.default_rng(in_interval(seed, "seed", 0, integer=True))
    centroids = _plus_plus_init(z, k, rng)
    assignment = None
    trace = []

    for _ in range(max_iter):
        nearest, sq = exact_knn(z, 1, reference=centroids)
        new_assignment = nearest[:, 0]

        counts = np.bincount(new_assignment, minlength=k)
        own = sq[:, 0]
        for empty in np.flatnonzero(counts == 0):
            # Since k <= n, some cluster has a member to spare. A moved
            # point's cluster now has one member, so it moves only once.
            donor = int(np.where(counts[new_assignment] > 1, own, -1.0).argmax())
            counts[new_assignment[donor]] -= 1
            new_assignment[donor] = empty
            counts[empty] = 1

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

    return CentroidModel(t=centroids, inertia_trace=np.asarray(trace))


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
    in_interval(d, "d", 0, d_z, "()", integer=True)
    scale = (d * d) / float(d_z * d_z)
    # Built in place in the (k, n) output, whose C order keeps the column
    # sums in centroid order; beside it the work holds one block of z.
    raw = np.empty((len(t), len(z)))
    _fill_sq_dists(z, t, raw.T)
    raw *= scale
    raw += 1.0
    np.reciprocal(raw, out=raw)
    raw /= raw.sum(axis=0, keepdims=True)
    return raw


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
    The cluster masses divide the map centroids and, in the "exact"
    gradient mode, each centroid's pull before R^T spreads it over the
    points.
    """

    r: np.ndarray
    p_macro: np.ndarray

    def __post_init__(self):
        self.r = as_points(self.r, "r")
        self.p_macro = as_points(self.p_macro, "p_macro")
        if self.p_macro.shape != (len(self.r), len(self.r)):
            raise ValueError("r must be (k, n) and p_macro (k, k)")

    @cached_property
    def masses(self) -> np.ndarray:
        """(k,) cluster masses, the row sums of r."""
        return self.r.sum(axis=1)

    def centroids(self, y: np.ndarray) -> np.ndarray:
        """(k, d) map centroids: the responsibility-weighted means of y."""
        return chunked_matmul(self.r, y) / self.masses[:, None]
