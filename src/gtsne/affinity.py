"""High-dimensional neighbor affinities with perplexity calibration.

Each point gets a Gaussian conditional distribution over its k nearest
neighbors whose entropy is tuned so the effective neighbor count 2^H
matches the requested perplexity. Conditionals are then symmetrized into
one sparse joint distribution P over unordered pairs that sums to 1.

All three stages work on whole arrays: a blocked exact kNN search, one
safeguarded Newton search over the (n, k) distance matrix, and a pair-key
symmetrization.
The kNN search, exact_knn, is the package's one exact nearest-neighbor
routine: with a separate reference set it also makes the k-means
assignment (macro.kmeans_fit), and metrics.knn_preservation scores maps
with it, searching the input on the package's worker thread while the
caller searches the map. The search's block products go through
core.chunked_matmul, so each search runs on the thread that called it and
never wakes OpenBLAS's thread pool, whose spinning workers would take the
other search's core.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import core
from .core import as_points

# Largest squared distance from the points' mean that a search takes. A
# pair's products, its bound and its squared difference all stay within
# about four times the larger of its two squared norms, so under this
# limit none of them overflows.
MAX_SQ_NORM = np.finfo(np.float64).max / 8


def exact_knn(points: np.ndarray, k: int, reference: np.ndarray | None = None):
    """Exact k nearest neighbors of every point.

    Without reference, each point searches the other points and never
    lists itself, so 1 <= k <= n - 1. With reference, an (m, d) matrix,
    each point searches its rows and excludes none, so 1 <= k <= m; with
    k = 1 and centroids as the reference this is a k-means assignment.

    Returns (ids, sq) of shape (n, k): indices into the searched rows and
    squared distances, each row ordered by ascending (squared distance,
    index), so equal distances go to the lower index.

    Each block of query rows reads the expanded form |a|^2 + |b|^2 - 2 a.b,
    on coordinates centered by the points' mean, straight from BLAS
    products of augmented rows: the rows [a, |a|^2, 1] against the columns
    [-2 b, 1, |b|^2 (1 +- slack)]. That form can cancel, so each pair's
    slack is its own rounding-error bound, and the two products give an
    upper and a lower end that bracket its true squared distance. The k-th
    smallest upper end over the searched rows, found by a partition by
    value, bounds the true k-th distance from above; every row whose lower
    end does not exceed it is kept, which keeps every true neighbor and
    every tie at the k-th distance. The kept candidates, about k per query
    on spread input, are re-ranked by exact squared distances from direct
    differences of the input. With k = 1 only the lower ends fill a
    block; the upper end of each query's least lower end stands in for
    the partition. The bounds hold in any summation order, so ids and sq
    depend neither on how core.chunked_matmul splits the products nor on
    the BLAS thread count.
    """
    queries = _Queries.of(as_points(points, "points"))
    if reference is not None:
        reference = as_points(reference, "reference")
    return _nearest(queries, k, reference)


class _Queries(NamedTuple):
    """What a search needs of its query points alone: the points, their
    mean, and the augmented rows [1, a, |a|^2, 1] of the points centered
    by it (a is a centered point). A caller that searches new references
    for the same points, as the k-means assignment does every round, makes
    this once."""

    pts: np.ndarray
    mean: np.ndarray
    aug: np.ndarray

    @classmethod
    def of(cls, pts: np.ndarray) -> "_Queries":
        n, dim = pts.shape
        aug = np.empty((n, dim + 3))
        # Norms past MAX_SQ_NORM, inf included, are refused just below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = pts.mean(axis=0)
            centered = np.subtract(pts, mean, out=aug[:, 1 : dim + 1])
            aug[:, dim + 1] = np.einsum("ij,ij->i", centered, centered)
        _check_sq_norms(aug[:, dim + 1], "points")
        aug[:, [0, dim + 2]] = 1.0
        return cls(pts, mean, aug)


def _check_sq_norms(sq_norm: np.ndarray, name: str) -> None:
    widest = sq_norm.max()
    if not widest <= MAX_SQ_NORM:
        raise ValueError(
            f"{name}: a squared distance from the points' mean of {widest:.3g} "
            f"exceeds MAX_SQ_NORM = {MAX_SQ_NORM:.3g} (a distance of "
            f"{math.sqrt(MAX_SQ_NORM):.3g}), past which squared distances "
            "overflow; rescale the points"
        )


def _columns(centered: np.ndarray, sq_norm: np.ndarray, slack: float) -> np.ndarray:
    # The (d + 3, m) matrix [high; -2 b^T; 1; low] of the searched rows b
    # (centered), where high and low fold the norms |b|^2 (1 +- slack) into
    # one row each. Its first d + 2 rows meet the query rows' first d + 2
    # entries [1, a, |a|^2] in |a|^2 - 2 a.b + |b|^2 (1 + slack), and its
    # last d + 2 rows meet [a, |a|^2, 1] in the same with 1 - slack: two
    # products that share every row but one, from one array each side.
    m, dim = centered.shape
    cols = np.empty((dim + 3, m))
    np.multiply(sq_norm, 1.0 + slack, out=cols[0])
    np.multiply(centered.T, -2.0, out=cols[1 : dim + 1])
    cols[dim + 1] = 1.0
    np.multiply(sq_norm, 1.0 - slack, out=cols[dim + 2])
    return cols


def _nearest(queries: _Queries, k: int, reference: np.ndarray | None):
    # exact_knn on checked input: the points come prepared, and reference
    # is None or a finite (m, d) float64 matrix.
    pts, mean, aug = queries
    n, dim = pts.shape
    sq_norm = aug[:, dim + 1]
    if reference is None:
        ref, ref_centered, ref_norm = pts, aug[:, 1 : dim + 1], sq_norm
        limit = n - 1
    else:
        ref = reference
        if ref.shape[1] != dim:
            raise ValueError(f"reference has width {ref.shape[1]}, points have width {dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            ref_centered = ref - mean
            ref_norm = np.einsum("ij,ij->i", ref_centered, ref_centered)
        limit = len(ref)
    if not (1 <= k <= limit):
        raise ValueError(f"k={k} must lie in [1, {limit}]")
    if reference is not None:
        _check_sq_norms(ref_norm, "reference")

    # Error bound of the two products in float64, for a query a and a
    # searched row b, both centered by the points' mean, with A = |a|^2,
    # B = |b|^2, u = 2^-53 and gamma_j = j u / (1 - j u). The stored
    # norms are d-term sums of squares, within gamma_d A and gamma_d B of
    # the true ones. A folded entry fl(B) (1 +- slack) rounds once (1 +-
    # slack is exact), within u B of its value. Each product is a
    # (d + 2)-term dot product: d terms a_t (-2 b_t), where -2 b_t is
    # exact, and two exact products by 1. In any summation order, BLAS's
    # with or without fused multiply-adds, a term meets at most d + 1
    # additions, so the sum is within gamma_(d+2) 2 |a||b| (Cauchy-Schwarz
    # on the sum of |a_t b_t|) plus gamma_(d+1) (A + B) of the exact sum of
    # the stored terms. The centering moves the true squared distance d^2
    # by at most 2u (|a| + |b|)^2. To first order in u, each product is
    # within E = (2d + 3)(A + B) u + B u + (2d + 8)|a||b| u <= (3d + 8)
    # (A + B) u of d^2 + slack B (high) or d^2 - slack B (low), using
    # 2|a||b| <= A + B. With slack = (d + 2) 4u, slack (A + B) exceeds
    # that by d (A + B) u, which leaves room for the terms of order u^2
    # (gamma's denominator, slack times the norms' rounding) and for the
    # rounding of the bound's own term 2 slack A. Nothing in it asks b to
    # be one of the points: with a reference, B is a reference row's norm.
    slack = 2.0 * (dim + 2) * np.finfo(np.float64).eps
    cols = _columns(ref_centered, ref_norm, slack)
    high_rows, high_cols = aug[:, : dim + 2], cols[: dim + 2]
    low_rows, low_cols = aug[:, 1:], cols[1:]
    # For query a, let hi_k be the k-th smallest high over the searched
    # rows. Each of the k rows of smallest high has d^2 <= high - slack B
    # + E <= hi_k + slack A, so the true k-th d^2 is at most hi_k + slack
    # A too. Every row b whose d^2 is at most the true k-th, ties
    # included, then has low <= d^2 - slack B + E <= hi_k + 2 slack A, and
    # only rows that pass this test are re-ranked; the test's final add
    # rounds to nearest, which keeps a float low that is at most the exact
    # sum at most the rounded one. Bounding each pair by its own B, not by
    # the largest norm, keeps one far outlier from admitting every row.
    # For k = 1 the row of least low has a high, one (d + 2)-term dot
    # product of its own, and that high serves as hi_1 without a second
    # (rows, m) product.
    m = len(ref)
    rows = min(n, max(1, core.BLOCK_FLOATS // m))
    ids = np.empty((n, k), dtype=np.int64)
    sq = np.empty((n, k), dtype=np.float64)
    # Every product of every block goes into the same (rows, m) buffer, so
    # the search holds one of them and touches fresh pages only once.
    buf = np.empty((rows, m))

    def product(query_rows, searched_cols, start, stop):
        out = core.chunked_matmul(query_rows[start:stop], searched_cols, out=buf[: stop - start])
        if reference is None:
            local = np.arange(stop - start)
            out[local, start + local] = np.inf
        return out

    for start in range(0, n, rows):
        stop = min(start + rows, n)
        if k > 1:
            high = product(high_rows, high_cols, start, stop)
            high.partition(k - 1, axis=1)
            hi_k = high[:, k - 1].copy()
        low = product(low_rows, low_cols, start, stop)
        if k == 1:
            nearest = low.argmin(axis=1)
            hi_k = np.einsum("ij,ji->i", high_rows[start:stop], high_cols[:, nearest])
        bound = hi_k + 2.0 * slack * sq_norm[start:stop]
        r, c = np.divmod(np.flatnonzero(low <= bound[:, None]), m)
        exact = _sq_dists(pts, start + r, ref, c)
        # Rank each query's candidates in one (queries, widest) table
        # padded with +inf. The flat mask lists each query's candidates by
        # ascending index and the sort is stable, so equal distances stay
        # in index order, and padding sorts after every candidate.
        counts = np.bincount(r, minlength=stop - start)
        first = np.cumsum(counts) - counts
        table = np.full((stop - start, counts.max()), np.inf)
        table[r, np.arange(len(r)) - first[r]] = exact
        take = first[:, None] + np.argsort(table, axis=1, kind="stable")[:, :k]
        ids[start:stop] = c[take]
        sq[start:stop] = exact[take]
    return ids, sq


def _sq_dists(a: np.ndarray, a_rows: np.ndarray, b: np.ndarray, b_rows: np.ndarray):
    # |a[a_rows] - b[b_rows]|^2 pair by pair from direct differences. The
    # rows gathered from a and b at one time hold at most core.BLOCK_FLOATS
    # coordinates between them.
    step = max(1, core.BLOCK_FLOATS // (2 * a.shape[1]))
    out = np.empty(len(a_rows))
    for s in range(0, len(a_rows), step):
        diff = a.take(a_rows[s:s + step], axis=0)
        diff -= b.take(b_rows[s:s + step], axis=0)
        out[s:s + step] = np.einsum("ij,ij->i", diff, diff)
    return out


class Calibration(NamedTuple):
    """What calibrate fits: one entry per distance row (a row for probs).

    probs rows sum to 1; beta is the fitted Gaussian precision
    1 / (2 sigma^2) and perplexity the achieved 2^H. converged marks rows
    whose search met the tolerance; degenerate marks rows that fell back
    to uniform because every distance was zero (duplicate points), which
    skip the search and are never converged.
    """

    probs: np.ndarray
    beta: np.ndarray
    perplexity: np.ndarray
    converged: np.ndarray
    degenerate: np.ndarray


def _row_stats(shifted: np.ndarray, beta: np.ndarray, inf_as_zero: np.ndarray):
    # Returns (probs, H, var) of the rows exp(-beta * shifted), where
    # shifted holds each row's distances minus its finite minimum. H is the
    # entropy in nats, so exp(H) equals 2^(H in bits), and var is the
    # variance of the distances under probs, so dH/d(ln beta) = -beta^2 var.
    # Infinite distances get zero weight; the moments read them from
    # inf_as_zero, a copy of shifted with those entries zeroed, because
    # inf * 0 would poison them. probs is built in place (exponents, then
    # weights, then probabilities), so an evaluation holds one (rows, k)
    # array of its own. A row whose squared distances overflow gets a
    # var of inf or NaN, and calibrate then takes no Newton step on it.
    probs = np.multiply(-beta[:, None], shifted)
    np.exp(probs, out=probs)
    total = probs.sum(axis=1)
    probs /= total[:, None]
    mean = np.einsum("ij,ij->i", inf_as_zero, probs)
    h_nats = np.log(total) + beta * mean
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.einsum("ij,ij,ij->i", inf_as_zero, inf_as_zero, probs) - mean * mean
    return probs, h_nats, var


# calibrate keeps each row's beta within this factor of its start, the
# inverse of the row's mean finite distance, and within the positive
# normal floats. Long before either end a row's weights stop changing:
# every weight but the ties at the minimum has underflowed, or all finite
# weights are equal. The bound keeps beta positive and finite, so a row
# whose target no beta reaches, which spends every evaluation stepping
# outwards, never meets inf * 0.
BETA_REACH = 1e80


def calibrate(
    sq_distances: np.ndarray,
    target_perplexity: float,
    tol: float = 1e-5,
    max_iter: int = 200,
) -> Calibration:
    """Fit the Gaussian precision of every neighbor row.

    sq_distances is an (n, k) matrix of squared distances to each row's
    neighbors. The entropy H of a row is smooth and decreasing in u =
    ln beta, with dH/du = -beta^2 Var(d), so each row takes safeguarded
    Newton steps on H(u) = ln(target) from beta = 1 / (mean finite
    distance above the row's minimum), or 1 where that mean is 0. Every
    evaluation narrows a bracket [lo, hi] around the root; a Newton point
    that is not finite or not inside it is replaced by 4 beta while hi is
    unbounded, by beta / 4 while lo is 0, and by sqrt(lo hi) otherwise.
    A row stops once |2^H - target| <= tol or after max_iter evaluations,
    keeping the best beta seen. All rows step together; a row that stops
    is left out of later evaluations.
    """
    d2 = np.asarray(sq_distances, dtype=np.float64)
    if d2.ndim != 2:
        raise ValueError("squared distances must be an (n, k) matrix")
    if d2.shape[1] < 2:
        raise ValueError("need at least 2 neighbor distances per row")
    if np.any(np.isnan(d2)) or np.any(d2 < 0):
        raise ValueError("squared distances must be nonnegative")
    finite = np.isfinite(d2)
    if not np.all(finite.any(axis=1)):
        row = int(np.flatnonzero(~finite.any(axis=1))[0])
        raise ValueError(f"row {row}: all neighbor distances are infinite")
    n, k = d2.shape
    if not (0 < target_perplexity < k):
        raise ValueError(f"target perplexity {target_perplexity} must lie in (0, {k})")

    degenerate = np.all(d2 == 0.0, axis=1)
    shifted = d2 - np.where(finite, d2, np.inf).min(axis=1, keepdims=True)
    inf_as_zero = np.where(finite, shifted, 0.0)

    beta = np.ones(n)
    # Every beta evaluated is a positive normal float. Only rows whose mean
    # is below about 1e-228 or above about 1e228 get another start or bound.
    tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    with np.errstate(over="ignore"):
        mean = inf_as_zero.sum(axis=1) / finite.sum(axis=1)
        np.divide(1.0, np.clip(mean, tiny, big), out=beta, where=mean > 0.0)
        floor = np.maximum(beta / BETA_REACH, tiny)
        ceiling = np.minimum(beta * BETA_REACH, big)
    best_beta = beta.copy()
    best_gap = np.full(n, np.inf)
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    log_target = math.log(target_perplexity)

    rows = np.flatnonzero(~degenerate)
    evals = 0
    while len(rows):
        b = beta[rows]
        _, h, var = _row_stats(shifted[rows], b, inf_as_zero[rows])
        evals += 1
        perp = np.exp(h)
        gap = np.abs(perp - target_perplexity)
        better = gap < best_gap[rows]
        best_gap[rows[better]] = gap[better]
        best_beta[rows[better]] = b[better]
        above = perp > target_perplexity
        lo[rows[above]] = b[above]
        hi[rows[~above]] = b[~above]
        if evals >= max_iter:
            break
        going = gap > tol
        rows, b, h, var = rows[going], b[going], h[going], var[going]
        r_lo, r_hi = lo[rows], hi[rows]
        # A flat row (var 0) has an infinite Newton step, and an open
        # bracket has no midpoint; neither is taken.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = b * np.exp((h - log_target) / (b * b * var))
            inside = np.isfinite(newton) & (newton > r_lo) & (newton < r_hi)
            fallback = np.where(r_lo == 0.0, b / 4.0, np.sqrt(r_lo) * np.sqrt(r_hi))
            fallback = np.where(np.isinf(r_hi), 4.0 * b, fallback)
        beta[rows] = np.clip(np.where(inside, newton, fallback), floor[rows], ceiling[rows])

    # At beta = 0 an all-zero row comes out exactly uniform.
    best_beta[degenerate] = 0.0
    probs, h, _ = _row_stats(shifted, best_beta, inf_as_zero)
    achieved = np.exp(h)
    achieved[degenerate] = float(k)
    return Calibration(probs, best_beta, achieved, best_gap <= tol, degenerate)


class ConditionalRow(namedtuple("ConditionalRow", ("neighbors", *Calibration._fields))):
    """One point's calibrated row: the point indices of its neighbors, then
    its entry of each Calibration field, with the scalars as Python floats
    and bools."""

    __slots__ = ()

    @property
    def sigma(self) -> float:
        return math.inf if self.beta == 0.0 else 1.0 / math.sqrt(2.0 * self.beta)


@dataclass
class AffinityModel:
    """Sparse symmetric joint distribution over unordered point pairs.

    Entries are stored once with row < col; the symmetric pair is implied.
    Values are nonnegative and the full off-diagonal sum (both directions)
    is 1 for a distribution built by symmetrize.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    n: int

    def __post_init__(self):
        self.row = np.asarray(self.row, dtype=np.int64)
        self.col = np.asarray(self.col, dtype=np.int64)
        self.val = np.asarray(self.val, dtype=np.float64)
        if not (len(self.row) == len(self.col) == len(self.val)):
            raise ValueError("row, col, val must have equal length")
        if np.any(self.row >= self.col):
            raise ValueError("entries must be stored with row < col")
        if len(self.row) and (self.row.min() < 0 or self.col.max() >= self.n):
            raise ValueError("pair indices out of range")
        if np.any(self.val < 0):
            raise ValueError("affinities must be nonnegative")

    @property
    def nnz(self) -> int:
        return len(self.val)

    def total(self) -> float:
        """Sum over all ordered pairs (i != j)."""
        return float(2.0 * self.val.sum())

    @cached_property
    def ends(self) -> np.ndarray:
        """Both ends of every stored pair, rows then cols, for scatters."""
        return np.concatenate([self.row, self.col])

    def dense(self) -> np.ndarray:
        """Materialize the full symmetric matrix (small-n debugging)."""
        p = np.zeros((self.n, self.n))
        p[self.row, self.col] = self.val
        p[self.col, self.row] = self.val
        return p


def symmetrize(neighbor_ids: np.ndarray, probs: np.ndarray, n: int) -> AffinityModel:
    """Average each conditional with its transpose into a joint P.

    probs[i] is row i's conditional over neighbor_ids[i], both (n, k).
    Every directed affinity contributes p / (2n) to its unordered pair,
    keyed min(i, j) * n + max(i, j), so a mutual pair receives both
    directions and the grand total over ordered pairs is exactly 1.
    """
    ids = np.asarray(neighbor_ids, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if ids.ndim != 2 or ids.shape != probs.shape or len(ids) != n:
        raise ValueError("need one calibrated row per point")
    i = np.repeat(np.arange(n, dtype=np.int64), ids.shape[1])
    j = ids.ravel()
    if np.any(i == j):
        raise ValueError(f"row {int(i[np.argmax(i == j)])} lists itself as a neighbor")
    keys, slot = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_inverse=True)
    val = np.bincount(slot, weights=probs.ravel(), minlength=len(keys)) / (2.0 * n)
    return AffinityModel(row=keys // n, col=keys % n, val=val, n=n)


def build_affinity_model(
    x: np.ndarray,
    n_neighbors: int,
    perplexity: float,
    tol: float = 1e-5,
    max_iter: int = 200,
):
    """Full pipeline from raw coordinates to the joint P.

    Finds exact k-nearest neighbors, calibrates every row to the target
    perplexity, and symmetrizes. Returns (AffinityModel,
    list[ConditionalRow]) with each row's neighbors field holding real
    point indices.
    """
    ids, sq = exact_knn(as_points(x, "x"), n_neighbors)
    cal = calibrate(sq, perplexity, tol=tol, max_iter=max_iter)
    rows = list(map(ConditionalRow, ids, cal.probs, *(a.tolist() for a in cal[1:])))
    return symmetrize(ids, cal.probs, len(ids)), rows
