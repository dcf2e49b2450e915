"""High-dimensional neighbor affinities with perplexity calibration.

Each point gets a Gaussian conditional distribution over its k nearest
neighbors whose entropy is tuned so the effective neighbor count 2^H
matches the requested perplexity. Conditionals are then symmetrized into
one sparse joint distribution P over unordered pairs that sums to 1.

All three stages work on whole arrays: a blocked exact kNN search, one
bisection over the (n, k) distance matrix, and a pair-key symmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Distances one kNN block may hold: the block takes max(1, this // n)
# query rows, so each of its working arrays stays near 1 MB for any n.
# Larger blocks ran no faster on 1000-1500 points and raised the peak
# memory of a whole run.
KNN_BLOCK_FLOATS = 1 << 17


def exact_knn(points: np.ndarray, k: int):
    """Exact k nearest neighbors of every point, excluding itself.

    Returns (ids, sq) of shape (n, k): neighbor indices and squared
    distances, each row ordered by ascending (squared distance, index).

    Each block of query rows first ranks all points by the expanded form
    |a|^2 + |b|^2 - 2 a.b on centered coordinates, one matrix product per
    block. That form can cancel, so every point whose approximate value
    could still place it among the true k nearest, given a rounding-error
    bound on each pair, is kept, and the kept candidates are re-ranked by
    exact squared distances from direct differences of the input.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a nonempty 2-D matrix")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    n, dim = pts.shape
    if not (1 <= k <= n - 1):
        raise ValueError(f"k={k} must lie in [1, {n - 1}]")

    centered = pts - pts.mean(axis=0)
    sq_norm = np.einsum("ij,ij->i", centered, centered)
    # Error bound of the expanded form in float64. Each of |a|^2, |b|^2 and
    # a.b is a d-term dot product, whose rounding error in any summation
    # order is at most gamma_d times the sum of |a_t b_t| (Cauchy-Schwarz
    # bounds that sum by |a||b|), and the final add and subtract round
    # twice more, so |fl(approx) - d^2| <= gamma_(d+2) (|a| + |b|)^2 with
    # gamma_m = m u / (1 - m u) and u = 2^-53. Below, slack = (d + 2) 4u
    # and delta(a, b) = slack (|a|^2 + |b|^2) >= (d + 2) 2u (|a| + |b|)^2,
    # twice the leading term of that bound, which leaves room for gamma's
    # denominator and for the few roundings of the candidate test itself.
    slack = 2.0 * (dim + 2) * np.finfo(np.float64).eps
    col_delta = slack * sq_norm
    # For query a, let S be the k points of smallest approx, a_k the
    # largest approx in S and r the largest |b|^2 in S. The true k-th d^2
    # is at most a_k + delta over S <= a_k + slack (|a|^2 + r), so a true
    # top-k point b has approx - delta(a, b) <= that, that is
    # approx - slack |b|^2 <= a_k + slack (2 |a|^2 + r). Bounding each
    # pair, not each row, keeps one far outlier from admitting every point.
    rows = max(1, KNN_BLOCK_FLOATS // n)
    step = max(1, KNN_BLOCK_FLOATS // dim)
    ids = np.empty((n, k), dtype=np.int64)
    sq = np.empty((n, k), dtype=np.float64)
    pick = np.arange(k)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        local = np.arange(stop - start)
        approx = centered[start:stop] @ centered.T
        approx *= -2.0
        approx += sq_norm[start:stop, None]
        approx += sq_norm[None, :]
        approx[local, start + local] = np.inf
        nearest = np.argpartition(approx, k - 1, axis=1)[:, :k]
        reach = sq_norm[nearest].max(axis=1)
        bound = approx[local, nearest[:, -1]] + slack * (2.0 * sq_norm[start:stop] + reach)
        approx -= col_delta
        r, c = np.nonzero(approx <= bound[:, None])
        exact = np.empty(len(r))
        for s in range(0, len(r), step):
            diff = pts[start + r[s:s + step]] - pts[c[s:s + step]]
            exact[s:s + step] = np.einsum("ij,ij->i", diff, diff)
        # nonzero lists each row's candidates by ascending index and the
        # sort is stable, so equal distances stay in index order.
        order = np.lexsort((exact, r))
        first = np.searchsorted(r[order], local)
        take = order[first[:, None] + pick]
        ids[start:stop] = c[take]
        sq[start:stop] = exact[take]
    return ids, sq


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
    # Returns (probs, 2^H) of the rows exp(-beta * shifted), where shifted
    # holds each row's distances minus its finite minimum. Infinite
    # distances get zero weight; the mean term reads them from
    # inf_as_zero, a copy of shifted with those entries zeroed, because
    # inf * 0 would poison it. The entropy is in nats, so exp(H) equals
    # 2^(H in bits).
    w = np.exp(-beta[:, None] * shifted)
    total = w.sum(axis=1)
    probs = w / total[:, None]
    h_nats = np.log(total) + beta * np.einsum("ij,ij->i", inf_as_zero, probs)
    return probs, np.exp(h_nats)


def calibrate(
    sq_distances: np.ndarray,
    target_perplexity: float,
    tol: float = 1e-5,
    max_iter: int = 200,
) -> Calibration:
    """Fit the Gaussian precision of every neighbor row.

    sq_distances is an (n, k) matrix of squared distances to each row's
    neighbors. The effective neighbor count 2^H is monotone decreasing in
    the precision beta, so each row grows a bracket by doubling/halving
    from beta = 1 and then bisects it until |2^H - target| <= tol or
    max_iter evaluations are spent, keeping the best beta seen. All rows
    step together; a row that stops is left out of later evaluations.
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

    best_beta = np.ones(n)
    best_gap = np.full(n, np.inf)
    evals = np.zeros(n, dtype=np.int64)
    lo = np.ones(n)
    hi = np.ones(n)
    perp = np.zeros(n)

    def measure(rows, beta):
        _, p = _row_stats(shifted[rows], beta, inf_as_zero[rows])
        evals[rows] += 1
        gap = np.abs(p - target_perplexity)
        better = gap < best_gap[rows]
        best_gap[rows[better]] = gap[better]
        best_beta[rows[better]] = beta[better]
        return p

    # Grow a bracket [lo, hi] with perp(lo) >= target >= perp(hi), then
    # bisect it; a row leaves growth once perp crosses the target.
    live = np.flatnonzero(~degenerate)
    perp[live] = measure(live, np.ones(len(live)))
    up = perp > target_perplexity
    growing = ~degenerate
    while True:
        active = ~degenerate & (best_gap > tol) & (evals < max_iter)
        growing &= active & np.where(up, perp > target_perplexity, perp < target_perplexity)
        grow_up = np.flatnonzero(growing & up)
        grow_down = np.flatnonzero(growing & ~up)
        lo[grow_up] = hi[grow_up]
        hi[grow_up] *= 2.0
        hi[grow_down] = lo[grow_down]
        lo[grow_down] /= 2.0
        rows = np.flatnonzero(active)
        if len(rows) == 0:
            break
        edge = np.where(up[rows], hi[rows], lo[rows])
        beta = np.where(growing[rows], edge, 0.5 * (lo[rows] + hi[rows]))
        perp[rows] = measure(rows, beta)
        bisecting = ~growing[rows]
        split, mid = rows[bisecting], beta[bisecting]
        above = perp[split] > target_perplexity
        lo[split] = np.where(above, mid, lo[split])
        hi[split] = np.where(above, hi[split], mid)

    # At beta = 0 an all-zero row comes out exactly uniform.
    best_beta[degenerate] = 0.0
    probs, achieved = _row_stats(shifted, best_beta, inf_as_zero)
    achieved[degenerate] = float(k)
    return Calibration(probs, best_beta, achieved, best_gap <= tol, degenerate)


@dataclass
class ConditionalRow:
    """Calibrated neighbor distribution of a single point.

    probs sums to 1 over the listed neighbors. beta is the fitted Gaussian
    precision 1 / (2 sigma^2); perplexity is the achieved 2^H. converged
    is False when the search ran out of evaluations before meeting the
    tolerance. degenerate marks rows that fell back to uniform because
    every neighbor distance was zero (duplicate points); they skip the
    search and are not converged.
    """

    neighbors: np.ndarray
    probs: np.ndarray
    beta: float
    perplexity: float
    converged: bool = True
    degenerate: bool = False

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
    ids, sq = exact_knn(x, n_neighbors)
    cal = calibrate(sq, perplexity, tol=tol, max_iter=max_iter)
    rows = [
        ConditionalRow(
            neighbors=ids[i],
            probs=cal.probs[i],
            beta=float(cal.beta[i]),
            perplexity=float(cal.perplexity[i]),
            converged=bool(cal.converged[i]),
            degenerate=bool(cal.degenerate[i]),
        )
        for i in range(len(ids))
    ]
    return symmetrize(ids, cal.probs, len(ids)), rows
