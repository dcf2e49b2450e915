"""Structure-preservation scores for judging an embedding.

All three scores are invariant to rigid motions of the map: neighbor
overlap and break detection depend only on distances, the centroid score
only on distance ranks.

knn_preservation is the second user of the package's one worker thread
(core.side_by_side), after objective.gradient_bh: the input's search runs
there while the calling thread searches the map. Both searches keep their
BLAS products on their own threads (core.chunked_matmul), so OpenBLAS's
thread pool stays idle and the two run on two cores.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np

from .affinity import exact_knn
from .core import as_points, side_by_side
from .macro import pairwise_sq_dists


def knn_preservation(x, y, k: int) -> float:
    """Mean fraction of each point's k nearest input neighbors that are
    also among its k nearest map neighbors. Both sides use exact search,
    side by side on two threads (core.side_by_side).
    """
    xs = as_points(x, "x")
    ys = as_points(y, "y")
    if len(xs) != len(ys):
        raise ValueError("x and y must have the same number of rows")
    n = len(xs)
    if not (1 <= k <= n - 1):
        raise ValueError(f"k={k} must lie in [1, {n - 1}]")
    # One key per (point, neighbor) pair; rows hold distinct ids, so the
    # keys shared by both sides count the overlap.
    (x_ids, _), (y_ids, _) = side_by_side(partial(exact_knn, xs, k), partial(exact_knn, ys, k))
    owner = np.arange(n)[:, None] * n
    overlap = len(np.intersect1d(owner + x_ids, owner + y_ids, assume_unique=True))
    return overlap / (n * k)


def line_continuity(y, segments, factor: float = 5.0) -> float:
    """Fraction of consecutive within-segment pairs torn apart in the map.

    segments is a list of (start, end) half-open index ranges that must be
    disjoint with at least 2 points each. A pair breaks when its map
    distance exceeds factor times its segment's median consecutive
    distance; the fraction pools every pair across segments.
    """
    ys = as_points(y, "y")
    if factor <= 1.0:
        raise ValueError("factor must exceed 1")
    if not segments:
        raise ValueError("need at least one segment")
    spans = sorted((int(a), int(b)) for a, b in segments)
    prev_end = -1
    for a, b in spans:
        if not (0 <= a < b <= len(ys)):
            raise ValueError(f"segment ({a}, {b}) out of range")
        if b - a < 2:
            raise ValueError(f"segment ({a}, {b}) needs at least 2 points")
        if a < prev_end:
            raise ValueError("segments overlap")
        prev_end = b
    breaks = 0
    total = 0
    for a, b in spans:
        gaps = np.linalg.norm(np.diff(ys[a:b], axis=0), axis=1)
        median = float(np.median(gaps))
        breaks += int((gaps > factor * median).sum())
        total += len(gaps)
    return breaks / total


def _average_ranks(v: np.ndarray) -> np.ndarray:
    # Equal values sit side by side in the sorted order; a group holding
    # sorted positions [start, end) takes ranks start + 1 .. end, whose
    # mean (start + end + 1) / 2 is a half-integer, exact in float64.
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _upper_distances(points: np.ndarray) -> np.ndarray:
    d2 = pairwise_sq_dists(points, points)
    iu = np.triu_indices(len(points), k=1)
    return np.sqrt(d2[iu])


def centroid_distance_correlation(t: np.ndarray, c: np.ndarray) -> float:
    """Spearman correlation between high- and low-dimensional centroid
    pair distances. With fewer than 3 centroids (under 3 pairs) the rank
    correlation is undefined: warns and returns nan.
    """
    t = as_points(t, "t")
    c = as_points(c, "c")
    if len(t) != len(c):
        raise ValueError("t and c must have the same number of rows")
    if len(t) < 3:
        warnings.warn("fewer than 3 centroids: correlation undefined", stacklevel=2)
        return float("nan")
    a = _average_ranks(_upper_distances(t))
    b = _average_ranks(_upper_distances(c))
    sa = a.std()
    sb = b.std()
    if sa == 0.0 or sb == 0.0:
        warnings.warn("constant distance ranks: correlation undefined", stacklevel=2)
        return float("nan")
    return float(((a - a.mean()) @ (b - b.mean())) / (len(a) * sa * sb))
