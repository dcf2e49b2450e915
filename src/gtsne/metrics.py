"""Structure-preservation scores for judging an embedding.

All three scores are invariant to rigid motions of the map: neighbor
overlap and the worst-gap ratio depend only on distances, the centroid
score only on distance ranks.

knn_preservation is the second user of the package's one worker thread
(core.side_by_side), after objective.gradient_bh: the input's search runs
there while the calling thread searches the map. Both searches keep their
BLAS products on their own threads (core.chunked_matmul), so OpenBLAS's
thread pool stays idle and the two run on two cores.
"""

from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np

from .affinity import exact_knn
from .core import as_points, in_interval, side_by_side
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
    in_interval(k, "k", 1, n - 1, "[]", integer=True)
    # One key per (point, neighbor) pair; rows hold distinct ids, so the
    # keys shared by both sides count the overlap.
    (x_ids, _), (y_ids, _) = side_by_side(partial(exact_knn, xs, k), partial(exact_knn, ys, k))
    owner = np.arange(n)[:, None] * n
    overlap = len(np.intersect1d(owner + x_ids, owner + y_ids, assume_unique=True))
    return overlap / (n * k)


def worst_gap_ratio(y, segments) -> float:
    """Worst tearing of index-ordered lines in a map.

    segments is a list of (start, end) half-open index ranges, integers,
    that must be disjoint with at least 2 points each. A segment scores its
    largest consecutive map gap over its median consecutive gap, so an
    evenly spaced line scores 1.0 and one gap ten times the rest scores
    10.0; the worst segment's score is returned. A segment whose median gap
    is 0 scores inf if any of its gaps is positive and 1.0 if all its
    points coincide.
    """
    ys = as_points(y, "y")
    if len(segments) == 0:
        raise ValueError("need at least one segment")
    n = len(ys)
    for i, (a, b) in enumerate(segments):
        in_interval(a, f"segments[{i}][0]", 0, n - 2, "[]", integer=True)
        in_interval(b, f"segments[{i}][1]", a + 2, n, "[]", integer=True)  # 2 points or more
    spans = sorted((a, b) for a, b in segments)
    if any(a < end for (_, end), (a, _) in zip(spans, spans[1:])):
        raise ValueError("segments overlap")
    worst = 1.0
    for a, b in spans:
        gaps = np.linalg.norm(np.diff(ys[a:b], axis=0), axis=1)
        median, largest = np.median(gaps), gaps.max()
        if median > 0.0:
            worst = max(worst, float(largest / median))
        elif largest > 0.0:
            return math.inf
    return worst


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
