"""Reference computations the benchmark checks the program against.

Written apart from the gtsne package and importing nothing from it, so an
agreement between the two is evidence rather than a tautology:

- knn: blocked brute-force neighbours by (squared distance, index);
- calibrate: one vectorised bisection over every row to the target
  perplexity, run to the exact root;
- symmetrize: pair-key symmetrization into unordered pairs (i < j);
- exact_kl: KL(P || Q) with the exact Q normalizer, summed in row chunks.
"""

from __future__ import annotations

import numpy as np

# Rows per block. A block's difference array is (BLOCK, n, d) floats, so
# 5000 points in 10-D take 25 MB per block.
BLOCK = 64

# Bisection on log(beta) over [-LOG_BETA_SPAN, LOG_BETA_SPAN]: 64 halvings
# of a width-100 bracket leave about 5e-18 in log(beta), below the float64
# resolution of any beta in range.
LOG_BETA_SPAN = 50.0
BISECTION_STEPS = 64


def sq_dists_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a and of b, as sums of
    squared differences, which carry no cancellation error."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def knn(points: np.ndarray, k: int):
    """Exact k nearest neighbours of every point, itself excluded.

    Returns (ids, sq) of shape (n, k), each row ordered by ascending
    (squared distance, index), so equal distances keep index order.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} must lie in [1, {n - 1}]")
    ids = np.empty((n, k), dtype=np.int64)
    sq = np.empty((n, k))
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        d2 = sq_dists_block(points[start:stop], points)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        for r in range(stop - start):
            # Every point tied with the k-th distance is a candidate; the
            # stable sort then breaks the tie by index.
            cand = np.flatnonzero(d2[r] <= kth[r])
            order = np.argsort(d2[r, cand], kind="stable")[:k]
            ids[start + r] = cand[order]
            sq[start + r] = d2[r, cand[order]]
    return ids, sq


def row_entropy(shifted: np.ndarray, beta: np.ndarray):
    """Row distributions exp(-beta * shifted) and their entropies in nats.

    shifted holds squared distances minus each row's minimum, so every
    row's largest weight is 1 and the sum never underflows.
    """
    w = np.exp(-beta[:, None] * shifted)
    total = w.sum(axis=1)
    probs = w / total[:, None]
    h = np.log(total) + beta * np.einsum("ij,ij->i", shifted, probs)
    return probs, h


def calibrate(sq: np.ndarray, perplexity: float):
    """Fit every row's Gaussian precision so 2^H equals the perplexity.

    Returns (probs, beta). Entropy falls monotonically as beta grows, so
    bisection on log(beta) over a fixed bracket converges for every row at
    once. A row whose distances are all equal (duplicates) has constant
    entropy and comes out uniform, as its bisection runs to the bracket's
    low end, where the weights are all 1.
    """
    sq = np.asarray(sq, dtype=np.float64)
    shifted = sq - sq.min(axis=1, keepdims=True)
    target = np.log(perplexity)
    lo = np.full(len(sq), -LOG_BETA_SPAN)
    hi = np.full(len(sq), LOG_BETA_SPAN)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        _, h = row_entropy(shifted, np.exp(mid))
        too_flat = h > target
        lo = np.where(too_flat, mid, lo)
        hi = np.where(too_flat, hi, mid)
    beta = np.exp(0.5 * (lo + hi))
    flat = shifted.max(axis=1) == 0.0
    beta[flat] = 0.0
    probs, _ = row_entropy(shifted, beta)
    return probs, beta


def perplexity_gap(sq: np.ndarray, beta: np.ndarray, perplexity: float) -> np.ndarray:
    """|2^H - target| of each row at the given precisions."""
    sq = np.asarray(sq, dtype=np.float64)
    shifted = sq - sq.min(axis=1, keepdims=True)
    _, h = row_entropy(shifted, np.asarray(beta, dtype=np.float64))
    return np.abs(np.exp(h) - perplexity)


def symmetrize(ids: np.ndarray, probs: np.ndarray, n: int):
    """Joint P over unordered pairs from per-row conditionals.

    Each directed entry p(j|i) adds p / (2n) to the pair key
    min(i, j) * n + max(i, j). Returns (row, col, val) sorted by key, with
    row < col and 2 * val.sum() equal to 1.
    """
    i = np.repeat(np.arange(n, dtype=np.int64), ids.shape[1])
    j = ids.ravel().astype(np.int64)
    if np.any(i == j):
        raise ValueError("a row lists itself as a neighbour")
    keys = np.minimum(i, j) * n + np.maximum(i, j)
    uniq, inverse = np.unique(keys, return_inverse=True)
    val = np.bincount(inverse, weights=probs.ravel()) / (2.0 * n)
    return uniq // n, uniq % n, val


def affinities(x: np.ndarray, n_neighbors: int, perplexity: float):
    """The joint P of x, as (row, col, val) over unordered pairs."""
    ids, sq = knn(x, n_neighbors)
    probs, _ = calibrate(sq, perplexity)
    return symmetrize(ids, probs, len(x))


def map_normalizer(y: np.ndarray) -> float:
    """Exact Z = sum over ordered pairs i != j of 1 / (1 + |y_i - y_j|^2)."""
    y = np.asarray(y, dtype=np.float64)
    z = 0.0
    for start in range(0, len(y), BLOCK):
        z += float((1.0 / (1.0 + sq_dists_block(y[start:start + BLOCK], y))).sum())
    return z - len(y)  # each diagonal term is exactly 1


def exact_kl(row, col, val, y: np.ndarray) -> float:
    """KL(P || Q) in nats, Q the map's heavy-tailed pair distribution.

    P is given once per unordered pair and counts in both directions.
    """
    y = np.asarray(y, dtype=np.float64)
    live = val > 0
    row, col, val = row[live], col[live], val[live]
    diff = y[row] - y[col]
    log_q = -np.log1p(np.einsum("ij,ij->i", diff, diff)) - np.log(map_normalizer(y))
    return float(2.0 * val @ (np.log(val) - log_q))


def uniform_kl(val: np.ndarray, n: int) -> float:
    """KL(P || U) for U uniform over the n (n - 1) ordered pairs."""
    v = val[val > 0]
    return float(2.0 * v @ np.log(v) + np.log(n * (n - 1.0)))


def overlap_count(ids_a: np.ndarray, ids_b: np.ndarray) -> int:
    """Number of (point, neighbour) entries the two neighbour tables share."""
    n, k = ids_a.shape
    base = np.arange(n, dtype=np.int64)[:, None] * n
    return int(np.isin(ids_a + base, ids_b + base).sum())


def label_agreement(ids: np.ndarray, labels: np.ndarray) -> float:
    """Share of neighbour entries whose label matches the point's own."""
    return float((labels[ids] == labels[:, None]).mean())


def kmeans(z: np.ndarray, k: int, seed: int, max_iter: int = 100) -> np.ndarray:
    """Lloyd iterations from k-means++ seeding; returns the (k, d) centroids.

    An emptied cluster keeps its previous centroid.
    """
    z = np.asarray(z, dtype=np.float64)
    rng = np.random.default_rng(seed)
    t = np.empty((k, z.shape[1]))
    t[0] = z[rng.integers(len(z))]
    closest = ((z - t[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        t[j] = z[rng.choice(len(z), p=closest / closest.sum())]
        closest = np.minimum(closest, ((z - t[j]) ** 2).sum(axis=1))
    assign = None
    for _ in range(max_iter):
        new = sq_dists_block(z, t).argmin(axis=1)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        sizes = np.bincount(assign, minlength=k)
        sums = np.zeros_like(t)
        np.add.at(sums, assign, z)
        kept = sizes > 0
        t[kept] = sums[kept] / sizes[kept, None]
    return t


def responsibility_means(z: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Map centroids as responsibility-weighted means of the map points.

    A point's responsibility toward centroid k is 1 / (1 + s |z - t_k|^2)
    with s = (d / d_z)^2, normalized over centroids.
    """
    s = (y.shape[1] / z.shape[1]) ** 2
    raw = 1.0 / (1.0 + s * sq_dists_block(t, z))
    r = raw / raw.sum(axis=0, keepdims=True)
    return (r @ y) / r.sum(axis=1)[:, None]


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    ranks = np.empty(len(v))
    start = 0
    while start < len(v):
        stop = start + 1
        while stop < len(v) and sorted_v[stop] == sorted_v[start]:
            stop += 1
        ranks[order[start:stop]] = 0.5 * (start + stop - 1) + 1.0
        start = stop
    return ranks


def spearman_centroid_distances(t: np.ndarray, c: np.ndarray) -> float:
    """Spearman correlation between the pair distances of t and of c."""
    iu = np.triu_indices(len(t), k=1)
    a = _average_ranks(np.sqrt(sq_dists_block(t, t)[iu]))
    b = _average_ranks(np.sqrt(sq_dists_block(c, c)[iu]))
    a -= a.mean()
    b -= b.mean()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))
