"""Loss and gradients of the embedding objective.

The objective is a micro KL term between sparse input affinities P and the
map's heavy-tailed pair distribution Q, plus alpha times a KL term between
centroid-level affinities, plus beta times a soft k-means tie between map
points and their responsibility-weighted centroids.

Two gradient paths are provided. gradient_exact evaluates every pair and
supports two centroid-term conventions: "paper" treats the responsibility
rows as constants, "exact" (the default) differentiates through the
centroid positions, which divides each responsibility by its cluster mass.
gradient_bh replaces the micro repulsion and its normalizer with a
Barnes-Hut tree sum; centroid and k-means terms stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .affinity import AffinityModel
from .core import Embedding, EmbedConfig, GRADIENT_MODES
from .macro import MacroAffinity, pairwise_sq_dists

Q_FLOOR = 1e-300  # clamp for underflowed map affinities inside logs
_LOG_Q_FLOOR = np.log(Q_FLOOR)

# Cells smaller than the root size times 2^-_MAX_TREE_DEPTH are closed as
# leaves even if their points differ; the positional error this admits is
# far below every tolerance used anywhere.
_MAX_TREE_DEPTH = 80
_IDENTICAL_CHECK_DEPTH = 8


@dataclass
class QuadTree:
    """Flat-array 2^d-ary subdivision of map points (d = 2 or 3).

    Leaves hold one distinct position with a multiplicity count, so exact
    duplicates share a leaf whose center of mass is their exact position.
    Every cell stores the count and center of mass of the points below it;
    a cell's count equals the sum of its children's counts. Siblings get
    consecutive ids in child-code order, so a cell's children are the
    n_child[i] ids from first_child[i] on.
    """

    center: np.ndarray       # (m, d) geometric cell centers
    half: np.ndarray         # (m,) half of the cell side length
    com: np.ndarray          # (m, d) center of mass of contained points
    count: np.ndarray        # (m,) contained point count, as float
    children: np.ndarray     # (m, 2^d) child node ids, -1 where absent
    first_child: np.ndarray  # (m,) id of the first child, -1 at leaves
    n_child: np.ndarray      # (m,) number of children, 0 at leaves
    is_leaf: np.ndarray      # (m,) bool
    n_points: int
    dim: int

    @property
    def n_nodes(self) -> int:
        return len(self.count)


def build_quadtree(y: np.ndarray) -> QuadTree:
    """Build the subdivision level by level.

    Cells split at their geometric center; a cell closes as a leaf when it
    holds one point, when all its points coincide exactly, or at the depth
    cap. Construction is fully vectorized across each level and
    deterministic for a given y.
    """
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    if y.ndim != 2:
        raise ValueError("y must be 2-D")
    n, d = y.shape
    if d not in (2, 3):
        raise ValueError(f"tree forces support 2-D or 3-D maps, got d={d}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite entries")
    n_children = 1 << d
    axis_bits = np.arange(d)

    lo = y.min(axis=0)
    hi = y.max(axis=0)
    root_center = 0.5 * (lo + hi)
    root_half = float((hi - lo).max()) / 2.0

    centers = [root_center[None, :].copy()]
    halves = [np.array([root_half])]
    counts = [np.array([n], dtype=np.float64)]
    children = [np.full((1, n_children), -1, dtype=np.int64)]

    root_is_leaf = n == 1 or root_half == 0.0
    coms = [y[0][None, :].copy() if root_is_leaf else y.mean(axis=0)[None, :]]
    leaves = [np.array([root_is_leaf])]

    pt_node = np.zeros(n, dtype=np.int64)
    active = np.arange(n) if not root_is_leaf else np.arange(0)
    level_base = 0  # global id of the first node in the previous level
    total_nodes = 1
    depth = 0

    while len(active):
        depth += 1
        if depth > _MAX_TREE_DEPTH:
            # Close every still-open cell; they keep their mean COM.
            for node in np.unique(pt_node[active]):
                leaves[-1][node - level_base] = True
            break

        parents_local = pt_node[active] - level_base
        coords = y[active]
        code = ((coords >= centers[-1][parents_local]) << axis_bits).sum(axis=1)
        key = parents_local * n_children + code
        uniq, inverse, cnts = np.unique(key, return_inverse=True, return_counts=True)
        m_new = len(uniq)
        new_ids = total_nodes + np.arange(m_new)

        par_local = uniq // n_children
        ccode = uniq % n_children
        children[-1][par_local, ccode] = new_ids

        bits = (ccode[:, None] >> axis_bits[None, :]) & 1
        parent_half = halves[-1][par_local]
        child_center = centers[-1][par_local] + (2 * bits - 1) * (
            parent_half[:, None] / 2.0
        )
        child_half = parent_half / 2.0

        sums = np.empty((m_new, d))
        for ax in range(d):
            sums[:, ax] = np.bincount(inverse, weights=coords[:, ax], minlength=m_new)
        child_com = sums / cnts[:, None]

        child_leaf = cnts == 1
        if depth >= _IDENTICAL_CHECK_DEPTH:
            order = np.argsort(inverse, kind="stable")
            starts = np.concatenate(([0], np.cumsum(cnts)[:-1]))
            sorted_pts = coords[order]
            mins = np.minimum.reduceat(sorted_pts, starts, axis=0)
            maxs = np.maximum.reduceat(sorted_pts, starts, axis=0)
            identical = np.all(mins == maxs, axis=1) & (cnts > 1)
            if np.any(identical):
                # Give duplicate groups their exact shared position.
                child_com[identical] = coords[order[starts[identical]]]
                child_leaf = child_leaf | identical

        centers.append(child_center)
        halves.append(child_half)
        coms.append(child_com)
        counts.append(cnts.astype(np.float64))
        leaves.append(child_leaf)
        children.append(np.full((m_new, n_children), -1, dtype=np.int64))

        pt_node[active] = new_ids[inverse]
        active = active[~child_leaf[inverse]]
        level_base = total_nodes
        total_nodes += m_new

    children = np.concatenate(children, axis=0)
    has_child = children >= 0
    return QuadTree(
        center=np.concatenate(centers, axis=0),
        half=np.concatenate(halves),
        com=np.concatenate(coms, axis=0),
        count=np.concatenate(counts),
        children=children,
        first_child=children[np.arange(total_nodes), has_child.argmax(axis=1)],
        n_child=has_child.sum(axis=1),
        is_leaf=np.concatenate(leaves),
        n_points=n,
        dim=d,
    )


def _tree_forces(tree: QuadTree, y: np.ndarray, theta: float):
    """Barnes-Hut sweep for every point at once.

    Returns (force, zsum): force[i] approximates the kernel-squared
    weighted displacement sum over all other points, zsum[i] the kernel
    sum, with a cell accepted when side / distance < theta. Each point's
    own contribution is removed exactly via leaf multiplicities.
    """
    n, d = y.shape
    force = np.zeros((n, d))
    zsum = np.zeros(n)
    theta2 = theta * theta
    # A leaf's squared side is -1 so the accept test always takes it. An
    # inner cell is taken only at a positive distance, so a hit at
    # distance 0 is a leaf holding the point itself.
    side = 2.0 * tree.half
    side2 = np.where(tree.is_leaf, -1.0, side * side)

    # Row gathers go through take and masks through index lists: numpy's
    # fancy indexing of (L, d) rows and boolean masks cost several times
    # more and give the same values.
    pts = np.arange(n)
    nodes = np.zeros(n, dtype=np.int64)
    while len(pts):
        diff = y.take(pts, axis=0) - tree.com.take(nodes, axis=0)
        dist2 = np.einsum("ij,ij->i", diff, diff)
        accept = side2[nodes] < theta2 * dist2

        hit = np.flatnonzero(accept)
        if len(hit):
            apts = pts[hit]
            adist2 = dist2[hit]
            mult = tree.count[nodes[hit]]
            mult = np.where(adist2 == 0.0, mult - 1.0, mult)
            w = 1.0 / (1.0 + adist2)
            mw = mult * w
            zsum += np.bincount(apts, weights=mw, minlength=n)
            fw = mw * w
            adiff = diff.take(hit, axis=0)
            for ax in range(d):
                force[:, ax] += np.bincount(
                    apts, weights=fw * adiff[:, ax], minlength=n
                )
        if len(hit) == len(pts):
            break

        # Each descending pair fans out to its cell's consecutive children.
        down = np.flatnonzero(~accept)
        parents = nodes[down]
        fan = tree.n_child[parents]
        pts = np.repeat(pts[down], fan)
        offset = np.cumsum(fan) - fan
        nodes = np.repeat(tree.first_child[parents] - offset, fan) + np.arange(len(pts))

    return force, zsum


class GradientWorkspace:
    """Byproducts of one gradient evaluation, reused for logging.

    z_y is the map-affinity normalizer (exact or estimated), c the (k, d)
    map centroids, q_macro their (k, k) affinities and z_estimator
    "exact" or "barnes_hut". The loss_* values and underflow_clamped are
    worked out from the byproducts the first time one of them is read, so
    an iteration that logs nothing never pays for them.
    """

    def __init__(self, z_y, c, q_macro, z_estimator, loss_inputs):
        self.z_y = z_y
        self.c = c
        self.q_macro = q_macro
        self.z_estimator = z_estimator
        self._loss_inputs = loss_inputs

    @cached_property
    def _losses(self) -> Losses:
        return _evaluate_losses(*self._loss_inputs)

    loss_total = property(lambda ws: ws._losses.total)
    loss_micro = property(lambda ws: ws._losses.micro)
    loss_macro = property(lambda ws: ws._losses.macro)
    loss_kmeans = property(lambda ws: ws._losses.kmeans)
    underflow_clamped = property(lambda ws: ws._losses.clamped)


def _as_y(y) -> np.ndarray:
    return y.y if isinstance(y, Embedding) else np.asarray(y, dtype=np.float64)


def _dense_map_kernel(y: np.ndarray):
    kern = 1.0 / (1.0 + pairwise_sq_dists(y, y))
    np.fill_diagonal(kern, 0.0)
    return kern, float(kern.sum())


def _macro_state(y: np.ndarray, macro: MacroAffinity):
    """Map centroids and their affinity distribution."""
    r = macro.r
    masses = r.sum(axis=1)
    c = (r @ y) / masses[:, None]
    kern = 1.0 / (1.0 + pairwise_sq_dists(c, c))
    np.fill_diagonal(kern, 0.0)
    z_c = float(kern.sum())
    q_macro = kern / z_c if z_c > 0.0 else np.zeros_like(kern)
    return c, masses, kern, q_macro


def _macro_gradient(y, macro, c, masses, kern, q_macro, alpha, mode):
    if alpha == 0.0 or macro.n_clusters < 2:
        return np.zeros_like(y)
    w = (macro.p_macro - q_macro) * kern
    b = w.sum(axis=1)[:, None] * c - w @ c
    a = macro.r / masses[:, None] if mode == "exact" else macro.r
    return 4.0 * alpha * (a.T @ b)


def _kmeans_gradient(y, macro, c, beta):
    if beta == 0.0:
        return np.zeros_like(y)
    # Responsibility columns sum to 1, so the weighted pull toward each
    # centroid collapses to y - R^T c. Differentiating through c adds
    # nothing: the centroids are exactly the responsibility-weighted
    # means, which zeroes that term.
    return (2.0 * beta / len(y)) * (y - macro.r.T @ c)


def _micro_loss(val: np.ndarray, pair_kern: np.ndarray, z_y: float):
    """KL part between P and the map distribution.

    val and pair_kern hold P and the map kernel on P's stored pairs; each
    pair counts once in each direction. Map affinities below Q_FLOOR are
    clamped inside the log; the second return value reports whether that
    happened.
    """
    mask = val > 0
    v = val[mask]
    with np.errstate(divide="ignore"):
        log_q = np.log(pair_kern[mask]) - np.log(z_y)
    clamped = bool(np.any(log_q < _LOG_Q_FLOOR))
    log_q = np.maximum(log_q, _LOG_Q_FLOOR)
    return 2.0 * float(v @ (np.log(v) - log_q)), clamped


def _macro_loss(p_macro: np.ndarray, kern: np.ndarray, z_c: float):
    mask = p_macro > 0
    pm = p_macro[mask]
    with np.errstate(divide="ignore"):
        log_qm = np.log(kern[mask]) - np.log(z_c) if z_c > 0 else np.full(pm.shape, -np.inf)
    clamped = bool(np.any(log_qm < _LOG_Q_FLOOR))
    log_qm = np.maximum(log_qm, _LOG_Q_FLOOR)
    return float(pm @ (np.log(pm) - log_qm)), clamped


def _kmeans_loss(y: np.ndarray, r: np.ndarray, c: np.ndarray) -> float:
    sq = np.zeros((len(c), len(y)))  # (k, n) squared map distances to centroids
    for ax in range(y.shape[1]):
        sq += (y[:, ax] - c[:, ax, None]) ** 2
    return float(np.einsum("ki,ki->", r, sq)) / len(y)


class Losses(NamedTuple):
    """The objective's parts at one map position."""

    total: float
    micro: float
    macro: float
    kmeans: float
    clamped: bool  # a map affinity fell below Q_FLOOR inside a log


def _evaluate_losses(y, val, pair_kern, z_y, macro, centroid_kern, c, alpha, beta):
    """The objective's parts from one evaluation's byproducts."""
    l_micro, clamped_micro = _micro_loss(val, pair_kern, z_y)
    l_macro, clamped_macro = _macro_loss(
        macro.p_macro, centroid_kern, float(centroid_kern.sum())
    )
    l_kmeans = _kmeans_loss(y, macro.r, c)
    total = l_micro + alpha * l_macro + beta * l_kmeans
    return Losses(total, l_micro, l_macro, l_kmeans, clamped_micro or clamped_macro)


def _attraction(y: np.ndarray, p: AffinityModel):
    """Exact sparse attractive force and the map kernel on P's pairs.

    Each stored pair is evaluated once; its force reaches both ends with
    opposite signs through one scatter over p.ends.
    """
    n, d = y.shape
    diff = y.take(p.row, axis=0) - y.take(p.col, axis=0)
    pair_kern = 1.0 / (1.0 + np.einsum("ij,ij->i", diff, diff))
    w = p.val * pair_kern
    att = np.empty((n, d))
    for ax in range(d):
        wd = w * diff[:, ax]
        att[:, ax] = np.bincount(p.ends, weights=np.concatenate([wd, -wd]), minlength=n)
    return att, pair_kern


def _check_inputs(y, p, macro):
    if len(y) != p.n:
        raise ValueError(f"embedding has {len(y)} rows but P was built for {p.n}")
    if macro.r.shape[1] != len(y):
        raise ValueError(
            f"responsibilities cover {macro.r.shape[1]} points, embedding has {len(y)}"
        )


def loss(y, p: AffinityModel, macro: MacroAffinity, cfg: EmbedConfig):
    """Reference objective value with the exact normalizer.

    Returns (total, micro, macro, kmeans) where total is micro plus the
    alpha- and beta-weighted parts. Evaluates all map pairs, so intended
    for moderate n and for checking the tree path.
    """
    y = _as_y(y)
    _check_inputs(y, p, macro)
    _, z_y = _dense_map_kernel(y)
    _, pair_kern = _attraction(y, p)
    c, _, centroid_kern, _ = _macro_state(y, macro)
    parts = _evaluate_losses(
        y, p.val, pair_kern, z_y, macro, centroid_kern, c, cfg.alpha, cfg.beta
    )
    return parts[:4]


def _assemble(y, p, macro, cfg, att, rep, z_y, pair_kern, estimator):
    c, masses, mkern, q_macro = _macro_state(y, macro)
    g = 4.0 * (att - rep)
    g += _macro_gradient(y, macro, c, masses, mkern, q_macro, cfg.alpha, cfg.gradient_mode)
    g += _kmeans_gradient(y, macro, c, cfg.beta)
    loss_inputs = (y, p.val, pair_kern, z_y, macro, mkern, c, cfg.alpha, cfg.beta)
    return g, GradientWorkspace(z_y, c, q_macro, estimator, loss_inputs)


def gradient_exact(y, p: AffinityModel, macro: MacroAffinity, cfg: EmbedConfig):
    """All-pairs gradient. Returns (g, GradientWorkspace).

    The centroid term follows cfg.gradient_mode; see the module docstring.
    """
    if cfg.gradient_mode not in GRADIENT_MODES:
        raise ValueError(f"unknown gradient_mode {cfg.gradient_mode!r}")
    y = _as_y(y)
    _check_inputs(y, p, macro)
    kern, z_y = _dense_map_kernel(y)
    z_y = max(z_y, Q_FLOOR)
    att, pair_kern = _attraction(y, p)
    sq = kern * kern
    rep = (sq.sum(axis=1)[:, None] * y - sq @ y) / z_y
    return _assemble(y, p, macro, cfg, att, rep, z_y, pair_kern, "exact")


def gradient_bh(
    y, p: AffinityModel, macro: MacroAffinity, cfg: EmbedConfig, loss_p=None
):
    """Barnes-Hut gradient. Returns (g, GradientWorkspace).

    The micro repulsion and the normalizer are tree estimates controlled
    by cfg.bh_theta (0 recovers the exact sums); attraction, centroid, and
    k-means terms are exact. The map must be 2-D or 3-D. The workspace's
    losses are measured against loss_p when given, a P with p's pairs:
    under early exaggeration p is the scaled P, and the plain P gives
    the objective's value.
    """
    if cfg.gradient_mode not in GRADIENT_MODES:
        raise ValueError(f"unknown gradient_mode {cfg.gradient_mode!r}")
    y = _as_y(y)
    _check_inputs(y, p, macro)
    tree = build_quadtree(y)
    force, zsum = _tree_forces(tree, y, cfg.bh_theta)
    z_y = max(float(zsum.sum()), Q_FLOOR)
    att, pair_kern = _attraction(y, p)
    rep = force / z_y
    if loss_p is None:
        loss_p = p
    elif not (np.array_equal(loss_p.row, p.row) and np.array_equal(loss_p.col, p.col)):
        raise ValueError("loss_p must have the same pairs as p")
    return _assemble(y, loss_p, macro, cfg, att, rep, z_y, pair_kern, "barnes_hut")
