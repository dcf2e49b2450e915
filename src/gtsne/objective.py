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
    a cell's count equals the sum of its children's counts.
    """

    center: np.ndarray    # (m, d) geometric cell centers
    half: np.ndarray      # (m,) half of the cell side length
    com: np.ndarray       # (m, d) center of mass of contained points
    count: np.ndarray     # (m,) contained point count
    children: np.ndarray  # (m, 2^d) child node ids, -1 where absent
    is_leaf: np.ndarray   # (m,) bool
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
    counts = [np.array([n], dtype=np.int64)]
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
        counts.append(cnts.astype(np.int64))
        leaves.append(child_leaf)
        children.append(np.full((m_new, n_children), -1, dtype=np.int64))

        pt_node[active] = new_ids[inverse]
        active = active[~child_leaf[inverse]]
        level_base = total_nodes
        total_nodes += m_new

    return QuadTree(
        center=np.concatenate(centers, axis=0),
        half=np.concatenate(halves),
        com=np.concatenate(coms, axis=0),
        count=np.concatenate(counts),
        children=np.concatenate(children, axis=0),
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

    pts = np.arange(n)
    nodes = np.zeros(n, dtype=np.int64)
    while len(pts):
        com = tree.com[nodes]
        diff = y[pts] - com
        dist2 = np.einsum("ij,ij->i", diff, diff)
        leaf = tree.is_leaf[nodes]
        side = 2.0 * tree.half[nodes]
        accept = leaf | (side * side < theta2 * dist2)

        if np.any(accept):
            apts = pts[accept]
            mult = tree.count[nodes[accept]].astype(np.float64)
            adist2 = dist2[accept]
            self_hit = leaf[accept] & (adist2 == 0.0)
            mult = np.where(self_hit, mult - 1.0, mult)
            w = 1.0 / (1.0 + adist2)
            zsum += np.bincount(apts, weights=mult * w, minlength=n)
            fw = mult * w * w
            adiff = diff[accept]
            for ax in range(d):
                force[:, ax] += np.bincount(
                    apts, weights=fw * adiff[:, ax], minlength=n
                )

        descend = ~accept
        if not np.any(descend):
            break
        ch = tree.children[nodes[descend]]
        valid = ch >= 0
        pts = np.repeat(pts[descend], valid.sum(axis=1))
        nodes = ch[valid]

    return force, zsum


@dataclass
class GradientWorkspace:
    """Byproducts of one gradient evaluation, reused for logging."""

    z_y: float               # map-affinity normalizer (exact or estimated)
    c: np.ndarray            # (k, d) map centroids
    q_macro: np.ndarray      # (k, k) map centroid affinities
    loss_total: float
    loss_micro: float
    loss_macro: float
    loss_kmeans: float
    z_estimator: str         # "exact" or "barnes_hut"
    underflow_clamped: bool


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


def _micro_loss(p: AffinityModel, edge_kern: np.ndarray, z_y: float):
    """KL part between P and the map distribution.

    edge_kern holds the map kernel on P's expanded (both-direction) edge
    list. Map affinities below Q_FLOOR are clamped inside the log; the
    second return value reports whether that happened.
    """
    _, _, vv = p.expanded()
    mask = vv > 0
    v = vv[mask]
    with np.errstate(divide="ignore"):
        log_q = np.log(edge_kern[mask]) - np.log(z_y)
    clamped = bool(np.any(log_q < _LOG_Q_FLOOR))
    log_q = np.maximum(log_q, _LOG_Q_FLOOR)
    return float(v @ (np.log(v) - log_q)), clamped


def _macro_loss(p_macro: np.ndarray, kern: np.ndarray, z_c: float):
    mask = p_macro > 0
    pm = p_macro[mask]
    with np.errstate(divide="ignore"):
        log_qm = np.log(kern[mask]) - np.log(z_c) if z_c > 0 else np.full(pm.shape, -np.inf)
    clamped = bool(np.any(log_qm < _LOG_Q_FLOOR))
    log_qm = np.maximum(log_qm, _LOG_Q_FLOOR)
    return float(pm @ (np.log(pm) - log_qm)), clamped


def _kmeans_loss(y: np.ndarray, r: np.ndarray, c: np.ndarray) -> float:
    total = 0.0
    for k in range(len(c)):
        total += float(r[k] @ ((y - c[k]) ** 2).sum(axis=1))
    return total / len(y)


def _attraction(y: np.ndarray, p: AffinityModel):
    """Exact sparse attractive force and the map kernel on P's edges."""
    n, d = y.shape
    ii, jj, vv = p.expanded()
    diff = y[ii] - y[jj]
    ed2 = np.einsum("ij,ij->i", diff, diff)
    edge_kern = 1.0 / (1.0 + ed2)
    w = vv * edge_kern
    att = np.zeros((n, d))
    for ax in range(d):
        att[:, ax] = np.bincount(ii, weights=w * diff[:, ax], minlength=n)
    return att, edge_kern


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
    kern, z_y = _dense_map_kernel(y)
    _, edge_kern = _attraction(y, p)  # kernel on P's edges, exact
    l_micro, _ = _micro_loss(p, edge_kern, z_y)
    c, _, mkern, _ = _macro_state(y, macro)
    l_macro, _ = _macro_loss(macro.p_macro, mkern, float(mkern.sum()))
    l_kmeans = _kmeans_loss(y, macro.r, c)
    total = l_micro + cfg.alpha * l_macro + cfg.beta * l_kmeans
    return total, l_micro, l_macro, l_kmeans


def _assemble(y, p, macro, cfg, att, rep, z_y, edge_kern, estimator):
    c, masses, mkern, q_macro = _macro_state(y, macro)
    g = 4.0 * (att - rep)
    g += _macro_gradient(y, macro, c, masses, mkern, q_macro, cfg.alpha, cfg.gradient_mode)
    g += _kmeans_gradient(y, macro, c, cfg.beta)

    l_micro, clamped_micro = _micro_loss(p, edge_kern, z_y)
    l_macro, clamped_macro = _macro_loss(macro.p_macro, mkern, float(mkern.sum()))
    l_kmeans = _kmeans_loss(y, macro.r, c)
    total = l_micro + cfg.alpha * l_macro + cfg.beta * l_kmeans
    ws = GradientWorkspace(
        z_y=z_y,
        c=c,
        q_macro=q_macro,
        loss_total=total,
        loss_micro=l_micro,
        loss_macro=l_macro,
        loss_kmeans=l_kmeans,
        z_estimator=estimator,
        underflow_clamped=clamped_micro or clamped_macro,
    )
    return g, ws


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
    att, edge_kern = _attraction(y, p)
    sq = kern * kern
    rep = (sq.sum(axis=1)[:, None] * y - sq @ y) / z_y
    return _assemble(y, p, macro, cfg, att, rep, z_y, edge_kern, "exact")


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
    att, edge_kern = _attraction(y, p)
    rep = force / z_y
    if loss_p is None:
        loss_p = p
    elif not (np.array_equal(loss_p.row, p.row) and np.array_equal(loss_p.col, p.col)):
        raise ValueError("loss_p must have the same pairs as p")
    return _assemble(y, loss_p, macro, cfg, att, rep, z_y, edge_kern, "barnes_hut")
