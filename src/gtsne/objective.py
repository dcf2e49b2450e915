"""Loss and gradients of the embedding objective.

The objective is a micro KL term between sparse input affinities P and the
map's heavy-tailed pair distribution Q, plus alpha times a KL term between
centroid-level affinities, plus beta times a soft k-means tie between map
points and their responsibility-weighted centroids.

gradient_bh evaluates it. The centroid term follows cfg.gradient_mode:
"paper" treats the responsibility rows as constants, "exact" (the
default) differentiates through the centroid positions, which divides
each centroid's pull by its cluster mass. The micro repulsion and its
normalizer come from one of three engines, picked per call from the map:
exact all-pairs sums in row blocks at bh_theta = 0 and for maps of up to
_EXACT_MAX_POINTS points that the grid does not take, an interpolation
grid (Linderman et al., Nature Methods 2019) for 2-D maps whose grid is
small for their point count, and a Barnes-Hut tree for the larger maps
left. Attraction, centroid and k-means terms are always exact, so at
bh_theta = 0 gradient_bh gives the exact gradient and its workspace the
exact losses, in memory bounded by the row blocks rather than n x n.
gradient_bh checks the map with core.as_points before any engine runs.

The repulsion does not depend on the other terms, so gradient_bh runs it
on the package's one worker thread (core.side_by_side, which
metrics.knn_preservation shares), while the calling thread computes the
attraction, the map centroids and the centroid pull's gradient term;
after the wait only their combination is left, in a fixed order, so g
has the bits of a one-thread evaluation. Numpy releases the interpreter
lock in its array loops, FFTs and BLAS calls, so the two threads run on
two cores. Per-iteration BLAS calls stay small enough that OpenBLAS
runs them on the calling thread (core.chunked_matmul): a split product
would wake its thread pool, whose workers spin on the second core for
about 0.1 s after each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import core
from .affinity import AffinityModel
from .core import EmbedConfig, GRADIENT_MODES, as_points, chunked_matmul, in_interval
from .macro import MacroAffinity, student_t_kernel

Q_FLOOR = 1e-300  # clamp for underflowed map affinities inside logs
_LOG_Q_FLOOR = np.log(Q_FLOOR)


@dataclass
class QuadTree:
    """Flat-array quadtree (octree for d = 3) of map points.

    Leaves hold one distinct position with a multiplicity count, so exact
    duplicates share a leaf whose center of mass is their exact position.
    Every cell stores the count and center of mass of the points below it;
    a cell's count equals the sum of its children's counts. Cells are
    numbered level by level, and siblings get consecutive ids in path
    order, so a cell's children are the n_child[i] ids from
    first_child[i] on. A cell of the finest grid that still holds distinct
    points has one leaf child per position, possibly more than 2^d.
    """

    half: np.ndarray         # (m,) half of the cell side length
    com: np.ndarray          # (m, d) center of mass of contained points
    count: np.ndarray        # (m,) contained point count, as float
    first_child: np.ndarray  # (m,) id of the first child, -1 at leaves
    n_child: np.ndarray      # (m,) number of children, 0 exactly at leaves

    @property
    def n_nodes(self) -> int:
        return len(self.count)


def build_quadtree(y: np.ndarray) -> QuadTree:
    """Build the subdivision from one sort of path keys.

    The root is the cube around the points' bounding box, and cells split
    at their geometric center. A point's key is its cell on the finest
    grid, 2^(63 // d) cells per axis, with the d child-code bits of each
    level (axis 0 least significant) interleaved from the root down.
    Sorted by (key, coordinates), each level's cells are the runs of equal
    key prefix among the points in open cells; a cell closes as a leaf
    when its first and last points coincide. Below the finest grid, cells
    split by exact position. Deterministic for a given y.
    """
    y = as_points(y, "y")
    n, d = y.shape
    if d not in (2, 3):
        raise ValueError(f"tree forces support 2-D or 3-D maps, got d={d}")
    grid_levels = 63 // d

    lo = y.min(axis=0)
    hi = y.max(axis=0)
    half = float((hi - lo).max()) / 2.0

    # The key bits repeat the float center updates of a level-by-level
    # split, so a point lands on the side of every center that such a
    # split would put it on.
    key = np.zeros(n, dtype=np.int64)
    center = np.repeat(0.5 * (lo + hi)[None, :], n, axis=0)
    h = half
    for _ in range(grid_levels):
        h /= 2.0
        above = y >= center
        key <<= d
        for ax in range(d):
            key |= above[:, ax] << ax
        center += above * (2.0 * h) - h

    order = np.argsort(key, kind="stable")
    skey = key[order]
    # Coordinates order only the points that share a finest cell.
    tied = np.flatnonzero(skey[1:] == skey[:-1])
    if len(tied):
        runs = np.union1d(tied, tied + 1)
        members = order[runs]
        order[runs] = members[np.lexsort((*y[members].T[::-1], skey[runs]))]
    sy = y[order]
    # Sorted points share a position id exactly when they coincide.
    position = np.concatenate(([0], np.cumsum(np.any(sy[1:] != sy[:-1], axis=1))))

    root_is_leaf = position[-1] == 0
    leaves = [np.array([root_is_leaf])]
    parents = [np.zeros(0, dtype=np.int64)]  # per level: each cell's parent id
    # Every (cell, point) membership, level by level in input-point order.
    cells = [np.zeros(n, dtype=np.int64)]
    points = [np.arange(n)]

    pos = np.arange(0 if root_is_leaf else n)  # sorted points in open cells
    parent = np.zeros(len(pos), dtype=np.int64)
    total_nodes = 1
    while len(pos):
        shift = d * (grid_levels - len(leaves))  # this level's unread key bits
        prefix = skey[pos] >> shift if shift >= 0 else position[pos]
        head = np.concatenate(([True], prefix[1:] != prefix[:-1]))
        starts = np.flatnonzero(head)
        local = np.cumsum(head) - 1
        last = np.append(starts[1:], len(pos)) - 1
        is_leaf = position[pos[starts]] == position[pos[last]]

        cell_of = np.full(n, -1)
        cell_of[order[pos]] = total_nodes + local
        points.append(np.flatnonzero(cell_of >= 0))
        cells.append(cell_of[points[-1]])
        parents.append(parent[starts])
        leaves.append(is_leaf)

        stay = ~is_leaf[local]
        pos = pos[stay]
        parent = total_nodes + local[stay]
        total_nodes += len(starts)

    # Children follow their parents' order, so each parent's first child
    # id is one past the children of all cells before it.
    n_child = np.bincount(np.concatenate(parents), minlength=total_nodes)
    first_child = np.where(n_child > 0, np.cumsum(n_child) - n_child + 1, -1)
    is_leaf = np.concatenate(leaves)

    # Each cell's mass sums over its points in input order.
    cells = np.concatenate(cells)
    at = y.take(np.concatenate(points), axis=0)
    count = np.bincount(cells, minlength=total_nodes).astype(np.float64)
    sums = [np.bincount(cells, weights=w, minlength=total_nodes) for w in at.T]
    com = np.stack(sums, axis=1) / count[:, None]
    if not root_is_leaf:
        com[0] = y.mean(axis=0)
    # A leaf's points coincide, so its center of mass is their position.
    at_leaf = is_leaf[cells]
    com[cells[at_leaf]] = at[at_leaf]

    return QuadTree(
        half=np.repeat(half / 2.0 ** np.arange(len(leaves)), [len(c) for c in leaves]),
        com=com,
        count=count,
        first_child=first_child,
        n_child=n_child,
    )


# Starting points per pass of the tree sweep. A pass keeps every (point,
# cell) pair of one level at once, which at theta = 0 grows as n^2.
_SWEEP_BLOCK = 512


def _tree_forces(tree: QuadTree, y: np.ndarray, theta: float):
    """Barnes-Hut sweep, level by level for _SWEEP_BLOCK points at a time.

    Returns (force, zsum): force[i] approximates the kernel-squared
    weighted displacement sum over all other points, zsum[i] the kernel
    sum, with a cell accepted when side / distance < theta. Each point's
    own contribution is removed exactly via leaf multiplicities. A
    point's terms add up in the same order whatever block it is in.
    """
    n, d = y.shape
    force = np.zeros((n, d))
    zsum = np.zeros(n)
    theta2 = theta * theta
    # A leaf's squared side is -1 so the accept test always takes it. An
    # inner cell is taken only at a positive distance, so a hit at
    # distance 0 is a leaf holding the point itself.
    side = 2.0 * tree.half
    side2 = np.where(tree.n_child == 0, -1.0, side * side)

    # Row gathers go through take and masks through index lists: numpy's
    # fancy indexing of (L, d) rows and boolean masks cost several times
    # more and give the same values.
    for start in range(0, n, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, n)
        pts = np.arange(start, stop)
        nodes = np.zeros(len(pts), dtype=np.int64)
        while len(pts):
            diff = y.take(pts, axis=0) - tree.com.take(nodes, axis=0)
            dist2 = np.einsum("ij,ij->i", diff, diff)
            accept = side2[nodes] < theta2 * dist2

            hit = np.flatnonzero(accept)
            if len(hit):
                apts = pts[hit] - start
                adist2 = dist2[hit]
                mult = tree.count[nodes[hit]]
                mult = np.where(adist2 == 0.0, mult - 1.0, mult)
                w = 1.0 / (1.0 + adist2)
                mw = mult * w
                zsum[start:stop] += np.bincount(apts, weights=mw, minlength=stop - start)
                fw = mw * w
                adiff = diff.take(hit, axis=0)
                for ax in range(d):
                    force[start:stop, ax] += np.bincount(
                        apts, weights=fw * adiff[:, ax], minlength=stop - start
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


# Maps of up to this many points that the grid does not take get the exact
# sums, which cost n^2 against the tree's n log n build and sweep. Means
# over the maps of a three-lines descent in 3-D on a 2-core machine: 5.5
# against 22 ms at n=1500, 19 against 43 ms at n=3000, 58 against 78 ms
# at n=5100. 3-D maps would gain from a higher limit, but 2-D maps too
# wide for the grid would lose: on a uniform square of side 80 the tree
# is ahead at n=5100, 41 against 58 ms.
_EXACT_MAX_POINTS = 4096
# Largest squared radius of the centred map that the exact sums read from
# one product. The product's error in 1 + d^2 is a few eps * max |y|^2,
# so under this bound every kernel keeps a relative error of about 1e-9
# or less; at the radii of descent maps (under 10 units on roll-1k and
# lines-3d, squared radii below 100) it is about 1e-14. Wider maps take
# direct differences.
_EXACT_PRODUCT_MAX_SQ = 1e-9 / np.finfo(np.float64).eps  # about 4.5e6


def _exact_forces(y: np.ndarray):
    """Exact repulsion sums over all pairs, a block of rows at a time.

    Returns (force, zsum) like _tree_forces. Each block of rows meets the
    columns from its first row on, so each pair's kernel is computed once
    and reaches both ends. On the centred map, the product of the rows
    [y_i, |y_i|^2, 1] with the columns [-2 y_j, 1, |y_j|^2 + 1] gives a
    block's 1 + d^2; a clamp at 1 and a reciprocal turn it into kernels
    in (0, 1], so coincident points add 1 to each other's zsum and
    nothing to force. zsum's row and column sums are products with ones;
    after squaring, one product with the columns [y_j, 1] gives the
    rows' force and their kernel-squared sums, and one with the rows
    [y_i, 1] the same for the later columns. The matrix products go
    through core.chunked_matmul, and OpenBLAS kept the sums with ones,
    one matrix-vector product over a block each, on the calling thread
    at n = 1500 and 4096. So the sums leave OpenBLAS's thread pool idle,
    and their bits do not depend on the BLAS thread count. The product's
    roundoff grows with the squared radius about the mean, so maps wider
    than _EXACT_PRODUCT_MAX_SQ go to _direct_forces instead.
    """
    n, d = y.shape
    centred = y - y.mean(axis=0)
    sq = np.einsum("ij,ij->i", centred, centred)
    if not sq.max() <= _EXACT_PRODUCT_MAX_SQ:
        return _direct_forces(y)
    y = centred
    ones = np.ones(n)
    left = np.column_stack([y, sq, ones])
    right = np.column_stack([-2.0 * y, ones, sq + 1.0])
    y1 = np.column_stack([y, ones])
    force = np.zeros((n, d))
    zsum = np.zeros(n)
    rows = max(1, core.BLOCK_FLOATS // n)
    # Every block's kernels go into the one buffer, as a contiguous array:
    # on 1500 points a fresh 1 MB array per block took 30% longer, and a
    # strided window of a 2-D buffer 50% longer.
    buf = np.empty(min(rows, n) * n)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        m = i1 - i0
        k = buf[: m * (n - i0)].reshape(m, n - i0)
        chunked_matmul(left[i0:i1], right[i0:].T, out=k)
        # Roundoff can leave a coincident pair's 1 + d^2 a little below 1.
        np.maximum(k, 1.0, out=k)
        np.reciprocal(k, out=k)
        np.fill_diagonal(k, 0.0)
        later = k[:, m:]
        zsum[i0:i1] += k @ ones[i0:]
        zsum[i1:] += ones[:m] @ later
        k *= k
        a = chunked_matmul(k, y1[i0:])
        force[i0:i1] += a[:, d:] * y[i0:i1] - a[:, :d]
        b = chunked_matmul(later.T, y1[i0:i1])
        force[i1:] += b[:, d:] * y[i1:] - b[:, :d]
    return force, zsum


def _direct_forces(y: np.ndarray):
    """Exact repulsion sums from direct differences, a block of rows at a time.

    Returns (force, zsum) like _exact_forces, for maps too wide for its
    product. Each pair's difference comes from the map as given, so its
    roundoff is relative to the pair's own distance, not to the map's
    radius. Every pair is evaluated from both ends.
    """
    n, d = y.shape
    force = np.empty((n, d))
    zsum = np.empty(n)
    rows = max(1, core.BLOCK_FLOATS // n)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        diff = y[i0:i1, None, :] - y[None, :, :]
        k = 1.0 / (1.0 + np.einsum("ijd,ijd->ij", diff, diff))
        np.fill_diagonal(k[:, i0:], 0.0)
        zsum[i0:i1] = k.sum(axis=1)
        force[i0:i1] = np.einsum("ij,ijd->id", k * k, diff)
        del diff, k  # before the next block's arrays are made
    return force, zsum


# Interpolation grid (Linderman et al., Nature Methods 2019): Lagrange nodes
# per interval and axis, and intervals per axis, at least the floor and two
# per unit of the map's extent, so small maps still get a fine grid.
_GRID_NODES = 3
_GRID_MIN_INTERVALS = 16
_GRID_INTERVALS_PER_UNIT = 2
# The grid runs only while it has at most this many nodes per point: its
# cost follows the node count, the other engines' the point count. At
# n=300 and extent 80 (256 nodes per point) the grid takes 120 ms, the
# exact sums 0.3 ms.
_GRID_NODES_PER_POINT = 12


def _fft_length(m: int) -> int:
    """The smallest 5-smooth length (2^a 3^b 5^c) of at least m."""
    while True:
        rest = m
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return m
        m += 1


def _grid_forces(y: np.ndarray, intervals: int):
    """Repulsion sums of a 2-D map, interpolated from a grid of nodes.

    The map's bounding square is cut into intervals per axis, each holding
    _GRID_NODES Lagrange nodes per axis. The charges 1 and y, taken
    relative to the square's center, are spread onto the nodes, convolved
    with the kernel 1/(1+r^2) (for zsum) and its square (for force) by
    zero-padded FFTs, and gathered back with the same weights. Returns
    (force, zsum) like _tree_forces. Each point's own term cancels in
    force; zsum drops it as the grid sees it, the point's node weights
    against the kernel among its own cell's nodes.
    """
    n = len(y)
    p = _GRID_NODES
    lo = y.min(axis=0)
    hi = y.max(axis=0)
    side = float((hi - lo).max()) or 1.0
    y = y - 0.5 * (lo + hi)
    h = side / intervals
    spacing = h / p
    u = (y + 0.5 * side) / h
    cell = np.clip(np.floor(u), 0, intervals - 1)
    t = u - cell
    nodes = (np.arange(p) + 0.5) / p  # node positions inside an interval, in h
    w = np.ones((n, 2, p))  # Lagrange weights of each axis's p nodes
    for k in range(p):
        for j in range(p):
            if j != k:
                w[:, :, k] *= (t - nodes[j]) / (nodes[k] - nodes[j])

    # Each point's p x p nodes as flat ids into the size x size node grid,
    # and their weights.
    size = p * intervals
    node = cell.astype(np.int64)[:, :, None] * p + np.arange(p)
    flat = (node[:, 0, :, None] * size + node[:, 1, None, :]).reshape(n, -1)
    weight = (w[:, 0, :, None] * w[:, 1, None, :]).reshape(n, -1)

    # A circular convolution of length at least 2 * size - 1 does not wrap
    # around: offsets from -(size - 1) to size - 1 all fit. A 5-smooth
    # length keeps the FFTs fast (251 intervals pad to 1536, not 1506).
    pad = _fft_length(2 * size - 1)
    step = np.arange(pad)
    offset2 = (np.where(step < size, step, step - pad) * spacing) ** 2
    kern = 1.0 / (1.0 + np.add.outer(offset2, offset2))
    kern_hat = np.fft.rfft2(np.stack([kern, kern * kern]))

    # Spread the charges 1, y_x and y_y onto the nodes.
    charges = np.stack([
        np.bincount(flat.ravel(), weights=(weight * q).ravel(), minlength=size * size)
        for q in (1.0, y[:, :1], y[:, 1:])
    ]).reshape(3, size, size)
    # rfft2 pads the charges with zeros. The products go straight into one
    # array, and the transforms are dropped before the inverse FFTs, which
    # takes a quarter off the grid's peak memory. On the way back only the
    # first size rows and columns are needed, so the row pass keeps just
    # those.
    q_hat = np.fft.rfft2(charges, s=(pad, pad))
    conv = np.empty((4, *q_hat.shape[1:]), dtype=q_hat.dtype)
    np.multiply(kern_hat[0], q_hat[0], out=conv[0])
    np.multiply(kern_hat[1], q_hat, out=conv[1:])
    del kern, kern_hat, charges, q_hat
    conv = np.fft.ifft(conv, axis=1)[:, :size]
    conv = np.fft.irfft(conv, n=pad, axis=2)[:, :, :size]
    at = np.einsum("cnk,nk->cn", conv.reshape(4, -1)[:, flat], weight)

    local = np.indices((p, p)).reshape(2, -1).T
    gap2 = ((local[:, None] - local[None]) ** 2).sum(axis=2) * spacing**2
    own = (chunked_matmul(weight, 1.0 / (1.0 + gap2)) * weight).sum(axis=1)
    zsum = at[0] - own
    force = y * at[1][:, None] - at[2:].T
    return force, zsum


def _repulsion(y: np.ndarray, theta: float):
    """(force, zsum, engine) from the engine that is cheaper for this map.

    theta = 0 asks for the exact sums. A 2-D map goes to the
    interpolation grid while the grid has at most _GRID_NODES_PER_POINT
    nodes per point. Any other map of at most _EXACT_MAX_POINTS points
    gets the exact sums, and only larger ones go to the Barnes-Hut tree:
    3-D maps, whose grid grows as the cube of the intervals (about 100
    times the tree's time on a converged n=1500 map of three lines), and
    2-D maps spread wide for their size. A map that is not 2-D or 3-D
    is rejected; gradient_bh has already rejected NaN and inf, but a
    finite map can be so wide that its extent overflows, and then it
    skips the grid.
    """
    n, d = y.shape
    if d not in (2, 3):
        raise ValueError(f"the map must be 2-D or 3-D, got d={d}")
    if theta == 0.0:
        return (*_exact_forces(y), "exact")
    if d == 2:
        extent = float(np.ptp(y, axis=0).max())
        if math.isfinite(extent):
            intervals = math.ceil(_GRID_INTERVALS_PER_UNIT * extent)
            intervals = max(_GRID_MIN_INTERVALS, intervals)
            if (_GRID_NODES * intervals) ** 2 <= _GRID_NODES_PER_POINT * n:
                return (*_grid_forces(y, intervals), "interpolation")
    if n <= _EXACT_MAX_POINTS:
        return (*_exact_forces(y), "exact")
    return (*_tree_forces(build_quadtree(y), y, theta), "barnes_hut")


class GradientWorkspace:
    """Byproducts of one gradient evaluation, reused for logging.

    z_y is the map-affinity normalizer (exact or estimated), c the (k, d)
    map centroids and z_estimator "exact", "interpolation" or
    "barnes_hut". losses, the objective's parts at the evaluated map, is
    worked out from the byproducts the first time it is read, so an
    iteration that logs nothing never pays for it.
    """

    def __init__(self, z_y, c, z_estimator, loss_inputs):
        self.z_y = z_y
        self.c = c
        self.z_estimator = z_estimator
        self._loss_inputs = loss_inputs

    @cached_property
    def losses(self) -> Losses:
        return _evaluate_losses(*self._loss_inputs)


def _macro_state(y: np.ndarray, macro: MacroAffinity):
    """Map centroids and their affinity distribution."""
    c = macro.centroids(y)
    kern, z_c = student_t_kernel(c)
    q_macro = kern / z_c if z_c > 0.0 else np.zeros_like(kern)
    return c, kern, q_macro


def _centroid_gradient(y, macro, c, kern, q_macro, alpha, beta, mode):
    """The macro (alpha) and k-means (beta) terms: point i gets
    sum_k r_ki u_k + (2 beta / n) y_i from the (k, d) pull
    u = 4 alpha b - (2 beta / n) c. b is the centroid-affinity force on
    each centroid, divided by its cluster mass in the "exact" mode; with
    one centroid it is 0. The k-means part is (2 beta / n)(y - R^T c):
    responsibility columns sum to 1, and differentiating through c adds
    nothing, as the centroids are the responsibility-weighted means.
    """
    w = (macro.p_macro - q_macro) * kern
    b = w.sum(axis=1)[:, None] * c - w @ c
    if mode == "exact":
        b /= macro.masses[:, None]
    tie = 2.0 * beta / len(y)
    g = chunked_matmul(macro.r.T, 4.0 * alpha * b - tie * c)
    g += tie * y
    return g


def _clamped_kl(p: np.ndarray, kern: np.ndarray, z: float):
    """KL(p || kern / z) over the entries where p is positive.

    Map affinities below Q_FLOOR (all of them when z <= 0) are clamped
    inside the log; the second return value reports whether that happened.
    """
    mask = p > 0
    v = p[mask]
    with np.errstate(divide="ignore"):
        log_q = np.log(kern[mask]) - np.log(z) if z > 0 else np.full(v.shape, -np.inf)
    clamped = bool(np.any(log_q < _LOG_Q_FLOOR))
    log_q = np.maximum(log_q, _LOG_Q_FLOOR)
    # einsum, not a BLAS dot: OpenBLAS splits a dot of more than 10000
    # terms over its threads, which then spin for about 0.1 s.
    return float(np.einsum("i,i->", v, np.log(v) - log_q)), clamped


def _kmeans_loss(y: np.ndarray, r: np.ndarray, c: np.ndarray) -> float:
    sq = np.zeros((len(c), len(y)))  # (k, n) squared map distances to centroids
    for ax in range(y.shape[1]):
        sq += (y[:, ax] - c[:, ax, None]) ** 2
    return float(np.einsum("ki,ki->", r, sq)) / len(y)


class Losses(NamedTuple):
    """The objective's parts at one map position, named as in LossRecord."""

    total: float
    micro: float
    macro: float
    kmeans: float
    underflow_clamped: bool  # a map affinity fell below Q_FLOOR inside a log


def _evaluate_losses(y, val, pair_kern, z_y, macro, centroid_kern, c, alpha, beta):
    """The objective's parts from one evaluation's byproducts."""
    # P's pairs are stored once, and each counts in both directions.
    kl_micro, clamped_micro = _clamped_kl(val, pair_kern, z_y)
    l_micro = 2.0 * kl_micro
    l_macro, clamped_macro = _clamped_kl(
        macro.p_macro, centroid_kern, float(centroid_kern.sum())
    )
    l_kmeans = _kmeans_loss(y, macro.r, c)
    total = l_micro + alpha * l_macro + beta * l_kmeans
    return Losses(total, l_micro, l_macro, l_kmeans, clamped_micro or clamped_macro)


def _attraction(y: np.ndarray, p: AffinityModel, exaggeration: float = 1.0):
    """Exact sparse attractive force and the map kernel on P's pairs.

    Each stored pair is evaluated once, weighted by its affinity times
    exaggeration; its force reaches both ends with opposite signs through
    one scatter over p.ends. Temporaries are reused in place without
    reordering any arithmetic, so the result is bit for bit that of the
    plain expressions.
    """
    n, d = y.shape
    nnz = len(p.val)
    diff = y.take(p.row, axis=0)
    diff -= y.take(p.col, axis=0)
    pair_kern = np.einsum("ij,ij->i", diff, diff)
    pair_kern += 1.0
    np.divide(1.0, pair_kern, out=pair_kern)
    w = p.val * exaggeration
    w *= pair_kern
    both = np.empty(2 * nnz)  # each pair's force on its row end, then its col end
    att = np.empty((n, d))
    for ax in range(d):
        np.multiply(w, diff[:, ax], out=both[:nnz])
        np.negative(both[:nnz], out=both[nnz:])
        att[:, ax] = np.bincount(p.ends, weights=both, minlength=n)
    return att, pair_kern


def gradient_bh(
    y, p: AffinityModel, macro: MacroAffinity, cfg: EmbedConfig, exaggeration=1.0
):
    """Gradient of the objective. Returns (g, GradientWorkspace).

    The micro repulsion and the normalizer come from the engine the map
    calls for, which ws.z_estimator names (see _repulsion): exact sums
    at cfg.bh_theta = 0, the interpolation grid for a 2-D map with at
    most _GRID_NODES_PER_POINT grid nodes per point, exact sums for
    other maps of at most _EXACT_MAX_POINTS points, and the Barnes-Hut
    tree with opening angle cfg.bh_theta for larger ones. Attraction,
    centroid, and k-means terms are exact, so at cfg.bh_theta = 0 g is
    the exact gradient and ws.losses holds the exact losses. The centroid
    term follows cfg.gradient_mode; see the module docstring. y, an
    Embedding or a matrix, must be 2-D or 3-D and finite. Early
    exaggeration is a factor on the attraction only; the workspace's
    losses are always measured on p itself.

    The repulsion (_repulsion, looked up by its module name at each call)
    runs on the package's worker thread (core.side_by_side) while this
    thread runs _attraction, _macro_state and _centroid_gradient; after
    the wait it only adds the terms up. Each term is computed on one
    thread, so g is the same bit for bit as when the terms run one after
    the other. An error on either thread reaches the caller once both
    have finished, this thread's first.
    """
    if cfg.gradient_mode not in GRADIENT_MODES:
        raise ValueError(f"unknown gradient_mode {cfg.gradient_mode!r}")
    in_interval(exaggeration, "exaggeration", 0)
    y = as_points(y, "y")
    if len(y) != p.n:
        raise ValueError(f"embedding has {len(y)} rows but P was built for {p.n}")
    if macro.r.shape[1] != len(y):
        raise ValueError(
            f"responsibilities cover {macro.r.shape[1]} points, embedding has {len(y)}"
        )

    def caller_terms():
        att, pair_kern = _attraction(y, p, exaggeration)
        c, mkern, q_macro = _macro_state(y, macro)
        g_centroid = _centroid_gradient(
            y, macro, c, mkern, q_macro, cfg.alpha, cfg.beta, cfg.gradient_mode
        )
        return att, pair_kern, c, mkern, g_centroid

    (force, zsum, estimator), (att, pair_kern, c, mkern, g_centroid) = (
        core.side_by_side(partial(_repulsion, y, cfg.bh_theta), caller_terms)
    )
    z_y = max(float(zsum.sum()), Q_FLOOR)
    g = 4.0 * (att - force / z_y)
    g += g_centroid
    loss_inputs = (y, p.val, pair_kern, z_y, macro, mkern, c, cfg.alpha, cfg.beta)
    return g, GradientWorkspace(z_y, c, estimator, loss_inputs)
