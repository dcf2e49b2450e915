"""Independent slow reference implementations used by the tests.

Everything here is deliberately naive: plain loops, dense matrices, full
brackets. Nothing is shared with the package beyond numpy, so agreement
between an oracle and the fast path is meaningful evidence.
"""

import math
from types import SimpleNamespace

import numpy as np


def brute_knn(points, query_index, k, reference=None):
    """All-pairs scan; k best by ascending (squared distance, index).

    Scans the other points, or every row of reference when one is given.
    """
    points = np.asarray(points, dtype=np.float64)
    q = points[query_index]
    searched = points if reference is None else np.asarray(reference, dtype=np.float64)
    cand = []
    for j in range(len(searched)):
        if reference is None and j == query_index:
            continue
        d2 = float(((searched[j] - q) ** 2).sum())
        cand.append((d2, j))
    cand.sort()
    return [(j, d2) for d2, j in cand[:k]]


def row_perplexity(sq_d, beta):
    """(2^H, probs) of the Gaussian row exp(-beta * d2), H in bits."""
    sq_d = np.asarray(sq_d, dtype=np.float64)
    w = np.exp(-beta * (sq_d - sq_d.min()))
    p = w / w.sum()
    nz = p[p > 0]
    h_bits = float(-(nz * np.log2(nz)).sum())
    return 2.0**h_bits, p


def solve_beta(sq_d, target, iters=300):
    """Bisection for 2^H(beta) = target on a fixed wide bracket.

    2^H is monotone decreasing in beta, so [0, 2^40] brackets every
    attainable target and 300 halvings localize the root far below any
    tolerance used in the tests.
    """
    lo, hi = 0.0, float(2**40)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        perp, _ = row_perplexity(sq_d, mid)
        if perp > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate_row(sq_distances, target_perplexity, tol=1e-5, max_iter=200):
    """Scalar safeguarded Newton search for one row's Gaussian precision.

    The package's whole-matrix search, one row at a time: Newton steps on
    H(ln beta) = ln(target), with dH/d(ln beta) = -beta^2 Var(d), from
    beta = 1 / (mean finite shifted distance), or 1 where that mean is 0.
    Each evaluation narrows a bracket [lo, hi]; a Newton point that is not
    finite or not strictly inside it is replaced by 4 beta while hi is
    unbounded, by beta / 4 while lo is 0, and by sqrt(lo) sqrt(hi)
    otherwise, and every beta is clipped to within a factor 1e80 of the
    start. Stops once |2^H - target| <= tol or after max_iter evaluations,
    keeping the best beta seen. Infinite distances carry zero weight; an
    all-zero row falls back to uniform with beta 0. The moments are taken
    with the same numpy reductions as the package's, so the two searches
    take the same steps bit for bit. Returns (beta, probs, perplexity,
    degenerate).
    """
    d2 = np.asarray(sq_distances, dtype=np.float64)
    k = len(d2)
    if np.all(d2 == 0.0):
        return 0.0, np.full(k, 1.0 / k), float(k), True
    finite = np.isfinite(d2)
    shifted = d2 - d2[finite].min()
    as_zero = np.where(finite, shifted, 0.0)

    def stats(beta):
        w = np.exp(-beta * shifted)
        total = w.sum()
        probs = w / total
        mean = np.einsum("i,i->", as_zero, probs)
        h = np.log(total) + beta * mean
        var = np.einsum("i,i,i->", as_zero, as_zero, probs) - mean * mean
        return probs, h, var

    mean = as_zero.sum() / finite.sum()
    beta = 1.0 / mean if mean > 0.0 else np.float64(1.0)
    floor, ceiling = beta / 1e80, beta * 1e80
    lo, hi = 0.0, np.inf
    best_beta, best_gap = beta, np.inf
    for _ in range(max_iter):
        _, h, var = stats(beta)
        perp = np.exp(h)
        gap = abs(perp - target_perplexity)
        if gap < best_gap:
            best_beta, best_gap = beta, gap
        if perp > target_perplexity:
            lo = beta
        else:
            hi = beta
        if gap <= tol:
            break
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = beta * np.exp((h - math.log(target_perplexity)) / (beta * beta * var))
        if np.isfinite(newton) and lo < newton < hi:
            beta = newton
        elif hi == np.inf:
            beta = 4.0 * beta
        elif lo == 0.0:
            beta = beta / 4.0
        else:
            beta = np.sqrt(lo) * np.sqrt(hi)
        beta = min(max(beta, floor), ceiling)
    probs, h, _ = stats(best_beta)
    return best_beta, probs, np.exp(h), False


def dense_affinities(x, perplexity, n_neighbors):
    """Full symmetric joint affinity matrix from scratch.

    Brute-force neighbors, per-row bisection, then (cond + cond.T) / 2n
    on the dense conditional matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    cond = np.zeros((n, n))
    for i in range(n):
        hits = brute_knn(x, i, n_neighbors)
        ids = [h[0] for h in hits]
        d2 = np.array([h[1] for h in hits])
        beta = solve_beta(d2, perplexity)
        _, p = row_perplexity(d2, beta)
        cond[i, ids] = p
    return (cond + cond.T) / (2.0 * n)


def dense_model(model):
    """An AffinityModel's full symmetric matrix, both triangles filled."""
    p = np.zeros((model.n, model.n))
    p[model.row, model.col] = model.val
    p[model.col, model.row] = model.val
    return p


def dense_responsibilities(z, t, d, d_z):
    """Column-normalized heavy-tailed memberships, elementwise loops."""
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    k, n = len(t), len(z)
    raw = np.zeros((k, n))
    for kk in range(k):
        for i in range(n):
            s = float(((z[i] - t[kk]) ** 2).sum())
            raw[kk, i] = 1.0 / (1.0 + (d * d) / float(d_z * d_z) * s)
    return raw / raw.sum(axis=0, keepdims=True)


def dense_centroid_affinity(t):
    """Off-diagonal heavy-tailed kernel over centroid pairs, sum 1."""
    t = np.asarray(t, dtype=np.float64)
    k = len(t)
    kern = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a != b:
                kern[a, b] = 1.0 / (1.0 + float(((t[a] - t[b]) ** 2).sum()))
    return kern / kern.sum()


def dense_objective(y, p_dense, r, p_macro, alpha, beta):
    """Triple-loop evaluation of all three loss parts.

    Returns (total, micro, macro, kmeans). p_dense is the full symmetric
    joint affinity matrix; r the (k, n) responsibilities; p_macro the
    (k, k) centroid affinity targets.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    k = len(r)

    q_t = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                q_t[i, j] = 1.0 / (1.0 + float(((y[i] - y[j]) ** 2).sum()))
    z = q_t.sum()
    l_micro = 0.0
    for i in range(n):
        for j in range(n):
            if p_dense[i, j] > 0:
                l_micro += p_dense[i, j] * np.log(p_dense[i, j] / (q_t[i, j] / z))

    c = np.zeros((k, y.shape[1]))
    for kk in range(k):
        c[kk] = (r[kk][:, None] * y).sum(axis=0) / r[kk].sum()
    qm_t = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a != b:
                qm_t[a, b] = 1.0 / (1.0 + float(((c[a] - c[b]) ** 2).sum()))
    zc = qm_t.sum()
    l_macro = 0.0
    for a in range(k):
        for b in range(k):
            if p_macro[a, b] > 0:
                l_macro += p_macro[a, b] * np.log(p_macro[a, b] / (qm_t[a, b] / zc))

    l_kmeans = 0.0
    for kk in range(k):
        for i in range(n):
            l_kmeans += r[kk, i] * float(((y[i] - c[kk]) ** 2).sum())
    l_kmeans /= n

    return l_micro + alpha * l_macro + beta * l_kmeans, l_micro, l_macro, l_kmeans


def central_differences(f, y, h=1e-5):
    """Per-coordinate central finite differences of a scalar function."""
    y = np.asarray(y, dtype=np.float64)
    g = np.zeros_like(y)
    for i in range(y.shape[0]):
        for a in range(y.shape[1]):
            yp = y.copy()
            yp[i, a] += h
            ym = y.copy()
            ym[i, a] -= h
            g[i, a] = (f(yp) - f(ym)) / (2.0 * h)
    return g


def lloyd_best_of(z, k, n_restarts, seed):
    """Best final inertia over plain random-start Lloyd runs."""
    z = np.asarray(z, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(z)
    best = np.inf
    for _ in range(n_restarts):
        centroids = z[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(200):
            d2 = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            new = centroids.copy()
            for j in range(k):
                members = z[assign == j]
                if len(members):
                    new[j] = members.mean(axis=0)
            if np.allclose(new, centroids, rtol=0, atol=1e-12):
                break
            centroids = new
        d2 = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        best = min(best, float(d2.min(axis=1).sum()))
    return best


def build_quadtree_by_level(y, max_depth=80, identical_check_depth=8):
    """The level-by-level tree build the package ran before it sorted
    path keys once, with its (m, 2^d) children table.

    Each level takes the points in open cells, computes every point's
    child code against its cell's float center and numbers the new cells
    with np.unique, in (parent, code) order. A cell closes as a leaf when
    it holds one point, from identical_check_depth on when all its points
    coincide, and at max_depth. Returns a namespace with the package
    QuadTree's fields plus center and children.
    """
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    n, d = y.shape
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

    pt_node = np.zeros(n, dtype=np.int64)
    active = np.arange(n) if not root_is_leaf else np.arange(0)
    level_base = 0
    total_nodes = 1
    depth = 0

    while len(active):
        depth += 1
        if depth > max_depth:
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
        if depth >= identical_check_depth:
            order = np.argsort(inverse, kind="stable")
            starts = np.concatenate(([0], np.cumsum(cnts)[:-1]))
            sorted_pts = coords[order]
            mins = np.minimum.reduceat(sorted_pts, starts, axis=0)
            maxs = np.maximum.reduceat(sorted_pts, starts, axis=0)
            identical = np.all(mins == maxs, axis=1) & (cnts > 1)
            if np.any(identical):
                child_com[identical] = coords[order[starts[identical]]]
                child_leaf = child_leaf | identical

        centers.append(child_center)
        halves.append(child_half)
        coms.append(child_com)
        counts.append(cnts.astype(np.float64))
        children.append(np.full((m_new, n_children), -1, dtype=np.int64))

        pt_node[active] = new_ids[inverse]
        active = active[~child_leaf[inverse]]
        level_base = total_nodes
        total_nodes += m_new

    children = np.concatenate(children, axis=0)
    has_child = children >= 0
    return SimpleNamespace(
        center=np.concatenate(centers, axis=0),
        half=np.concatenate(halves),
        com=np.concatenate(coms, axis=0),
        count=np.concatenate(counts),
        children=children,
        first_child=children[np.arange(total_nodes), has_child.argmax(axis=1)],
        n_child=has_child.sum(axis=1),
    )


def children_table(first_child, n_child):
    """(m, widest fan-out) table of child ids, -1 where absent, expanded
    from each cell's first child id and child count."""
    width = max(int(n_child.max()), 1)
    slot = np.arange(width)
    return np.where(slot < n_child[:, None], first_child[:, None] + slot, -1)


def tree_forces_by_table(tree, y, theta):
    """Barnes-Hut sweep that descends through a full children table.

    This is the sweep the package ran before it descended with
    first-child and child-count arrays: it gathers each descending cell's
    table row and masks out absent children, tests leaves separately and
    converts counts per accepted cell. tree is a package QuadTree; its
    table is expanded from first_child and n_child. The accumulation
    order matches the package's, so the two sweeps must agree bit for bit.
    Returns (force, zsum).
    """
    n, d = y.shape
    force = np.zeros((n, d))
    zsum = np.zeros(n)
    theta2 = theta * theta
    children = children_table(tree.first_child, tree.n_child)

    pts = np.arange(n)
    nodes = np.zeros(n, dtype=np.int64)
    while len(pts):
        com = tree.com[nodes]
        diff = y[pts] - com
        dist2 = np.einsum("ij,ij->i", diff, diff)
        leaf = tree.n_child[nodes] == 0
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
        ch = children[nodes[descend]]
        valid = ch >= 0
        pts = np.repeat(pts[descend], valid.sum(axis=1))
        nodes = ch[valid]

    return force, zsum


def attraction_both_directions(y, row, col, val):
    """Attractive force over the both-direction edge list.

    Lists every stored pair (i, j), i < j, once as (i, j) and once as
    (j, i), evaluates each ordered pair separately and scatters by its
    first index. Returns (att, kernel on the first len(row) entries),
    the kernel on the stored pairs in storage order.
    """
    n, d = y.shape
    ii = np.concatenate([row, col])
    jj = np.concatenate([col, row])
    vv = np.concatenate([val, val])
    diff = y[ii] - y[jj]
    kern = 1.0 / (1.0 + np.einsum("ij,ij->i", diff, diff))
    w = vv * kern
    att = np.zeros((n, d))
    for ax in range(d):
        att[:, ax] = np.bincount(ii, weights=w * diff[:, ax], minlength=n)
    return att, kern[: len(row)]


def use_reference_sweeps(monkeypatch, objective):
    """Route the objective module's gradients through the two sweeps
    above in place of its own tree sweep and attraction.

    Small maps would otherwise take the exact sums and never reach the
    tree, so the exact engine's size limit is set to 0; the comparison
    run must set it too. theta = 0 still takes the exact sums.
    """

    def attraction(y, p, exaggeration=1.0):
        return attraction_both_directions(y, p.row, p.col, p.val * exaggeration)

    monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
    monkeypatch.setattr(objective, "_tree_forces", tree_forces_by_table)
    monkeypatch.setattr(objective, "_attraction", attraction)


def dense_repulsion(y):
    """Exact repulsion sums over all pairs, as (force, zsum) like the
    package's engines: force[i] = sum_j k_ij^2 (y_i - y_j) and zsum[i] =
    sum_j k_ij, with k_ij = 1 / (1 + |y_i - y_j|^2) and j != i."""
    diff = y[:, None, :] - y[None, :, :]
    kern = 1.0 / (1.0 + (diff**2).sum(axis=2))
    np.fill_diagonal(kern, 0.0)
    return np.einsum("ij,ijd->id", kern**2, diff), kern.sum(axis=1)


def dense_micro_gradient(y, p):
    """Micro-term gradient 4 (att - F / Z) and its normalizer Z, from the
    both-direction attraction and the dense repulsion sums."""
    att, _ = attraction_both_directions(y, p.row, p.col, p.val)
    force, zsum = dense_repulsion(y)
    z = zsum.sum()
    return 4.0 * (att - force / z), z


def centroid_terms_apart(y, r, p_macro, alpha, beta, mode):
    """The macro and k-means gradient terms as two separate formulas:
    4 alpha A^T b, with b_a = sum_b w_ab (c_a - c_b) and A the
    responsibilities divided by their cluster masses ("exact") or as
    they are ("paper"), plus (2 beta / n)(y - R^T c). The centroids c,
    their kernel and w = (p_macro - q) * kernel are worked out here,
    with loops over centroid pairs."""
    y = np.asarray(y, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    k = len(r)
    masses = r.sum(axis=1)
    c = (r @ y) / masses[:, None]
    kern = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a != b:
                kern[a, b] = 1.0 / (1.0 + float(((c[a] - c[b]) ** 2).sum()))
    z = kern.sum()
    w = (p_macro - (kern / z if z > 0 else 0.0)) * kern
    force = np.zeros_like(c)
    for a in range(k):
        for b in range(k):
            force[a] += w[a, b] * (c[a] - c[b])
    spread = r / masses[:, None] if mode == "exact" else r
    return 4.0 * alpha * (spread.T @ force) + (2.0 * beta / len(y)) * (y - r.T @ c)


def kmeans_loss_by_cluster(y, r, c):
    """Soft k-means loss summed one cluster at a time, divided by n."""
    total = 0.0
    for k in range(len(c)):
        total += float(r[k] @ ((y - c[k]) ** 2).sum(axis=1))
    return total / len(y)


def lloyd_by_cluster(z, centroids, max_iter=300):
    """Lloyd iteration from the given start, each centroid the mean of its
    members, taken one cluster at a time.

    Assignment ties and empty clusters follow the package's kmeans_fit: an
    empty cluster takes the point farthest from its own centroid among
    the clusters with more than one member, one point per empty cluster
    in cluster order. Returns (centroids, assignment, inertia trace).
    """
    z = np.asarray(z, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    n, k = len(z), len(centroids)
    assignment = None
    trace = []
    for _ in range(max_iter):
        diff = z[:, None, :] - centroids[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        new_assignment = d2.argmin(axis=1)
        own = d2[np.arange(n), new_assignment].copy()
        empties = [j for j in range(k) if not np.any(new_assignment == j)]
        for empty in empties:
            spare = [
                i for i in range(n) if np.count_nonzero(new_assignment == new_assignment[i]) > 1
            ]
            donor = max(spare, key=lambda i: (own[i], -i))
            new_assignment[donor] = empty
        for j in range(k):
            centroids[j] = z[new_assignment == j].mean(axis=0)
        within = ((z - centroids[new_assignment]) ** 2).sum(axis=1)
        trace.append(float(within.sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centroids, new_assignment, np.asarray(trace)
