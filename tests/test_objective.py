"""Loss values, tree construction, and both gradient paths."""

import dataclasses

import numpy as np
import pytest

from gtsne import objective
from gtsne.affinity import AffinityModel, build_affinity_model
from gtsne.core import Embedding, EmbedConfig
from gtsne.datasets import gen_swiss_roll
from gtsne.macro import MacroAffinity, kmeans_fit, macro_affinity, responsibility_matrix
from gtsne.objective import (
    build_quadtree,
    gradient_bh,
    gradient_exact,
    loss,
)
from gtsne.optimizer import run

from oracles import (
    build_quadtree_by_level,
    central_differences,
    dense_objective,
    dense_repulsion,
    kmeans_loss_by_cluster,
    use_reference_sweeps,
)


def make_problem(n, d_in, k, seed, alpha=0.01, beta=0.05, y_scale=1.0, **cfg_kw):
    """Random instance with every piece the objective needs."""
    out_dims = cfg_kw.get("out_dims", 2)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d_in))
    p, _ = build_affinity_model(x, n_neighbors=min(5, n - 1), perplexity=3.0, tol=1e-8)
    km = kmeans_fit(x, k, seed=seed)
    r = responsibility_matrix(x, km.t, d=out_dims, d_z=d_in)
    macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
    y = y_scale * rng.normal(size=(n, out_dims))
    cfg = EmbedConfig(alpha=alpha, beta=beta, **cfg_kw)
    return x, p, macro, y, cfg


class TestLoss:
    def test_matches_dense_oracle(self):
        _, p, macro, y, cfg = make_problem(12, 4, 3, seed=7)
        got = loss(y, p, macro, cfg)
        want = dense_objective(y, p.dense(), macro.r, macro.p_macro, cfg.alpha, cfg.beta)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_two_points_have_zero_kl_terms(self):
        # With n = 2 both the pair distribution and the two-centroid
        # distribution are forced to (1/2, 1/2) whatever the map looks
        # like, so both KL terms vanish and only the k-means part moves.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4))
        p = AffinityModel(row=[0], col=[1], val=[0.5], n=2)
        km = kmeans_fit(x, 2, seed=0)
        r = responsibility_matrix(x, km.t, d=2, d_z=4)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        cfg = EmbedConfig(alpha=0.01, beta=0.05)
        for trial in range(3):
            y = rng.normal(size=(2, 2))
            total, l_micro, l_macro, l_kmeans = loss(y, p, macro, cfg)
            assert abs(l_micro) <= 1e-12
            assert abs(l_macro) <= 1e-12
            assert abs(total - cfg.beta * l_kmeans) <= 1e-12

    def test_accepts_embedding_object(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=1)
        assert loss(Embedding(y=y), p, macro, cfg) == loss(y, p, macro, cfg)

    def test_size_mismatch_rejected(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=1)
        with pytest.raises(ValueError, match="rows"):
            loss(y[:-1], p, macro, cfg)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_kmeans_part_matches_the_per_cluster_loop(self, dims):
        rng = np.random.default_rng(dims)
        y = 5.0 + rng.normal(size=(400, dims))
        r = rng.random(size=(9, 400))
        r /= r.sum(axis=0)
        c = (r @ y) / r.sum(axis=1)[:, None]
        want = kmeans_loss_by_cluster(y, r, c)
        assert abs(objective._kmeans_loss(y, r, c) - want) <= 1e-12 * want


TREE_FIELDS = ("half", "com", "count", "is_leaf", "first_child", "n_child")


class TestQuadtree:
    def test_counts_and_masses_are_consistent(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(200, 2))
        tree = build_quadtree(y)
        assert tree.n_points == 200
        assert tree.count[0] == 200
        internal = ~tree.is_leaf
        for node in np.flatnonzero(internal):
            first = tree.first_child[node]
            kids = np.arange(first, first + tree.n_child[node])
            assert len(kids) > 0
            assert tree.count[node] == tree.count[kids].sum()
            blended = (tree.com[kids] * tree.count[kids, None]).sum(axis=0)
            np.testing.assert_allclose(
                blended / tree.count[node], tree.com[node], atol=1e-12
            )
        assert tree.count[tree.is_leaf].sum() == 200

    def test_root_mass_is_global_mean(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(50, 2))
        tree = build_quadtree(y)
        np.testing.assert_allclose(tree.com[0], y.mean(axis=0), atol=1e-12)

    def test_single_point(self):
        tree = build_quadtree(np.array([[2.0, -1.0]]))
        assert tree.n_nodes == 1
        assert bool(tree.is_leaf[0])
        np.testing.assert_array_equal(tree.com[0], [2.0, -1.0])

    def test_all_points_identical(self):
        y = np.tile([0.3, 0.7], (40, 1))
        tree = build_quadtree(y)
        assert tree.n_nodes == 1
        assert bool(tree.is_leaf[0])
        assert tree.count[0] == 40
        np.testing.assert_array_equal(tree.com[0], [0.3, 0.7])

    def test_duplicate_groups_share_exact_leaves(self):
        rng = np.random.default_rng(9)
        y = np.vstack(
            [
                np.tile([0.25, -0.5], (300, 1)),
                np.tile([-1.1, 0.2], (300, 1)),
                rng.normal(size=(20, 2)),
            ]
        )
        tree = build_quadtree(y)
        heavy = np.flatnonzero(tree.is_leaf & (tree.count == 300))
        assert len(heavy) == 2
        found = {tuple(tree.com[node]) for node in heavy}
        assert found == {(0.25, -0.5), (-1.1, 0.2)}

    def test_three_dimensional_build(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(64, 3))
        tree = build_quadtree(y)
        assert tree.dim == 3
        assert tree.n_child.max() <= 8
        assert tree.count[tree.is_leaf].sum() == 64

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(100, 2))
        a = build_quadtree(y)
        b = build_quadtree(y)
        for field in TREE_FIELDS:
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 40, 1000])
    def test_matches_the_level_by_level_build(self, dims, n):
        rng = np.random.default_rng(n + dims)
        for scale in (1e-3, 1.0, 1e3):
            y = scale * rng.normal(size=(n, dims)) + rng.normal(size=dims)
            tree = build_quadtree(y)
            ref = build_quadtree_by_level(y)
            for field in TREE_FIELDS:
                got, want = getattr(tree, field), getattr(ref, field)
                assert got.dtype == want.dtype, field
                assert np.array_equal(got, want), field

    def test_children_are_consecutive_and_split_their_parent(self):
        y = duplicate_heavy_map(300, 3, seed=4)
        tree = build_quadtree(y)
        assert np.array_equal(tree.is_leaf, tree.n_child == 0)
        assert np.all(tree.first_child[tree.is_leaf] == -1)
        kids = np.flatnonzero(~tree.is_leaf)
        # Every cell but the root is the child of exactly one cell, and the
        # ids run level by level in parent order.
        firsts = tree.first_child[kids]
        assert firsts[0] == 1
        assert np.array_equal(firsts[1:], (firsts + tree.n_child[kids])[:-1])
        assert firsts[-1] + tree.n_child[kids[-1]] == tree.n_nodes
        assert np.all(tree.half[firsts] == tree.half[kids] / 2.0)

    def test_points_closer_than_the_finest_cell_get_their_own_leaves(self):
        # At extent about 1 the finest 3-D cell is 2^-21 of the root side,
        # about 4.8e-7; these points are 1e-9 apart, eleven in a row.
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 5))
        p, _ = build_affinity_model(x, n_neighbors=5, perplexity=3.0, tol=1e-8)
        km = kmeans_fit(x, 4, seed=0)
        r = responsibility_matrix(x, km.t, d=3, d_z=5)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = rng.uniform(-0.5, 0.5, size=(30, 3))
        y[20:] = y[3] + np.outer(np.arange(1, 11), [1e-9, 0.0, 0.0])
        tree = build_quadtree(y)
        for i in [3, *range(20, 30)]:
            hits = np.flatnonzero(tree.is_leaf & np.all(tree.com == y[i], axis=1))
            assert len(hits) == 1 and tree.count[hits[0]] == 1
        assert tree.n_child.max() == 11  # one finest cell, a leaf per point
        cfg = EmbedConfig(alpha=0.01, beta=0.05, out_dims=3, bh_theta=0.0)
        g_tree, ws_tree = gradient_bh(y, p, macro, cfg)
        g_ref, ws_ref = gradient_exact(y, p, macro, cfg)
        norms = np.linalg.norm(g_ref, axis=1)
        assert (np.linalg.norm(g_tree - g_ref, axis=1) / norms).max() <= 1e-10
        assert abs(ws_tree.z_y - ws_ref.z_y) / ws_ref.z_y <= 1e-10

    @pytest.mark.parametrize("dims", [2, 3])
    def test_points_in_one_finest_cell_are_ordered_by_coordinates(self, dims):
        # Thirteen points within 1e-12 of each other share a finest cell
        # in random input order; the cell's leaves follow their coordinates.
        rng = np.random.default_rng(dims)
        y = rng.uniform(-0.5, 0.5, size=(40, dims))
        y[28:] = y[5] + 1e-12 * rng.normal(size=(12, dims))
        tree = build_quadtree(y)
        cell = int(np.argmax(tree.n_child))
        assert tree.n_child[cell] == 13
        first = tree.first_child[cell]
        com = tree.com[first : first + 13]
        assert np.array_equal(np.lexsort(com.T[::-1]), np.arange(13))
        assert sorted(map(tuple, com)) == sorted(map(tuple, y[[5, *range(28, 40)]]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_quadtree(np.zeros((5, 4)))
        with pytest.raises(ValueError):
            build_quadtree(np.zeros((5, 1)))
        with pytest.raises(ValueError):
            build_quadtree(np.zeros(5))
        bad = np.zeros((5, 2))
        bad[2, 0] = np.nan
        with pytest.raises(ValueError):
            build_quadtree(bad)


class TestGradientExact:
    def test_matches_central_differences(self):
        _, p, macro, y, cfg = make_problem(12, 4, 3, seed=0, y_scale=0.5)
        g, _ = gradient_exact(y, p, macro, cfg)
        fd = central_differences(lambda yy: loss(yy, p, macro, cfg)[0], y, h=1e-5)
        rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-5

    def test_translation_invariance(self):
        _, p, macro, y, cfg = make_problem(14, 4, 3, seed=2)
        g0, _ = gradient_exact(y, p, macro, cfg)
        g1, _ = gradient_exact(y + np.array([13.0, -4.0]), p, macro, cfg)
        np.testing.assert_allclose(g1, g0, atol=1e-9)

    def test_exact_mode_gradient_sums_to_zero(self):
        # Differentiating through the centroids keeps the total loss
        # translation invariant, so the coordinate sums must cancel.
        _, p, macro, y, cfg = make_problem(16, 4, 3, seed=5)
        g, _ = gradient_exact(y, p, macro, cfg)
        assert np.abs(g.sum(axis=0)).max() < 1e-9

    def test_frozen_responsibility_mode_differs(self):
        _, p, macro, y, cfg = make_problem(16, 4, 3, seed=5)
        g_exact, _ = gradient_exact(y, p, macro, cfg)
        g_paper, _ = gradient_exact(
            y, p, macro, dataclasses.replace(cfg, gradient_mode="paper")
        )
        assert np.abs(g_paper - g_exact).max() > 1e-8
        assert np.abs(g_paper.sum(axis=0)).max() > 1e-8

    def test_modes_agree_when_cluster_masses_are_one(self):
        # One cluster per point, centers on the points, points on a
        # regular polygon: the responsibility matrix is symmetric with
        # equal column sums, hence doubly stochastic, and dividing by the
        # unit cluster masses changes nothing.
        n = 8
        angles = 2.0 * np.pi * np.arange(n) / n
        z = np.zeros((n, 4))
        z[:, 0] = np.cos(angles)
        z[:, 1] = np.sin(angles)
        r = responsibility_matrix(z, z, d=2, d_z=4)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(z))
        p, _ = build_affinity_model(z, n_neighbors=3, perplexity=2.0, tol=1e-8)
        rng = np.random.default_rng(0)
        y = rng.normal(size=(n, 2))
        cfg = EmbedConfig(alpha=0.01, beta=0.05)
        g_exact, _ = gradient_exact(y, p, macro, cfg)
        g_paper, _ = gradient_exact(
            y, p, macro, dataclasses.replace(cfg, gradient_mode="paper")
        )
        assert np.abs(g_paper - g_exact).max() <= 1e-10

    def test_workspace_invariants(self):
        _, p, macro, y, cfg = make_problem(15, 4, 4, seed=8)
        _, ws = gradient_exact(y, p, macro, cfg)
        assert ws.z_y > 0.0
        assert ws.z_estimator == "exact"
        np.testing.assert_array_equal(ws.q_macro, ws.q_macro.T)
        assert np.abs(np.diag(ws.q_macro)).max() == 0.0
        assert abs(ws.q_macro.sum() - 1.0) <= 1e-12
        want = ws.loss_micro + cfg.alpha * ws.loss_macro + cfg.beta * ws.loss_kmeans
        assert abs(ws.loss_total - want) <= 1e-12 * max(1.0, abs(want))
        # Centroids are the responsibility-weighted means of the map.
        resid = macro.r @ y - macro.r.sum(axis=1)[:, None] * ws.c
        assert np.abs(resid).max() < 1e-9

    def test_underflow_is_flagged_and_loss_stays_finite(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=6)
        y = y.copy()
        y[5:] += 1e151  # cross-gap kernel drops below the clamp floor
        g, ws = gradient_exact(y, p, macro, cfg)
        assert ws.underflow_clamped
        assert np.isfinite(ws.loss_total)
        assert np.all(np.isfinite(g))

    def test_no_underflow_on_tame_maps(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=6)
        _, ws = gradient_exact(y, p, macro, cfg)
        assert not ws.underflow_clamped

    def test_unknown_mode_rejected(self):
        _, p, macro, y, cfg = make_problem(8, 4, 3, seed=1)
        with pytest.raises(ValueError, match="gradient_mode"):
            gradient_exact(y, p, macro, dataclasses.replace(cfg, gradient_mode="frozen"))

    def test_responsibility_width_mismatch_rejected(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=1)
        clipped = MacroAffinity(r=macro.r[:, :-1], p_macro=macro.p_macro)
        with pytest.raises(ValueError, match="responsibilities"):
            gradient_exact(y, p, clipped, cfg)


class TestGradientTree:
    def test_zero_angle_matches_exact(self):
        _, p, macro, y, cfg = make_problem(40, 4, 4, seed=3, y_scale=0.5, bh_theta=0.0)
        g_tree, ws_tree = gradient_bh(y, p, macro, cfg)
        g_ref, ws_ref = gradient_exact(y, p, macro, cfg)
        assert ws_tree.z_estimator == "barnes_hut"
        assert abs(ws_tree.z_y - ws_ref.z_y) <= 1e-12 * ws_ref.z_y
        rel = np.abs(g_tree - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert rel.max() <= 1e-10
        for name in ("loss_total", "loss_micro", "loss_macro", "loss_kmeans"):
            a, b = getattr(ws_tree, name), getattr(ws_ref, name)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_zero_angle_matches_exact_in_three_dims(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 5))
        p, _ = build_affinity_model(x, n_neighbors=5, perplexity=3.0, tol=1e-8)
        km = kmeans_fit(x, 4, seed=0)
        r = responsibility_matrix(x, km.t, d=3, d_z=5)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = rng.normal(size=(30, 3))
        cfg = EmbedConfig(alpha=0.01, beta=0.05, out_dims=3, bh_theta=0.0)
        g_tree, _ = gradient_bh(y, p, macro, cfg)
        g_ref, _ = gradient_exact(y, p, macro, cfg)
        rel = np.abs(g_tree - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert rel.max() <= 1e-10

    def test_duplicate_map_points_sum_exactly(self):
        # Coincident points share a multiplicity leaf; with the angle at
        # zero the tree sum must still reproduce the dense one exactly.
        _, p, macro, y, cfg = make_problem(12, 4, 3, seed=4, bh_theta=0.0)
        y = y.copy()
        y[3] = y[7] = y[9]
        g_tree, ws_tree = gradient_bh(y, p, macro, cfg)
        g_ref, ws_ref = gradient_exact(y, p, macro, cfg)
        assert abs(ws_tree.z_y - ws_ref.z_y) <= 1e-12 * ws_ref.z_y
        rel = np.abs(g_tree - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert rel.max() <= 1e-10

    def test_two_points_exact_at_default_angle(self):
        # At the default opening angle a cell containing the query point
        # is never accepted, so a two-point sweep always reaches the
        # leaves and reproduces the dense sums exactly.
        x = np.arange(8.0).reshape(2, 4)
        p = AffinityModel(row=[0], col=[1], val=[0.5], n=2)
        km = kmeans_fit(x, 2, seed=0)
        r = responsibility_matrix(x, km.t, d=2, d_z=4)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = np.array([[0.0, 0.0], [1.0, 2.0]])
        cfg = EmbedConfig(alpha=0.01, beta=0.05, bh_theta=0.5)
        g_tree, _ = gradient_bh(y, p, macro, cfg)
        g_ref, _ = gradient_exact(y, p, macro, cfg)
        np.testing.assert_allclose(g_tree, g_ref, atol=1e-14)

    def test_default_angle_near_init_scale(self):
        # Micro-only comparison on a map still at its initial spread: the
        # tree estimate should track the dense gradient to a percent and
        # the normalizer to a tenth of that.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(100, 5))
        p, _ = build_affinity_model(x, n_neighbors=10, perplexity=5.0, tol=1e-8)
        km = kmeans_fit(x, 5, seed=0)
        r = responsibility_matrix(x, km.t, d=2, d_z=5)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = rng.normal(scale=1e-2, size=(100, 2))
        cfg = EmbedConfig(alpha=0.0, beta=0.0, bh_theta=0.5)
        g_tree, ws_tree = gradient_bh(y, p, macro, cfg)
        g_ref, ws_ref = gradient_exact(y, p, macro, cfg)
        scale = np.abs(g_ref).max()
        assert np.abs(g_tree - g_ref).max() / scale < 1e-2
        assert abs(ws_tree.z_y - ws_ref.z_y) / ws_ref.z_y < 1e-3

    def test_underflow_is_flagged_and_loss_stays_finite(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=6)
        assert not gradient_bh(y, p, macro, cfg)[1].underflow_clamped
        y = y.copy()
        y[5:] += 1e151  # cross-gap kernel drops below the clamp floor
        g, ws = gradient_bh(y, p, macro, cfg)
        assert ws.underflow_clamped
        assert np.isfinite(ws.loss_total)
        assert np.all(np.isfinite(g))

    def test_unknown_mode_rejected(self):
        _, p, macro, y, cfg = make_problem(8, 4, 3, seed=1)
        with pytest.raises(ValueError, match="gradient_mode"):
            gradient_bh(y, p, macro, dataclasses.replace(cfg, gradient_mode="frozen"))

    def test_loss_p_sets_the_logged_losses_only(self):
        # Exaggeration scales the attraction only: the gradient is the one
        # of a 4x-valued P bit for bit, the losses stay those of p.
        _, p, macro, y, cfg = make_problem(30, 4, 3, seed=5)
        p4 = AffinityModel(row=p.row, col=p.col, val=p.val * 4.0, n=p.n)
        g_scaled, _ = gradient_bh(y, p4, macro, cfg)
        g, ws = gradient_bh(y, p, macro, cfg, exaggeration=4.0)
        _, ws_plain = gradient_bh(y, p, macro, cfg)
        np.testing.assert_array_equal(g, g_scaled)
        assert (ws.loss_total, ws.loss_micro, ws.loss_macro, ws.loss_kmeans) == (
            ws_plain.loss_total, ws_plain.loss_micro, ws_plain.loss_macro,
            ws_plain.loss_kmeans,
        )
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="exaggeration"):
                gradient_bh(y, p, macro, cfg, exaggeration=bad)


def duplicate_heavy_map(n, dims, seed):
    """A map where a third of the points sit on three shared positions."""
    y = np.random.default_rng(seed).normal(size=(n, dims))
    y[: n // 3] = y[n // 3 : n // 3 + 3][np.arange(n // 3) % 3]
    return y


class TestReferenceSweeps:
    """gradient_bh equals the table-driven sweep and the both-direction
    attraction it replaced, bit for bit."""

    @pytest.mark.parametrize(
        "dims, theta, exaggeration, duplicates",
        [
            (2, 0.5, 1.0, False),
            (3, 0.5, 1.0, False),
            (2, 0.5, 1.0, True),
            (3, 0.5, 1.0, True),
            (2, 0.0, 1.0, True),
            (3, 0.0, 1.0, False),
            (2, 0.5, 12.0, False),
            (3, 0.8, 12.0, True),
        ],
    )
    def test_gradient_and_normalizer_are_unchanged(
        self, monkeypatch, dims, theta, exaggeration, duplicates
    ):
        # The comparison is of tree sweeps, so the grid stays out.
        monkeypatch.setattr(objective, "_GRID_NODES_PER_POINT", 0)
        _, p, macro, y, cfg = make_problem(
            240, 6, 5, seed=dims, out_dims=dims, bh_theta=theta
        )
        if duplicates:
            y = duplicate_heavy_map(240, dims, seed=dims)
        g, ws = gradient_bh(y, p, macro, cfg, exaggeration=exaggeration)
        with monkeypatch.context() as m:
            use_reference_sweeps(m, objective)
            g_ref, ws_ref = gradient_bh(y, p, macro, cfg, exaggeration=exaggeration)
        assert np.array_equal(g, g_ref)
        assert ws.z_y == ws_ref.z_y
        assert ws.loss_total == ws_ref.loss_total


def relative_errors(force, zsum, y):
    """Per-point force error and normalizer error against the dense sums."""
    want_force, want_zsum = dense_repulsion(y)
    err = np.linalg.norm(force - want_force, axis=1)
    per_point = err / np.linalg.norm(want_force, axis=1)
    return per_point, abs(zsum.sum() - want_zsum.sum()) / want_zsum.sum()


class TestRepulsionEngines:
    """gradient_bh runs the interpolation grid on 2-D maps with at most
    _GRID_NODES_PER_POINT grid nodes per point, the tree otherwise."""

    def engine(self, y, bh_theta=0.5):
        n, dims = y.shape
        _, p, macro, _, cfg = make_problem(
            n, 4, 3, seed=n, out_dims=dims, bh_theta=bh_theta
        )
        return gradient_bh(y, p, macro, cfg)[1].z_estimator

    def test_size_rule_picks_the_engine(self):
        rng = np.random.default_rng(0)
        assert self.engine(rng.uniform(0, 10, size=(1000, 2))) == "interpolation"
        # 160 intervals of 3 nodes per axis: 256 nodes per point.
        assert self.engine(rng.uniform(0, 80, size=(300, 2))) == "barnes_hut"
        # Below 192 points even the floor of 16 intervals is too many.
        assert self.engine(rng.uniform(0, 1, size=(191, 2))) == "barnes_hut"
        assert self.engine(rng.uniform(0, 1, size=(192, 2))) == "interpolation"

    def test_three_dimensional_maps_and_zero_angle_use_the_tree(self):
        rng = np.random.default_rng(1)
        y3 = rng.uniform(0, 1, size=(1000, 3))
        assert self.engine(y3) == "barnes_hut"
        y2 = rng.uniform(0, 10, size=(1000, 2))
        assert self.engine(y2, bh_theta=0.0) == "barnes_hut"

    def test_spread_map_is_no_worse_than_the_tree(self, monkeypatch):
        # A swiss roll map after 100 iterations spans about 10 units.
        data = gen_swiss_roll(n=1000, seed=3)
        cfg = EmbedConfig(n_iter=100, seed=3)
        emb, report = run(data, cfg, verbose=False)
        y = emb.y
        assert 8.0 < np.ptp(y, axis=0).max() < 12.0
        assert {rec.z_estimator for rec in report.loss_trace} == {"interpolation"}
        p, _ = build_affinity_model(data.x, n_neighbors=90, perplexity=cfg.perplexity)
        macro = MacroAffinity(
            r=np.full((2, len(y)), 0.5), p_macro=np.array([[0.0, 0.5], [0.5, 0.0]])
        )
        cfg = EmbedConfig(alpha=0.0, beta=0.0)
        g_exact, ws_exact = gradient_exact(y, p, macro, cfg)
        g_grid, ws_grid = gradient_bh(y, p, macro, cfg)
        monkeypatch.setattr(objective, "_GRID_NODES_PER_POINT", 0)
        g_tree, ws_tree = gradient_bh(y, p, macro, cfg)
        assert (ws_grid.z_estimator, ws_tree.z_estimator) == ("interpolation", "barnes_hut")
        norms = np.linalg.norm(g_exact, axis=1)
        grid = np.linalg.norm(g_grid - g_exact, axis=1) / norms
        tree = np.linalg.norm(g_tree - g_exact, axis=1) / norms
        assert np.median(grid) <= np.median(tree)
        assert np.quantile(grid, 0.99) <= np.quantile(tree, 0.99)
        assert abs(ws_grid.z_y - ws_exact.z_y) / ws_exact.z_y < 1e-3

    def test_coincident_points(self):
        y = np.tile([0.3, -0.7], (300, 1))
        force, zsum, engine = objective._repulsion(y, 0.5)
        assert engine == "interpolation"
        assert np.array_equal(force, np.zeros_like(y))
        np.testing.assert_allclose(zsum, 299.0, rtol=1e-5)

    def test_points_on_the_far_edge(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(0, 10, size=(1000, 2))
        y[:4] = [[0.0, 0.0], [10.0, 10.0], [10.0, 3.0], [4.0, 10.0]]
        force, zsum, engine = objective._repulsion(y, 0.5)
        assert engine == "interpolation"
        per_point, z_err = relative_errors(force, zsum, y)
        assert per_point[:4].max() < 1e-2 and z_err < 1e-3

    @pytest.mark.parametrize("gap", [1e-3, 1.0, 7.0])
    def test_two_points(self, gap):
        y = np.array([[0.5, 0.25], [0.5 + gap, 0.25 - gap]])
        force, zsum = objective._grid_forces(y, 16)
        per_point, z_err = relative_errors(force, zsum, y)
        assert per_point.max() < 1e-2 and z_err < 1e-3
        np.testing.assert_allclose(force[0], -force[1], rtol=1e-12)


class TestLazyLosses:
    def test_losses_wait_until_read(self, monkeypatch):
        calls = []
        real = objective._evaluate_losses
        monkeypatch.setattr(
            objective, "_evaluate_losses", lambda *a: calls.append(1) or real(*a)
        )
        _, p, macro, y, cfg = make_problem(30, 4, 3, seed=2)
        _, ws = gradient_bh(y, p, macro, cfg)
        assert calls == []
        parts = (ws.loss_micro, ws.loss_macro, ws.loss_kmeans)
        assert ws.loss_total == parts[0] + cfg.alpha * parts[1] + cfg.beta * parts[2]
        assert not ws.underflow_clamped
        assert len(calls) == 1
