"""Loss values, tree construction, the gradient and the three repulsion
engines. gradient_bh at bh_theta = 0 is the exact gradient; the dense
references it is checked against live in tests/oracles.py."""

import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gtsne import core, objective
from gtsne.affinity import AffinityModel, build_affinity_model
from gtsne.core import Embedding, EmbedConfig
from gtsne.datasets import gen_swiss_roll
from gtsne.macro import MacroAffinity, kmeans_fit, macro_affinity, responsibility_matrix
from gtsne.objective import build_quadtree, gradient_bh
from gtsne.optimizer import run

from oracles import (
    build_quadtree_by_level,
    central_differences,
    dense_micro_gradient,
    dense_objective,
    dense_repulsion,
    kmeans_loss_by_cluster,
    tree_forces_by_table,
    use_reference_sweeps,
)


def make_problem(n, d_in, k, seed, alpha=0.01, beta=0.05, y_scale=1.0, **cfg_kw):
    """Random instance with every piece the objective needs."""
    out_dims = cfg_kw.get("out_dims", 2)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d_in))
    p, _ = build_affinity_model(x, n_neighbors=min(5, n - 1), perplexity=3.0, tol=1e-8)
    km = kmeans_fit(x, k, seed=seed)
    r = responsibility_matrix(x, km.t, d=out_dims)
    macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
    y = y_scale * rng.normal(size=(n, out_dims))
    cfg = EmbedConfig(alpha=alpha, beta=beta, **cfg_kw)
    return x, p, macro, y, cfg


def exact_gradient(y, p, macro, cfg):
    """The exact gradient and workspace: gradient_bh at bh_theta = 0."""
    return gradient_bh(y, p, macro, dataclasses.replace(cfg, bh_theta=0.0))


def exact_losses(y, p, macro, cfg):
    """(total, micro, macro, kmeans) at the exact normalizer."""
    return exact_gradient(y, p, macro, cfg)[1].losses[:4]


def oracle_losses(y, p, macro, cfg):
    return dense_objective(y, p.dense(), macro.r, macro.p_macro, cfg.alpha, cfg.beta)


def micro_only(cfg):
    return dataclasses.replace(cfg, alpha=0.0, beta=0.0)


class TestLoss:
    def test_matches_dense_oracle(self):
        _, p, macro, y, cfg = make_problem(12, 4, 3, seed=7)
        got = exact_losses(y, p, macro, cfg)
        want = oracle_losses(y, p, macro, cfg)
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
        r = responsibility_matrix(x, km.t, d=2)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        cfg = EmbedConfig(alpha=0.01, beta=0.05)
        for trial in range(3):
            y = rng.normal(size=(2, 2))
            total, l_micro, l_macro, l_kmeans = exact_losses(y, p, macro, cfg)
            assert abs(l_micro) <= 1e-12
            assert abs(l_macro) <= 1e-12
            assert abs(total - cfg.beta * l_kmeans) <= 1e-12

    def test_accepts_embedding_object(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=1)
        g_emb, _ = exact_gradient(Embedding(y=y), p, macro, cfg)
        g, _ = exact_gradient(y, p, macro, cfg)
        assert np.array_equal(g_emb, g)
        want = exact_losses(y, p, macro, cfg)
        assert exact_losses(Embedding(y=y), p, macro, cfg) == want

    def test_size_mismatch_rejected(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=1)
        with pytest.raises(ValueError, match="rows"):
            exact_losses(y[:-1], p, macro, cfg)

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


def assert_tree_sums_are_exact(y):
    """At theta = 0 the tree sweep reproduces the dense sums. gradient_bh
    sends theta = 0 to the exact engine, so the sweep is called directly."""
    force, zsum = objective._tree_forces(build_quadtree(y), y, 0.0)
    want_force, want_zsum = dense_repulsion(y)
    assert np.abs(force - want_force).max() <= 1e-12 * np.abs(want_force).max()
    np.testing.assert_allclose(zsum, want_zsum, rtol=1e-12)


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
        r = responsibility_matrix(x, km.t, d=3)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = rng.uniform(-0.5, 0.5, size=(30, 3))
        y[20:] = y[3] + np.outer(np.arange(1, 11), [1e-9, 0.0, 0.0])
        tree = build_quadtree(y)
        for i in [3, *range(20, 30)]:
            hits = np.flatnonzero(tree.is_leaf & np.all(tree.com == y[i], axis=1))
            assert len(hits) == 1 and tree.count[hits[0]] == 1
        assert tree.n_child.max() == 11  # one finest cell, a leaf per point
        assert_tree_sums_are_exact(y)
        cfg = EmbedConfig(alpha=0.0, beta=0.0, out_dims=3, bh_theta=0.0)
        g_bh, ws_bh = gradient_bh(y, p, macro, cfg)
        g_ref, z_ref = dense_micro_gradient(y, p)
        norms = np.linalg.norm(g_ref, axis=1)
        assert (np.linalg.norm(g_bh - g_ref, axis=1) / norms).max() <= 1e-10
        assert abs(ws_bh.z_y - z_ref) / z_ref <= 1e-10

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
    """gradient_bh at bh_theta = 0, the package's exact gradient."""

    def test_matches_central_differences(self):
        _, p, macro, y, cfg = make_problem(12, 4, 3, seed=0, y_scale=0.5)
        g, _ = exact_gradient(y, p, macro, cfg)

        def total(yy):
            return oracle_losses(yy, p, macro, cfg)[0]

        fd = central_differences(total, y, h=1e-5)
        rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-5

    def test_translation_invariance(self):
        _, p, macro, y, cfg = make_problem(14, 4, 3, seed=2)
        g0, _ = exact_gradient(y, p, macro, cfg)
        g1, _ = exact_gradient(y + np.array([13.0, -4.0]), p, macro, cfg)
        np.testing.assert_allclose(g1, g0, atol=1e-9)

    def test_exact_mode_gradient_sums_to_zero(self):
        # Differentiating through the centroids keeps the total loss
        # translation invariant, so the coordinate sums must cancel.
        _, p, macro, y, cfg = make_problem(16, 4, 3, seed=5)
        g, _ = exact_gradient(y, p, macro, cfg)
        assert np.abs(g.sum(axis=0)).max() < 1e-9

    def test_frozen_responsibility_mode_differs(self):
        _, p, macro, y, cfg = make_problem(16, 4, 3, seed=5)
        g_exact, _ = exact_gradient(y, p, macro, cfg)
        g_paper, _ = exact_gradient(
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
        r = responsibility_matrix(z, z, d=2)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(z))
        p, _ = build_affinity_model(z, n_neighbors=3, perplexity=2.0, tol=1e-8)
        rng = np.random.default_rng(0)
        y = rng.normal(size=(n, 2))
        cfg = EmbedConfig(alpha=0.01, beta=0.05)
        g_exact, _ = exact_gradient(y, p, macro, cfg)
        g_paper, _ = exact_gradient(
            y, p, macro, dataclasses.replace(cfg, gradient_mode="paper")
        )
        assert np.abs(g_paper - g_exact).max() <= 1e-10

    def test_workspace_invariants(self):
        _, p, macro, y, cfg = make_problem(15, 4, 4, seed=8)
        _, ws = exact_gradient(y, p, macro, cfg)
        assert ws.z_y > 0.0
        assert ws.z_estimator == "exact"
        np.testing.assert_array_equal(ws.q_macro, ws.q_macro.T)
        assert np.abs(np.diag(ws.q_macro)).max() == 0.0
        assert abs(ws.q_macro.sum() - 1.0) <= 1e-12
        losses = ws.losses
        want = losses.micro + cfg.alpha * losses.macro + cfg.beta * losses.kmeans
        assert abs(losses.total - want) <= 1e-12 * max(1.0, abs(want))
        # Centroids are the responsibility-weighted means of the map.
        resid = macro.r @ y - macro.r.sum(axis=1)[:, None] * ws.c
        assert np.abs(resid).max() < 1e-9

    def test_underflow_is_flagged_and_loss_stays_finite(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=6)
        y = y.copy()
        y[5:] += 1e151  # cross-gap kernel drops below the clamp floor
        g, ws = exact_gradient(y, p, macro, cfg)
        assert ws.losses.underflow_clamped
        assert np.isfinite(ws.losses.total)
        assert np.all(np.isfinite(g))

    def test_no_underflow_on_tame_maps(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=6)
        _, ws = exact_gradient(y, p, macro, cfg)
        assert not ws.losses.underflow_clamped

    def test_unknown_mode_rejected(self):
        _, p, macro, y, cfg = make_problem(8, 4, 3, seed=1)
        with pytest.raises(ValueError, match="gradient_mode"):
            exact_gradient(y, p, macro, dataclasses.replace(cfg, gradient_mode="frozen"))

    def test_responsibility_width_mismatch_rejected(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=1)
        clipped = MacroAffinity(r=macro.r[:, :-1], p_macro=macro.p_macro)
        with pytest.raises(ValueError, match="responsibilities"):
            exact_gradient(y, p, clipped, cfg)


class TestGradientTree:
    def test_zero_angle_matches_exact(self):
        _, p, macro, y, cfg = make_problem(40, 4, 4, seed=3, y_scale=0.5, bh_theta=0.0)
        assert_tree_sums_are_exact(y)
        g_bh, ws_bh = gradient_bh(y, p, macro, micro_only(cfg))
        g_ref, z_ref = dense_micro_gradient(y, p)
        assert ws_bh.z_estimator == "exact"
        assert abs(ws_bh.z_y - z_ref) <= 1e-12 * z_ref
        rel = np.abs(g_bh - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert rel.max() <= 1e-10
        got = exact_losses(y, p, macro, cfg)
        for a, b in zip(got, oracle_losses(y, p, macro, cfg)):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_zero_angle_matches_exact_in_three_dims(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 5))
        p, _ = build_affinity_model(x, n_neighbors=5, perplexity=3.0, tol=1e-8)
        km = kmeans_fit(x, 4, seed=0)
        r = responsibility_matrix(x, km.t, d=3)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = rng.normal(size=(30, 3))
        assert_tree_sums_are_exact(y)
        cfg = EmbedConfig(alpha=0.0, beta=0.0, out_dims=3, bh_theta=0.0)
        g_bh, _ = gradient_bh(y, p, macro, cfg)
        g_ref, _ = dense_micro_gradient(y, p)
        rel = np.abs(g_bh - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert rel.max() <= 1e-10

    def test_duplicate_map_points_sum_exactly(self):
        # Coincident points share a multiplicity leaf; with the angle at
        # zero the tree sum must still reproduce the dense one exactly.
        _, p, macro, y, cfg = make_problem(12, 4, 3, seed=4, bh_theta=0.0)
        y = y.copy()
        y[3] = y[7] = y[9]
        assert_tree_sums_are_exact(y)
        g_bh, ws_bh = gradient_bh(y, p, macro, micro_only(cfg))
        g_ref, z_ref = dense_micro_gradient(y, p)
        assert abs(ws_bh.z_y - z_ref) <= 1e-12 * z_ref
        rel = np.abs(g_bh - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert rel.max() <= 1e-10

    def test_two_points_exact_at_default_angle(self, monkeypatch):
        # At the default opening angle a cell containing the query point
        # is never accepted, so a two-point sweep always reaches the
        # leaves and reproduces the dense sums exactly.
        monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
        x = np.arange(8.0).reshape(2, 4)
        p = AffinityModel(row=[0], col=[1], val=[0.5], n=2)
        km = kmeans_fit(x, 2, seed=0)
        r = responsibility_matrix(x, km.t, d=2)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = np.array([[0.0, 0.0], [1.0, 2.0]])
        cfg = EmbedConfig(alpha=0.01, beta=0.05, bh_theta=0.5)
        g_tree, ws_tree = gradient_bh(y, p, macro, cfg)
        g_ref, _ = exact_gradient(y, p, macro, cfg)
        assert ws_tree.z_estimator == "barnes_hut"
        np.testing.assert_allclose(g_tree, g_ref, atol=1e-14)

    def test_default_angle_near_init_scale(self, monkeypatch):
        # Micro-only comparison on a map still at its initial spread: the
        # tree estimate should track the dense gradient to a percent and
        # the normalizer to a tenth of that.
        monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(100, 5))
        p, _ = build_affinity_model(x, n_neighbors=10, perplexity=5.0, tol=1e-8)
        km = kmeans_fit(x, 5, seed=0)
        r = responsibility_matrix(x, km.t, d=2)
        macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
        y = rng.normal(scale=1e-2, size=(100, 2))
        cfg = EmbedConfig(alpha=0.0, beta=0.0, bh_theta=0.5)
        g_tree, ws_tree = gradient_bh(y, p, macro, cfg)
        g_ref, ws_ref = exact_gradient(y, p, macro, cfg)
        assert ws_tree.z_estimator == "barnes_hut"
        scale = np.abs(g_ref).max()
        assert np.abs(g_tree - g_ref).max() / scale < 1e-2
        assert abs(ws_tree.z_y - ws_ref.z_y) / ws_ref.z_y < 1e-3

    def test_underflow_is_flagged_and_loss_stays_finite(self):
        _, p, macro, y, cfg = make_problem(10, 4, 3, seed=6)
        assert not gradient_bh(y, p, macro, cfg)[1].losses.underflow_clamped
        y = y.copy()
        y[5:] += 1e151  # cross-gap kernel drops below the clamp floor
        g, ws = gradient_bh(y, p, macro, cfg)
        assert ws.losses.underflow_clamped
        assert np.isfinite(ws.losses.total)
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
        assert ws.losses[:4] == ws_plain.losses[:4]
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
        # The comparison is of tree sweeps, so the grid and the exact sums
        # stay out. theta = 0 always takes the exact sums, so the two
        # sweeps are also compared directly.
        monkeypatch.setattr(objective, "_GRID_NODES_PER_POINT", 0)
        monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
        _, p, macro, y, cfg = make_problem(
            240, 6, 5, seed=dims, out_dims=dims, bh_theta=theta
        )
        if duplicates:
            y = duplicate_heavy_map(240, dims, seed=dims)
        g, ws = gradient_bh(y, p, macro, cfg, exaggeration=exaggeration)
        with monkeypatch.context() as m:
            use_reference_sweeps(m, objective)
            g_ref, ws_ref = gradient_bh(y, p, macro, cfg, exaggeration=exaggeration)
        engine = "barnes_hut" if theta > 0 else "exact"
        assert ws.z_estimator == ws_ref.z_estimator == engine
        assert np.array_equal(g, g_ref)
        assert ws.z_y == ws_ref.z_y
        assert ws.losses.total == ws_ref.losses.total
        tree = build_quadtree(y)
        got = objective._tree_forces(tree, y, theta)
        want = tree_forces_by_table(tree, y, theta)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("dims, theta", [(2, 0.5), (3, 0.5), (3, 0.0)])
    def test_blocked_sweep_matches_the_table_sweep(self, dims, theta):
        # 1300 points sweep in three blocks, the last one partial, and
        # every point's terms still add up in the table sweep's order.
        y = duplicate_heavy_map(1300, dims, seed=dims)
        tree = build_quadtree(y)
        got = objective._tree_forces(tree, y, theta)
        want = tree_forces_by_table(tree, y, theta)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def relative_errors(force, zsum, y):
    """Per-point force error and normalizer error against the dense sums."""
    want_force, want_zsum = dense_repulsion(y)
    err = np.linalg.norm(force - want_force, axis=1)
    per_point = err / np.linalg.norm(want_force, axis=1)
    return per_point, abs(zsum.sum() - want_zsum.sum()) / want_zsum.sum()


class TestRepulsionEngines:
    """gradient_bh takes the exact sums at bh_theta = 0, runs the
    interpolation grid on 2-D maps with at most _GRID_NODES_PER_POINT grid
    nodes per point, the exact sums on other maps of at most
    _EXACT_MAX_POINTS points and the tree on larger ones."""

    def engine(self, y, bh_theta=0.5):
        n, dims = y.shape
        _, p, macro, _, cfg = make_problem(
            n, 4, 3, seed=n, out_dims=dims, bh_theta=bh_theta
        )
        return gradient_bh(y, p, macro, cfg)[1].z_estimator

    def test_size_rule_picks_the_engine(self, monkeypatch):
        # The grid's side of the rule, with the tree as the other side.
        monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
        rng = np.random.default_rng(0)
        assert self.engine(rng.uniform(0, 10, size=(1000, 2))) == "interpolation"
        # 160 intervals of 3 nodes per axis: 256 nodes per point.
        assert self.engine(rng.uniform(0, 80, size=(300, 2))) == "barnes_hut"
        # Below 192 points even the floor of 16 intervals is too many.
        assert self.engine(rng.uniform(0, 1, size=(191, 2))) == "barnes_hut"
        assert self.engine(rng.uniform(0, 1, size=(192, 2))) == "interpolation"

    def test_three_dimensional_maps_and_zero_angle_use_the_tree(self, monkeypatch):
        # 3-D maps beyond the exact sums' size limit use the tree; zero
        # angle asks for exact sums, which the exact engine gives at any size.
        monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
        rng = np.random.default_rng(1)
        y3 = rng.uniform(0, 1, size=(1000, 3))
        assert self.engine(y3) == "barnes_hut"
        y2 = rng.uniform(0, 10, size=(1000, 2))
        assert self.engine(y2, bh_theta=0.0) == "exact"

    def test_exact_sums_below_the_size_limit(self):
        rng = np.random.default_rng(3)
        assert objective._EXACT_MAX_POINTS == 4096
        assert objective._repulsion(rng.normal(size=(5000, 2)), 0.0)[2] == "exact"
        assert objective._repulsion(rng.normal(size=(4096, 3)), 0.5)[2] == "exact"
        assert objective._repulsion(rng.normal(size=(4097, 3)), 0.5)[2] == "barnes_hut"
        # Too wide for the grid and small enough for the exact sums.
        assert self.engine(rng.uniform(0, 80, size=(300, 2))) == "exact"
        # A roll-1k-like map: 1000 points over about 10 units.
        roll = gen_swiss_roll(n=1000, seed=1).x[:, [0, 2]]
        roll = 10.0 * (roll - roll.min(axis=0)) / np.ptp(roll, axis=0).max()
        assert self.engine(roll) == "interpolation"

    @pytest.mark.parametrize("bad", ["four_dims", "nan"])
    def test_maps_the_engines_cannot_take_are_rejected(self, bad):
        _, p, macro, y, cfg = make_problem(50, 4, 3, seed=4)
        if bad == "four_dims":
            y = np.random.default_rng(4).normal(size=(50, 4))
            match = "2-D or 3-D"
        else:
            y = y.copy()
            y[7, 1] = np.nan
            match = "non-finite"
        for theta in (0.0, 0.5):
            with pytest.raises(ValueError, match=match):
                gradient_bh(y, p, macro, dataclasses.replace(cfg, bh_theta=theta))

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
        g_exact, ws_exact = exact_gradient(y, p, macro, cfg)
        g_grid, ws_grid = gradient_bh(y, p, macro, cfg)
        monkeypatch.setattr(objective, "_GRID_NODES_PER_POINT", 0)
        monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
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

    def test_fft_lengths_are_five_smooth(self):
        for size in range(1, 1000):
            length = objective._fft_length(2 * size - 1)
            rest = length
            for f in (2, 3, 5):
                while rest % f == 0:
                    rest //= f
            assert rest == 1 and length >= 2 * size - 1
        # 251 intervals of 3 nodes used to pad to 1506 = 2 * 3 * 251.
        assert objective._fft_length(2 * 753 - 1) == 1536

    @pytest.mark.parametrize("intervals", [31, 251])
    def test_grid_on_smooth_lengths_meets_the_edge_bounds(self, intervals):
        # The map spans intervals / 2 units, as the interval rule would
        # give it; corner points carry the largest net forces.
        extent = intervals / 2.0
        y = np.random.default_rng(intervals).uniform(0, extent, size=(1000, 2))
        y[:4] = [[0.0, 0.0], [extent, extent], [extent, 3.0], [4.0, extent]]
        force, zsum = objective._grid_forces(y, intervals)
        per_point, z_err = relative_errors(force, zsum, y)
        assert per_point[:4].max() < 1e-2 and z_err < 1e-3


class TestExactForces:
    """The blocked exact sums against the dense oracle."""

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 37, 1000, 1141])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_matches_the_dense_sums(self, dims, n, offset):
        # 1000 points run in blocks of 131 rows, the last one partial;
        # 1141 points in ten blocks of 114 rows and one of a single row.
        y = offset + np.random.default_rng(n).normal(scale=3.0, size=(n, dims))
        force, zsum = objective._exact_forces(y)
        want_force, want_zsum = dense_repulsion(y)
        scale = max(np.abs(want_force).max(), 1e-300)
        assert np.abs(force - want_force).max() <= 1e-12 * scale
        assert np.abs(zsum - want_zsum).max() <= 1e-12 * max(want_zsum.max(), 1e-300)

    def test_pair_forces_cancel(self):
        # Each pair's forces on its two ends are equal and opposite.
        y = np.random.default_rng(11).normal(scale=3.0, size=(1000, 3))
        force, zsum = objective._exact_forces(y)
        want_force, want_zsum = dense_repulsion(y)
        assert np.abs(force.sum(axis=0)).max() <= 1e-12 * np.abs(force).sum(axis=0).max()
        assert abs(zsum.sum() - want_zsum.sum()) <= 1e-12 * want_zsum.sum()

    @pytest.mark.parametrize("dims", [2, 3])
    def test_wide_maps_take_direct_differences(self, dims):
        # Two halves 1e151 apart: the product form would read the
        # within-half kernels as 0 or 1.
        y = np.random.default_rng(6).normal(size=(10, dims))
        y[5:] += 1e151
        force, zsum = objective._exact_forces(y)
        want_force, want_zsum = dense_repulsion(y)
        assert np.abs(force - want_force).max() <= 1e-12 * np.abs(want_force).max()
        assert np.abs(zsum - want_zsum).max() <= 1e-12 * want_zsum.max()

    @pytest.mark.parametrize("dims", [2, 3])
    def test_product_form_up_to_its_radius_bound(self, dims):
        # Two clusters 2000 units from the mean, just inside the bound:
        # the product's roundoff stays within the 1e-9 it is allowed.
        y = np.random.default_rng(dims).normal(size=(400, dims))
        y[:200, 0] += 2000.0
        y[200:, 0] -= 2000.0
        centred = y - y.mean(axis=0)
        assert (centred**2).sum(axis=1).max() <= objective._EXACT_PRODUCT_MAX_SQ
        force, zsum = objective._exact_forces(y)
        want_force, want_zsum = dense_repulsion(y)
        assert np.abs(force - want_force).max() <= 1e-9 * np.abs(want_force).max()
        assert np.abs(zsum - want_zsum).max() <= 1e-9 * want_zsum.max()

    @pytest.mark.parametrize("dims", [2, 3])
    def test_direct_differences_hold_one_block_at_a_time(self, dims):
        # A block's differences (dims blocks of entries), kernels and
        # squared kernels go before the next block's are made; while they
        # overlapped, 1500 points peaked at 5.1 (2-D) and 7.0 (3-D) blocks.
        y = np.random.default_rng(dims).normal(scale=1e4, size=(1500, dims))
        tracemalloc.start()
        try:
            force, zsum = objective._direct_forces(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = peak - force.nbytes - zsum.nbytes
        assert held <= (dims + 2.5) * core.BLOCK_FLOATS * 8

    @pytest.mark.parametrize("dims", [2, 3])
    def test_coincident_points(self, dims):
        y = np.tile([0.3, -0.7, 0.1][:dims], (700, 1))
        force, zsum = objective._exact_forces(y)
        assert np.array_equal(force, np.zeros_like(y))
        np.testing.assert_allclose(zsum, 699.0, rtol=1e-15)
        # Coincident pairs among other points add 1 and no force.
        y = np.random.default_rng(dims).normal(size=(500, dims))
        y[:40] = y[40]
        force, zsum = objective._exact_forces(y)
        want_force, want_zsum = dense_repulsion(y)
        assert np.abs(force - want_force).max() <= 1e-12 * np.abs(want_force).max()
        np.testing.assert_allclose(zsum, want_zsum, rtol=1e-12)

    def test_memory_stays_bounded(self):
        # Blocks of rows keep the exact sums at a few MB; the tree sweep
        # at theta = 0 held every (point, cell) pair of a level (240 MB
        # here), and a pass of 512 points keeps its sweep small too. A
        # whole exact gradient with its losses on 5000 points stays near
        # 24 MB, where n x n kernels would take about 400 MB.
        rng = np.random.default_rng(5)
        y = rng.normal(size=(2000, 2))
        x = rng.normal(size=(5000, 4))
        p, _ = build_affinity_model(x, n_neighbors=90, perplexity=30.0)
        km = kmeans_fit(x, 20, seed=0)
        macro = MacroAffinity(
            r=responsibility_matrix(x, km.t, d=2), p_macro=macro_affinity(km.t)
        )
        y5k = rng.normal(size=(5000, 2))
        cfg = EmbedConfig(bh_theta=0.0)
        tracemalloc.start()
        try:
            objective._repulsion(y, 0.0)
            exact_peak = tracemalloc.get_traced_memory()[1]
            y3 = rng.normal(size=(6000, 3))
            tree = build_quadtree(y3)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            objective._tree_forces(tree, y3, 0.5)
            tree_peak = tracemalloc.get_traced_memory()[1] - base
            del tree, y3
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, ws = gradient_bh(y5k, p, macro, cfg)
            assert ws.z_estimator == "exact" and np.isfinite(ws.losses.total)
            gradient_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert exact_peak < 16e6
        assert tree_peak < 64e6
        assert gradient_peak < 32e6


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
        total, l_micro, l_macro, l_kmeans, clamped = ws.losses
        assert total == l_micro + cfg.alpha * l_macro + cfg.beta * l_kmeans
        assert not clamped
        assert len(calls) == 1


def one_thread_gradient(y, p, macro, cfg, exaggeration=1.0):
    """gradient_bh's terms composed on the calling thread alone: (g, z_y,
    engine, Losses)."""
    force, zsum, engine = objective._repulsion(y, cfg.bh_theta)
    z_y = max(float(zsum.sum()), objective.Q_FLOOR)
    att, pair_kern = objective._attraction(y, p, exaggeration)
    c, mkern, q_macro = objective._macro_state(y, macro)
    g = 4.0 * (att - force / z_y)
    g += objective._macro_gradient(y, macro, c, mkern, q_macro, cfg.alpha, cfg.gradient_mode)
    g += objective._kmeans_gradient(y, macro, c, cfg.beta)
    losses = objective._evaluate_losses(
        y, p.val, pair_kern, z_y, macro, mkern, c, cfg.alpha, cfg.beta
    )
    return g, z_y, engine, losses


class TestRepulsionWorker:
    """gradient_bh runs the repulsion on its worker thread while the
    calling thread works out the other terms; the result is the one-thread
    composition bit for bit."""

    @pytest.mark.parametrize(
        "engine, dims, scale, theta",
        [("exact", 2, 3.0, 0.0), ("interpolation", 2, 1.0, 0.5), ("barnes_hut", 3, 3.0, 0.5)],
    )
    def test_matches_the_one_thread_composition(self, monkeypatch, engine, dims, scale, theta):
        if engine == "barnes_hut":
            monkeypatch.setattr(objective, "_EXACT_MAX_POINTS", 0)
        _, p, macro, y, cfg = make_problem(
            600, 5, 4, seed=8, y_scale=scale, out_dims=dims, bh_theta=theta
        )
        g, ws = gradient_bh(y, p, macro, cfg, exaggeration=4.0)
        want_g, want_z, want_engine, want_losses = one_thread_gradient(
            y, p, macro, cfg, exaggeration=4.0
        )
        assert ws.z_estimator == want_engine == engine
        assert g.tobytes() == want_g.tobytes()
        assert ws.z_y == want_z
        assert ws.losses == want_losses

    def test_repulsion_runs_on_another_thread_by_its_module_name(self, monkeypatch):
        threads = []
        real = objective._repulsion

        def traced(y, theta):
            threads.append(threading.get_ident())
            return real(y, theta)

        monkeypatch.setattr(objective, "_repulsion", traced)
        _, p, macro, y, cfg = make_problem(50, 4, 3, seed=4)
        gradient_bh(y, p, macro, cfg)
        gradient_bh(y, p, macro, cfg)
        assert len(threads) == 2
        assert threads[0] == threads[1] != threading.get_ident()

    def test_an_error_in_the_repulsion_reaches_the_caller(self, monkeypatch):
        _, p, macro, y, cfg = make_problem(50, 4, 3, seed=5)
        want, _ = gradient_bh(y, p, macro, cfg)

        def broken(y, theta):
            raise FloatingPointError("repulsion failed at 7 points")

        with monkeypatch.context() as m:
            m.setattr(objective, "_repulsion", broken)
            with pytest.raises(FloatingPointError, match=r"^repulsion failed at 7 points$"):
                gradient_bh(y, p, macro, cfg)
        g, _ = gradient_bh(y, p, macro, cfg)
        assert g.tobytes() == want.tobytes()

    def test_the_caller_finishes_its_terms_before_it_waits(self, monkeypatch):
        # The repulsion holds back until the k-means term is done, which
        # only a caller that works out that term before its wait allows.
        _, p, macro, y, cfg = make_problem(50, 4, 3, seed=3)
        want = one_thread_gradient(y, p, macro, cfg)[0]
        kmeans_done = threading.Event()
        threads = []
        real_kmeans, real_repulsion = objective._kmeans_gradient, objective._repulsion

        def spy(*args):
            threads.append(threading.get_ident())
            out = real_kmeans(*args)
            kmeans_done.set()
            return out

        def held(y, theta):
            if not kmeans_done.wait(timeout=10.0):
                raise TimeoutError("the k-means term did not run while the repulsion did")
            return real_repulsion(y, theta)

        monkeypatch.setattr(objective, "_kmeans_gradient", spy)
        monkeypatch.setattr(objective, "_repulsion", held)
        g, _ = gradient_bh(y, p, macro, cfg)
        assert threads == [threading.get_ident()]
        assert g.tobytes() == want.tobytes()

    def test_an_error_in_a_caller_term_waits_for_the_worker(self, monkeypatch):
        _, p, macro, y, cfg = make_problem(50, 4, 3, seed=5)
        want = one_thread_gradient(y, p, macro, cfg)[0]
        raised = threading.Event()
        finished = []
        real = objective._repulsion

        def late(y, theta):
            # Starts its sums only once the caller's term has failed.
            raised.wait(timeout=10.0)
            time.sleep(0.05)
            out = real(y, theta)
            finished.append(True)
            return out

        def broken(*args):
            raised.set()
            raise FloatingPointError("macro term failed at 7 points")

        with monkeypatch.context() as m:
            m.setattr(objective, "_repulsion", late)
            m.setattr(objective, "_macro_gradient", broken)
            with pytest.raises(FloatingPointError, match=r"^macro term failed at 7 points$"):
                gradient_bh(y, p, macro, cfg)
            assert finished == [True]
        g, _ = gradient_bh(y, p, macro, cfg)
        assert g.tobytes() == want.tobytes()

    def test_concurrent_callers_share_one_worker(self, monkeypatch):
        # Four callers race to make the worker, with thread switches every
        # 10 us: one worker must serve them all, and every gradient must
        # still be the one-thread composition.
        _, p, macro, y, cfg = make_problem(300, 4, 3, seed=7)
        want = one_thread_gradient(y, p, macro, cfg)[0].tobytes()
        workers = set()
        real = objective._repulsion

        def traced(y, theta):
            workers.add(threading.get_ident())
            return real(y, theta)

        monkeypatch.setattr(objective, "_repulsion", traced)
        monkeypatch.setattr(core, "_worker", None)
        results = []

        def caller():
            for _ in range(10):
                results.append(gradient_bh(y, p, macro, cfg)[0].tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in callers)
        finally:
            sys.setswitchinterval(interval)
            if core._worker is not None:
                core._worker.shutdown()
        assert len(results) == 40 and set(results) == {want}
        assert len(workers) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_a_worker_of_its_own(self):
        # The parent's worker thread exists before the fork and does not
        # survive it; the child must still finish a gradient.
        _, p, macro, y, cfg = make_problem(200, 4, 3, seed=6)
        want, _ = gradient_bh(y, p, macro, cfg)
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 and later warn about forking a threaded process.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                g, _ = gradient_bh(y, p, macro, cfg)
                os.write(write_end, g.tobytes())
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the forked child's gradient did not finish within 60 s")
        with os.fdopen(read_end, "rb") as fh:
            got = fh.read()
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want.tobytes()
