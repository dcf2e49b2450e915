"""Gradient descent with per-parameter gains and the full embedding run.

run() wires the whole pipeline: spectral reduction, k-means macro model,
neighbor affinities, then momentum descent on the map with adaptive gains.
The descent uses gradient_bh, whose repulsion comes from an interpolation
grid or a Barnes-Hut tree (exact when bh_theta is 0), and logs a loss
record every log_every iterations plus the final state.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .affinity import build_affinity_model
from .core import (
    Dataset,
    EmbedConfig,
    Embedding,
    LossRecord,
    RunReport,
    check_config,
)
from .macro import MacroAffinity, kmeans_fit, macro_affinity, responsibility_matrix
from .objective import gradient_bh
from .pca import pca_fit

GAIN_FLOOR = 0.01
CONVERGENCE_NORM = 1e-7
CONVERGENCE_PATIENCE = 50


@dataclass
class OptimizerState:
    """Per-parameter descent state carried across iterations."""

    velocity: np.ndarray
    gains: np.ndarray
    iteration: int = 0


def init_embedding(n: int, d: int, stddev: float, seed: int) -> Embedding:
    """Draw the initial map from an isotropic Gaussian."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if stddev < 0:
        raise ValueError("stddev must be nonnegative")
    rng = np.random.default_rng(seed)
    return Embedding(y=rng.normal(0.0, stddev, size=(n, d)))


def gains_update(gains: np.ndarray, g: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Adaptive per-coordinate gains.

    A coordinate whose gradient points against its velocity gets a 0.2
    boost; otherwise the gain decays by 0.8. An exact zero on either side
    counts as agreement, so frozen coordinates decay instead of ratcheting
    their gain up. Gains never drop below 0.01.
    """
    opposed = g * velocity < 0.0
    out = np.where(opposed, gains + 0.2, gains * 0.8)
    return np.maximum(out, GAIN_FLOOR)


def step(
    y: np.ndarray,
    state: OptimizerState,
    g: np.ndarray,
    learning_rate: float,
    gamma: float,
):
    """One descent update: gains, then velocity, then position.

    Returns the new position matrix; state is updated in place. Raises on
    a non-finite gradient so a diverging run fails loudly.
    """
    if not np.all(np.isfinite(g)):
        raise RuntimeError(
            f"non-finite gradient at iteration {state.iteration}; "
            "lower the learning rate or check the inputs"
        )
    state.gains = gains_update(state.gains, g, state.velocity)
    state.velocity = gamma * state.velocity - learning_rate * state.gains * g
    state.iteration += 1
    return y + state.velocity


def run(data: Dataset, cfg: EmbedConfig, verbose: bool = True):
    """Embed a dataset. Returns (Embedding, RunReport).

    Stages: spectral reduction of x, k-means on the reduced coordinates,
    responsibilities and centroid affinities, exact neighbor search plus
    perplexity calibration, then n_iter descent steps (or fewer once the
    largest per-point update stays under 1e-7 for 50 straight iterations).
    The first early_exaggeration_iter steps multiply the attraction by
    early_exaggeration; the one P stays as built, so every logged loss is
    the objective's value. Progress lines go to stderr when verbose.
    """
    cfg = check_config(cfg, data.n, data.dim)
    n, d = data.n, cfg.out_dims
    times: dict = {}
    t_start = time.perf_counter()

    # Independent per-stage seeds derived from the run seed. The third
    # draw once seeded a neighbor-search tree; it stays so that the other
    # two, and with them every map, are unchanged.
    seed_seq = np.random.default_rng(cfg.seed)
    seed_init, seed_kmeans, _ = (
        int(s) for s in seed_seq.integers(0, 2**63 - 1, size=3)
    )

    t0 = time.perf_counter()
    reduced = pca_fit(data.x, cfg.pca_dims, center=cfg.pca_center)
    times["pca"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    km = kmeans_fit(reduced.z, cfg.n_clusters, seed=seed_kmeans)
    times["kmeans"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    r = responsibility_matrix(reduced.z, km.t, d=cfg.out_dims, d_z=cfg.pca_dims)
    macro = MacroAffinity(r=r, p_macro=macro_affinity(km.t))
    times["macro"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    p, rows = build_affinity_model(
        data.x,
        n_neighbors=cfg.n_neighbors,
        perplexity=cfg.perplexity,
        tol=cfg.perplexity_tol,
    )
    degenerate_rows = [i for i, row in enumerate(rows) if row.degenerate]
    unconverged_rows = [
        i for i, row in enumerate(rows) if not (row.converged or row.degenerate)
    ]
    times["affinity"] = time.perf_counter() - t0
    if verbose and unconverged_rows:
        worst = max(abs(rows[i].perplexity - cfg.perplexity) for i in unconverged_rows)
        print(
            f"warning: {len(unconverged_rows)} rows missed the target perplexity "
            f"by more than perplexity_tol={cfg.perplexity_tol:g} (worst gap {worst:.3g})",
            file=sys.stderr,
        )

    y = init_embedding(n, d, cfg.init_stddev, seed_init).y
    state = OptimizerState(velocity=np.zeros_like(y), gains=np.ones_like(y))

    trace: list = []
    still_streak = 0
    stop_reason = "max_iter"
    iterations_run = 0

    def record(ws, iteration, gamma, max_update):
        rec = LossRecord(
            iteration=iteration,
            total=ws.loss_total,
            micro=ws.loss_micro,
            macro=ws.loss_macro,
            kmeans=ws.loss_kmeans,
            gamma=gamma,
            z_estimator=ws.z_estimator,
            max_update=max_update,
            underflow_clamped=ws.underflow_clamped,
        )
        trace.append(rec)
        if verbose:
            print(
                f"iter={iteration} L={ws.loss_total:.6g} micro={ws.loss_micro:.6g} "
                f"macro={ws.loss_macro:.6g} kmeans={ws.loss_kmeans:.6g}",
                file=sys.stderr,
            )

    def momentum(it):
        return (
            cfg.momentum_initial if it < cfg.momentum_switch_iter else cfg.momentum_final
        )

    t0 = time.perf_counter()
    for it in range(cfg.n_iter):
        gamma = momentum(it)
        exaggeration = cfg.early_exaggeration if it < cfg.early_exaggeration_iter else 1.0
        g, ws = gradient_bh(y, p, macro, cfg, exaggeration=exaggeration)
        y = step(y, state, g, cfg.learning_rate, gamma)
        if not np.all(np.isfinite(y)):
            raise RuntimeError(
                f"map diverged to non-finite values at iteration {it}; "
                "lower the learning rate"
            )
        max_update = float(np.sqrt((state.velocity**2).sum(axis=1).max()))
        iterations_run = it + 1

        if it % cfg.log_every == 0:
            record(ws, it, gamma, max_update)

        if max_update < CONVERGENCE_NORM:
            still_streak += 1
            if still_streak >= CONVERGENCE_PATIENCE:
                stop_reason = "converged"
                break
        else:
            still_streak = 0
    times["optimize"] = time.perf_counter() - t0

    # Final loss at the final position, one extra evaluation.
    _, ws = gradient_bh(y, p, macro, cfg)
    record(ws, iterations_run, momentum(iterations_run), 0.0)
    times["total"] = time.perf_counter() - t_start

    report = RunReport(
        loss_trace=trace,
        wall_times=times,
        config=cfg,
        seed=cfg.seed,
        degenerate_rows=degenerate_rows,
        unconverged_rows=unconverged_rows,
        iterations_run=iterations_run,
        stop_reason=stop_reason,
    )
    return Embedding(y=y), report
