"""Time gtsne end to end and layer by layer on two fixed workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload roll-1k --seed 0 --seconds 55 --trace 0

One operation is one workload's embed-and-score: gtsne.run() on inputs
made from --seed, then knn_preservation and centroid_distance_correlation
from gtsne.metrics, then checks against perfbench/reference.py. The run
repeats operations while another one fits in --seconds (at least one) and
prints, as its last stdout line, one JSON object with the medians over
operations: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import statistics
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("roll-1k", "lines-3d")

K_SCORE = 10  # neighbours per point in knn_preservation and label agreement
# macro_correlation is the median over this many of the benchmark's own
# k-means partitions, so one unlucky partition does not move it.
PARTITIONS = 5
# Set-up-only runs (n_iter=1) before the first operation; they warm the
# process and give setup_s more samples than operations alone.
SETUP_SAMPLES = 1
# Scoring takes well under a second, so each operation scores its map this
# many times and reports the median time.
EVAL_REPEATS = 5

# Below this many times the chance overlap k / (n - 1), knn_preservation
# means the map lost its neighbourhoods.
KNN_CHANCE_FACTOR = 20.0
# Spearman correlation of centroid distances a working map clears; a
# shuffled map scores about 0.
MACRO_FLOOR = 0.2
# The map's label agreement may trail the input's by at most this much.
LABEL_SLACK = 0.01
# The final record's micro uses the Barnes-Hut estimate of Z, so it may
# differ from the exact KL by log(Z_bh / Z); at theta = 0.5 the estimate
# stays within 2% of Z.
BH_LOG_Z_TOL = math.log(1.02)
# Stage spans must match RunReport.wall_times to within this: the stage
# timers also cover a little glue around each call (the degenerate-row
# list, MacroAffinity construction), and a thread holding the interpreter
# lock can be descheduled for milliseconds (2.9 ms seen on kmeans).
STAGE_MARGIN_ABS = 0.02
STAGE_MARGIN_REL = 0.01

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "embed_s": "s",
    "setup_s": "s",
    "iter_per_s": "1/s",
    "descent_iters": "count",
    "evaluate_s": "s",
    "embed_peak_mb": "MB",
    "evaluate_peak_mb": "MB",
    "knn_preservation": "fraction",
    "final_kl": "nats",
}

PER_LAYER_UNITS = {
    "pca.fit_s": "s",
    "macro.kmeans_s": "s",
    "macro.kmeans_iters": "count",
    "macro.responsibility_s": "s",
    "affinity.build_s": "s",
    "affinity.knn_s": "s",
    "affinity.calibrate_s": "s",
    "affinity.symmetrize_s": "s",
    "affinity.nnz": "count",
    "affinity.worst_perplexity_gap": "perplexity",
    "affinity.rows_off_target": "count",
    "objective.gradient_calls": "count",
    "objective.gradient_ms": "ms",
    "objective.gradient_p99_ms": "ms",
    "objective.quadtree_ms": "ms",
    "objective.quadtree_nodes": "count",
    "objective.other_ms": "ms",
    "optimizer.step_ms": "ms",
    "optimizer.loop_ms": "ms",
    "metrics.knn_preservation_s": "s",
    "metrics.centroid_correlation_s": "s",
    "metrics.macro_correlation": "rho",
}


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def cap_blas_threads() -> None:
    """Cap BLAS and OpenMP pools at the cores this process may use.

    Must run before numpy is first imported.
    """
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            asked = int(os.environ.get(var, cores))
        except ValueError:
            asked = cores
        os.environ[var] = str(max(1, min(asked, cores)))


def make_workload(gtsne, name: str, seed: int):
    """(Dataset, EmbedConfig, labelled) of one workload for one seed."""
    if name == "roll-1k":
        data = gtsne.gen_swiss_roll(n=1000, seed=seed)
        cfg = gtsne.EmbedConfig(n_iter=300, seed=seed)
        return data, cfg, False
    if name == "lines-3d":
        data = gtsne.gen_three_lines(gtsne.ThreeLinesSpec(n_s=500, dims=10, seed=seed))
        cfg = gtsne.EmbedConfig(
            out_dims=3,
            early_exaggeration=12.0,
            early_exaggeration_iter=125,
            n_iter=200,
            seed=seed,
        )
        return data, cfg, True
    raise ValueError(f"unknown workload {name!r}")


class PeakRss:
    """Peak resident set size over a with-block, sampled by a thread.

    Reads /proc/self/statm every millisecond or whenever the interpreter
    lock allows, so a peak shorter than that can be missed.
    """

    INTERVAL = 0.001

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self.peak = 0

    def _rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self):
        while not self._stop.wait(self.INTERVAL):
            self.peak = max(self.peak, self._rss())

    def __enter__(self):
        self.peak = self._rss()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())
        return False

    @property
    def mb(self) -> float:
        return self.peak / 2**20


def release_memory() -> None:
    """Free garbage and hand freed heap back, so one step's leftovers do
    not count toward the next step's peak. malloc_trim exists in glibc
    only; elsewhere the collection alone runs."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


class Tracer:
    """Spans around the package's public functions, kept in memory.

    Each wrapper replaces a function under the module attribute its caller
    looks it up by, records (name, start, end, parent) and, for a few
    functions, a count read off the result. Missing attributes are skipped,
    so a renamed function leaves its metric at zero; only the traced checks
    need the captured results of build_affinity_model and gradient_bh.
    """

    def __init__(self):
        self.spans = []     # [name, start, end, parent index]
        self.counts = {}    # span index -> count read off the result
        self.captured = {}  # name -> last result
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, count=None, capture=False):
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[idx] = count(result)
            if capture:
                self.captured[name] = result
            return result

        return traced

    def patch(self, module, attr, name, count=None, capture=False):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, name, count, capture))

    def unpatch(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def durations(self, name, since=0):
        return [e - s for n, s, e, _ in self.spans[since:] if n == name]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end, "parent": parent}
                if idx in self.counts:
                    rec["count"] = self.counts[idx]
                fh.write(json.dumps(rec) + "\n")


def install_tracer(tracer: Tracer, gtsne) -> None:
    import gtsne.affinity
    import gtsne.objective
    import gtsne.optimizer

    opt = gtsne.optimizer
    tracer.patch(opt, "pca_fit", "pca.fit")
    tracer.patch(opt, "kmeans_fit", "macro.kmeans", count=lambda km: len(km.inertia_trace))
    tracer.patch(opt, "responsibility_matrix", "macro.responsibility")
    tracer.patch(opt, "macro_affinity", "macro.centroid_affinity")
    tracer.patch(opt, "build_affinity_model", "affinity.build", capture=True)
    tracer.patch(gtsne.affinity, "calibrate_row", "affinity.calibrate")
    tracer.patch(gtsne.affinity, "symmetrize", "affinity.symmetrize")
    tracer.patch(opt, "gradient_bh", "objective.gradient", capture=True)
    tracer.patch(gtsne.objective, "build_quadtree", "objective.quadtree", count=lambda t: t.n_nodes)
    tracer.patch(opt, "step", "optimizer.step")


def relative_gap(values, expected) -> float:
    """Largest |values - expected| / expected; inf where expected is 0
    and values is not."""
    import numpy as np

    diff = np.abs(values - expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / expected)
    return float(rel.max()) if len(rel) else 0.0


def p99(values):
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


class Prepared:
    """Everything the checks need that depends on the input alone."""

    def __init__(self, gtsne, ref, data, cfg, labelled):
        import numpy as np

        self.data = data
        self.cfg = gtsne.resolve_config(cfg, data.n, data.dim)
        self.labelled = labelled
        self.ids_p, self.sq_p = ref.knn(data.x, self.cfg.n_neighbors)
        probs, _ = ref.calibrate(self.sq_p, self.cfg.perplexity)
        self.p_row, self.p_col, self.p_val = ref.symmetrize(self.ids_p, probs, data.n)
        self.kl_uniform = ref.uniform_kl(self.p_val, data.n)
        self.ids_x, _ = ref.knn(data.x, K_SCORE)
        self.z = gtsne.pca_fit(data.x, self.cfg.pca_dims, center=self.cfg.pca_center).z
        self.partitions = [
            ref.kmeans(self.z, self.cfg.n_clusters, seed=[self.cfg.seed, j])
            for j in range(PARTITIONS)
        ]
        self.input_agreement = (
            ref.label_agreement(self.ids_x, np.asarray(data.labels)) if labelled else None
        )


def setup_seconds(wall_times: dict) -> float:
    """Seconds of every stage run() records before the descent."""
    total = 0.0
    for stage, seconds in wall_times.items():
        if stage == "optimize":
            return total
        total += seconds
    raise CheckFailed("RunReport.wall_times has no 'optimize' stage")


def embed_and_score(gtsne, ref, prep: Prepared, tracer):
    """One operation. Returns (end-to-end values, per-layer values or None)."""
    import numpy as np

    data, cfg = prep.data, prep.cfg
    first_span = len(tracer.spans) if tracer else 0

    release_memory()
    with PeakRss() as embed_mem:
        t0 = time.perf_counter()
        emb, report = gtsne.run(data, cfg, verbose=False)
        embed_s = time.perf_counter() - t0

    y = emb.y
    map_centroids = [ref.responsibility_means(prep.z, t, y) for t in prep.partitions]
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    release_memory()
    scores = []
    evaluate = []
    with PeakRss() as eval_mem:
        for _ in range(EVAL_REPEATS):
            t0 = time.perf_counter()
            with span("metrics.knn_preservation"):
                knn_score = gtsne.knn_preservation(data.x, y, K_SCORE)
            with span("metrics.centroid_correlation"):
                corr = gtsne.centroid_distance_correlation(prep.partitions[0], map_centroids[0])
            evaluate.append(time.perf_counter() - t0)
            scores.append((knn_score, corr))
    check(len(set(scores)) == 1, f"scoring one map {EVAL_REPEATS} times gave {set(scores)}")
    evaluate_s = statistics.median(evaluate)
    corrs = [corr] + [
        gtsne.centroid_distance_correlation(t, c)
        for t, c in zip(prep.partitions[1:], map_centroids[1:])
    ]
    macro_corr = statistics.median(corrs)

    n, k = data.n, K_SCORE
    check(y.shape == (n, cfg.out_dims), f"map shape {y.shape} != {(n, cfg.out_dims)}")
    check(bool(np.all(np.isfinite(y))), "map has non-finite entries")

    final = report.loss_trace[-1]
    recombined = final.micro + cfg.alpha * final.macro + cfg.beta * final.kmeans
    check(
        math.isclose(final.total, recombined, rel_tol=1e-12, abs_tol=1e-12),
        f"final total {final.total!r} != micro + alpha*macro + beta*kmeans {recombined!r}",
    )

    final_kl = ref.exact_kl(prep.p_row, prep.p_col, prep.p_val, y)
    check(final_kl < prep.kl_uniform, f"final KL {final_kl} not below uniform {prep.kl_uniform}")
    check(
        abs(final_kl - final.micro) <= BH_LOG_Z_TOL,
        f"final KL {final_kl} vs reported micro {final.micro}: beyond the BH error on Z",
    )

    ids_y, _ = ref.knn(y, k)
    overlap = ref.overlap_count(prep.ids_x, ids_y)
    check(
        abs(knn_score - overlap / (n * k)) <= 1e-12,
        f"knn_preservation {knn_score} != reference overlap {overlap}/{n * k}",
    )
    check(
        knn_score >= KNN_CHANCE_FACTOR * k / (n - 1),
        f"knn_preservation {knn_score} near chance {k / (n - 1):.4g}",
    )
    for t, c, corr in zip(prep.partitions, map_centroids, corrs):
        own = ref.spearman_centroid_distances(t, c)
        check(abs(corr - own) <= 1e-9, f"centroid_distance_correlation {corr} != reference {own}")
    check(macro_corr >= MACRO_FLOOR, f"macro correlation {macro_corr} below {MACRO_FLOOR}")
    map_agreement = None
    if prep.labelled:
        map_agreement = ref.label_agreement(ids_y, np.asarray(data.labels))
        check(
            map_agreement >= prep.input_agreement - LABEL_SLACK,
            f"map label agreement {map_agreement} trails input {prep.input_agreement}",
        )

    times = report.wall_times
    setup_s = setup_seconds(times)
    e2e = {
        "embed_s": embed_s,
        "setup_s": setup_s,
        "iter_per_s": report.iterations_run / times["optimize"],
        "descent_iters": report.iterations_run,
        "evaluate_s": evaluate_s,
        "embed_peak_mb": embed_mem.mb,
        "evaluate_peak_mb": eval_mem.mb,
        "knn_preservation": knn_score,
        "final_kl": final_kl,
    }
    log(
        f"op: embed {embed_s:.3f}s setup {setup_s:.3f}s evaluate {evaluate_s:.3f}s "
        f"iters {report.iterations_run} knn {knn_score:.4f} macro {macro_corr:.4f} "
        f"kl {final_kl:.5f} micro {final.micro:.5f} peaks {embed_mem.mb:.0f}/{eval_mem.mb:.0f}MB"
        + (f" labels {prep.input_agreement:.5f}->{map_agreement:.5f}" if prep.labelled else "")
    )
    if tracer is None:
        return e2e, None
    layers = per_layer(ref, prep, tracer, first_span, report, final_kl, final.micro, y)
    layers["metrics.macro_correlation"] = macro_corr
    return e2e, layers


def per_layer(ref, prep: Prepared, tracer: Tracer, since: int, report, final_kl, micro, y):
    """Layer metrics of one traced operation, plus the traced-only checks."""
    import numpy as np

    cfg = prep.cfg
    spans = tracer.spans

    def total(name):
        return sum(tracer.durations(name, since))

    def median(values):
        return statistics.median(values) if values else 0.0

    def counts(name):
        return [
            tracer.counts[i]
            for i in range(since, len(spans))
            if spans[i][0] == name and i in tracer.counts
        ]

    # The program's P must equal the reference built at the program's own
    # row precisions; the precisions must meet the calibration tolerance.
    p, rows = tracer.captured["affinity.build"]
    check(
        np.array_equal(p.row, prep.p_row) and np.array_equal(p.col, prep.p_col),
        "program P pair set differs from the reference kNN pair set",
    )
    beta = np.array([row.beta for row in rows])
    shifted = prep.sq_p - prep.sq_p.min(axis=1, keepdims=True)
    probs, _ = ref.row_entropy(shifted, beta)
    _, _, val = ref.symmetrize(prep.ids_p, probs, len(rows))
    rel = relative_gap(p.val, val)
    check(rel <= 1e-9, f"program P differs from the reference at its own precisions: rtol {rel:.3g}")
    gaps = ref.perplexity_gap(prep.sq_p, beta, cfg.perplexity)
    exact_root_rel = relative_gap(p.val, prep.p_val)

    # The final micro differs from the exact KL by log(Z_bh / Z), up to
    # the calibration tolerance of the program's P.
    z_bh = tracer.captured["objective.gradient"][1].z_y
    z_exact = ref.map_normalizer(y)
    explained = micro - math.log(z_bh / z_exact)
    check(
        abs(final_kl - explained) <= 1e-5,
        f"final KL {final_kl} != micro - log(Z_bh/Z) = {explained}",
    )

    times = report.wall_times
    stages = {
        "pca": total("pca.fit"),
        "kmeans": total("macro.kmeans"),
        "macro": total("macro.responsibility") + total("macro.centroid_affinity"),
        "affinity": total("affinity.build"),
    }
    for stage, traced in stages.items():
        if stage in times:
            margin = STAGE_MARGIN_ABS + STAGE_MARGIN_REL * times[stage]
            check(
                abs(traced - times[stage]) <= margin,
                f"stage {stage}: spans {traced:.6f}s vs wall_times {times[stage]:.6f}s",
            )

    grads = tracer.durations("objective.gradient", since)
    steps = tracer.durations("optimizer.step", since)
    quads = tracer.durations("objective.quadtree", since)
    # Gradient time outside its quadtree build, per call.
    quad_in = {}
    for i in range(since, len(spans)):
        name, start, end, parent = spans[i]
        if name == "objective.quadtree" and parent >= 0:
            quad_in[parent] = quad_in.get(parent, 0.0) + end - start
    other = [
        spans[i][2] - spans[i][1] - quad_in.get(i, 0.0)
        for i in range(since, len(spans))
        if spans[i][0] == "objective.gradient"
    ]
    iters = report.iterations_run
    loop_grad = sum(grads[:iters])
    loop_rest = times["optimize"] - loop_grad - sum(steps)
    check(loop_rest >= 0, f"optimize stage {times['optimize']:.4f}s shorter than its spans")
    build = total("affinity.build")
    calibrate = total("affinity.calibrate")
    symmetrize = total("affinity.symmetrize")
    kmeans_iters = counts("macro.kmeans")
    nodes = counts("objective.quadtree")
    log(
        f"trace: P rtol {rel:.2g} at program precisions, {exact_root_rel:.2g} against exact "
        f"calibration; log(Z_bh/Z) {math.log(z_bh / z_exact):.3g}; "
        + " ".join(f"{s} {stages[s]:.4f}/{times.get(s, float('nan')):.4f}s" for s in stages)
    )

    return {
        "pca.fit_s": total("pca.fit"),
        "macro.kmeans_s": total("macro.kmeans"),
        "macro.kmeans_iters": median(kmeans_iters),
        "macro.responsibility_s": total("macro.responsibility"),
        "affinity.build_s": build,
        "affinity.knn_s": build - calibrate - symmetrize,
        "affinity.calibrate_s": calibrate,
        "affinity.symmetrize_s": symmetrize,
        "affinity.nnz": p.nnz,
        "affinity.worst_perplexity_gap": float(gaps.max()),
        "affinity.rows_off_target": int((gaps > cfg.perplexity_tol).sum()),
        "objective.gradient_calls": len(grads),
        "objective.gradient_ms": 1000.0 * median(grads),
        "objective.gradient_p99_ms": 1000.0 * p99(grads) if grads else 0.0,
        "objective.quadtree_ms": 1000.0 * median(quads),
        "objective.quadtree_nodes": statistics.fmean(nodes) if nodes else 0,
        "objective.other_ms": 1000.0 * median(other),
        "optimizer.step_ms": 1000.0 * median(steps),
        "optimizer.loop_ms": 1000.0 * loop_rest / iters,
        "metrics.knn_preservation_s": median(tracer.durations("metrics.knn_preservation", since)),
        "metrics.centroid_correlation_s": median(tracer.durations("metrics.centroid_correlation", since)),
    }


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gtsne" / "__init__.py").is_file():
        log(f"error: no gtsne sources under {SRC}; run from a full checkout")
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import gtsne
    import reference as ref

    if not Path(gtsne.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"error: imported gtsne from {gtsne.__file__}, not from {SRC}")
        return 2

    t_prep = time.perf_counter()
    data, cfg, labelled = make_workload(gtsne, args.workload, args.seed)
    prep = Prepared(gtsne, ref, data, cfg, labelled)
    log(f"{args.workload} seed {args.seed}: n={data.n} d={data.dim}, "
        f"reference ready in {time.perf_counter() - t_prep:.2f}s")

    start = time.perf_counter()
    setups = [
        setup_seconds(gtsne.run(data, replace(prep.cfg, n_iter=1), verbose=False)[1].wall_times)
        for _ in range(SETUP_SAMPLES)
    ]

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracer(tracer, gtsne)

    results = []
    attempted = failed = 0
    correct = True
    last = 0.0
    try:
        # Whole operations only: start another while it is expected to end
        # within --seconds, and always run at least one.
        while attempted == 0 or time.perf_counter() - start + last <= args.seconds:
            t_op = time.perf_counter()
            attempted += 1
            try:
                results.append(embed_and_score(gtsne, ref, prep, tracer))
            except CheckFailed as exc:
                failed += 1
                correct = False
                log(f"check failed: {exc}")
            except Exception:
                failed += 1
                log(traceback.format_exc())
            last = time.perf_counter() - t_op
    finally:
        if tracer:
            tracer.unpatch()
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-trace.jsonl")

    if not results:
        log("error: every operation failed")
        return 1
    index, units = (1, PER_LAYER_UNITS) if args.trace else (0, END_TO_END_UNITS)
    metrics = {
        name: {"value": statistics.median(r[index][name] for r in results), "unit": unit}
        for name, unit in units.items()
    }
    if not args.trace:
        setups += [r[0]["setup_s"] for r in results]
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
