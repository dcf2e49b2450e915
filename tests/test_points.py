"""One check for every point matrix: each exported function or class that
takes points hands them to core.as_points, so all of them reject the same
bad input with a message that names the argument. Scalar arguments have
their one check too, core.in_interval: NaN, any other value outside an
argument's range, and a count that is not an integer are refused with
'name=value: must be ...'."""

import ast
import inspect
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import gtsne
from gtsne import (
    Dataset,
    EmbedConfig,
    Embedding,
    MacroAffinity,
    ThreeLinesSpec,
    build_affinity_model,
    calibrate,
    centroid_distance_correlation,
    exact_knn,
    gen_blobs,
    gen_sphere,
    gen_swiss_roll,
    gen_three_lines,
    gradient_bh,
    init_embedding,
    kmeans_fit,
    knn_preservation,
    macro_affinity,
    pca_fit,
    read_csv,
    responsibility_matrix,
    step,
    worst_gap_ratio,
    write_csv,
)
from gtsne.core import as_points
from gtsne.io import PlotSpec
from gtsne.optimizer import OptimizerState

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtsne"

_rng = np.random.default_rng(0)
X = _rng.normal(size=(12, 4))  # input points
Y = _rng.normal(size=(12, 2))  # their map
T = _rng.normal(size=(3, 4))   # input centroids
C = _rng.normal(size=(3, 2))   # map centroids
P = build_affinity_model(X, n_neighbors=5, perplexity=2.0)[0]
MACRO = MacroAffinity(
    r=responsibility_matrix(X, T, d=2), p_macro=macro_affinity(T)
)

# (function or class, the argument to spoil, valid arguments)
CASES = [
    (Dataset, "x", dict(x=X)),
    (Embedding, "y", dict(y=Y)),
    (ThreeLinesSpec, "starts", dict(dims=2, starts=[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])),
    (pca_fit, "data", dict(data=X, d_z=2)),
    (kmeans_fit, "z", dict(z=X, k=3)),
    (exact_knn, "points", dict(points=X, k=2)),
    (exact_knn, "reference", dict(points=X, k=2, reference=T)),
    (responsibility_matrix, "z", dict(z=X, t=T, d=2)),
    (responsibility_matrix, "t", dict(z=X, t=T, d=2)),
    (macro_affinity, "t", dict(t=T)),
    (knn_preservation, "x", dict(x=X, y=Y, k=2)),
    (knn_preservation, "y", dict(x=X, y=Y, k=2)),
    (worst_gap_ratio, "y", dict(y=Y, segments=[(0, 12)])),
    (centroid_distance_correlation, "t", dict(t=T, c=C)),
    (centroid_distance_correlation, "c", dict(t=T, c=C)),
    (build_affinity_model, "x", dict(x=X, n_neighbors=5, perplexity=2.0)),
    (gradient_bh, "y", dict(y=Y, p=P, macro=MACRO, cfg=EmbedConfig())),
    (write_csv, "obj", dict(obj=X, path=os.devnull)),
    (
        step,
        "y",
        dict(
            y=Y,
            state=OptimizerState(velocity=np.zeros_like(Y), gains=np.ones_like(Y)),
            g=np.zeros_like(Y),
            learning_rate=1.0,
            gamma=0.5,
        ),
    ),
]
CASE_IDS = [f"{fn.__name__}-{arg}" for fn, arg, _ in CASES]

# Parameter names that carry points in the exported functions' signatures.
POINT_ARGS = {"data", "obj", "points", "reference", "starts", "x", "y", "z", "t", "c"}
# Exported functions with such a parameter that are not in CASES, and why.
NOT_CHECKED_HERE = {
    "run": "takes a Dataset, which checked its x when it was made",
}

# Every isfinite or isnan call in the package, by (module, function), and
# what it checks. Only as_points checks a point matrix.
FINITE_CHECKS = {
    ("core", "as_points"): "the one check of a point matrix",
    ("core", "resolve_config"): "3 * perplexity, a config scalar",
    ("io", "read_csv"): "each parsed cell, so the message can name its line and column",
    ("affinity", "calibrate"): "the (n, k) distance matrix, where inf is allowed",
    ("objective", "_repulsion"): "the extent of a finite map, which can overflow",
    ("optimizer", "step"): "the gradient",
    ("optimizer", "run"): "the map after each step",
}


def _step(learning_rate, gamma):
    state = OptimizerState(velocity=np.zeros_like(Y), gains=np.ones_like(Y))
    return step(Y, state, np.ones_like(Y), learning_rate=learning_rate, gamma=gamma)


def _read_csv(label_column):
    # No header: three point columns, then the labels.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pts.csv")
        with open(path, "w") as fh:
            for i, row in enumerate(X[:, :3]):
                fh.write(",".join("%.17g" % v for v in row) + f",{i}\n")
        return read_csv(path, label_column=label_column)


NAN, INF = math.nan, math.inf
# Values every count refuses besides NaN: a fraction and a bool.
NOT_COUNTS = [NAN, 2.5, True]
SEEDS = [-1, 1.5, True, NAN]
SQ = [[1.0, 4.0, 9.0]]  # one calibration row of 3 neighbor distances
GRAD = dict(y=Y, p=P, macro=MACRO, cfg=EmbedConfig(), exaggeration=1.0)

# (function, the scalar argument to spoil, valid arguments, values it
# refuses), one entry for each scalar argument of an exported function or
# class and of PlotSpec, all checked by core.in_interval. NaN used to pass
# every comparison written as "fail if v < 0".
SCALAR_CASES = [
    (exact_knn, "k", dict(points=X, k=2), NOT_COUNTS + [0, 12]),
    # Named as given, not as exact_knn's k or calibrate's target_perplexity.
    (build_affinity_model, "n_neighbors", dict(x=X, n_neighbors=5, perplexity=2.0),
     NOT_COUNTS + [1, 12]),
    (build_affinity_model, "perplexity", dict(x=X, n_neighbors=5, perplexity=2.0),
     [NAN, 0.0, 5.0]),
    (build_affinity_model, "tol", dict(x=X, n_neighbors=5, perplexity=2.0), [NAN, -1.0]),
    (build_affinity_model, "max_iter", dict(x=X, n_neighbors=5, perplexity=2.0),
     NOT_COUNTS + [0]),
    (calibrate, "target_perplexity", dict(sq_distances=SQ, target_perplexity=2.0),
     [NAN, 0.0, 3.0]),
    (calibrate, "tol", dict(sq_distances=SQ, target_perplexity=2.0, tol=1e-5), [NAN, -1.0]),
    # A NaN max_iter never stopped a row that cannot reach its target.
    (calibrate, "max_iter", dict(sq_distances=SQ, target_perplexity=2.0), NOT_COUNTS + [0]),
    (ThreeLinesSpec, "n_s", dict(n_s=5), NOT_COUNTS + [1]),
    (ThreeLinesSpec, "dims", dict(dims=2), NOT_COUNTS + [0]),
    (ThreeLinesSpec, "velocity_std", dict(velocity_std=6.0), [NAN, INF, -1.0]),
    (gen_blobs, "n", dict(n=5), NOT_COUNTS + [1]),
    (gen_blobs, "dims", dict(n=5, dims=2), NOT_COUNTS + [0]),
    (gen_blobs, "n_classes", dict(n=5, n_classes=2), NOT_COUNTS + [0, 6]),
    (gen_blobs, "cluster_std", dict(n=5, cluster_std=1.0), [NAN, INF, -1.0]),
    (gen_sphere, "n", dict(n=5), NOT_COUNTS + [1]),
    (gen_swiss_roll, "n", dict(n=5), NOT_COUNTS + [1]),
    (gen_swiss_roll, "noise", dict(n=5, noise=0.1), [NAN, INF, -0.1]),
    (_read_csv, "label_column", dict(label_column=3), NOT_COUNTS + [-1, 4, "-1"]),
    (PlotSpec, "width", dict(width=800.0), [NAN, INF, 0.0]),
    (PlotSpec, "height", dict(height=800.0), [NAN, INF, 0.0]),
    (PlotSpec, "point_radius", dict(point_radius=3.0), [NAN, INF, 0.0]),
    (PlotSpec, "margin", dict(margin=0.05), [NAN, 0.5, -0.1]),
    (kmeans_fit, "k", dict(z=X, k=3), NOT_COUNTS + [0, 13]),
    (kmeans_fit, "max_iter", dict(z=X, k=3, max_iter=5), NOT_COUNTS + [0]),
    (responsibility_matrix, "d", dict(z=X, t=T, d=2), NOT_COUNTS + [0, 4]),
    (knn_preservation, "k", dict(x=X, y=Y, k=2), NOT_COUNTS + [0, 12]),
    # Each bound of each segment; an end must leave the segment 2 points.
    (worst_gap_ratio, "segments", dict(y=Y, segments=[(0, 6), (6, 12)]),
     [[(NAN, 12)], [(2.5, 12)], [(True, 12)], [(-1, 12)], [(11, 12)],
      [(0, NAN)], [(0, 40.5)], [(0, True)], [(0, 13)], [(0, 6), (6, 7)]]),
    (gradient_bh, "exaggeration", GRAD, [NAN, INF, -1.0]),
    (init_embedding, "n", dict(n=5, d=2, stddev=1e-2, seed=0), NOT_COUNTS + [0]),
    (init_embedding, "d", dict(n=5, d=2, stddev=1e-2, seed=0), NOT_COUNTS + [0]),
    (init_embedding, "stddev", dict(n=5, d=2, stddev=1e-2, seed=0), [NAN, INF, -1.0]),
    (_step, "learning_rate", dict(learning_rate=1.0, gamma=0.5), [NAN, INF, 0.0]),
    (_step, "gamma", dict(learning_rate=1.0, gamma=0.5), [NAN, INF, 1.0, -0.5]),
    (pca_fit, "d_z", dict(data=X, d_z=2), NOT_COUNTS + [0, 5]),
    # Seeds go to numpy's default_rng, which names no argument when it
    # refuses one and takes True as seed 1.
    (ThreeLinesSpec, "seed", dict(seed=1), SEEDS),
    (gen_blobs, "seed", dict(n=5, seed=1), SEEDS),
    (gen_sphere, "seed", dict(n=5, seed=1), SEEDS),
    (gen_swiss_roll, "seed", dict(n=5, seed=1), SEEDS),
    (kmeans_fit, "seed", dict(z=X, k=3, seed=1), SEEDS),
    (init_embedding, "seed", dict(n=5, d=2, stddev=1e-2, seed=1), SEEDS),
]

# Exported functions and classes whose numeric parameters are not in
# SCALAR_CASES, and why.
NOT_RANGE_CHECKED = {
    "resolve_config": "n and d_in are a data shape",
    "symmetrize": "n must equal the row count of the neighbor ids, which it checks",
    "EmbedConfig": "validate_config checks its fields (tests/test_core.py)",
    "RunReport": "a record that run() fills in, not an input",
}


def _owner(fn):
    return fn.__name__.lstrip("_")


@pytest.mark.parametrize(
    "fn, arg, kwargs, bad",
    [(fn, arg, kwargs, bad) for fn, arg, kwargs, bads in SCALAR_CASES for bad in bads],
    ids=[f"{_owner(fn)}-{arg}-{bad}" for fn, arg, _, bads in SCALAR_CASES for bad in bads],
)
def test_bad_scalar_is_rejected_by_name(fn, arg, kwargs, bad):
    fn(**kwargs)  # the valid arguments pass
    with pytest.raises(ValueError) as exc:
        fn(**{**kwargs, arg: bad})
    # One form, 'name=value: must be ...'; a segment bound is named by its
    # place in segments, and a label column given as text by its number.
    message = str(exc.value)
    name, _, rest = message.partition("=")
    shown, _, rule = rest.partition(": must be ")
    assert rule, message
    if name != arg:
        i, j = map(int, re.fullmatch(rf"{arg}\[(\d+)\]\[(\d+)\]", name).groups())
        bad = bad[i][j]
    assert shown == repr(int(bad) if isinstance(bad, str) else bad), message


def test_every_scalar_argument_is_in_the_table():
    tabled = {(_owner(fn), arg) for fn, arg, _, _ in SCALAR_CASES}
    missing = []
    for name, obj in [(name, getattr(gtsne, name)) for name in gtsne.__all__] + [
        ("PlotSpec", PlotSpec)
    ]:
        if not (inspect.isfunction(obj) or inspect.isclass(obj)) or name in NOT_RANGE_CHECKED:
            continue
        for arg, param in inspect.signature(obj).parameters.items():
            numeric = param.annotation in ("int", "float", "Optional[int]") or (
                param.annotation is param.empty
                and isinstance(param.default, (int, float))
                and not isinstance(param.default, bool)
            )
            if numeric and (name, arg) not in tabled:
                missing.append(f"{name}({arg})")
    assert not missing, f"scalar arguments not covered by SCALAR_CASES: {missing}"
    # The walk finds no annotation on segments and label_column; count them in.
    assert len(tabled) == 41


@pytest.mark.parametrize("fn, arg, kwargs", CASES, ids=CASE_IDS)
def test_one_nan_is_rejected_by_name(fn, arg, kwargs):
    assert arg in inspect.signature(fn).parameters
    fn(**kwargs)  # the valid arguments pass
    bad = np.array(kwargs[arg])
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match=f"non-finite entries in {arg}"):
        fn(**{**kwargs, arg: bad})


def test_every_function_that_takes_points_is_in_the_table():
    tabled = {(fn.__name__, arg) for fn, arg, _ in CASES}
    missing = []
    for name in gtsne.__all__:
        obj = getattr(gtsne, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)) or name in NOT_CHECKED_HERE:
            continue
        for arg in inspect.signature(obj).parameters:
            if arg in POINT_ARGS and (name, arg) not in tabled:
                missing.append(f"{name}({arg})")
    assert not missing, f"point arguments not covered by CASES: {missing}"
    for name in NOT_CHECKED_HERE:
        assert set(inspect.signature(getattr(gtsne, name)).parameters) & POINT_ARGS


@pytest.mark.parametrize(
    "obj, name, message",
    [
        (np.zeros(4), "y", r"y must be a nonempty 2-D matrix, got shape \(4,\)"),
        (np.zeros((0, 3)), "x", r"x must be a nonempty 2-D matrix, got shape \(0, 3\)"),
        (np.zeros((3, 0)), "z", r"z must be a nonempty 2-D matrix, got shape \(3, 0\)"),
        (np.zeros((2, 2, 2)), "t", r"t must be a nonempty 2-D matrix, got shape \(2, 2, 2\)"),
        (np.array([[0.0, np.inf]]), "c", "non-finite entries in c"),
        (np.array([[0.0, -np.inf]]), "c", "non-finite entries in c"),
    ],
)
def test_as_points_rejects(obj, name, message):
    with pytest.raises(ValueError, match=message):
        as_points(obj, name)


def test_as_points_unwraps_and_coerces():
    ds = Dataset(x=[[1, 2], [3, 4]])
    emb = Embedding(y=np.zeros((3, 2)))
    assert as_points(ds, "x") is ds.x
    assert as_points(emb, "y") is emb.y
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert as_points(a, "a") is a  # nothing to change, so no copy
    for given in (a.tolist(), np.asfortranarray(a), a.astype(np.int32)):
        got = as_points(given, "a")
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, a)


def _finite_checks():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                inner = function
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = child.name
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("isfinite", "isnan")
                ):
                    found.add((path.stem, function))
                visit(child, inner)

        visit(tree, None)
    return found


def test_only_as_points_checks_point_matrices_for_nan():
    assert _finite_checks() == set(FINITE_CHECKS)
