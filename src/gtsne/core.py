"""Shared data types, run configuration, and validation.

Everything downstream (affinities, macro model, optimizer, CLI) speaks in
terms of these types. Dataset, Embedding and EmbedConfig are frozen
dataclasses, the first two around float64 arrays; treat the arrays as
read-only once constructed. LossRecord and RunReport, which a run fills
in, are plain dataclasses. The module also holds what the kernels share:
the block budget, chunked_matmul, and the package's one worker thread,
which side_by_side runs work on.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional, get_type_hints

import numpy as np

GRADIENT_MODES = ("paper", "exact")


def as_points(obj, name: str) -> np.ndarray:
    """obj as a C-ordered float64 matrix of points, one row per point.

    A Dataset gives its x and an Embedding its y. Every function that
    takes points coerces and checks them here, so each raises the same
    ValueError, naming its argument, for input that is not a nonempty
    2-D matrix or that holds NaN or inf.
    """
    if isinstance(obj, Dataset):
        obj = obj.x
    elif isinstance(obj, Embedding):
        obj = obj.y
    a = np.ascontiguousarray(obj, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite entries in {name}")
    return a


_INTEGERS, _NUMBERS = (int, np.integer), (int, float, np.integer, np.floating)


def in_interval(value, name: str, low, high=math.inf, ends: str = "[)", integer: bool = False):
    """value, if it is a number from low to high, each end closed or open
    as the brackets in ends say (NaN lies in no interval), and with integer
    an int or a numpy integer; a bool is no number. Otherwise a ValueError
    of the package's one form for scalars, 'name=value: must be ...'."""
    if (
        isinstance(value, _INTEGERS if integer else _NUMBERS)
        and not isinstance(value, bool)
        and (low <= value if ends[0] == "[" else low < value)
        and (value <= high if ends[1] == "]" else value < high)
    ):
        return value
    shown = value.item() if isinstance(value, np.generic) else value
    what = "an integer" if integer else "a number"
    raise ValueError(f"{name}={shown!r}: must be {what} in {ends[0]}{low}, {high}{ends[1]}")


# Floats in one block of a blocked kernel, about 1 MB: the exact kNN
# search's (rows, m) products and its re-rank gathers, the exact and
# direct repulsion sums' kernel rows, and macro.pairwise_sq_dists'
# (rows, m, d) differences. Each takes max(1, BLOCK_FLOATS // width) rows
# per block, so its working arrays stay a few blocks for any width. Larger
# kNN blocks ran no faster on 1000-1500 points or on 20000, and raised
# the peak memory of a whole run (2-core machine).
BLOCK_FLOATS = 1 << 17

# Multiply-adds per BLAS call in chunked_matmul. OpenBLAS runs a product of
# up to 2^18 on the calling thread. A larger one it splits over its thread
# pool, whose workers then spin for about 0.1 s on the core that
# gradient_bh's repulsion thread works on, and a split may sum in another
# order, so the result's bits would depend on the BLAS thread count.
BLAS_CHUNK_MACS = 2**18


def chunked_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """a @ b for matrices, as BLAS calls of at most BLAS_CHUNK_MACS
    multiply-adds each.

    The calls split a's rows or b's columns, whichever are more numerous,
    and never the inner dimension; a product small enough for one call is
    that one call, with the bits of a @ b. Writes into out when given.
    """
    m, inner = a.shape
    n = b.shape[1]
    if m * n * inner <= BLAS_CHUNK_MACS:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, n))
    if m >= n:
        step = max(1, BLAS_CHUNK_MACS // (n * inner))
        for i in range(0, m, step):
            np.matmul(a[i : i + step], b, out=out[i : i + step])
    else:
        step = max(1, BLAS_CHUNK_MACS // (m * inner))
        for j in range(0, n, step):
            np.matmul(a, b[:, j : j + step], out=out[:, j : j + step])
    return out


# The package's one worker thread, made on first use: gradient_bh's
# repulsion and knn_preservation's input-side search run on it through
# side_by_side. A forked child holds the parent's executor but not its
# thread, so work sent to it would never run: the child drops both and
# makes its own.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()
_WORKER_NAME = "gtsne-worker"  # the prefix of its thread's name


def _the_worker() -> ThreadPoolExecutor:
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix=_WORKER_NAME)
        return _worker


def _forget_worker() -> None:
    global _worker, _worker_lock
    _worker = None
    _worker_lock = threading.Lock()  # another thread may have held it at the fork


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def side_by_side(on_worker, on_caller):
    """(on_worker(), on_caller()), the first run on the package's worker
    thread while the calling thread runs the second.

    Returns once both have ended, also when either raised, so neither
    outlives the call. The caller's error is raised first, the worker's
    otherwise. Called on the worker thread itself, whose queue would wait
    for this very call, it runs both there, on_worker first. Numpy
    releases the interpreter lock in its array loops, FFTs and BLAS calls,
    so the two parts run on two cores; keep each one a few large calls.
    """
    if threading.current_thread().name.startswith(_WORKER_NAME):
        try:
            theirs = on_worker()
        finally:
            # An error here replaces on_worker's, as the caller's comes first.
            mine = on_caller()
        return theirs, mine
    pending = _the_worker().submit(on_worker)
    try:
        mine = on_caller()
    finally:
        # Also when on_caller failed: the worker's part may still read the
        # caller's arrays, and the next call must not queue behind it.
        pending.exception()  # waits, and raises none of the worker's errors
    return pending.result(), mine


def as_labels(labels) -> np.ndarray:
    """labels as int64, refusing float labels that are not whole numbers
    within the int64 range (NaN and inf included) rather than truncating
    them."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        whole = (np.abs(labels) < 2.0**63) & (labels == np.trunc(labels))
        if not np.all(whole):
            bad = labels[~whole][:3].tolist()
            raise ValueError(f"labels must be integers, got {bad}")
    return labels.astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """N points in R^D with optional integer class labels.

    x is coerced by as_points and labels to int64; float labels must be
    whole numbers. Invariants: N >= 2, D >= 1, all entries finite,
    labels (when present) one per row.
    """

    x: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        x = as_points(self.x, "x")
        if x.shape[0] < 2:
            raise ValueError(f"need at least 2 points, got {x.shape[0]}")
        object.__setattr__(self, "x", x)
        if self.labels is not None:
            labels = as_labels(self.labels)
            if labels.shape != (x.shape[0],):
                raise ValueError(
                    f"labels must have length {x.shape[0]}, got shape {labels.shape}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional map positions, one row per input point, coerced
    and checked by as_points."""

    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", as_points(self.y, "y"))


def _knob(default, help, **meta):
    """A config field with its one description, the `embed` flag's help.
    meta may give its own "rule" (a key of _RULES), its "choices" and a
    "flag" other than the derived one."""
    return field(default=default, metadata={"help": help, **meta})


# A numeric field's own constraint, which validate_config reads from its
# metadata: rule -> the interval (low, high, ends) of in_interval. A field
# without a rule may be any number, an int field any integer.
_RULES = {
    None: (-math.inf, math.inf, "()"),
    "positive": (0, math.inf, "()"),
    "nonnegative": (0, math.inf, "[)"),
    "fraction": (0, 1, "[)"),
    "centroids": (2, math.inf, "[)"),
    "neighbors": (2, math.inf, "[)"),
    # No row reaches a perplexity below 1: 2^H with an entropy H >= 0 bits.
    "perplexity": (1, math.inf, "[)"),
}


@dataclass(frozen=True)
class EmbedConfig:
    """All knobs of one embedding run.

    pca_dims and n_neighbors may be left as None and are then filled in by
    resolve_config once the data shape is known (min(50, D, n) and
    3 * perplexity respectively). Each field is one 'key = value' line of
    a config file, parsed by its annotation, and one `embed` flag, '--'
    plus the name with dashes unless its metadata says otherwise. Its
    metadata also holds its help text and the constraint validate_config
    checks on it alone.
    """

    perplexity: float = _knob(30.0, "target effective neighbor count", rule="perplexity")
    alpha: float = _knob(1e-2, "centroid-affinity loss weight", rule="nonnegative")
    beta: float = _knob(5e-2, "soft k-means loss weight", rule="nonnegative")
    n_clusters: int = _knob(90, "macro centroid count", rule="centroids", flag="--clusters")
    pca_dims: Optional[int] = _knob(None, "spectral pre-reduction width", rule="positive")
    out_dims: int = _knob(2, "map dimension", choices=(2, 3))
    n_neighbors: Optional[int] = _knob(
        None, "neighbor list length", rule="neighbors", flag="--neighbors"
    )
    learning_rate: float = _knob(200.0, "descent step size", rule="positive")
    momentum_initial: float = _knob(0.5, "momentum before the switch", rule="fraction")
    momentum_final: float = _knob(0.8, "momentum from the switch on", rule="fraction")
    momentum_switch_iter: int = _knob(
        250, "iteration where momentum switches", rule="nonnegative", flag="--momentum-switch"
    )
    n_iter: int = _knob(1000, "descent iterations", rule="positive")
    bh_theta: float = _knob(
        0.5, "0 = exact sums; the tree's opening angle on large maps the grid does not take",
        rule="nonnegative", flag="--theta",
    )
    gradient_mode: str = _knob(
        "exact", "centroid gradient: paper holds responsibilities fixed, exact does not",
        choices=GRADIENT_MODES,
    )
    seed: int = _knob(
        0, "run seed; the k-means and initial-map seeds derive from it", rule="nonnegative"
    )
    perplexity_tol: float = _knob(1e-5, "calibration tolerance on 2^H", rule="positive")
    init_stddev: float = _knob(1e-2, "spread of the random initial map", rule="positive")
    early_exaggeration: float = _knob(
        1.0, "multiplier on the attraction, 1.0 disables", rule="positive"
    )
    early_exaggeration_iter: int = _knob(
        250, "iterations under early exaggeration", rule="nonnegative"
    )
    pca_center: bool = _knob(
        True, "project against raw second moments instead of the covariance",
        flag="--pca-no-center",
    )
    log_every: int = _knob(50, "iterations between loss records", rule="positive")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_opt_int(s: str):
    return None if s.strip().lower() in ("none", "null", "") else int(s)


# Field name -> text parser: float, int and str parse as themselves.
_PARSERS = {
    name: {bool: _parse_bool, Optional[int]: _parse_opt_int}.get(kind, kind)
    for name, kind in get_type_hints(EmbedConfig).items()
}


def _format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_to_text(cfg: EmbedConfig) -> str:
    """Serialize a config as one 'key = value' line per field.

    Floats are written with repr so that serialize -> parse -> serialize
    is byte-identical.
    """
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def parse_config_items(text: str) -> dict:
    """Parse 'key = value' lines into a field dict.

    Blank lines and lines starting with '#' are skipped. Unknown keys,
    malformed lines and repeated keys raise ValueError with the offending
    line numbers.
    """
    out = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            out[key] = parser(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


class ConfigError(ValueError):
    """Raised when an EmbedConfig violates its constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config: " + "; ".join(self.violations))


def resolve_config(cfg: EmbedConfig, n: int, d_in: int) -> EmbedConfig:
    """Fill data-dependent defaults from the dataset shape.

    n_neighbors defaults to 3 * perplexity, at least 2 and at most n - 1,
    pca_dims to min(50, d_in, n). Explicitly set fields are never touched;
    in particular an oversized n_clusters stays as given and is reported
    by validate_config rather than silently adjusted.
    """
    updates = {}
    if cfg.n_neighbors is None:
        # A perplexity that is no finite number is left for validate_config
        # to report.
        guess = 3 * cfg.perplexity if isinstance(cfg.perplexity, _NUMBERS) else math.nan
        updates["n_neighbors"] = (
            max(2, min(int(round(guess)), n - 1)) if math.isfinite(guess) else n - 1
        )
    if cfg.pca_dims is None:
        updates["pca_dims"] = max(1, min(50, d_in, n))
    return replace(cfg, **updates) if updates else cfg


def validate_config(cfg: EmbedConfig, n: int, d_in: int) -> list[str]:
    """Check every config constraint against a dataset shape.

    Returns the list of violated constraints (empty when the config is
    valid), each naming the field, its value, and the broken rule. None
    placeholders are resolved as in resolve_config before checking. Each
    field is checked first on its own: a number in its rule's interval
    (in_interval; an integer for an int field), a bool field's type, and
    its choices. A rule that relates two fields, or a field and the data
    shape, is checked only on fields that passed: one bad value, one violation.
    """
    cfg = resolve_config(cfg, n, d_in)
    own = {}
    for f in fields(cfg):
        value, parser = getattr(cfg, f.name), _PARSERS[f.name]
        rule, choices = _RULES[f.metadata.get("rule")], f.metadata.get("choices")
        try:
            if parser in (float, int, _parse_opt_int):
                in_interval(value, f.name, *rule, integer=parser is not float)
            elif parser is _parse_bool and not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{f.name}={value!r}: must be a bool")
            if choices and value not in choices:
                raise ValueError(f"{f.name}={value!r}: must be one of {choices}")
        except ValueError as exc:
            own[f.name] = str(exc)
    bad = list(own.values())

    def want(ok, name: str, text: str, other: str | None = None):
        # ok() compares values, so it runs only once they passed their rules.
        if not (name in own or other in own or ok()):
            bad.append(f"{name}={getattr(cfg, name)!r}: {text}")

    want(lambda: cfg.n_clusters <= n, "n_clusters", f"must be <= n={n}")
    want(lambda: cfg.pca_dims <= d_in, "pca_dims", f"must be <= input dim {d_in}")
    want(lambda: cfg.pca_dims <= n, "pca_dims", f"must be <= n={n}")
    want(lambda: cfg.out_dims < cfg.pca_dims, "out_dims",
         f"must be < pca_dims={cfg.pca_dims}", other="pca_dims")
    want(lambda: cfg.n_neighbors <= n - 1, "n_neighbors", f"must be <= n - 1 = {n - 1}")
    want(lambda: cfg.perplexity < cfg.n_neighbors, "perplexity",
         f"must be < n_neighbors={cfg.n_neighbors}", other="n_neighbors")
    return bad


def check_config(cfg: EmbedConfig, n: int, d_in: int) -> EmbedConfig:
    """Resolve defaults and raise ConfigError on any violation."""
    resolved = resolve_config(cfg, n, d_in)
    violations = validate_config(resolved, n, d_in)
    if violations:
        raise ConfigError(violations)
    return resolved


@dataclass
class LossRecord:
    """One logged optimizer step: loss split plus step diagnostics.

    total always equals micro + alpha * macro + beta * kmeans for the run's
    weights; z_estimator names the engine whose normalizer estimate
    produced the micro term: exact, interpolation (the 2-D grid) or
    barnes_hut (the tree). underflow_clamped is set when a map affinity
    fell below the log clamp, so a KL part is a lower bound, not exact.
    """

    iteration: int
    total: float
    micro: float
    macro: float
    kmeans: float
    gamma: float
    z_estimator: str
    max_update: float
    underflow_clamped: bool


@dataclass
class RunReport:
    """Everything worth keeping about one run besides the map itself."""

    loss_trace: list
    wall_times: dict
    config: EmbedConfig
    degenerate_rows: list
    unconverged_rows: list  # rows whose perplexity search missed the tolerance
    iterations_run: int
    stop_reason: str
    macro_correlation: float  # centroid_distance_correlation of the final map
