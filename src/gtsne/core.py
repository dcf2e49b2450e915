"""Shared data types, run configuration, and validation.

Everything downstream (affinities, macro model, optimizer, CLI) speaks in
terms of these types. They are plain frozen dataclasses around float64
arrays; treat the arrays as read-only once constructed.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Dataset:
    """N points in R^D with optional integer class labels.

    x is coerced by as_points and labels to int64; float labels must be
    whole numbers. Invariants: N >= 2, D >= 1, all entries finite,
    labels (when present) one per row.
    """

    x: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        x = as_points(self.x, "x")
        if x.shape[0] < 2:
            raise ValueError(f"need at least 2 points, got {x.shape[0]}")
        object.__setattr__(self, "x", x)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind == "f":
                whole = (np.abs(labels) < 2.0**63) & (labels == np.trunc(labels))
                if not np.all(whole):
                    bad = labels[~whole][:3].tolist()
                    raise ValueError(f"labels must be integers, got {bad}")
            labels = labels.astype(np.int64)
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

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.y.shape[1]


def _knob(default, **cli):
    """A config field whose `embed` flag is not the derived one: cli may
    set the flag's name ("flag"), its "help" text and its "choices"."""
    return field(default=default, metadata=cli)


@dataclass(frozen=True)
class EmbedConfig:
    """All knobs of one embedding run.

    pca_dims and n_neighbors may be left as None and are then filled in by
    resolve_config once the data shape is known (min(50, D, n) and
    3 * perplexity respectively). Each field is one 'key = value' line of
    a config file, parsed by its annotation, and one `embed` flag, '--'
    plus the name with dashes unless its metadata says otherwise.
    """

    perplexity: float = 30.0          # target effective neighbor count
    alpha: float = _knob(1e-2, help="centroid-affinity loss weight")
    beta: float = _knob(5e-2, help="soft k-means loss weight")
    n_clusters: int = _knob(90, flag="--clusters", help="macro centroid count")
    pca_dims: Optional[int] = _knob(None, help="spectral pre-reduction width")
    out_dims: int = _knob(2, choices=(2, 3))
    n_neighbors: Optional[int] = _knob(None, flag="--neighbors", help="neighbor list length")
    learning_rate: float = 200.0
    momentum_initial: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = _knob(250, flag="--momentum-switch")
    n_iter: int = 1000
    bh_theta: float = _knob(
        0.5,
        flag="--theta",
        help="0 = exact sums; the tree's opening angle on large maps the grid does not take",
    )
    gradient_mode: str = _knob("exact", choices=GRADIENT_MODES)
    seed: int = _knob(0, help="run seed; the k-means and initial-map seeds derive from it")
    perplexity_tol: float = 1e-5      # calibration tolerance on 2^H
    init_stddev: float = 1e-2         # spread of the random initial map
    early_exaggeration: float = 1.0   # multiplier on the attraction, 1.0 disables
    early_exaggeration_iter: int = 250
    pca_center: bool = _knob(
        True, flag="--pca-no-center",
        help="project against raw second moments instead of the covariance",
    )
    log_every: int = 50


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
_FLOAT_FIELDS = tuple(name for name, parse in _PARSERS.items() if parse is float)


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

    n_neighbors defaults to 3 * perplexity (capped at n - 1), pca_dims to
    min(50, d_in, n). Explicitly set fields are never touched; in particular
    an oversized n_clusters stays as given and is reported by
    validate_config rather than silently adjusted.
    """
    updates = {}
    if cfg.n_neighbors is None:
        # A non-finite perplexity is left for validate_config to report.
        guess = 3 * cfg.perplexity
        updates["n_neighbors"] = (
            max(1, min(int(round(guess)), n - 1)) if math.isfinite(guess) else n - 1
        )
    if cfg.pca_dims is None:
        updates["pca_dims"] = max(1, min(50, d_in, n))
    return replace(cfg, **updates) if updates else cfg


def validate_config(cfg: EmbedConfig, n: int, d_in: int) -> list[str]:
    """Check every config constraint against a dataset shape.

    Returns the list of violated constraints (empty when the config is
    valid), each naming the field, its value, and the broken rule. None
    placeholders are resolved as in resolve_config before checking.
    """
    cfg = resolve_config(cfg, n, d_in)
    bad = []

    def want(ok: bool, msg: str):
        if not ok:
            bad.append(msg)

    for name in _FLOAT_FIELDS:
        value = getattr(cfg, name)
        want(math.isfinite(value), f"{name}={value}: must be finite")
    want(cfg.perplexity > 0, f"perplexity={cfg.perplexity}: must be positive")
    want(cfg.alpha >= 0, f"alpha={cfg.alpha}: must be nonnegative")
    want(cfg.beta >= 0, f"beta={cfg.beta}: must be nonnegative")
    want(cfg.n_clusters >= 2, f"n_clusters={cfg.n_clusters}: need at least 2 centroids")
    want(cfg.n_clusters <= n, f"n_clusters={cfg.n_clusters}: must be <= n={n}")
    want(cfg.pca_dims >= 1, f"pca_dims={cfg.pca_dims}: must be positive")
    want(cfg.pca_dims <= d_in, f"pca_dims={cfg.pca_dims}: must be <= input dim {d_in}")
    want(cfg.pca_dims <= n, f"pca_dims={cfg.pca_dims}: must be <= n={n}")
    want(
        cfg.out_dims in (2, 3),
        f"out_dims={cfg.out_dims}: map dimension must be 2 or 3 (repulsion engines)",
    )
    want(
        cfg.out_dims < cfg.pca_dims,
        f"out_dims={cfg.out_dims}: must be < pca_dims={cfg.pca_dims}",
    )
    want(cfg.n_neighbors >= 1, f"n_neighbors={cfg.n_neighbors}: must be positive")
    want(
        cfg.n_neighbors <= n - 1,
        f"n_neighbors={cfg.n_neighbors}: must be <= n - 1 = {n - 1}",
    )
    want(
        cfg.perplexity < cfg.n_neighbors,
        f"perplexity={cfg.perplexity}: must be < n_neighbors={cfg.n_neighbors}",
    )
    want(cfg.learning_rate > 0, f"learning_rate={cfg.learning_rate}: must be positive")
    want(
        0 <= cfg.momentum_initial < 1,
        f"momentum_initial={cfg.momentum_initial}: must lie in [0, 1)",
    )
    want(
        0 <= cfg.momentum_final < 1,
        f"momentum_final={cfg.momentum_final}: must lie in [0, 1)",
    )
    want(
        cfg.momentum_switch_iter >= 0,
        f"momentum_switch_iter={cfg.momentum_switch_iter}: must be nonnegative",
    )
    want(cfg.n_iter >= 1, f"n_iter={cfg.n_iter}: must be positive")
    want(cfg.bh_theta >= 0, f"bh_theta={cfg.bh_theta}: must be nonnegative")
    want(
        cfg.gradient_mode in GRADIENT_MODES,
        f"gradient_mode={cfg.gradient_mode!r}: must be one of {GRADIENT_MODES}",
    )
    want(
        cfg.perplexity_tol > 0,
        f"perplexity_tol={cfg.perplexity_tol}: must be positive",
    )
    want(cfg.init_stddev > 0, f"init_stddev={cfg.init_stddev}: must be positive")
    want(
        cfg.early_exaggeration > 0,
        f"early_exaggeration={cfg.early_exaggeration}: must be positive",
    )
    want(
        cfg.early_exaggeration_iter >= 0,
        f"early_exaggeration_iter={cfg.early_exaggeration_iter}: must be nonnegative",
    )
    want(cfg.log_every >= 1, f"log_every={cfg.log_every}: must be positive")
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
