"""Data types, config serialization, validation, chunked products and the worker thread."""

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np
import pytest

from gtsne import (
    ConfigError,
    Dataset,
    EmbedConfig,
    Embedding,
    core,
    gen_blobs,
    optimizer,
    pca_fit,
    resolve_config,
    run,
)
from gtsne.core import (
    BLAS_CHUNK_MACS,
    check_config,
    chunked_matmul,
    config_to_text,
    parse_config_items,
    side_by_side,
    validate_config,
)

FLOAT_FIELDS = (
    "perplexity",
    "alpha",
    "beta",
    "learning_rate",
    "momentum_initial",
    "momentum_final",
    "bh_theta",
    "perplexity_tol",
    "init_stddev",
    "early_exaggeration",
)
INT_FIELDS = (  # int or Optional[int]
    "n_clusters",
    "pca_dims",
    "out_dims",
    "n_neighbors",
    "momentum_switch_iter",
    "n_iter",
    "seed",
    "early_exaggeration_iter",
    "log_every",
)


class TestDataset:
    def test_coerces_to_float64(self):
        ds = Dataset(x=[[1, 2], [3, 4]])
        assert ds.x.dtype == np.float64
        assert ds.n == 2 and ds.dim == 2

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            Dataset(x=np.ones((1, 3)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(x=np.ones(5))

    def test_rejects_non_finite(self):
        x = np.ones((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(x=x)

    def test_labels_length_checked(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(x=np.ones((3, 2)), labels=[0, 1])

    def test_labels_must_be_integers(self):
        for bad in ([0.7, 1.9, 2.0], [0.0, float("nan"), 1.0], [0.0, 1e30, 1.0]):
            with pytest.raises(ValueError, match="labels must be integers"):
                Dataset(x=np.ones((3, 2)), labels=bad)

    def test_labels_coerced_to_int64(self):
        ds = Dataset(x=np.ones((3, 2)), labels=[0.0, 1.0, 2.0])
        assert ds.labels.dtype == np.int64
        assert list(ds.labels) == [0, 1, 2]


class TestEmbedding:
    def test_accepts_matrix(self):
        e = Embedding(y=np.zeros((4, 2)))
        assert e.y.shape == (4, 2) and e.y.dtype == np.float64

    def test_rejects_non_finite(self):
        y = np.zeros((2, 2))
        y[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Embedding(y=y)


class TestConfigDefaults:
    def test_stock_defaults(self):
        cfg = EmbedConfig()
        assert cfg.perplexity == 30.0
        assert cfg.alpha == 1e-2
        assert cfg.beta == 5e-2
        assert cfg.n_clusters == 90
        assert cfg.out_dims == 2
        assert cfg.init_stddev == 1e-2
        assert cfg.learning_rate == 200.0
        assert cfg.momentum_initial == 0.5
        assert cfg.momentum_final == 0.8
        assert cfg.momentum_switch_iter == 250
        assert cfg.n_iter == 1000
        assert cfg.bh_theta == 0.5
        assert cfg.gradient_mode == "exact"

    def test_shape_dependent_fields_start_unset(self):
        cfg = EmbedConfig()
        assert cfg.pca_dims is None
        assert cfg.n_neighbors is None


class TestConfigText:
    def test_round_trip_equality(self):
        cfg = EmbedConfig(perplexity=12.5, alpha=0.1 + 0.2, seed=42, pca_dims=7)
        text = config_to_text(cfg)
        assert EmbedConfig(**parse_config_items(text)) == cfg

    def test_round_trip_is_byte_stable(self):
        cfg = EmbedConfig(alpha=1.0 / 3.0, beta=0.07, learning_rate=199.99)
        text = config_to_text(cfg)
        assert config_to_text(EmbedConfig(**parse_config_items(text))) == text

    def test_round_trip_every_field(self):
        cfg = EmbedConfig(
            perplexity=12.5,
            alpha=0.1 + 0.2,
            beta=0.07,
            n_clusters=17,
            pca_dims=7,
            out_dims=3,
            n_neighbors=12,
            learning_rate=199.99,
            momentum_initial=0.4,
            momentum_final=0.85,
            momentum_switch_iter=100,
            n_iter=321,
            bh_theta=0.25,
            gradient_mode="paper",
            seed=42,
            perplexity_tol=1e-7,
            init_stddev=1.0 / 3.0,
            early_exaggeration=12.0,
            early_exaggeration_iter=60,
            pca_center=False,
            log_every=7,
        )
        stock = EmbedConfig()
        assert all(getattr(cfg, f.name) != getattr(stock, f.name) for f in fields(cfg))
        text = config_to_text(cfg)
        assert "pca_center = false\n" in text
        assert EmbedConfig(**parse_config_items(text)) == cfg
        assert config_to_text(EmbedConfig(**parse_config_items(text))) == text

    def test_none_and_bool_spelling(self):
        text = config_to_text(EmbedConfig())
        assert "pca_dims = none" in text
        assert "pca_center = true" in text

    def test_comments_and_blanks_skipped(self):
        items = parse_config_items("# a comment\n\nseed = 5\n")
        assert items == {"seed": 5}

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match="line 2.*sigma"):
            parse_config_items("seed = 1\nsigma = 3\n")

    def test_bad_value_names_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_items("perplexity = thirty\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match="line 3: key 'seed' repeats line 1"):
            parse_config_items("seed = 1\n# again\nseed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_items("perplexity 30\n")


class TestResolve:
    def test_neighbor_default_is_three_perplexity(self):
        cfg = resolve_config(EmbedConfig(perplexity=10.0), n=200, d_in=5)
        assert cfg.n_neighbors == 30

    def test_neighbor_default_capped_at_n_minus_1(self):
        cfg = resolve_config(EmbedConfig(perplexity=30.0), n=50, d_in=5)
        assert cfg.n_neighbors == 49

    def test_neighbor_default_is_at_least_two(self):
        # One neighbor is too few for any calibration, so a perplexity
        # below 1 is its own rule's one violation.
        assert resolve_config(EmbedConfig(perplexity=0.1), n=60, d_in=5).n_neighbors == 2

    def test_pca_default_is_min_50_d(self):
        assert resolve_config(EmbedConfig(), n=100, d_in=3).pca_dims == 3
        assert resolve_config(EmbedConfig(), n=1000, d_in=80).pca_dims == 50
        assert resolve_config(EmbedConfig(), n=30, d_in=100).pca_dims == 30

    def test_explicit_values_kept(self):
        cfg = resolve_config(
            EmbedConfig(n_neighbors=12, pca_dims=4), n=100, d_in=10
        )
        assert cfg.n_neighbors == 12 and cfg.pca_dims == 4


# Fields with neither rule nor choices, checked by their type alone.
FREE_FIELDS = {"pca_center"}
# A value just outside each field rule, by the field's type.
OUTSIDE = {
    ("positive", int): 0,
    ("positive", float): 0.0,
    ("nonnegative", int): -1,
    ("nonnegative", float): -math.ulp(0.0),
    ("fraction", float): 1.0,
    ("centroids", int): 1,
    ("neighbors", int): 1,
    ("perplexity", float): math.nextafter(1.0, 0.0),
}


class TestValidate:
    def test_defaults_valid_on_three_line_walk_shape(self):
        assert validate_config(EmbedConfig(), n=2100, d_in=3) == []

    def test_perplexity_must_undercut_neighbors(self):
        bad = validate_config(
            EmbedConfig(perplexity=30.0, n_neighbors=30), n=2100, d_in=3
        )
        assert len(bad) == 1
        assert "< n_neighbors" in bad[0]

    def test_oversized_cluster_count_reported(self):
        bad = validate_config(EmbedConfig(n_clusters=90), n=50, d_in=5)
        assert any("n_clusters=90" in msg for msg in bad)

    def test_all_violations_reported_not_just_first(self):
        cfg = EmbedConfig(
            perplexity=-1.0, alpha=-0.5, n_clusters=1, learning_rate=0.0
        )
        bad = validate_config(cfg, n=100, d_in=5)
        assert len(bad) >= 4

    def test_map_dimension_restricted(self):
        bad = validate_config(EmbedConfig(out_dims=4, pca_dims=10), n=100, d_in=20)
        assert any("out_dims=4" in msg for msg in bad)

    def test_map_must_be_narrower_than_reduction(self):
        bad = validate_config(EmbedConfig(out_dims=3, pca_dims=3), n=100, d_in=20)
        assert any("pca_dims" in msg for msg in bad)

    def test_gradient_mode_membership(self):
        bad = validate_config(EmbedConfig(gradient_mode="fast"), n=100, d_in=5)
        assert any("gradient_mode" in msg for msg in bad)

    def test_check_config_raises_with_violation_list(self):
        with pytest.raises(ConfigError) as exc:
            check_config(EmbedConfig(n_clusters=1), n=100, d_in=5)
        assert any("n_clusters" in v for v in exc.value.violations)
        # a reduction wider than the point count fails here, not in pca_fit
        cfg = EmbedConfig(pca_dims=40, n_clusters=5, perplexity=5.0)
        with pytest.raises(ConfigError) as exc:
            check_config(cfg, n=30, d_in=100)
        assert exc.value.violations == ["pca_dims=40: must be <= n=30"]

    def test_float_fields_are_listed(self):
        hints = get_type_hints(EmbedConfig)
        assert set(FLOAT_FIELDS) == {name for name, kind in hints.items() if kind is float}

    def test_int_fields_are_listed(self):
        hints = get_type_hints(EmbedConfig)
        assert set(INT_FIELDS) == {
            name for name, kind in hints.items() if kind in (int, Optional[int])
        }

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_floats_rejected(self, name, value):
        # perplexity_tol=inf once passed every row as converged off target,
        # and a non-finite perplexity crashed resolve_config's default.
        with pytest.raises(ConfigError) as exc:
            check_config(EmbedConfig(**{name: value}), n=200, d_in=5)
        (violation,) = exc.value.violations
        assert violation.startswith(f"{name}={value}: must be a number in ")

    @pytest.mark.parametrize("f", fields(EmbedConfig), ids=lambda f: f.name)
    def test_each_field_rule_gives_one_violation(self, f):
        # Every other field keeps its valid default, so the one value just
        # outside the field's rule or choices is the only violation.
        assert validate_config(EmbedConfig(), n=200, d_in=10) == []
        rule, choices = f.metadata.get("rule"), f.metadata.get("choices")
        hint = get_type_hints(EmbedConfig)[f.name]
        kind = (get_args(hint) or (hint,))[0]  # Optional[int] -> int
        if f.name in FREE_FIELDS:
            assert rule is None and choices is None and kind is bool
            value = "no"  # once ran a centred PCA
        elif rule is not None:
            value = OUTSIDE[rule, kind]
        else:
            assert choices, f"{f.name} has no rule or choices and is not in FREE_FIELDS"
            value = max(choices) + 1 if kind is int else ""
        bad = validate_config(EmbedConfig(**{f.name: value}), n=200, d_in=10)
        assert len(bad) == 1 and bad[0].startswith(f"{f.name}={value!r}:"), bad

    @pytest.mark.parametrize("value", [2.5, 2.0, True], ids=repr)
    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_int_fields_refuse_floats_and_bools(self, name, value):
        # n_iter=2.5 once passed here and failed inside numpy at the descent,
        # and log_every=2.5 logged at iterations 0, 5 and 10.
        bad = validate_config(EmbedConfig(**{name: value}), n=200, d_in=10)
        assert len(bad) == 1, bad
        assert bad[0].startswith(f"{name}={value!r}: must be an integer in "), bad

    @pytest.mark.parametrize(
        "name, value", [("n_neighbors", 1), ("perplexity", 0.3), ("n_clusters", "5"),
                        ("perplexity", "30")],
    )
    def test_unusable_value_is_refused_before_the_run(self, name, value, monkeypatch):
        # The first two once passed here and failed in calibrate, after PCA,
        # k-means and the neighbor search, naming no field; the text values
        # raised a bare TypeError from a cross-field rule and resolve_config.
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage started")

        monkeypatch.setattr(optimizer, "pca_fit", no_stage)
        with pytest.raises(ConfigError) as exc:
            run(gen_blobs(n=100, dims=5), EmbedConfig(**{name: value}))
        (violation,) = exc.value.violations
        assert violation.startswith(f"{name}={value!r}: must be "), violation

    def test_numpy_scalars_pass(self):
        cfg = EmbedConfig(n_iter=np.int64(5), perplexity=np.float64(5.0), pca_center=np.True_)
        assert validate_config(cfg, n=200, d_in=10) == []

    def test_check_config_returns_resolved(self):
        cfg = check_config(EmbedConfig(), n=2100, d_in=3)
        assert cfg.pca_dims == 3
        assert cfg.n_neighbors == 90


class TestCenterColumns:
    # Column centring happens inside pca_fit, which guards its input.
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            pca_fit(np.array([[1.0, 2.0], [3.0, np.inf]]), d_z=1)


class TestChunkedMatmul:
    @pytest.mark.parametrize("shape", [(90, 1000, 2), (300, 5, 4000), (4000, 90, 3), (1, 7, 1)])
    def test_matches_the_plain_product(self, shape):
        m, inner, n = shape
        rng = np.random.default_rng(m + n)
        a, b = rng.normal(size=(m, inner)), rng.normal(size=(inner, n))
        want = a @ b
        got = chunked_matmul(a, b)
        if m * inner * n <= BLAS_CHUNK_MACS:
            # One call: the plain product, bit for bit.
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("shape", [(32, 5, 4096), (4096, 90, 3)])
    def test_fills_every_entry_of_out(self, shape):
        # Split along b's columns, then along a's rows; a transposed view of
        # b and a strided window of a larger buffer, as the exact sums use.
        m, inner, n = shape
        rng = np.random.default_rng(n)
        a, bt = rng.normal(size=(m, inner)), rng.normal(size=(n, inner))
        buf = np.full((m, n + 5), np.nan)
        got = chunked_matmul(a, bt.T, out=buf[:, :n])
        assert np.shares_memory(got, buf)
        np.testing.assert_allclose(buf[:, :n], a @ bt.T, rtol=1e-13, atol=1e-12)
        assert np.isnan(buf[:, n:]).all()


class TestSideBySide:
    """core.side_by_side runs one part on the package's worker thread and
    the other on the caller; each test has a deadline, so a hang fails."""

    def test_the_callers_error_wins_once_the_worker_is_done(self):
        worker_done = threading.Event()
        seen = []

        def worker_part():
            time.sleep(0.05)
            worker_done.set()
            raise KeyError("worker part failed")

        def caller_part():
            raise FloatingPointError("caller part failed")

        def call():
            try:
                side_by_side(worker_part, caller_part)
            except FloatingPointError as exc:
                seen.append((str(exc), worker_done.is_set()))

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert seen == [("caller part failed", True)]

    def test_a_call_on_the_worker_thread_finishes(self):
        # Queued on the worker, the call would wait for itself; it runs
        # both parts there instead, and its caller's error still wins. A
        # worker stuck that way would also hang the interpreter's exit,
        # so the check runs in a child process with a deadline.
        src = str(Path(core.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _ON_THE_WORKER],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "caller part failed\n"


_ON_THE_WORKER = """
import threading
from gtsne import core

def fail(what):
    raise FloatingPointError(what)

worker = core._the_worker()
theirs, mine = worker.submit(core.side_by_side, threading.get_ident, threading.get_ident).result()
assert theirs == mine != threading.get_ident()
pending = worker.submit(
    core.side_by_side, lambda: fail("worker part failed"), lambda: fail("caller part failed")
)
try:
    pending.result()
except FloatingPointError as exc:
    print(exc)
"""
