"""Command line behavior, driven in-process through main()."""

import argparse
import dataclasses
import functools
from dataclasses import fields

import numpy as np
import pytest

from gtsne import EmbedConfig, cli, optimizer
from gtsne.affinity import build_affinity_model
from gtsne.cli import build_parser, main
from gtsne.core import resolve_config
from gtsne.io import read_csv, sniff_csv
from gtsne.macro import kmeans_fit

FAST_EMBED = [
    "--perplexity", "5", "--neighbors", "15", "--clusters", "5",
    "--n-iter", "25", "--log-every", "10", "--seed", "1",
]


def make_blobs_csv(tmp_path, name="data.csv", n=60):
    path = tmp_path / name
    code = main([
        "generate", "blobs", "-o", str(path),
        "--n", str(n), "--dims", "5", "--classes", "3", "--seed", "2",
    ])
    assert code == 0
    return path


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["generate", "blobs"]) == 1
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_runtime_failure(self, tmp_path, capsys):
        code = main(["embed", "-i", str(tmp_path / "absent.csv"), "-o",
                     str(tmp_path / "out.csv")])
        assert code == 2
        assert "gtsne: error:" in capsys.readouterr().err

    def test_bad_segment_spec_is_usage_error(self, tmp_path, capsys):
        code = main(["evaluate", "-x", "a.csv", "-y", "b.csv",
                     "--segments", "nonsense"])
        assert code == 1
        capsys.readouterr()


# Every `embed` config flag: flag -> (EmbedConfig field, type, choices, help).
EMBED_FLAGS = {
    "--perplexity": ("perplexity", float, None, None),
    "--alpha": ("alpha", float, None, "centroid-affinity loss weight"),
    "--beta": ("beta", float, None, "soft k-means loss weight"),
    "--clusters": ("n_clusters", int, None, "macro centroid count"),
    "--pca-dims": ("pca_dims", int, None, "spectral pre-reduction width"),
    "--out-dims": ("out_dims", int, (2, 3), None),
    "--neighbors": ("n_neighbors", int, None, "neighbor list length"),
    "--learning-rate": ("learning_rate", float, None, None),
    "--momentum-initial": ("momentum_initial", float, None, None),
    "--momentum-final": ("momentum_final", float, None, None),
    "--momentum-switch": ("momentum_switch_iter", int, None, None),
    "--n-iter": ("n_iter", int, None, None),
    "--theta": (
        "bh_theta", float, None, "0 = exact; the tree's opening angle where the tree runs"
    ),
    "--gradient-mode": ("gradient_mode", str, ("paper", "exact"), None),
    "--seed": ("seed", int, None, None),
    "--perplexity-tol": ("perplexity_tol", float, None, None),
    "--init-stddev": ("init_stddev", float, None, None),
    "--early-exaggeration": ("early_exaggeration", float, None, None),
    "--early-exaggeration-iter": ("early_exaggeration_iter", int, None, None),
    "--log-every": ("log_every", int, None, None),
    "--pca-no-center": (
        "pca_center", None, None,
        "project against raw second moments instead of the covariance",
    ),
}


def embed_parser():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["embed"]


class TestConfigFlags:
    def test_flag_table_is_pinned(self):
        own = {"help", "input", "output", "report", "label_col", "config"}
        actual = {
            a.option_strings[0]: (a.dest, a.type, a.choices and tuple(a.choices), a.help)
            for a in embed_parser()._actions if a.dest not in own
        }
        assert actual == EMBED_FLAGS
        assert sorted(v[0] for v in EMBED_FLAGS.values()) == sorted(
            f.name for f in fields(EmbedConfig)
        )

    def test_metavars_follow_the_flag(self):
        text = embed_parser().format_help()
        for shown in ("--clusters CLUSTERS", "--neighbors NEIGHBORS",
                      "--momentum-switch MOMENTUM_SWITCH", "--theta THETA",
                      "--out-dims {2,3}", "--gradient-mode {paper,exact}"):
            assert shown in text

    def test_flags_default_to_unset(self):
        args = embed_parser().parse_args(["-i", "a.csv", "-o", "b.csv"])
        assert all(getattr(args, f.name) is None for f in fields(EmbedConfig))
        args = embed_parser().parse_args(["-i", "a.csv", "-o", "b.csv", "--pca-no-center"])
        assert args.pca_center is False

    @pytest.mark.parametrize("flags", [["--out-dims", "4"], ["--gradient-mode", "fast"]])
    def test_value_outside_choices_is_usage_error(self, flags, tmp_path, capsys):
        code = main(["embed", "-i", str(tmp_path / "a.csv"), "-o",
                     str(tmp_path / "b.csv")] + flags)
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err


class TestGenerate:
    def test_blobs_defaults(self, tmp_path):
        path = tmp_path / "blobs.csv"
        assert main(["generate", "blobs", "-o", str(path)]) == 0
        assert sniff_csv(path) == (True, "label")
        ds = read_csv(path, has_header=True, label_column="label")
        assert ds.x.shape == (500, 10)
        assert len(np.unique(ds.labels)) == 5

    def test_three_lines_row_count(self, tmp_path):
        path = tmp_path / "lines.csv"
        assert main(["generate", "three-lines", "-o", str(path), "--ns", "50"]) == 0
        ds = read_csv(path, has_header=True, label_column="label")
        assert ds.x.shape == (150, 3)

    def test_sphere_has_no_labels(self, tmp_path):
        path = tmp_path / "sphere.csv"
        assert main(["generate", "sphere", "-o", str(path), "--n", "40"]) == 0
        assert sniff_csv(path) == (True, None)
        assert read_csv(path, has_header=True).x.shape == (40, 3)

    def test_swiss_roll_size_flag(self, tmp_path):
        path = tmp_path / "roll.csv"
        assert main(["generate", "swiss-roll", "-o", str(path), "--n", "80"]) == 0
        ds = read_csv(path, has_header=True, label_column="label")
        assert ds.x.shape == (80, 3)

    def test_deterministic_files(self, tmp_path):
        a = make_blobs_csv(tmp_path, "a.csv")
        b = make_blobs_csv(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestEmbed:
    def test_end_to_end(self, tmp_path, capsys):
        data = make_blobs_csv(tmp_path)
        out = tmp_path / "map.csv"
        report = tmp_path / "report.csv"
        code = main(["embed", "-i", str(data), "-o", str(out),
                     "--report", str(report)] + FAST_EMBED)
        assert code == 0
        capsys.readouterr()
        emb = read_csv(out, has_header=True, label_column="label")
        assert emb.x.shape == (60, 2)
        assert np.all(np.isfinite(emb.x))
        # Labels ride along from the input.
        src = read_csv(data, has_header=True, label_column="label")
        np.testing.assert_array_equal(emb.labels, src.labels)
        text = report.read_text()
        assert "# perplexity = 5.0\n" in text
        assert "# n_clusters = 5\n" in text
        assert "# stop_reason = max_iter\n" in text
        assert (
            "iteration,loss,micro,macro,kmeans,gamma,z_estimator,max_update,"
            "underflow_clamped\n"
        ) in text

    def test_defaults_reach_the_run(self, tmp_path, capsys):
        data = make_blobs_csv(tmp_path)
        report = tmp_path / "report.csv"
        code = main(["embed", "-i", str(data), "-o", str(tmp_path / "map.csv"),
                     "--report", str(report)] + FAST_EMBED)
        assert code == 0
        capsys.readouterr()
        text = report.read_text()
        # Flags left unset keep their stock values.
        assert "# alpha = 0.01\n" in text
        assert "# beta = 0.05\n" in text
        assert "# bh_theta = 0.5\n" in text

    def test_flags_override_config_file(self, tmp_path, capsys):
        data = make_blobs_csv(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "perplexity = 4.0\nn_iter = 20\nn_neighbors = 12\n"
            "n_clusters = 5\nlog_every = 10\n"
        )
        report = tmp_path / "report.csv"
        code = main(["embed", "-i", str(data), "-o", str(tmp_path / "map.csv"),
                     "--config", str(cfg), "--report", str(report),
                     "--perplexity", "6"])
        assert code == 0
        capsys.readouterr()
        text = report.read_text()
        assert "# perplexity = 6.0\n" in text   # flag wins
        assert "# n_iter = 20\n" in text        # file survives

    def test_report_lists_unconverged_rows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            optimizer, "build_affinity_model",
            functools.partial(build_affinity_model, max_iter=2),
        )
        data = make_blobs_csv(tmp_path)
        report = tmp_path / "report.csv"
        code = main(["embed", "-i", str(data), "-o", str(tmp_path / "map.csv"),
                     "--report", str(report)] + FAST_EMBED)
        assert code == 0
        capsys.readouterr()
        ids = ",".join(str(i) for i in range(60))
        assert f"# unconverged_rows = {ids}\n" in report.read_text()

    def test_pca_no_center_flag(self, tmp_path, capsys):
        data = make_blobs_csv(tmp_path)
        report = tmp_path / "report.csv"
        code = main(["embed", "-i", str(data), "-o", str(tmp_path / "map.csv"),
                     "--report", str(report), "--pca-no-center"] + FAST_EMBED)
        assert code == 0
        capsys.readouterr()
        assert "# pca_center = false\n" in report.read_text()

    def test_invalid_config_is_runtime_error(self, tmp_path, capsys):
        data = make_blobs_csv(tmp_path)
        code = main(["embed", "-i", str(data), "-o", str(tmp_path / "map.csv"),
                     "--perplexity", "5", "--neighbors", "4"])
        assert code == 2
        assert "gtsne: error:" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        data = make_blobs_csv(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["embed", "-i", str(data), "-o", str(a)] + FAST_EMBED) == 0
        assert main(["embed", "-i", str(data), "-o", str(b)] + FAST_EMBED) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    data = make_blobs_csv(tmp_path)
    out = tmp_path / "map.csv"
    assert main(["embed", "-i", str(data), "-o", str(out)] + FAST_EMBED) == 0
    return tmp_path, data, out


class TestEvaluateAndPlot:
    def test_evaluate_scores(self, pipeline, capsys):
        tmp_path, data, out = pipeline
        scores = tmp_path / "scores.csv"
        code = main(["evaluate", "-x", str(data), "-y", str(out),
                     "-o", str(scores)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2] == (
            "knn_preservation,line_break_fraction,centroid_distance_correlation"
        )
        knn, breaks, corr = (float(v) for v in lines[-1].split(","))
        assert 0.0 <= knn <= 1.0
        assert 0.0 <= breaks <= 1.0
        assert -1.0 <= corr <= 1.0
        assert scores.read_text().splitlines()[1] == lines[-1]

    def test_evaluate_defaults_follow_embed_config(self, pipeline, monkeypatch, capsys):
        # evaluate rebuilds the macro model embed would build, so unset
        # widths must come from EmbedConfig and resolve_config, whatever
        # their defaults are.
        _, data, out = pipeline

        @dataclasses.dataclass(frozen=True)
        class FewerClusters(EmbedConfig):
            n_clusters: int = 4

        seen = []

        def spy(z, k, **kwargs):
            seen.append((z.shape[1], k))
            return kmeans_fit(z, k, **kwargs)

        monkeypatch.setattr(cli, "EmbedConfig", FewerClusters)
        monkeypatch.setattr(cli, "kmeans_fit", spy)
        assert main(["evaluate", "-x", str(data), "-y", str(out)]) == 0
        assert seen == [(resolve_config(EmbedConfig(), 60, 5).pca_dims, 4)]
        seen.clear()
        args = ["--clusters", "3", "--pca-dims", "4"]
        assert main(["evaluate", "-x", str(data), "-y", str(out)] + args) == 0
        assert seen == [(4, 3)]
        capsys.readouterr()

    def test_evaluate_custom_segments(self, pipeline, capsys):
        _, data, out = pipeline
        code = main(["evaluate", "-x", str(data), "-y", str(out),
                     "--segments", "0:30,30:60", "--knn-k", "5"])
        assert code == 0
        capsys.readouterr()

    def test_evaluate_row_mismatch(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        short = tmp_path / "short.csv"
        short.write_text("y0,y1\n" + "\n".join(f"{i},{i}" for i in range(10)) + "\n")
        code = main(["evaluate", "-x", str(data), "-y", str(short)])
        assert code == 2
        assert "must match" in capsys.readouterr().err

    def test_evaluate_without_room_for_centroids(self, tmp_path, capsys):
        pts = tmp_path / "flat.csv"
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{a},{b}" for a, b in rng.normal(size=(30, 2)))
        pts.write_text(rows + "\n")
        code = main(["evaluate", "-x", str(pts), "-y", str(pts),
                     "--segments", "0:30"])
        assert code == 0
        captured = capsys.readouterr()
        assert "centroid correlation unavailable" in captured.err
        assert captured.out.strip().splitlines()[-1].endswith(",nan")

    def test_plot(self, pipeline, tmp_path):
        _, _, out = pipeline
        svg = tmp_path / "map.svg"
        code = main(["plot", "-y", str(out), "-o", str(svg),
                     "--width", "400", "--height", "300"])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert text.count("<circle") == 60
        assert 'width="400"' in text

    def test_plot_bad_margin(self, pipeline, tmp_path, capsys):
        _, _, out = pipeline
        code = main(["plot", "-y", str(out), "-o", str(tmp_path / "m.svg"),
                     "--margin", "0.6"])
        assert code == 2
        capsys.readouterr()
