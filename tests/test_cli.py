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
from gtsne.io import read_csv
from gtsne.macro import kmeans_fit
from gtsne.metrics import centroid_distance_correlation, worst_gap_ratio

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

    @pytest.mark.parametrize("command", ["embed", "plot"])
    def test_mixed_first_line_is_data(self, tmp_path, capsys, command):
        # The command line once took this line for a header and dropped it.
        path = tmp_path / "a.csv"
        path.write_text("1,oops\n1,2\n3,4\n")
        flag = "-i" if command == "embed" else "-y"
        code = main([command, flag, str(path), "-o", str(tmp_path / "out")])
        assert code == 2
        assert "a.csv: line 1, column 2: 'oops' is not numeric" in capsys.readouterr().err

    def test_bad_segment_spec_is_usage_error(self, tmp_path, capsys):
        code = main(["evaluate", "-x", "a.csv", "-y", "b.csv",
                     "--segments", "nonsense"])
        assert code == 1
        capsys.readouterr()

    def test_factor_is_not_a_flag(self, capsys):
        # worst_gap_ratio takes no threshold, so evaluate has no --factor.
        code = main(["evaluate", "-x", "a.csv", "-y", "b.csv", "--factor", "5"])
        assert code == 1
        assert "--factor" in capsys.readouterr().err


# Every `embed` config flag: flag -> (EmbedConfig field, type, choices, help).
EMBED_FLAGS = {
    "--perplexity": ("perplexity", float, None, "target effective neighbor count"),
    "--alpha": ("alpha", float, None, "centroid-affinity loss weight"),
    "--beta": ("beta", float, None, "soft k-means loss weight"),
    "--clusters": ("n_clusters", int, None, "macro centroid count"),
    "--pca-dims": ("pca_dims", int, None, "spectral pre-reduction width"),
    "--out-dims": ("out_dims", int, (2, 3), "map dimension"),
    "--neighbors": ("n_neighbors", int, None, "neighbor list length"),
    "--learning-rate": ("learning_rate", float, None, "descent step size"),
    "--momentum-initial": ("momentum_initial", float, None, "momentum before the switch"),
    "--momentum-final": ("momentum_final", float, None, "momentum from the switch on"),
    "--momentum-switch": (
        "momentum_switch_iter", int, None, "iteration where momentum switches"
    ),
    "--n-iter": ("n_iter", int, None, "descent iterations"),
    "--theta": (
        "bh_theta",
        float,
        None,
        "0 = exact sums; the tree's opening angle on large maps the grid does not take",
    ),
    "--gradient-mode": (
        "gradient_mode",
        str,
        ("paper", "exact"),
        "centroid gradient: paper holds responsibilities fixed, exact does not",
    ),
    "--seed": ("seed", int, None, "run seed; the k-means and initial-map seeds derive from it"),
    "--perplexity-tol": ("perplexity_tol", float, None, "calibration tolerance on 2^H"),
    "--init-stddev": ("init_stddev", float, None, "spread of the random initial map"),
    "--early-exaggeration": (
        "early_exaggeration", float, None, "multiplier on the attraction, 1.0 disables"
    ),
    "--early-exaggeration-iter": (
        "early_exaggeration_iter", int, None, "iterations under early exaggeration"
    ),
    "--log-every": ("log_every", int, None, "iterations between loss records"),
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
        ds = read_csv(path)
        assert ds.x.shape == (500, 10)
        assert len(np.unique(ds.labels)) == 5

    def test_three_lines_row_count(self, tmp_path):
        path = tmp_path / "lines.csv"
        assert main(["generate", "three-lines", "-o", str(path), "--ns", "50"]) == 0
        ds = read_csv(path)
        assert ds.x.shape == (150, 3)
        assert ds.labels is not None

    def test_sphere_has_no_labels(self, tmp_path):
        path = tmp_path / "sphere.csv"
        assert main(["generate", "sphere", "-o", str(path), "--n", "40"]) == 0
        ds = read_csv(path)
        assert ds.x.shape == (40, 3)
        assert ds.labels is None

    def test_swiss_roll_size_flag(self, tmp_path):
        path = tmp_path / "roll.csv"
        assert main(["generate", "swiss-roll", "-o", str(path), "--n", "80"]) == 0
        ds = read_csv(path)
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
        emb = read_csv(out)
        assert emb.x.shape == (60, 2)
        assert np.all(np.isfinite(emb.x))
        # Labels ride along from the input.
        src = read_csv(data)
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
        assert lines[-2] == "knn_preservation,worst_gap_ratio,centroid_distance_correlation"
        knn, tear, corr = lines[-1].split(",")
        assert 0.0 <= float(knn) <= 1.0
        # The map's thirds, the default segments, scored by the package.
        assert tear == f"{worst_gap_ratio(read_csv(out).x, [(0, 20), (20, 40), (40, 60)]):.10g}"
        assert -1.0 <= float(corr) <= 1.0
        assert scores.read_text().splitlines()[1] == lines[-1]

    def test_evaluate_defaults_follow_embed_config(self, pipeline, monkeypatch, capsys):
        # evaluate rebuilds the macro model embed would build, so unset
        # fields must come from EmbedConfig and resolve_config, whatever
        # their defaults are, and k-means is seeded as run() seeds it.
        tmp_path, data, out = pipeline

        # The same field and flag (the flags derive from the fields), with
        # another default.
        (stock,) = [f for f in fields(EmbedConfig) if f.name == "n_clusters"]

        @dataclasses.dataclass(frozen=True)
        class FewerClusters(EmbedConfig):
            n_clusters: int = dataclasses.field(default=4, metadata=stock.metadata)

        seen = []
        seeds = []

        def spy(z, k, **kwargs):
            seen.append((z.shape[1], k))
            seeds.append(kwargs["seed"])
            return kmeans_fit(z, k, **kwargs)

        monkeypatch.setattr(cli, "EmbedConfig", FewerClusters)
        monkeypatch.setattr(optimizer, "kmeans_fit", spy)
        assert main(["evaluate", "-x", str(data), "-y", str(out)]) == 0
        assert seen == [(resolve_config(EmbedConfig(), 60, 5).pca_dims, 4)]
        seen.clear()
        args = ["--clusters", "3", "--pca-dims", "4"]
        assert main(["evaluate", "-x", str(data), "-y", str(out)] + args) == 0
        assert seen == [(4, 3)]
        # An embed run with the same (default) seed seeds its k-means alike.
        run_map = tmp_path / "seed_run.csv"
        assert main(["embed", "-i", str(data), "-o", str(run_map), "--n-iter", "1"]) == 0
        assert len(seeds) == 3 and seeds[0] == seeds[1] == seeds[2]
        capsys.readouterr()

    def test_evaluate_scores_the_runs_own_partition(self, tmp_path, monkeypatch, capsys):
        # Given the run's macro settings, as flags or as the config file,
        # evaluate rebuilds the run's partition and reproduces its
        # macro correlation bit for bit.
        data = make_blobs_csv(tmp_path)
        out = tmp_path / "map.csv"
        report_path = tmp_path / "report.csv"
        macro_flags = ["--clusters", "5", "--pca-dims", "3", "--seed", "7", "--pca-no-center"]
        reports = []
        corrs = []

        def run_spy(*args, **kwargs):
            emb, report = optimizer.run(*args, **kwargs)
            reports.append(report)
            return emb, report

        def corr_spy(t, c):
            corrs.append(centroid_distance_correlation(t, c))
            return corrs[-1]

        monkeypatch.setattr(cli, "run", run_spy)
        monkeypatch.setattr(cli, "centroid_distance_correlation", corr_spy)
        code = main(["embed", "-i", str(data), "-o", str(out), "--report", str(report_path),
                     "--perplexity", "5", "--neighbors", "15", "--n-iter", "25",
                     "--log-every", "10"] + macro_flags)
        assert code == 0
        run_corr = reports[0].macro_correlation
        assert np.isfinite(run_corr)
        line = next(ln for ln in report_path.read_text().splitlines()
                    if ln.startswith("# macro_correlation = "))
        assert float(line.split(" = ")[1]) == run_corr
        config = tmp_path / "run.cfg"
        config.write_text(
            "perplexity = 5.0\nn_neighbors = 15\nn_iter = 25\nlog_every = 10\n"
            "n_clusters = 5\npca_dims = 3\nseed = 7\npca_center = false\n"
        )
        capsys.readouterr()
        for given in (macro_flags, ["--config", str(config)]):
            corrs.clear()
            assert main(["evaluate", "-x", str(data), "-y", str(out)] + given) == 0
            assert corrs == [run_corr]
            row = capsys.readouterr().out.strip().splitlines()[-1]
            assert row.split(",")[2] == f"{run_corr:.10g}"

    def test_evaluate_rejects_a_config_for_another_map_width(
        self, pipeline, tmp_path, capsys
    ):
        _, data, out = pipeline
        config = tmp_path / "3d.cfg"
        config.write_text("out_dims = 3\n")
        code = main(["evaluate", "-x", str(data), "-y", str(out), "--config", str(config)])
        assert code == 2
        assert "out_dims=3" in capsys.readouterr().err

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

    def test_evaluate_map_too_short_for_the_default_thirds(self, tmp_path, capsys):
        # A 5-row map's first third holds one point: the tearing cell reads
        # nan with a warning, while given segments keep their checks.
        rng = np.random.default_rng(1)
        data, emb = tmp_path / "x.csv", tmp_path / "y.csv"
        for path, width in ((data, 4), (emb, 2)):
            path.write_text("\n".join(
                ",".join("%.17g" % v for v in row) for row in rng.normal(size=(5, width))
            ) + "\n")
        assert main(["evaluate", "-x", str(data), "-y", str(emb)]) == 0
        captured = capsys.readouterr()
        assert "worst gap ratio unavailable" in captured.err
        knn, tear, corr = captured.out.strip().splitlines()[-1].split(",")
        assert tear == "nan" and float(knn) == 1.0 and corr != "nan"
        assert main(["evaluate", "-x", str(data), "-y", str(emb), "--segments", "0:1"]) == 2
        assert "segments[0][1]=1: must be an integer in [2, 5]" in capsys.readouterr().err
        assert main(["evaluate", "-x", str(data), "-y", str(emb), "--segments", "0:5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.strip().splitlines()[-1].split(",")[1] != "nan"

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
