"""Command line interface: generate, embed, evaluate, plot.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import get_args, get_type_hints

from .core import EmbedConfig, LossRecord, config_to_text, parse_config_items, resolve_config
from .datasets import (
    ThreeLinesSpec,
    gen_blobs,
    gen_sphere,
    gen_swiss_roll,
    gen_three_lines,
)
from .io import PlotSpec, read_csv, render_svg, write_csv
from .metrics import centroid_distance_correlation, knn_preservation, worst_gap_ratio
from .optimizer import macro_stage, run


def _parse_segments(text: str):
    """'0:100,100:200' -> [(0, 100), (100, 200)] with end exclusive."""
    out = []
    for part in text.split(","):
        a, sep, b = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"segment {part!r} must look like start:end"
            )
        try:
            out.append((int(a), int(b)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"segment {part!r} must use integer bounds"
            ) from None
    return out


def _add_config_flags(p: argparse.ArgumentParser, names=None) -> None:
    # One flag per EmbedConfig field (in names, if given), stored under the
    # field's name. All default to None so explicitly passed flags can be
    # told apart from absent ones when merging with a config file.
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    kinds = get_type_hints(EmbedConfig)
    for f in fields(EmbedConfig):
        if names is not None and f.name not in names:
            continue
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        kind = kinds[f.name]
        opts = {"dest": f.name, "help": f.metadata["help"]}
        if kind is bool:
            opts.update(action="store_const", const=not f.default)
        else:
            choices = f.metadata.get("choices")
            opts.update(
                type=(get_args(kind) or (kind,))[0],  # Optional[int] -> int
                choices=choices,
                # The metavar argparse would spell from the flag.
                metavar=None if choices else flag[2:].replace("-", "_").upper(),
            )
        p.add_argument(flag, **opts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtsne",
        description="Neighbor embedding with a k-means centroid macro loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset CSV")
    g.add_argument(
        "kind", choices=("three-lines", "blobs", "sphere", "swiss-roll")
    )
    g.add_argument("-o", "--output", required=True)
    # Unset flags take the generator's own defaults; each kind ignores the
    # flags of the others.
    g.add_argument("--seed", type=int)
    g.add_argument("--n", type=int, help="total points (blobs, sphere, swiss-roll)")
    g.add_argument("--ns", type=int, help="points per line (three-lines)")
    g.add_argument("--dims", type=int, help="input dimension (three-lines, blobs)")
    g.add_argument("--velocity-std", type=float, help="step stddev (three-lines)")
    g.add_argument("--classes", type=int, help="blob count")
    g.add_argument("--cluster-std", type=float, help="blob stddev")
    g.add_argument("--noise", type=float, help="swiss-roll noise stddev")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("embed", help="embed a CSV dataset")
    e.add_argument("-i", "--input", required=True)
    e.add_argument("-o", "--output", required=True)
    e.add_argument("--report", help="write the loss trace and config echo here")
    e.add_argument("--label-col", help="label column name or index in the input")
    _add_config_flags(e)
    e.set_defaults(func=cmd_embed)

    v = sub.add_parser("evaluate", help="score an embedding against its source")
    v.add_argument("-x", "--data", required=True, help="original dataset CSV")
    v.add_argument("-y", "--embedding", required=True, help="embedded CSV")
    v.add_argument(
        "--segments",
        type=_parse_segments,
        help="start:end[,start:end...] index ranges; default splits into thirds",
    )
    v.add_argument("--knn-k", type=int, default=10)
    v.add_argument("-o", "--output", help="also write the score row here")
    # What macro_stage reads; out_dims is the map's width.
    _add_config_flags(v, ("n_clusters", "pca_dims", "seed", "pca_center"))
    v.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="render an embedding CSV to SVG")
    p.add_argument("-y", "--embedding", required=True)
    p.add_argument("-o", "--output", required=True)
    # Unset flags take PlotSpec's defaults.
    p.add_argument("--width", type=float)
    p.add_argument("--height", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--margin", type=float)
    p.set_defaults(func=cmd_plot)

    return parser


def _given(**values) -> dict:
    """The keyword arguments whose flags were passed (not None)."""
    return {k: v for k, v in values.items() if v is not None}


def cmd_generate(args) -> int:
    if args.kind == "three-lines":
        ds = gen_three_lines(ThreeLinesSpec(**_given(
            n_s=args.ns, dims=args.dims, velocity_std=args.velocity_std, seed=args.seed
        )))
    elif args.kind == "blobs":
        ds = gen_blobs(**_given(
            n=args.n, dims=args.dims, n_classes=args.classes, seed=args.seed,
            cluster_std=args.cluster_std,
        ))
    elif args.kind == "sphere":
        ds = gen_sphere(**_given(n=args.n, seed=args.seed))
    else:
        ds = gen_swiss_roll(**_given(n=args.n, noise=args.noise, seed=args.seed))
    write_csv(ds, args.output)
    return 0


def _config_values(args) -> dict:
    """EmbedConfig values: the --config file's, overridden by given flags."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = parse_config_items(fh.read())
    flags = {f.name: getattr(args, f.name, None) for f in fields(EmbedConfig)}
    return {**values, **_given(**flags)}


def cmd_embed(args) -> int:
    ds = read_csv(args.input, label_column=args.label_col)
    cfg = EmbedConfig(**_config_values(args))
    emb, report = run(ds, cfg, verbose=True)
    write_csv(emb, args.output, labels=ds.labels)
    if args.report:
        _write_report(report, args.report)
    return 0


def _write_report(report, path) -> None:
    with open(path, "w", newline="") as fh:
        for line in config_to_text(report.config).splitlines():
            fh.write(f"# {line}\n")
        fh.write(f"# stop_reason = {report.stop_reason}\n")
        fh.write(f"# iterations_run = {report.iterations_run}\n")
        fh.write(f"# macro_correlation = {report.macro_correlation!r}\n")
        for stage, seconds in report.wall_times.items():
            fh.write(f"# time_{stage} = {seconds:.3f}\n")
        for key in ("degenerate_rows", "unconverged_rows"):
            if getattr(report, key):
                fh.write(f"# {key} = {','.join(map(str, getattr(report, key)))}\n")
        # One column per LossRecord field, total written as loss; floats in
        # full precision (str is repr) and flags as 0 or 1.
        names = [f.name for f in fields(LossRecord)]
        fh.write(",".join("loss" if name == "total" else name for name in names) + "\n")
        for rec in report.loss_trace:
            cells = (getattr(rec, name) for name in names)
            fh.write(",".join(str(int(v) if isinstance(v, bool) else v) for v in cells) + "\n")


def _unavailable(score: str, why: str) -> float:
    print(f"gtsne: warning: {why}; {score} unavailable", file=sys.stderr)
    return float("nan")


def cmd_evaluate(args) -> int:
    x = read_csv(args.data)
    y = read_csv(args.embedding)
    if x.n != y.n:
        raise ValueError(
            f"dataset has {x.n} rows but embedding has {y.n}; they must match"
        )
    n = x.n

    k = min(args.knn_k, n - 1)
    knn_score = knn_preservation(x.x, y.x, k)

    segments = args.segments or [(i * n // 3, (i + 1) * n // 3) for i in range(3)]
    if args.segments or n >= 6:
        tear = worst_gap_ratio(y.x, segments)
    else:  # a default third of fewer than 6 rows has under 2 points
        tear = _unavailable("worst gap ratio", "fewer than 6 rows for the default thirds")

    # The embed run's macro model; unset fields take embed's defaults.
    values = _config_values(args)
    if values.setdefault("out_dims", y.dim) != y.dim:
        raise ValueError(f"config has out_dims={values['out_dims']}, map {y.dim} columns")
    cfg = resolve_config(EmbedConfig(**values), n, x.dim)
    if cfg.pca_dims <= y.dim:
        why = "reduction width does not exceed the map width"
        corr = _unavailable("centroid correlation", why)
    else:
        # Clamped where run() would reject more centroids than points.
        _, km, macro = macro_stage(x.x, replace(cfg, n_clusters=min(cfg.n_clusters, n)), {})
        corr = centroid_distance_correlation(km.t, macro.centroids(y.x))

    header = "knn_preservation,worst_gap_ratio,centroid_distance_correlation"
    row = f"{knn_score:.10g},{tear:.10g},{corr:.10g}"
    print(header)
    print(row)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(header + "\n" + row + "\n")
    return 0


def cmd_plot(args) -> int:
    y = read_csv(args.embedding)
    spec = PlotSpec(**_given(
        width=args.width, height=args.height, point_radius=args.radius, margin=args.margin
    ))
    render_svg(y.x, args.output, labels=y.labels, spec=spec)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (KeyboardInterrupt, BrokenPipeError):
        return 2
    except Exception as exc:
        print(f"gtsne: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
