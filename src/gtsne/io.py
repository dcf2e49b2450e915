"""CSV reading/writing and deterministic SVG scatter rendering."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, as_labels, as_points, in_interval

# Matplotlib's tab10, a readable default for up to 10 classes; labels
# beyond that cycle.
PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def _parse_label(cell: str, where: str) -> int:
    try:
        label = int(cell)
    except ValueError:
        try:
            f = float(cell)
        except ValueError:
            raise ValueError(f"{where}: label {cell!r} is not an integer") from None
        if not f.is_integer():
            raise ValueError(f"{where}: label {cell!r} is not an integer")
        label = int(f)
    if not -(2**63) <= label < 2**63:
        raise ValueError(f"{where}: label {cell!r} is outside the int64 range")
    return label


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_csv(path, label_column=None) -> Dataset:
    """Load a numeric CSV into a Dataset, reading back what write_csv writes.

    Blank lines and '#' comment lines are skipped. The first line left is
    a header exactly when none of its cells parses as a number, so a
    header of numeric names, which write_csv never writes, reads as data.
    label_column may be a column name (which needs a header) or a 0-based
    index; that column becomes integer labels. Without it, a header's
    column named 'label', if any, becomes the labels. The other cells
    must be finite numbers. A header or row of another width than the
    first data row, and non-numeric or non-finite cells, on the first line
    too when it is data, raise ValueError naming the file, line and column
    or widths. Parsing uses float(), which is locale-independent.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    rows = []
    numbers = []  # 1-based source line per kept row
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            rows.append([c.strip() for c in row])
            numbers.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    # Each line, the header too, must be as wide as the data rows.
    has_header = not any(map(_is_number, rows[0]))
    if has_header and len(rows) == 1:
        raise ValueError(f"{path}: header but no data rows")
    width = len(rows[has_header])
    for row, lineno in zip(rows, numbers):
        if len(row) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
    header = None
    if has_header:
        header = rows.pop(0)
        numbers.pop(0)
        if label_column is None and "label" in header:
            label_column = "label"

    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str) and not label_column.lstrip("-").isdigit():
            if header is None:
                raise ValueError(f"{path}: no header, so no column named {label_column!r}")
            if label_column not in header:
                raise ValueError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        else:
            if isinstance(label_column, str):
                label_column = int(label_column)
            label_idx = in_interval(label_column, "label_column", 0, width, integer=True)

    data_cols = [j for j in range(width) if j != label_idx]
    if not data_cols:
        raise ValueError(f"{path}: no numeric columns left after the label column")
    x = np.empty((len(rows), len(data_cols)))
    labels = np.empty(len(rows), dtype=np.int64) if label_idx is not None else None
    for r, (row, lineno) in enumerate(zip(rows, numbers)):
        for c, j in enumerate(data_cols):
            try:
                x[r, c] = value = float(row[j])
                problem = None if math.isfinite(value) else "not finite"
            except ValueError:
                problem = "not numeric"
            if problem:
                raise ValueError(
                    f"{path}: line {lineno}, column {j + 1}: {row[j]!r} is {problem}"
                )
        if label_idx is not None:
            labels[r] = _parse_label(
                row[label_idx], f"{path}: line {lineno}, column {label_idx + 1}"
            )
    return Dataset(x=x, labels=labels)


def write_csv(obj, path, labels=None) -> None:
    """Write points (Dataset, Embedding, or matrix) as CSV.

    Floats are written with 17 significant digits ('%.17g'), which makes
    write -> read an exact round trip. Columns are named x0.. for
    datasets, y0.. otherwise, plus a final 'label' column when labels are
    present. Lines end with a newline regardless of platform. A matrix
    with NaN or inf is refused, since read_csv would refuse the file.
    """
    mat = as_points(obj, "obj")
    prefix = "y"
    if isinstance(obj, Dataset):
        prefix = "x"
        if labels is None:
            labels = obj.labels
    if labels is not None:
        labels = as_labels(labels)
        if len(labels) != len(mat):
            raise ValueError("labels length does not match row count")
    with open(path, "w", newline="") as fh:
        cols = [f"{prefix}{j}" for j in range(mat.shape[1])]
        if labels is not None:
            cols.append("label")
        fh.write(",".join(cols) + "\n")
        for i, row in enumerate(mat):
            cells = ["%.17g" % v for v in row]
            if labels is not None:
                cells.append(str(labels[i]))
            fh.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class PlotSpec:
    """Scatter rendering parameters."""

    width: float = 800.0
    height: float = 800.0
    point_radius: float = 3.0
    margin: float = 0.05      # fraction of each dimension kept clear

    def __post_init__(self):
        for name in ("width", "height", "point_radius"):
            in_interval(getattr(self, name), name, 0, math.inf, "()")
        in_interval(self.margin, "margin", 0, 0.5)


def render_svg(y, path, labels=None, spec: Optional[PlotSpec] = None) -> None:
    """Write a deterministic SVG 1.1 scatter of a 2-D map.

    Points map into the viewport with the aspect ratio preserved and a
    margin inset; a degenerate extent (single point, vertical or
    horizontal line) centers along the flat dimension. Colors cycle
    through PALETTE by sorted label order; without labels every point
    uses its first color. Maps with more than 2 columns are drawn
    by their first two.
    """
    spec = spec or PlotSpec()
    ys = as_points(y, "y")
    if ys.shape[1] < 2:
        raise ValueError("need at least 2 map columns to plot")
    pts = ys[:, :2]
    n = len(pts)

    if labels is not None:
        labels = np.asarray(labels)
        if len(labels) != n:
            raise ValueError("labels length does not match point count")
        # np.unique puts every NaN label in one slot, after the others.
        slot = np.unique(labels, return_inverse=True)[1]
        colors = [PALETTE[i % len(PALETTE)] for i in slot]
    else:
        colors = [PALETTE[0]] * n

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = hi - lo
    avail_w = spec.width * (1.0 - 2.0 * spec.margin)
    avail_h = spec.height * (1.0 - 2.0 * spec.margin)
    scales = []
    if extent[0] > 0:
        scales.append(avail_w / extent[0])
    if extent[1] > 0:
        scales.append(avail_h / extent[1])
    s = min(scales) if scales else 0.0
    off_x = (spec.width - s * extent[0]) / 2.0
    off_y = (spec.height - s * extent[1]) / 2.0

    px = off_x + s * (pts[:, 0] - lo[0])
    py = spec.height - (off_y + s * (pts[:, 1] - lo[1]))  # SVG y grows down

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width:g}" height="{spec.height:g}" '
        f'viewBox="0 0 {spec.width:g} {spec.height:g}">\n',
        f'<rect x="0" y="0" width="{spec.width:g}" height="{spec.height:g}" '
        'fill="#ffffff" stroke="#808080" stroke-width="1"/>\n',
    ]
    for i in range(n):
        parts.append(
            f'<circle cx="{px[i]:.2f}" cy="{py[i]:.2f}" '
            f'r="{spec.point_radius:g}" fill="{colors[i]}"/>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(parts))
