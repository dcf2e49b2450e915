"""CSV round trips and SVG rendering."""

import numpy as np
import pytest

from gtsne.core import Dataset, Embedding, as_points
from gtsne.io import PALETTE, PlotSpec, read_csv, render_svg, write_csv


class TestReadCsv:
    def test_plain_numeric(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,2,3\n4,5,6\n")
        ds = read_csv(p)
        np.testing.assert_array_equal(ds.x, [[1, 2, 3], [4, 5, 6]])
        assert ds.labels is None

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("# a comment\n\n1,2\n   \n3,4\n")
        ds = read_csv(p)
        np.testing.assert_array_equal(ds.x, [[1, 2], [3, 4]])

    def test_label_by_name(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("a,b,label\n1,2,0\n3,4,1\n")
        ds = read_csv(p, label_column="label")
        np.testing.assert_array_equal(ds.x, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_label_by_index(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,1.5,2.5\n1,3.5,4.5\n")
        ds = read_csv(p, label_column=0)
        np.testing.assert_array_equal(ds.x, [[1.5, 2.5], [3.5, 4.5]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_float_shaped_integer_labels_accepted(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,2,2.0\n3,4,3\n")
        ds = read_csv(p, label_column=2)
        np.testing.assert_array_equal(ds.labels, [2, 3])

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,2,0.5\n")
        with pytest.raises(ValueError, match="not an integer"):
            read_csv(p, label_column=2)

    @pytest.mark.parametrize(
        "cell", ["1e30", "9223372036854775808", "-9223372036854775809"]
    )
    def test_label_beyond_int64_names_line_and_column(self, tmp_path, cell):
        p = tmp_path / "pts.csv"
        p.write_text(f"1,2,0\n3,4,{cell}\n")
        with pytest.raises(ValueError, match="line 2, column 3: .* int64 range"):
            read_csv(p, label_column=2)

    def test_int64_extreme_labels_accepted(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,2,9223372036854775807\n3,4,-9223372036854775808\n")
        ds = read_csv(p, label_column=2)
        np.testing.assert_array_equal(ds.labels, [2**63 - 1, -(2**63)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "absent.csv")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(p)

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("a,b\n")
        with pytest.raises(ValueError, match="header but no data"):
            read_csv(p)

    def test_ragged_row_names_the_line(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,2\n3,4\n5,6,7\n")
        with pytest.raises(ValueError, match="line 3: expected 2 columns, got 3"):
            read_csv(p)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("# note\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 3, column 2: 'oops'"):
            read_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, cell):
        p = tmp_path / "pts.csv"
        p.write_text(f"# note\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match=f"pts.csv: line 3, column 2: '{cell}' is not finite"):
            read_csv(p)

    def test_label_name_needs_header(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,2\n")
        with pytest.raises(ValueError, match="pts.csv: no header, so no column named 'label'"):
            read_csv(p, label_column="label")

    def test_unknown_label_name(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            read_csv(p, label_column="label")

    def test_label_index_out_of_range(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1,2\n")
        with pytest.raises(ValueError, match=r"label_column=5: must be an integer in \[0, 2\)"):
            read_csv(p, label_column=5)

    def test_label_only_file_rejected(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0\n1\n")
        with pytest.raises(ValueError, match="no numeric columns"):
            read_csv(p, label_column=0)


class TestWriteCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-8, 8, size=(20, 3))
        p = tmp_path / "out.csv"
        write_csv(x, p)
        back = read_csv(p)
        np.testing.assert_array_equal(back.x, x)

    def test_dataset_columns_and_labels(self, tmp_path):
        ds = Dataset(x=np.array([[1.0, 2.0], [3.0, 4.5]]), labels=np.array([4, 0]))
        p = tmp_path / "out.csv"
        write_csv(ds, p)
        assert p.read_text() == "x0,x1,label\n1,2,4\n3,4.5,0\n"

    def test_embedding_columns(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(Embedding(y=np.array([[0.5, -1.0]])), p)
        assert p.read_text() == "y0,y1\n0.5,-1\n"

    def test_explicit_labels_override(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(np.array([[1.0], [2.0]]), p, labels=[7, 8])
        assert p.read_text() == "y0,label\n1,7\n2,8\n"

    @pytest.mark.parametrize("labels", [[1.5, 2.7], [1.0, np.nan], [0.0, 2.0**63]])
    def test_labels_that_are_not_int64_are_refused(self, tmp_path, labels):
        # Truncated, [1.5, 2.7] used to come back from read_csv as [1, 2].
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="labels must be integers"):
            write_csv(np.zeros((2, 2)), path, labels=labels)
        assert not path.exists()

    def test_label_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="labels length"):
            write_csv(np.zeros((3, 2)), tmp_path / "out.csv", labels=[1, 2])

    def test_non_matrix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_csv(np.zeros(3), tmp_path / "out.csv")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, tmp_path, bad):
        # read_csv would refuse such a file, so none is written.
        mat = np.zeros((3, 2))
        mat[1, 0] = bad
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="non-finite entries in obj"):
            write_csv(mat, path)
        assert not path.exists()


class TestHeaderRule:
    """read_csv(path) alone reads the header and labels write_csv wrote."""

    def test_header_with_label(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("# made by hand\n\nx0,x1,label\n1,2,7\n3,4,8\n")
        ds = read_csv(p)
        np.testing.assert_array_equal(ds.x, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(ds.labels, [7, 8])

    def test_header_without_label(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b,c\n1,2,3\n4,5,6\n")
        ds = read_csv(p)
        np.testing.assert_array_equal(ds.x, [[1, 2, 3], [4, 5, 6]])
        assert ds.labels is None

    @pytest.mark.parametrize("header, width", [("x0,label", 2), ("x0,x1,x2,label", 4)])
    def test_header_must_be_as_wide_as_the_rows(self, tmp_path, header, width):
        # x0,label over three-cell rows once read column 1 as the labels
        # and columns 0 and 2 as the points.
        p = tmp_path / "a.csv"
        p.write_text(f"# note\n{header}\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match=f"a.csv: line 2: expected 3 columns, got {width}"):
            read_csv(p)

    def test_headerless(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(read_csv(p).x, [[1, 2], [3, 4]])

    def test_comment_only(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError, match="a.csv: no data rows"):
            read_csv(p)

    @pytest.mark.parametrize(
        "line, column, problem",
        [("1,oops", 2, "'oops' is not numeric"), ("nan,1", 1, "'nan' is not finite")],
    )
    def test_first_line_with_a_number_is_checked_as_data(self, tmp_path, line, column, problem):
        # 1,oops was once taken for a header by the command line's reader.
        p = tmp_path / "a.csv"
        p.write_text(f"{line}\n1,2\n")
        with pytest.raises(ValueError, match=f"a.csv: line 1, column {column}: {problem}"):
            read_csv(p)

    def test_explicit_label_column_wins(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("id,x0,label\n5,1.5,0\n6,2.5,1\n")
        ds = read_csv(p, label_column="id")
        np.testing.assert_array_equal(ds.x, [[1.5, 0], [2.5, 1]])
        np.testing.assert_array_equal(ds.labels, [5, 6])
        np.testing.assert_array_equal(read_csv(p, label_column=0).labels, [5, 6])

    @pytest.mark.parametrize(
        "obj, labels",
        [
            (Dataset(x=np.array([[0.1, -2e-9], [3e7, 1 / 3]]), labels=[4, -1]), [4, -1]),
            (np.array([[0.1, -2e-9, 5.0], [3e7, 1 / 3, -0.0]]), None),
            (Embedding(y=np.array([[0.1, -2e-9], [3e7, 1 / 3]])), [2**62, 0]),
        ],
        ids=["dataset", "matrix", "embedding"],
    )
    def test_round_trip_through_the_defaults(self, tmp_path, obj, labels):
        p = tmp_path / "a.csv"
        write_csv(obj, p, labels=None if isinstance(obj, Dataset) else labels)
        back = read_csv(p)
        assert back.x.tobytes() == as_points(obj, "obj").tobytes()
        if labels is None:
            assert back.labels is None
        else:
            assert back.labels.tobytes() == np.array(labels, dtype=np.int64).tobytes()


class TestPlotSpec:
    def test_defaults_valid(self):
        spec = PlotSpec()
        assert spec.width == 800.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PlotSpec(width=0)
        with pytest.raises(ValueError):
            PlotSpec(point_radius=0)
        with pytest.raises(ValueError):
            PlotSpec(margin=0.5)


class TestRenderSvg:
    def test_single_point_is_centered(self, tmp_path):
        p = tmp_path / "a.svg"
        render_svg(np.array([[3.0, 7.0]]), p, spec=PlotSpec(width=100, height=100))
        assert '<circle cx="50.00" cy="50.00"' in p.read_text()

    def test_corners_land_on_the_margin_inset(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        p = tmp_path / "a.svg"
        render_svg(pts, p, spec=PlotSpec(width=100, height=100, margin=0.05))
        text = p.read_text()
        # Map y grows up, SVG y grows down: (0, 0) lands bottom left.
        assert '<circle cx="5.00" cy="95.00"' in text
        assert '<circle cx="95.00" cy="95.00"' in text
        assert '<circle cx="5.00" cy="5.00"' in text
        assert '<circle cx="95.00" cy="5.00"' in text

    def test_aspect_ratio_preserved(self, tmp_path):
        pts = np.array([[0.0, 0.0], [10.0, 5.0]])
        p = tmp_path / "a.svg"
        render_svg(pts, p, spec=PlotSpec(width=100, height=100, margin=0.0))
        text = p.read_text()
        # One scale for both axes: x fills the width, y is centered.
        assert '<circle cx="0.00" cy="75.00"' in text
        assert '<circle cx="100.00" cy="25.00"' in text

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 2))
        labels = rng.integers(0, 3, size=40)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_svg(pts, a, labels=labels)
        render_svg(pts, b, labels=labels)
        assert a.read_bytes() == b.read_bytes()

    def test_label_colors_cycle_in_sorted_order(self, tmp_path):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        p = tmp_path / "a.svg"
        render_svg(pts, p, labels=np.array([5, -1, 5]))
        text = p.read_text()
        assert text.count(f'fill="{PALETTE[0]}"') == 1  # label -1
        assert text.count(f'fill="{PALETTE[1]}"') == 2  # label 5

    @pytest.mark.parametrize(
        "labels", [[np.nan, np.nan, 1.0], ["b", "b", "a"]], ids=["nan", "strings"]
    )
    def test_nan_and_string_labels(self, tmp_path, labels):
        # NaN labels once raised a bare KeyError; all of them share one
        # slot, after the other labels.
        p = tmp_path / "a.svg"
        render_svg(np.zeros((3, 2)), p, labels=labels)
        text = p.read_text()
        assert text.count(f'fill="{PALETTE[0]}"') == 1  # 1.0 or "a"
        assert text.count(f'fill="{PALETTE[1]}"') == 2

    def test_labels_beyond_the_palette_wrap_around(self, tmp_path):
        p = tmp_path / "a.svg"
        labels = np.arange(len(PALETTE) + 2)
        render_svg(np.zeros((len(labels), 2)), p, labels=labels)
        text = p.read_text()
        assert text.count(f'fill="{PALETTE[0]}"') == 2  # the first and the 11th
        assert text.count(f'fill="{PALETTE[1]}"') == 2

    def test_unlabeled_points_use_first_color(self, tmp_path):
        p = tmp_path / "a.svg"
        render_svg(np.zeros((3, 2)), p)
        assert p.read_text().count(f'fill="{PALETTE[0]}"') == 3

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "a.svg"
        render_svg(np.array([[0.0, 0.0, 9.0], [1.0, 1.0, -9.0]]), p)
        assert p.read_text().count("<circle") == 2

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="2 map columns"):
            render_svg(np.zeros((3, 1)), tmp_path / "a.svg")
        with pytest.raises(ValueError, match="non-finite"):
            render_svg(np.array([[0.0, np.inf]]), tmp_path / "a.svg")
        with pytest.raises(ValueError, match="labels length"):
            render_svg(np.zeros((3, 2)), tmp_path / "a.svg", labels=[1])
