import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otcd.io
from otcd.io import (
    PointCloud,
    PointCloudFormatError,
    read_ply,
    read_xyz,
    write_ply_scored,
    write_xyz,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadXyz:
    def test_plain_points(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0\n1 2 3\n")
        cloud = read_xyz(path)
        assert len(cloud) == 2
        np.testing.assert_array_equal(cloud.xyz, [[0, 0, 0], [1, 2, 3]])
        assert cloud.labels is None

    def test_labeled_point(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0 1\n")
        cloud = read_xyz(path)
        assert len(cloud) == 1
        assert cloud.labels.tolist() == [1]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "# header\n\n1 1 1\n  # another\n2 2 2\n")
        assert len(read_xyz(path)) == 2

    def test_nan_rejected_with_line_number(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 nan\n")
        with pytest.raises(PointCloudFormatError, match=r":1:"):
            read_xyz(path)

    def test_malformed_line_number_is_one_based(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "# c\n0 0 0\n1 2\n")
        with pytest.raises(PointCloudFormatError, match=r":3:"):
            read_xyz(path)

    def test_label_out_of_range(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0 7\n")
        with pytest.raises(PointCloudFormatError, match="label"):
            read_xyz(path)

    def test_non_integer_label(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0 1.5\n")
        with pytest.raises(PointCloudFormatError):
            read_xyz(path)

    @pytest.mark.parametrize("label", ["1.5", "nan", "-1", "abc"])
    def test_non_class_label_names_its_line(self, tmp_path, label):
        path = _write(tmp_path, "a.xyz", f"0 0 0 1\n\n0 0 0 {label}\n")
        with pytest.raises(PointCloudFormatError, match=r":3:"):
            read_xyz(path)

    def test_non_numeric_coordinate_names_its_line(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0\n0 x 0\n")
        with pytest.raises(PointCloudFormatError, match=r":2: non-numeric"):
            read_xyz(path)

    def test_inline_comment_is_malformed(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0 # note\n")
        with pytest.raises(PointCloudFormatError, match=r":1: expected 3"):
            read_xyz(path)

    def test_non_utf8_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "a.xyz"
        path.write_bytes(b"0 0 0\n0 0 \xff\n")
        with pytest.raises(PointCloudFormatError, match=r":2:"):
            read_xyz(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "# nothing\n")
        with pytest.raises(PointCloudFormatError, match="no points"):
            read_xyz(path)

    def test_first_data_row_decides_the_label_column(self, tmp_path):
        labeled = read_xyz(_write(tmp_path, "l.xyz", "# x y z label\n0 0 0 1\n"))
        assert labeled.labels.tolist() == [1]
        assert read_xyz(_write(tmp_path, "p.xyz", "0 0 0\n")).labels is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 0 0\n0 0 0 1\n", r":2: expected 3 fields, got 4"),
            ("0 0 0 1\n0 0 0\n", r":2: expected 4 fields, got 3"),
            ("0 0\n0 0 0\n", r":1: expected 3 fields, got 2"),
            ("0 0 0 1 2\n", r":1: expected 3 fields, got 5"),
        ],
    )
    def test_rows_keep_the_first_row_width(self, tmp_path, text, message):
        path = _write(tmp_path, "a.xyz", text)
        with pytest.raises(PointCloudFormatError, match=message):
            read_xyz(path)

    def test_no_silent_drops(self, tmp_path):
        lines = [f"{i} {i} {i}" for i in range(57)]
        path = _write(tmp_path, "a.xyz", "\n".join(lines) + "\n")
        assert len(read_xyz(path)) == 57


class TestXyzRoundTrip:
    def test_golden_bytes(self, tmp_path):
        xyz = np.array(
            [[0.5, -1.25, 3e-7], [-0.0, 1e6, 123456.789012345], [1e12, 0, -7]]
        )
        path = tmp_path / "g.xyz"
        write_xyz(path, PointCloud(xyz=xyz))
        assert path.read_bytes() == (
            b"0.5 -1.25 3e-07\n-0 1000000 123456.789012\n1e+12 0 -7\n"
        )
        write_xyz(path, PointCloud(xyz=xyz, labels=np.array([0, 2, 1])))
        assert path.read_bytes() == (
            b"0.5 -1.25 3e-07 0\n-0 1000000 123456.789012 2\n1e+12 0 -7 1\n"
        )

    def test_labels_survive(self, tmp_path):
        cloud = PointCloud(
            xyz=np.array([[0.5, -1.25, 3e-7], [1e6, 2.0, -9.75]]),
            labels=np.array([0, 2]),
        )
        path = tmp_path / "rt.xyz"
        write_xyz(path, cloud)
        back = read_xyz(path)
        np.testing.assert_allclose(back.xyz, cloud.xyz, rtol=1e-10)
        np.testing.assert_array_equal(back.labels, cloud.labels)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-500, 500, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_order_and_coordinates_preserved(self, tmp_path_factory, pts):
        cloud = PointCloud(xyz=np.array(pts))
        path = tmp_path_factory.mktemp("xyz") / "p.xyz"
        write_xyz(path, cloud)
        back = read_xyz(path)
        np.testing.assert_allclose(back.xyz, cloud.xyz, rtol=1e-10, atol=1e-12)


class TestPly:
    def test_round_trip(self, tmp_path):
        cloud = PointCloud(xyz=np.array([[0.0, 0.0, 0.0], [1.5, -2.25, 10.0]]))
        scores = np.array([2.5, -0.75])
        classes = np.array([1, 2])
        path = tmp_path / "scored.ply"
        write_ply_scored(path, cloud, scores, classes)
        back, back_scores, back_classes = read_ply(path)
        np.testing.assert_allclose(back.xyz, cloud.xyz, rtol=1e-9)
        np.testing.assert_allclose(back_scores, scores, rtol=1e-6)
        np.testing.assert_array_equal(back_classes, classes)

    def test_single_point_layout(self, tmp_path):
        path = tmp_path / "one.ply"
        write_ply_scored(
            path,
            PointCloud(xyz=np.array([[0.0, 0.0, 0.0]])),
            np.array([2.5]),
            np.array([1]),
        )
        text = path.read_text().splitlines()
        assert text[0] == "ply"
        assert "element vertex 1" in text
        assert text[-1].split() == ["0", "0", "0", "2.5", "1"]

    def test_infinite_score_round_trips(self, tmp_path):
        path = tmp_path / "inf.ply"
        write_ply_scored(
            path,
            PointCloud(xyz=np.array([[1.0, 2.0, 3.0]])),
            np.array([math.inf]),
            np.array([1]),
        )
        _, scores, _ = read_ply(path)
        assert math.isinf(scores[0])

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "g.ply"
        write_ply_scored(
            path,
            PointCloud(xyz=np.array([[1.0, 2.0, 3.0], [-0.5, -0.0, 1e6], [0, 0, 0]])),
            np.array([math.inf, -2.5, 0.123456789012]),
            np.array([1, 2, 0]),
        )
        assert path.read_bytes() == (
            b"ply\nformat ascii 1.0\nelement vertex 3\n"
            b"property double x\nproperty double y\nproperty double z\n"
            b"property float change_score\nproperty uchar change_class\n"
            b"end_header\n"
            b"1 2 3 inf 1\n-0.5 -0 1000000 -2.5 2\n0 0 0 0.123456789 0\n"
        )

    def test_length_mismatch(self, tmp_path):
        cloud = PointCloud(xyz=np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="length"):
            write_ply_scored(tmp_path / "bad.ply", cloud, np.array([]), np.array([]))

    @pytest.mark.parametrize("classes", [[2.7, 0.4], [1.0, 0.5], [3, 0], [0, -1]])
    def test_non_class_ids_rejected(self, tmp_path, classes):
        path = tmp_path / "bad.ply"
        with pytest.raises(ValueError, match=r"classes must be in \(0, 1, 2\)"):
            write_ply_scored(
                path, PointCloud(xyz=np.zeros((2, 3))), np.zeros(2), np.array(classes)
            )
        assert not path.exists()

    def test_integral_float_classes_accepted(self, tmp_path):
        path = tmp_path / "ok.ply"
        write_ply_scored(
            path, PointCloud(xyz=np.zeros((2, 3))), np.zeros(2), np.array([2.0, 0.0])
        )
        assert read_ply(path)[2].tolist() == [2, 0]

    def test_nan_score_rejected(self, tmp_path):
        path = tmp_path / "nan.ply"
        with pytest.raises(ValueError, match="NaN"):
            write_ply_scored(
                path,
                PointCloud(xyz=np.zeros((2, 3))),
                np.array([np.inf, np.nan]),
                np.array([0, 1]),
            )
        assert not path.exists()

    def test_xyz_only_ply(self, tmp_path):
        path = _write(
            tmp_path,
            "plain.ply",
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n",
        )
        cloud, scores, classes = read_ply(path)
        assert len(cloud) == 2
        assert scores is None and classes is None

    def test_vertex_count_mismatch(self, tmp_path):
        path = _write(
            tmp_path,
            "short.ply",
            "ply\nformat ascii 1.0\nelement vertex 5\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n" + "0 0 0\n" * 4,
        )
        with pytest.raises(PointCloudFormatError, match="5 vertices"):
            read_ply(path)

    def test_binary_declared_unsupported(self, tmp_path):
        path = _write(
            tmp_path,
            "bin.ply",
            "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n",
        )
        with pytest.raises(PointCloudFormatError, match="ascii"):
            read_ply(path)

    @pytest.mark.parametrize(
        "element",
        ["element vertex", "element vertex abc", "element vertex -1", "element"],
    )
    def test_bad_vertex_count_names_its_line(self, tmp_path, element):
        path = _write(
            tmp_path,
            "bad.ply",
            f"ply\nformat ascii 1.0\n{element}\nproperty float x\nend_header\n",
        )
        with pytest.raises(PointCloudFormatError, match=r":3:"):
            read_ply(path)

    @pytest.mark.parametrize(
        "row, match",
        [
            ("0 0 x 1 1", ":11: non-numeric"),
            ("0 nan 0 1 1", ":11: non-finite"),
            ("0 0 0 1", ":11: expected 5"),
            ("0 0 0 1 1.5", ":11: change_class"),
            ("0 0 0 1 3", ":11: change_class"),
            ("# 0 0 0 1", ":11: non-numeric"),
        ],
    )
    def test_bad_data_row_names_its_line(self, tmp_path, row, match):
        path = tmp_path / "bad.ply"
        write_ply_scored(
            path,
            PointCloud(xyz=np.zeros((2, 3))),
            np.array([0.5, 1.0]),
            np.array([0, 1]),
        )
        lines = path.read_text().splitlines()
        lines[-1] = row  # the second data row, file line 11
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PointCloudFormatError, match=match):
            read_ply(path)

    def test_missing_header(self, tmp_path):
        path = _write(tmp_path, "noheader.ply", "0 0 0\n")
        with pytest.raises(PointCloudFormatError, match="ply"):
            read_ply(path)

    _XYZ_PROPS = "property float x\nproperty float y\nproperty float z\n"

    @pytest.mark.parametrize(
        "header, match",
        [
            (
                "format ascii 1.0\nproperty float x\nelement vertex 0\nend_header\n",
                ":3: property declared outside the vertex element",
            ),
            (
                "format ascii 1.0\nobj_info scanner\nelement vertex 0\n"
                + _XYZ_PROPS
                + "end_header\n",
                ":3: unsupported header keyword 'obj_info'",
            ),
            (
                "format ascii 1.0\nelement vertex 0\n" + _XYZ_PROPS,
                "unterminated header",
            ),
            ("element vertex 0\n" + _XYZ_PROPS + "end_header\n", "incomplete header"),
            (
                "format ascii 1.0\nelement vertex 0\n"
                "property float x\nproperty float y\nend_header\n",
                "missing property 'z'",
            ),
        ],
        ids=["property-first", "obj_info", "unterminated", "no-format", "no-z"],
    )
    def test_bad_header_rejected(self, tmp_path, header, match):
        path = _write(tmp_path, "bad.ply", "ply\n" + header)
        with pytest.raises(PointCloudFormatError, match=match):
            read_ply(path)

    def test_comment_and_blank_header_lines_skipped(self, tmp_path):
        path = _write(
            tmp_path,
            "commented.ply",
            "ply\nformat ascii 1.0\ncomment written by hand\n\nelement vertex 1\n"
            + self._XYZ_PROPS
            + "end_header\n1 2 3\n",
        )
        cloud, scores, classes = read_ply(path)
        np.testing.assert_array_equal(cloud.xyz, [[1.0, 2.0, 3.0]])
        assert scores is None and classes is None


class TestReaderLayout:
    def test_both_readers_return_c_contiguous_float64_xyz(self, tmp_path):
        xyz = np.array([[0.5, -1.0, 2.0], [3.0, 4.0, -5.25]])
        write_xyz(tmp_path / "a.xyz", PointCloud(xyz=xyz))
        write_ply_scored(
            tmp_path / "a.ply", PointCloud(xyz=xyz), np.zeros(2), np.zeros(2)
        )
        for cloud in (read_xyz(tmp_path / "a.xyz"), read_ply(tmp_path / "a.ply")[0]):
            assert cloud.xyz.dtype == np.float64
            assert cloud.xyz.flags.c_contiguous
            np.testing.assert_array_equal(cloud.xyz, xyz)


_BLOCK = 4
_COORD_FMTS = ["%.12g"] * 3


def _savetxt_bytes(table, fmt):
    buf = io.StringIO()
    np.savetxt(buf, table, fmt=fmt)
    return buf.getvalue().encode()


def _block_edge_columns(n):
    """Coordinates, scores and classes for ``n`` rows with -0.0, 1e12,
    negative and infinite scores mixed in."""
    rng = np.random.default_rng(n)
    xyz = rng.normal(scale=50.0, size=(n, 3))
    xyz[::3, 0] = -0.0
    xyz[1::3, 1] = 1e12
    scores = rng.normal(scale=5.0, size=n)
    scores[::2] = -np.abs(scores[::2])
    scores[1::4] = np.inf
    return xyz, scores, np.arange(n) % 3


class TestWriteRowsBlockEdges:
    """The writers format rows in blocks; each must equal np.savetxt."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(otcd.io, "_WRITE_BLOCK_ROWS", _BLOCK)

    ROWS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]

    @pytest.mark.parametrize("n", ROWS)
    def test_write_xyz_matches_savetxt(self, tmp_path, n):
        xyz, _, classes = _block_edge_columns(n)
        path = tmp_path / "w.xyz"
        write_xyz(path, PointCloud(xyz=xyz))
        assert path.read_bytes() == _savetxt_bytes(xyz, _COORD_FMTS)
        write_xyz(path, PointCloud(xyz=xyz, labels=classes))
        assert path.read_bytes() == _savetxt_bytes(
            np.column_stack([xyz, classes]), _COORD_FMTS + ["%d"]
        )

    @pytest.mark.parametrize("n", ROWS)
    def test_write_ply_scored_matches_savetxt(self, tmp_path, n):
        xyz, scores, classes = _block_edge_columns(n)
        path = tmp_path / "w.ply"
        write_ply_scored(path, PointCloud(xyz=xyz), scores, classes)
        header, body = path.read_bytes().split(b"end_header\n")
        assert f"element vertex {n}\n".encode() in header
        assert body == _savetxt_bytes(
            np.column_stack([xyz, scores, classes]), _COORD_FMTS + ["%.9g", "%d"]
        )

    @pytest.mark.filterwarnings("error")
    def test_zero_vertex_scored_ply_round_trips(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply_scored(
            path, PointCloud(xyz=np.empty((0, 3))), np.empty(0), np.empty(0)
        )
        cloud, scores, classes = read_ply(path)
        assert cloud.xyz.shape == (0, 3)
        assert scores.shape == (0,) and classes.shape == (0,)


# values where a numpy formatter is most likely to part from printf: decade
# edges, the edges of the fixed-point range of %g, values that round up into
# the exponent form, exact 12- and 9-digit ties, decimal ties that binary
# rounds to either side, extremes
_EDGE_VALUES = [
    9.9999999999995e-5, 999999999999.5, 1e12, 1e-5, 0.0001, 5e-324,
    999999999999.7, 999999999.7,
    1.7976931348623157e308, 4512345.678, 0.0, -0.0, 1.0, 10.0, 0.5, 2.5,
    123456789012.5, 123456789.5, 0.1234567890125, 0.0001234567895,
    99999999999.95, 999999999.5, 99999999.95, 9.9999999995e-5, 1e11, 1e9,
    2.2250738585072014e-308, 1e-300, 1e300, 4503599627370495.5,
]


def _ties(digits):
    """Decimal ties at ``digits`` significant digits, scaled so that binary
    rounds them to either side."""
    return st.tuples(
        st.integers(10 ** (digits - 1), 10**digits - 1), st.integers(-20, 20)
    ).map(lambda t: (t[0] + 0.5) * 10.0 ** t[1])


def _any_float(digits):
    return st.one_of(
        st.floats(allow_nan=False, allow_subnormal=True),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.sampled_from(_EDGE_VALUES),
        _ties(digits),
    )


class TestRowFormat:
    """The writers' rows equal np.savetxt with %.12g coordinates, a %.9g
    score and a %d class, for any float64 the writer accepts."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _any_float(12).filter(math.isfinite),
                st.sampled_from(_EDGE_VALUES) | _ties(12),
                st.floats(-1e4, 1e4, allow_subnormal=True),
                _any_float(9),
                st.sampled_from([0, 1, 2]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_scored_ply_matches_savetxt(self, tmp_path_factory, rows):
        table = np.array(rows, dtype=np.float64)
        xyz, scores, classes = table[:, :3], table[:, 3], table[:, 4].astype(int)
        path = tmp_path_factory.mktemp("fmt") / "p.ply"
        write_ply_scored(path, PointCloud(xyz=xyz), scores, classes)
        body = path.read_bytes().split(b"end_header\n")[1]
        assert body == _savetxt_bytes(table, _COORD_FMTS + ["%.9g", "%d"])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_any_float(12), min_size=1, max_size=12),
        st.lists(_any_float(9), min_size=1, max_size=12),
    )
    def test_each_precision_matches_percent(self, coords, scores):
        for values, digits in ((coords, 12), (scores, 9)):
            fh = io.BytesIO()
            otcd.io._write_rows(fh, [np.array(values)], [digits], None)
            want = "".join("%.*g\n" % (digits, v) for v in values).encode()
            assert fh.getvalue() == want

    def test_edge_values_in_every_column_kind(self, tmp_path):
        values = np.array(_EDGE_VALUES + [-v for v in _EDGE_VALUES])
        xyz = np.column_stack([values, values[::-1], np.roll(values, 7)])
        classes = np.arange(len(values)) % 3
        path = tmp_path / "edge.xyz"
        write_xyz(path, PointCloud(xyz=xyz, labels=classes))
        assert path.read_bytes() == _savetxt_bytes(
            np.column_stack([xyz, classes]), _COORD_FMTS + ["%d"]
        )
        scores = np.concatenate([values[:-2], [np.inf, -np.inf]])
        write_ply_scored(tmp_path / "edge.ply", PointCloud(xyz=xyz), scores, classes)
        body = (tmp_path / "edge.ply").read_bytes().split(b"end_header\n")[1]
        assert body == _savetxt_bytes(
            np.column_stack([xyz, scores, classes]), _COORD_FMTS + ["%.9g", "%d"]
        )

    def test_blocks_with_different_layouts(self, tmp_path):
        """Each block sizes its fields to its own values: here small
        fractions, then UTM-scale coordinates and exponent forms."""
        n = otcd.io._WRITE_BLOCK_ROWS + 5
        rng = np.random.default_rng(3)
        xyz = rng.uniform(0, 1e-3, size=(n, 3))
        xyz[otcd.io._WRITE_BLOCK_ROWS :] = [
            [4512345.678, 1e15, -2.5e-9],
            [512345.6789, -123456789012.5, 0],
            [1e-300, 5e-324, 9.9999999999995e-5],
            [3.0, -0.0, 1e300],
            [-4512345.678, 0.5, 7.25],
        ]
        scores = rng.normal(size=n)
        scores[-3:] = [np.inf, 1e-7, -3e12]
        classes = np.arange(n) % 3
        path = tmp_path / "blocks.ply"
        write_ply_scored(path, PointCloud(xyz=xyz), scores, classes)
        body = path.read_bytes().split(b"end_header\n")[1]
        assert body == _savetxt_bytes(
            np.column_stack([xyz, scores, classes]), _COORD_FMTS + ["%.9g", "%d"]
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_runtime_warning(self, tmp_path, n):
        extremes = [0.0, -0.0, 1.7976931348623157e308, -1e300, 5e-324]
        xyz = np.resize(np.array(extremes), (n, 3))
        scores = np.resize(np.array([np.inf, -np.inf, 0.0, 1e308]), n)
        classes = np.zeros(n, dtype=int)
        write_xyz(tmp_path / "w.xyz", PointCloud(xyz=xyz, labels=classes))
        write_ply_scored(tmp_path / "w.ply", PointCloud(xyz=xyz), scores, classes)
        assert read_ply(tmp_path / "w.ply")[0].xyz.shape == (n, 3)


_PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {n}\n"
    "property double x\nproperty double y\nproperty double z\n"
    "property float change_score\nproperty uchar change_class\nend_header\n"
)

# file name, text, and whether the reader returns labels
_READER_CASES = [
    ("plain.xyz", "0.5 -1.25 3e-07\n-0 1000000 123456.789012\n1e+12 0 -7\n", False),
    ("labeled.xyz", "0.5 -1.25 3e-07 0\n-0 1e6 0.1 2\n1e+12 0 -7 1\n", True),
    ("crlf.xyz", "0.5 -1.25 3e-07 0\r\n-0 1e6 0.1 2\r\n", True),
    ("tabs.xyz", "0.5\t-1.25\t3e-07\t0\n-0\t1e6 0.1\t2\n", True),
    ("padded.xyz", "  0.5 -1.25  3e-07 0 \n\t-0 1e6 0.1 2\t\n", True),
    ("blank_lines.xyz", "\n0.5 -1.25 3e-07 0\n\n  \n-0 1e6 0.1 2\n\n", True),
    ("comment.xyz", "# x y z label\n0.5 -1.25 3e-07 0\n-0 1e6 0.1 2\n", True),
    ("underscore.xyz", "1_0 -1.25 3e-07 0\n-0 1e6 0.1 2\n", True),
    ("arabic_indic.xyz", "\u0661 -1.25 3e-07 0\n-0 1e6 0.1 2\n", True),
    ("single_row.xyz", "0.5 -1.25 3e-07 1\n", True),
    ("one_vertex.ply", _PLY_HEADER.format(n=1) + "1 2 3 inf 1\n", False),
    (
        "n_vertices.ply",
        _PLY_HEADER.format(n=3)
        + "1 2 3 inf 1\n-0.5 -0 1000000 -2.5 2\n0 0 0 0.123456789 0\n",
        False,
    ),
]


def _read_arrays(path):
    """Every array a reader returns for ``path``: xyz, labels, scores, classes."""
    if path.suffix == ".ply":
        cloud, scores, classes = read_ply(path)
        return cloud.xyz, cloud.labels, scores, classes
    cloud = read_xyz(path)
    return cloud.xyz, cloud.labels, None, None


def _fail(*args, **kwargs):
    raise ValueError("forced failure")


class TestReaderFastPath:
    """Rows are parsed by np.loadtxt; the line-numbered reader is the
    fallback, and both must give the same bits."""

    @pytest.mark.parametrize("name, text, labeled", _READER_CASES)
    def test_fallback_gives_the_same_bits(
        self, tmp_path, monkeypatch, name, text, labeled
    ):
        path = tmp_path / name
        path.write_bytes(text.encode())
        fast = _read_arrays(path)
        monkeypatch.setattr(otcd.io.np, "loadtxt", _fail)
        slow = _read_arrays(path)
        assert (fast[1] is not None) == (slow[1] is not None) == labeled
        assert fast[0].flags.c_contiguous and slow[0].flags.c_contiguous
        for got, want in zip(fast, slow):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_plain_files_do_not_need_the_line_reader(self, tmp_path, monkeypatch):
        texts = {name: text for name, text, _ in _READER_CASES}
        for name in ("plain.xyz", "labeled.xyz", "n_vertices.ply"):
            (tmp_path / name).write_text(texts[name])
        monkeypatch.setattr(otcd.io, "_read_rows", _fail)
        assert len(read_xyz(tmp_path / "plain.xyz")) == 3
        assert read_xyz(tmp_path / "labeled.xyz").labels.tolist() == [0, 2, 1]
        _, scores, classes = read_ply(tmp_path / "n_vertices.ply")
        assert classes.tolist() == [1, 2, 0] and math.isinf(scores[0])

    @pytest.mark.parametrize(
        "text, labels", [("0 0 0 1\n\n1 1 1 2\n", [1, 2]), ("0 0 0\n1 1 1\n", None)]
    )
    def test_pipe_is_read_once_by_the_line_reader(self, monkeypatch, text, labels):
        monkeypatch.setattr(otcd.io, "_c_rows", _fail)
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as fh:
            fh.write(text)
        try:
            cloud = read_xyz(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        assert len(cloud) == 2
        assert (None if cloud.labels is None else cloud.labels.tolist()) == labels

    @pytest.mark.filterwarnings("error")
    def test_blank_xyz_has_no_points_without_a_warning(self, tmp_path):
        path = _write(tmp_path, "blank.xyz", "\n  \n\t\n")
        with pytest.raises(PointCloudFormatError, match="no points found"):
            read_xyz(path)

    @pytest.mark.filterwarnings("error")
    def test_nan_row_then_blank_line_names_line_1_without_a_warning(self, tmp_path):
        path = _write(tmp_path, "nan.xyz", "0 0 nan\n\n")
        with pytest.raises(PointCloudFormatError, match=r":1: non-finite"):
            read_xyz(path)


class TestPointCloudValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            PointCloud(xyz=np.zeros((3, 3)), labels=np.array([0]))

    def test_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            PointCloud(xyz=np.zeros((1, 3)), labels=np.array([5]))

    @pytest.mark.parametrize("label", [2.7, 0.4, np.nan])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ValueError, match=r"labels must be in \(0, 1, 2\)"):
            PointCloud(xyz=np.zeros((1, 3)), labels=[label])

    def test_integral_float_labels_become_int64(self):
        cloud = PointCloud(xyz=np.zeros((2, 3)), labels=[2.0, 1.0])
        assert cloud.labels.dtype == np.int64 and cloud.labels.tolist() == [2, 1]

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 1)])
    def test_xyz_shape(self, shape):
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            PointCloud(xyz=np.zeros(shape))

    def test_nonfinite_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(xyz=np.array([[0.0, 0.0, np.inf]]))
