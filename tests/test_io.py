import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otcd.io
from otcd.io import (
    BoundingBox,
    PointCloud,
    PointCloudFormatError,
    bounding_box,
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
        cloud = read_xyz(path, has_label=True)
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
            read_xyz(path, has_label=True)

    def test_non_integer_label(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0 1.5\n")
        with pytest.raises(PointCloudFormatError):
            read_xyz(path, has_label=True)

    @pytest.mark.parametrize("label", ["1.5", "nan", "-1", "abc"])
    def test_non_class_label_names_its_line(self, tmp_path, label):
        path = _write(tmp_path, "a.xyz", f"0 0 0 1\n\n0 0 0 {label}\n")
        with pytest.raises(PointCloudFormatError, match=r":3:"):
            read_xyz(path, has_label=True)

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

    def test_label_column_without_flag_is_malformed(self, tmp_path):
        path = _write(tmp_path, "a.xyz", "0 0 0 1\n")
        with pytest.raises(PointCloudFormatError, match="expected 3"):
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
        back = read_xyz(path, has_label=True)
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


_PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {n}\n"
    "property double x\nproperty double y\nproperty double z\n"
    "property float change_score\nproperty uchar change_class\nend_header\n"
)

# file name, text, and whether an .xyz file has a label column
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


def _read_arrays(path, has_label):
    """Every array a reader returns for ``path``: xyz, labels, scores, classes."""
    if path.suffix == ".ply":
        cloud, scores, classes = read_ply(path)
        return cloud.xyz, cloud.labels, scores, classes
    cloud = read_xyz(path, has_label=has_label)
    return cloud.xyz, cloud.labels, None, None


def _fail(*args, **kwargs):
    raise ValueError("forced failure")


class TestReaderFastPath:
    """Rows are parsed by np.loadtxt; the line-numbered reader is the
    fallback, and both must give the same bits."""

    @pytest.mark.parametrize("name, text, has_label", _READER_CASES)
    def test_fallback_gives_the_same_bits(
        self, tmp_path, monkeypatch, name, text, has_label
    ):
        path = tmp_path / name
        path.write_bytes(text.encode())
        fast = _read_arrays(path, has_label)
        monkeypatch.setattr(otcd.io.np, "loadtxt", _fail)
        slow = _read_arrays(path, has_label)
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
        assert read_xyz(tmp_path / "labeled.xyz", has_label=True).labels.tolist() == [
            0, 2, 1
        ]
        _, scores, classes = read_ply(tmp_path / "n_vertices.ply")
        assert classes.tolist() == [1, 2, 0] and math.isinf(scores[0])

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


class TestBoundingBox:
    def test_single_point(self):
        box = bounding_box(PointCloud(xyz=np.array([[0.0, 0.0, 0.0]])))
        np.testing.assert_array_equal(box.min, box.max)

    def test_componentwise(self):
        box = bounding_box(PointCloud(xyz=np.array([[0, 0, 0], [1, -1, 2]])))
        np.testing.assert_array_equal(box.min, [0, -1, 0])
        np.testing.assert_array_equal(box.max, [1, 0, 2])

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            bounding_box(PointCloud(xyz=np.empty((0, 3))))

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))


class TestPointCloudValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            PointCloud(xyz=np.zeros((3, 3)), labels=np.array([0]))

    def test_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            PointCloud(xyz=np.zeros((1, 3)), labels=np.array([5]))

    def test_nonfinite_coordinates(self):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(xyz=np.array([[0.0, 0.0, np.inf]]))
