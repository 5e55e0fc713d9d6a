"""ASCII point-cloud I/O: labeled XYZ text files and scored PLY files.

Formats handled here:

* XYZ: one point per line, ``x y z [label]``, ``#`` starts a comment line;
  a 4th field in the first data row makes the file labelled.
* PLY: ASCII 1.0, a single ``vertex`` element with at least ``x y z``
  properties, plus optional ``change_score`` (float) and ``change_class``
  (uchar) written by :func:`write_ply_scored`.

Readers return fresh arrays and never modify their inputs; writers create or
overwrite the file they are given. No module state is shared.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

CLASS_UNCHANGED = 0
CLASS_NEW = 1
CLASS_DEMOLISHED = 2
VALID_CLASSES = (CLASS_UNCHANGED, CLASS_NEW, CLASS_DEMOLISHED)

# Coordinates are stored as float64 and emitted with at least 6 significant
# digits; these formats keep ASCII round-trips lossless for survey-scale data.
_COORD_FMT = "%.12g"
_SCORE_FMT = "%.9g"

# rows that _write_rows formats with one `%`; bounds its temporary strings
_WRITE_BLOCK_ROWS = 1024


class PointCloudFormatError(ValueError):
    """A point-cloud file violates the declared on-disk format."""


@dataclass
class PointCloud:
    """An ordered set of 3D points with optional per-point class labels.

    Attributes:
        xyz: (n, 3) float64 coordinates in meters.
        labels: optional (n,) integer class ids in {0, 1, 2}
            (unchanged / new / demolished), normally present only on the
            later epoch of a pair.
    """

    xyz: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.xyz = np.asarray(self.xyz, dtype=np.float64)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError(f"xyz must have shape (n, 3), got {self.xyz.shape}")
        if not np.isfinite(self.xyz).all():
            raise ValueError("point coordinates must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self.xyz),):
                raise ValueError(
                    f"labels length {self.labels.shape} does not match "
                    f"{len(self.xyz)} points"
                )
            bad = ~np.isin(self.labels, VALID_CLASSES)
            if bad.any():
                raise ValueError(
                    f"labels must be in {VALID_CLASSES}; "
                    f"found {self.labels[bad][0]}"
                )

    def __len__(self) -> int:
        return len(self.xyz)


def read_xyz(path: str | os.PathLike) -> PointCloud:
    """Load an ASCII XYZ file; the first data row decides the label column.

    A first row of 4 whitespace-separated numeric fields makes the file
    labelled (``x y z label``), and every row must then carry 4 fields; a
    first row of any other width means ``x y z``, 3 fields per row. The
    cloud's ``labels`` is None for a file without the label column.

    Raises:
        PointCloudFormatError: malformed line, non-finite coordinate, or
            out-of-range label, always with the 1-based line number; also
            when the file contains no points.
    """
    with _open_text(path) as fh:
        table = _read_table(
            path,
            fh,
            1,
            (3, 4),
            comments=True,
            xyz_cols=[0, 1, 2],
            class_col=(3, "label"),
        )
    labels = table[:, 3].astype(np.int64) if table.shape[1] == 4 else None
    return PointCloud(np.ascontiguousarray(table[:, :3]), labels)


def write_xyz(path: str | os.PathLike, cloud: PointCloud) -> None:
    """Write ``x y z [label]`` lines; the label column appears when present."""
    columns, fmt = [cloud.xyz], [_COORD_FMT] * 3
    if cloud.labels is not None:
        columns.append(cloud.labels)
        fmt.append("%d")
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, np.column_stack(columns), fmt)


def write_ply_scored(
    path: str | os.PathLike,
    cloud: PointCloud,
    scores: np.ndarray,
    classes: np.ndarray,
) -> None:
    """Emit an ASCII PLY with per-vertex change score and class.

    Vertex properties: ``x y z`` (double), ``change_score`` (float, may be
    ``inf`` for unreached points), ``change_class`` (uchar in {0, 1, 2}).
    Output round-trips through :func:`read_ply`.
    """
    scores = np.asarray(scores, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    n = len(cloud)
    if scores.shape != (n,) or classes.shape != (n,):
        raise ValueError(
            f"scores {scores.shape} and classes {classes.shape} must both "
            f"have length {n}"
        )
    if not np.isin(classes, VALID_CLASSES).all():
        raise ValueError(f"classes must be in {VALID_CLASSES}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\n")
        fh.write("format ascii 1.0\n")
        fh.write(f"element vertex {n}\n")
        fh.write("property double x\n")
        fh.write("property double y\n")
        fh.write("property double z\n")
        fh.write("property float change_score\n")
        fh.write("property uchar change_class\n")
        fh.write("end_header\n")
        _write_rows(
            fh,
            np.column_stack([cloud.xyz, scores, classes]),
            [_COORD_FMT] * 3 + [_SCORE_FMT, "%d"],
        )


def read_ply(
    path: str | os.PathLike,
) -> tuple[PointCloud, np.ndarray | None, np.ndarray | None]:
    """Read an ASCII PLY vertex cloud.

    Returns the cloud plus the ``change_score`` / ``change_class`` columns
    when the file carries them, else ``None`` for each.

    Raises:
        PointCloudFormatError: missing/invalid header, binary encoding,
            non-vertex elements, a malformed data row, or a vertex count
            that does not match the data section; every error on a header
            or data line names its 1-based line number.
    """
    with _open_text(path) as fh:
        first = fh.readline().strip()
        if first != "ply":
            raise PointCloudFormatError(f"{path}: missing 'ply' header")
        n_vertices: int | None = None
        prop_names: list[str] = []
        saw_format = False
        in_vertex_element = False
        # readline, not iteration, so that fh.tell() works after the header
        for lineno, line in enumerate(iter(fh.readline, ""), start=2):
            tokens = line.split()
            if not tokens:
                continue
            keyword = tokens[0]
            if keyword == "comment":
                continue
            if keyword == "format":
                if tokens[1:] != ["ascii", "1.0"]:
                    raise PointCloudFormatError(
                        f"{path}:{lineno}: only 'format ascii 1.0' is supported, "
                        f"got {' '.join(tokens[1:])!r}"
                    )
                saw_format = True
            elif keyword == "element":
                if tokens[1:2] != ["vertex"] or n_vertices is not None:
                    raise PointCloudFormatError(
                        f"{path}:{lineno}: only a single 'vertex' element is supported"
                    )
                count = tokens[2] if len(tokens) == 3 else ""
                if not (count.isascii() and count.isdigit()):
                    raise PointCloudFormatError(
                        f"{path}:{lineno}: 'element vertex' needs one non-negative "
                        f"integer count, got {' '.join(tokens[2:])!r}"
                    )
                n_vertices = int(count)
                in_vertex_element = True
            elif keyword == "property":
                if not in_vertex_element:
                    raise PointCloudFormatError(
                        f"{path}:{lineno}: property declared outside the vertex element"
                    )
                prop_names.append(tokens[-1])
            elif keyword == "end_header":
                break
            else:
                raise PointCloudFormatError(
                    f"{path}:{lineno}: unsupported header keyword {keyword!r}"
                )
        else:
            raise PointCloudFormatError(f"{path}: unterminated header")
        if not saw_format or n_vertices is None:
            raise PointCloudFormatError(f"{path}: incomplete header")
        for name in ("x", "y", "z"):
            if name not in prop_names:
                raise PointCloudFormatError(f"{path}: missing property {name!r}")
        col = {name: i for i, name in enumerate(prop_names)}
        xyz_cols = [col["x"], col["y"], col["z"]]
        has_classes = "change_class" in col
        table = _read_table(
            path,
            fh,
            lineno + 1,
            (len(prop_names),),
            comments=False,
            xyz_cols=xyz_cols,
            class_col=(col["change_class"], "change_class") if has_classes else None,
            n_rows=n_vertices,
        )

    xyz = np.ascontiguousarray(table[:, xyz_cols])
    scores = table[:, col["change_score"]] if "change_score" in col else None
    classes = table[:, col["change_class"]].astype(np.int64) if has_classes else None
    return PointCloud(xyz), scores, classes


def _open_text(path: str | os.PathLike):
    # bytes that are not UTF-8 decode to lone surrogates, which no number or
    # header keyword accepts, so they end in a line-numbered format error
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _read_table(
    path: str | os.PathLike,
    fh,
    first_lineno: int,
    widths: tuple[int, ...],
    comments: bool,
    xyz_cols: list[int],
    class_col: tuple[int, str] | None,
    n_rows: int | None = None,
) -> np.ndarray:
    """Parse and check the data rows left in ``fh``; returns the (n, width)
    float64 table.

    The first data row fixes the width of every row: its own field count
    when that is one of ``widths``, else ``widths[0]``. Each row needs
    finite ``xyz_cols`` and, when ``class_col`` is a ``(column, name)`` pair
    and the table has that column, a class id from VALID_CLASSES in it.
    ``n_rows`` is the row count a PLY header declares; without it at least
    one row is needed.

    numpy's C reader parses the rows first. Anything it does not take, or a
    table that fails a check, is re-read from the same position by
    :func:`_read_rows`, which raises the line-numbered error; for rows both
    readers take, the values are the same bits.
    """
    # a pipe cannot be read twice, so it goes to the line-numbered reader only
    start = fh.tell() if fh.seekable() else None
    if start is not None:
        table = _c_rows(fh, widths)
        if (
            table is not None
            and n_rows in (None, len(table))
            and not any(
                bad.any() for bad, _, _ in _row_faults(table, xyz_cols, class_col)
            )
        ):
            return table
        fh.seek(start)
    table, linenos = _read_rows(path, fh, first_lineno, widths, comments)
    if n_rows is None and not len(table):
        raise PointCloudFormatError(f"{path}: no points found")
    if n_rows is not None and len(table) != n_rows:
        raise PointCloudFormatError(
            f"{path}: header declares {n_rows} vertices, "
            f"found {len(table)} data rows"
        )
    for bad, values, what in _row_faults(table, xyz_cols, class_col):
        _reject_rows(path, bad, linenos, values, what)
    return table


def _c_rows(fh, widths: tuple[int, ...]) -> np.ndarray | None:
    """The rows left in ``fh`` as numpy's C reader parses them, or None when
    it does not take them as one (n >= 1, width) table with a width from
    ``widths``."""
    # np.loadtxt warns on input without rows; step over leading blank lines
    # and leave input with no fields at all to the line-numbered reader
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return None
        if line.split():
            break
    fh.seek(start)
    try:
        # the handle, not fh.read(): a str copy of the file costs more time
        # and memory than the parse
        table = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape[1] in widths else None


def _read_rows(
    path: str | os.PathLike,
    lines: Iterable[str],
    first_lineno: int,
    widths: tuple[int, ...],
    comments: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Parse whitespace-separated numeric rows of one width.

    The first row fixes the width: its field count when that is one of
    ``widths``, else ``widths[0]``, which is also the width of a table
    without rows. The lines are read once, in order, so ``lines`` may be a
    pipe. Blank lines are skipped, and so are lines starting with ``#`` when
    ``comments``. Returns the (n, width) float64 table and the 1-based file
    line of each row; ``lines`` starts at file line ``first_lineno``.
    """
    values = array("d")
    linenos = array("q")
    width = None
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.split()
        if not fields or (comments and fields[0].startswith("#")):
            continue
        if width is None:
            width = len(fields) if len(fields) in widths else widths[0]
        if len(fields) != width:
            raise PointCloudFormatError(
                f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
            )
        try:
            values.extend(map(float, fields))
        except ValueError as exc:
            raise PointCloudFormatError(
                f"{path}:{lineno}: non-numeric value: {exc}"
            ) from None
        linenos.append(lineno)
    table = np.frombuffer(values, dtype=np.float64).reshape(-1, width or widths[0])
    return table, np.frombuffer(linenos, dtype=np.int64)


def _write_rows(fh, table: np.ndarray, fmt: list[str]) -> None:
    """Write each row of ``table`` as its ``fmt`` fields joined by spaces.

    The bytes equal ``np.savetxt(fh, table, fmt=fmt)``; a block of
    ``_WRITE_BLOCK_ROWS`` rows is formatted with one ``%`` instead of one
    per row.
    """
    row_fmt = " ".join(fmt) + "\n"
    for start in range(0, len(table), _WRITE_BLOCK_ROWS):
        block = table[start : start + _WRITE_BLOCK_ROWS]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _reject_rows(path, bad: np.ndarray, linenos, values, what: str) -> None:
    """Raise for the first row flagged in ``bad``, naming its file line."""
    if bad.any():
        row = int(bad.argmax())
        raise PointCloudFormatError(
            f"{path}:{linenos[row]}: {what}: {values[row].tolist()}"
        )


def _row_faults(
    table: np.ndarray, xyz_cols: list[int], class_col: tuple[int, str] | None
) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """``(bad_rows, values, what)`` for each per-row check of
    :func:`_read_table`, in the order their errors are raised."""
    xyz = table[:, xyz_cols]
    faults = [(~np.isfinite(xyz).all(axis=1), xyz, "non-finite coordinate")]
    if class_col is not None and class_col[0] < table.shape[1]:
        col, name = class_col
        values = table[:, col]
        faults.append(
            (
                ~np.isin(values, VALID_CLASSES),
                values,
                f"{name} is not one of {VALID_CLASSES}",
            )
        )
    return faults
