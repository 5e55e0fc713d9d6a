"""ASCII point-cloud I/O: labeled XYZ text files and scored PLY files.

Formats handled here:

* XYZ: one point per line, ``x y z [label]``, ``#`` starts a comment line;
  a 4th field in the first data row makes the file labelled.
* PLY: ASCII 1.0, a single ``vertex`` element with at least ``x y z``
  properties, plus optional ``change_score`` (float) and ``change_class``
  (uchar) written by :func:`write_ply_scored`.

Readers return fresh arrays and never modify their inputs; writers create or
overwrite the file they are given. The only module state is the writers'
read-only glyph table, built at first use.
"""

from __future__ import annotations

import functools
import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

CLASS_UNCHANGED = 0
CLASS_NEW = 1
CLASS_DEMOLISHED = 2
VALID_CLASSES = (CLASS_UNCHANGED, CLASS_NEW, CLASS_DEMOLISHED)

# Coordinates are stored as float64 and emitted as %.12g, scores as %.9g;
# these keep ASCII round-trips lossless for survey-scale data.
_COORD_DIGITS = 12
_SCORE_DIGITS = 9

# rows that _write_rows formats at once; bounds its temporary arrays
_WRITE_BLOCK_ROWS = 16384


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
            labels = np.asarray(self.labels)
            if labels.shape != (len(self.xyz),):
                raise ValueError(
                    f"labels length {labels.shape} does not match "
                    f"{len(self.xyz)} points"
                )
            self.labels = _check_classes(labels, "labels")

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
    with open(path, "wb") as fh:
        _write_rows(fh, cloud.xyz.T, [_COORD_DIGITS] * 3, cloud.labels)


def write_ply_scored(
    path: str | os.PathLike,
    cloud: PointCloud,
    scores: np.ndarray,
    classes: np.ndarray,
) -> None:
    """Emit an ASCII PLY with per-vertex change score and class.

    Vertex properties: ``x y z`` (double), ``change_score`` (float, may be
    ``inf`` for unreached points, never NaN), ``change_class`` (uchar in
    {0, 1, 2}; a value that is not one of them, such as 2.7, is an error).
    Output round-trips through :func:`read_ply`.
    """
    scores = np.asarray(scores, dtype=np.float64)
    classes = np.asarray(classes)
    n = len(cloud)
    if scores.shape != (n,) or classes.shape != (n,):
        raise ValueError(
            f"scores {scores.shape} and classes {classes.shape} must both "
            f"have length {n}"
        )
    classes = _check_classes(classes, "classes")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN; inf marks an unreached point")
    with open(path, "wb") as fh:
        fh.write(
            b"ply\n"
            b"format ascii 1.0\n"
            b"element vertex %d\n"
            b"property double x\n"
            b"property double y\n"
            b"property double z\n"
            b"property float change_score\n"
            b"property uchar change_class\n"
            b"end_header\n" % n
        )
        _write_rows(
            fh,
            [*cloud.xyz.T, scores],
            [_COORD_DIGITS] * 3 + [_SCORE_DIGITS],
            classes,
        )


def _check_classes(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` as int64 class ids; raise ValueError unless every value is
    a class id from VALID_CLASSES (a non-integer such as 2.7 is not one)."""
    bad = ~np.isin(values, VALID_CLASSES)
    if bad.any():
        raise ValueError(
            f"{name} must be in {VALID_CLASSES}; found {values[bad][0]}"
        )
    return values.astype(np.int64, copy=False)


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


def _write_rows(
    fh, columns: Sequence[np.ndarray], digits: list[int], classes: np.ndarray | None
) -> None:
    """Write one row per point to the binary file ``fh``: each float column
    ``columns[i]`` as ``%.{digits[i]}g``, then the class id as ``%d`` when
    ``classes`` is given, joined by spaces.

    The bytes equal ``np.savetxt`` of the stacked columns with those
    formats. Floats must not be NaN, and class ids must be in VALID_CLASSES.
    Each block of ``_WRITE_BLOCK_ROWS`` rows is laid out as a frame of
    4-byte glyph slots, one row of slots per point (see :class:`_GColumn`),
    and written with the frame's NUL padding removed.
    """
    glyphs = _glyphs()
    n = len(columns[0])
    for start in range(0, n, _WRITE_BLOCK_ROWS):
        block = slice(start, start + _WRITE_BLOCK_ROWS)
        fields = [_GColumn(column[block], d) for column, d in zip(columns, digits)]
        # slot-major, so that every gather writes one contiguous row
        slots = np.empty(
            (sum(f.n_slots for f in fields) + 1, len(fields[0].x)), np.uint32
        )
        first = 0
        for i, field in enumerate(fields):
            field.fill(slots[first : first + field.n_slots], glyphs, sep=i > 0)
            first += field.n_slots
        if classes is None:
            slots[first] = glyphs[_NEWLINE]
        else:
            np.take(glyphs, classes[block] + _CLASS, out=slots[first], mode="clip")
        del fields
        frame = bytearray(slots.nbytes)
        np.frombuffer(frame, np.uint32).reshape(slots.shape[::-1])[...] = slots.T
        del slots
        fh.write(frame.translate(None, b"\0"))


# Regions of the glyph table (see _glyphs). Each 4-digit group 0000-9999 in
# four spellings: as printed, with leading zeros blanked, with leading zeros
# blanked but the units digit kept, and with trailing zeros blanked. Then
# each 3-digit group 000-999 after the point, as printed and with trailing
# zeros blanked, where a blank group drops the point too.
_FULL, _LEAD, _UNIT, _TRAIL, _POINT, _POINT_TRAIL = (
    0, 10_000, 20_000, 30_000, 40_000, 41_000
)
# then single glyphs: a sign slot is _SIGN + 2·(separator) + (negative), a
# class slot _CLASS + class id
_INF, _NEWLINE, _SIGN, _CLASS = 42_000, 42_001, 42_002, 42_006
_SINGLE_GLYPHS = (
    b"\0inf", b"\n", b"", b"-", b" ", b" -", b" 0\n", b" 1\n", b" 2\n"
)

# exact powers of ten; a float64 holds 10**k exactly up to k = 22
_POW10 = np.array([10**k for k in range(17)], dtype=np.float64)
_POW10_INT = np.array([10**k for k in range(17)], dtype=np.int64)


@functools.cache
def _glyphs() -> np.ndarray:
    """The glyph table of :func:`_write_rows`: up to 4 ASCII bytes per
    uint32 entry, padded with NULs."""
    group = np.arange(10_000, dtype=np.int16)
    decimals = np.stack(
        [group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1
    ).astype(np.uint8)
    chars = decimals + np.uint8(ord("0"))
    leading = np.cumsum(decimals, axis=1) == 0
    units = leading.copy()
    units[:, 3] = False
    trailing = np.cumsum(decimals[:, ::-1], axis=1)[:, ::-1] == 0
    table = np.zeros((_CLASS + len(VALID_CLASSES), 4), np.uint8)
    for start, blank in (
        (_FULL, False), (_LEAD, leading), (_UNIT, units), (_TRAIL, trailing)
    ):
        table[start : start + 10_000] = np.where(blank, 0, chars)
    point = chars[:1000].copy()
    point[:, 0] = ord(".")
    table[_POINT : _POINT + 1000] = point
    table[_POINT_TRAIL : _POINT_TRAIL + 1000] = np.where(trailing[:1000], 0, point)
    for i, glyph in enumerate(_SINGLE_GLYPHS):
        table[_INF + i, : len(glyph)] = np.frombuffer(glyph, np.uint8)
    glyphs = table.view(np.uint32).ravel()
    glyphs.flags.writeable = False
    return glyphs


class _GColumn:
    """One block of a float column printed as ``%.{digits}g``, split into
    the glyph slots of :func:`_write_rows`.

    A field takes ``n_slots`` slots: the separator and sign; the integer
    part, right-aligned in ``n_int`` 4-digit groups; the point and the
    fraction, left-aligned in ``n_frac`` slots, the first of them the point
    and 3 digits, the others 4 digits each. Leading zeros of the integer
    part (but its units digit), trailing zeros of the fraction, and the
    point of a value without a fraction are NUL. The counts are the fewest
    that hold every value of the block.

    ``%g`` prints a value of decimal exponent X in [-4, digits - 1] in fixed
    point, with k = digits - 1 - X fraction digits and trailing zeros
    dropped. Its digits are rint(m) for m = |x|·10^k, one correctly rounded
    product by an exact power of ten. Python's ``%`` formats a value instead,
    one at a time, and its text fills the field: when m lies within
    10^digits·2^-51 of a rounding tie (the product's rounding may have
    crossed it); when m lies outside [10^(digits-1), 10^digits) or rounds
    up to 10^digits (log10 missed the decade, or the digits carry into the
    next one); and when X is outside that range, where ``%g`` uses the
    exponent form. ±0 and ±inf are literals.
    """

    def __init__(self, x: np.ndarray, digits: int):
        self.x = x
        a = np.abs(x)
        inf = np.isinf(a)
        self.inf = np.flatnonzero(inf)
        nonzero = (a != 0) & ~inf
        a = np.where(nonzero, a, 1.0)
        k = (digits - 1) - np.floor(np.log10(a))
        fixed = nonzero & (k >= 0) & (k <= digits + 3)
        k = np.where(fixed, k, 0).astype(np.intp)
        scale = _POW10[k]
        m = a * scale
        mantissa = np.rint(m)
        fixed &= np.abs(m - mantissa) <= 0.5 - 10.0**digits * 2.0**-51
        fixed &= (m >= _POW10[digits - 1]) & (mantissa < _POW10[digits])
        self.fallback = np.flatnonzero(nonzero & ~fixed)
        mantissa *= fixed
        scale[~fixed] = 1.0
        self.k = k * fixed
        # exact: a quotient of integers below 10^digits by a power of ten
        # lies at least 10^-digits from the next integer
        integer = np.floor(mantissa / scale)
        self.integer = integer.astype(np.int64)
        self.fraction = (mantissa - integer * scale).astype(np.int64)

        self.texts = [b"%.*g" % (digits, v) for v in x[self.fallback].tolist()]
        self.n_int = -(-len(str(self.integer.max(initial=0))) // 4)
        # the point slot holds 3 fraction digits, the later ones 4 each
        self.n_frac = -(-(int(self.k.max(initial=0)) + 1) // 4)
        # a text must fit between the separator byte and the end of the field
        longest = max(map(len, self.texts), default=0)
        self.n_frac = max(self.n_frac, -(-(longest + 1) // 4) - 1 - self.n_int)
        self.n_slots = 1 + self.n_int + self.n_frac

    def fill(self, slots: np.ndarray, glyphs: np.ndarray, sep: bool) -> None:
        """Write the field's glyphs into its ``n_slots`` rows of the
        slot-major frame; ``sep`` puts a space before the value."""
        n_int = self.n_int
        take = functools.partial(np.take, glyphs, mode="clip")
        take(np.signbit(self.x) + (_SIGN + 2 * sep), out=slots[0])
        rest, groups = self.integer, []
        for _ in range(n_int - 1):
            rest, group = np.divmod(rest, 10_000)
            groups.append(group)
        groups.append(rest)
        leading = np.ones(len(self.x), bool)  # no digit printed yet
        for row, group in enumerate(reversed(groups), start=1):
            if row < n_int:
                take(group + _LEAD * leading, out=slots[row])
                leading &= group == 0
            else:
                index = group + _UNIT * leading
                index[self.inf] = _INF
                take(index, out=slots[row])
        rest = self.fraction * _POW10_INT[4 * self.n_frac - 1 - self.k]
        trailing = np.ones(len(self.x), bool)  # only zeros after this group
        for row in range(self.n_slots - 1, n_int + 1, -1):
            rest, group = np.divmod(rest, 10_000)
            take(group + _TRAIL * trailing, out=slots[row])
            trailing &= group == 0
        take(rest + np.where(trailing, _POINT_TRAIL, _POINT), out=slots[n_int + 1])
        if self.texts:
            width = 4 * self.n_slots
            head = b" " if sep else b"\0"
            text = b"".join((head + t).ljust(width, b"\0") for t in self.texts)
            slots[:, self.fallback] = np.frombuffer(text, np.uint32).reshape(
                -1, self.n_slots
            ).T


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
