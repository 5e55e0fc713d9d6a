"""Quadtree splitting of a bi-temporal pair into co-located spatial chunks.

Dense OT is quadratic in chunk size, so a cloud pair is recursively split
over the joint XY bounding box: a cell divides into 4 equal quadrants at its
midpoint whenever either epoch's point count exceeds the cap. Airborne
scenes are thin in z, so the tree is 2D. Later-epoch (target) points
partition exactly across chunks; earlier-epoch (source) points partition too
unless a positive halo margin lets border mass participate in neighboring
chunks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .io import PointCloud

logger = logging.getLogger(__name__)

# beyond this depth the cell extent is below float64 resolution for any
# realistic coordinate range; treated as a stalled split
_MAX_DEPTH = 96


class ChunkingError(ValueError):
    """The cloud pair cannot be split into chunks: an epoch is empty, or
    coincident points exceed the configured point cap."""


@dataclass(frozen=True)
class ChunkingConfig:
    """``point_cap`` bounds a chunk's targets and the sources of its own
    cell; ``halo_margin`` (meters) expands each chunk's source-selection
    region in XY. With a positive halo the grown cell's sources can exceed
    the cap, which ``build_chunks`` logs as a warning."""

    point_cap: int = 30_000
    halo_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.point_cap < 1:
            raise ValueError(f"point_cap must be >= 1, got {self.point_cap}")
        if not 0 <= self.halo_margin < np.inf:
            raise ValueError(
                f"halo_margin must be >= 0 and finite, got {self.halo_margin}"
            )


@dataclass(frozen=True)
class ChunkPair:
    """Co-located index subsets of the two epochs, the unit of OT work."""

    source_indices: np.ndarray
    target_indices: np.ndarray
    # (x0, y0, x1, y1): the closed quadtree cell that holds the chunk's targets
    region: tuple[float, float, float, float]
    chunk_id: int

    @property
    def source_empty(self) -> bool:
        """True when no earlier-epoch point falls in this chunk's region;
        every target here counts as unreached downstream."""
        return len(self.source_indices) == 0


def build_chunks(
    pc0: PointCloud, pc1: PointCloud, cfg: ChunkingConfig
) -> list[ChunkPair]:
    """Split a cloud pair into chunks respecting ``cfg.point_cap``.

    Quadrant assignment is deterministic: a point exactly on a splitting
    line goes to the lower-index (left/bottom) quadrant. Leaves with no
    target points are dropped; leaves with targets but no sources are kept
    (genuinely new construction in empty terrain is a valid scene). With a
    positive halo margin a chunk's sources are the earlier-epoch points in
    its closed cell grown by the margin, in ascending index order.

    Raises:
        ChunkingError: an empty input cloud, or more than ``point_cap``
            coincident points make the split stall (the offending coordinate
            is named).
    """
    if len(pc0) == 0 or len(pc1) == 0:
        raise ChunkingError("both epochs must be non-empty")
    xy0 = pc0.xyz[:, :2]
    xy1 = pc1.xyz[:, :2]
    # per-column 1-D reductions: axis-0 reductions of the 2-wide view are
    # strided, 33 ms against 2.2 ms on 0.4M points (2-core Xeon)
    lo = [min(xy0[:, k].min(), xy1[:, k].min()) for k in (0, 1)]
    hi = [max(xy0[:, k].max(), xy1[:, k].max()) for k in (0, 1)]
    h = cfg.halo_margin
    chunks: list[ChunkPair] = []

    def split(rect, i0, i1, halo, depth):
        # halo: the sources inside the closed cell grown by h, ascending
        if max(len(i0), len(i1)) <= cfg.point_cap:
            if len(i1):
                src = halo if h > 0 else i0
                chunks.append(ChunkPair(src, i1, rect, chunk_id=len(chunks)))
            return
        x0, y0, x1, y1 = rect
        mid_x = 0.5 * (x0 + x1)
        mid_y = 0.5 * (y0 + y1)
        # quadrant index = (x > mid_x) + 2*(y > mid_y); boundary ties land
        # in the lower-index quadrant
        q0 = (xy0[i0, 0] > mid_x).astype(np.int8) + 2 * (xy0[i0, 1] > mid_y)
        q1 = (xy1[i1, 0] > mid_x).astype(np.int8) + 2 * (xy1[i1, 1] > mid_y)
        children = [(i0[q0 == q], i1[q1 == q]) for q in range(4)]
        # a split can only stall where it leaves every point in one quadrant
        # (or at the depth limit), so only there is the node's span checked
        if depth >= _MAX_DEPTH or any(
            len(c0) == len(i0) and len(c1) == len(i1) for c0, c1 in children
        ):
            _check_splittable(xy0[i0], xy1[i1], cfg.point_cap, depth)
        rects = (
            (x0, y0, mid_x, mid_y),
            (mid_x, y0, x1, mid_y),
            (x0, mid_y, mid_x, y1),
            (mid_x, mid_y, x1, y1),
        )
        # a float midpoint lies between its ends, so a child's grown cell
        # lies inside its parent's and its halo sources are among the
        # parent's; a midpoint that overflows to ±inf lies beyond the root
        # cell, where there are no points
        x, y = xy0[halo, 0], xy0[halo, 1]
        for (c0, c1), (a0, b0, a1, b1) in zip(children, rects):
            inside = (x >= a0 - h) & (x <= a1 + h) & (y >= b0 - h) & (y <= b1 + h)
            split((a0, b0, a1, b1), c0, c1, halo[inside], depth + 1)

    every = np.arange(len(pc0))
    root = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
    # without a halo every cell's halo set is empty and costs nothing
    split(root, every, np.arange(len(pc1)), every if h > 0 else every[:0], 0)
    # without a halo a leaf's sources are within the cap
    halo_overflow = sum(len(c.source_indices) > cfg.point_cap for c in chunks)
    if halo_overflow:
        logger.warning(
            "halo margin %.3g pushed %d chunk(s) past the %d-point source cap",
            cfg.halo_margin,
            halo_overflow,
            cfg.point_cap,
        )
    return chunks


def _check_splittable(
    pts0: np.ndarray, pts1: np.ndarray, cap: int, depth: int
) -> None:
    stacked = [p for p in (pts0, pts1) if len(p)]
    span_lo = np.min([p.min(axis=0) for p in stacked], axis=0)
    span_hi = np.max([p.max(axis=0) for p in stacked], axis=0)
    if (span_lo == span_hi).all():
        raise ChunkingError(
            f"more than {cap} coincident points at xy="
            f"({span_lo[0]:.6g}, {span_lo[1]:.6g}); split cannot progress"
        )
    if depth >= _MAX_DEPTH:
        raise ChunkingError(
            f"quadtree split stalled at depth {depth} near xy="
            f"({span_lo[0]:.6g}, {span_lo[1]:.6g}); points closer than "
            "float resolution"
        )


def chunk_stats(chunks: list[ChunkPair]) -> dict:
    """Order statistics of chunk sizes per epoch, as ``{"count", "src",
    "tgt"}`` with ``{"min", "median", "max"}`` per epoch. Raises on an empty
    list."""
    if not chunks:
        raise ValueError("no chunks to summarize")
    src = [len(c.source_indices) for c in chunks]
    tgt = [len(c.target_indices) for c in chunks]
    return {
        "count": len(chunks),
        "src": {"min": min(src), "median": float(np.median(src)), "max": max(src)},
        "tgt": {"min": min(tgt), "median": float(np.median(tgt)), "max": max(tgt)},
    }
