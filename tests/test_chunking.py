import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcd.chunking import (
    ChunkingConfig,
    ChunkingError,
    ChunkPair,
    build_chunks,
    chunk_stats,
)
from otcd.detection import merge_scores
from otcd.io import PointCloud


def _cloud(xy, z=0.0):
    xy = np.asarray(xy, dtype=float)
    return PointCloud(xyz=np.column_stack([xy, np.full(len(xy), z)]))


def _random_cloud(rng, n, extent=100.0):
    return PointCloud(
        xyz=np.column_stack(
            [
                rng.uniform(0, extent, n),
                rng.uniform(0, extent, n),
                rng.uniform(0, 5, n),
            ]
        )
    )


class TestBuildChunks:
    def test_small_input_single_chunk(self):
        rng = np.random.default_rng(0)
        pc0 = _random_cloud(rng, 10)
        pc1 = _random_cloud(rng, 10)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=30_000))
        assert len(chunks) == 1
        assert sorted(chunks[0].source_indices) == list(range(10))
        assert sorted(chunks[0].target_indices) == list(range(10))

    def test_four_corner_clusters_split_once(self):
        # 4 clusters of 10 points each at the corners of a square; cap 15
        # forces exactly one split of the root cell, giving one leaf per
        # cluster with all 10+10 points (worked out by hand: 40 > 15 at the
        # root, 10 <= 15 in each quadrant).
        rng = np.random.default_rng(1)
        centers = [(2.0, 2.0), (8.0, 2.0), (2.0, 8.0), (8.0, 8.0)]
        xy = np.vstack(
            [np.array(c) + rng.uniform(-0.5, 0.5, (10, 2)) for c in centers]
        )
        pc0 = _cloud(xy)
        pc1 = _cloud(xy)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=15))
        assert len(chunks) == 4
        for chunk in chunks:
            assert len(chunk.source_indices) == 10
            assert len(chunk.target_indices) == 10
            np.testing.assert_array_equal(
                chunk.source_indices, chunk.target_indices
            )

    def test_targets_partition_exactly(self):
        rng = np.random.default_rng(2)
        pc0 = _random_cloud(rng, 1000)
        pc1 = _random_cloud(rng, 1000)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=100))
        seen = np.concatenate([c.target_indices for c in chunks])
        assert len(seen) == 1000
        assert set(seen.tolist()) == set(range(1000))

    def test_sources_partition_without_halo(self):
        rng = np.random.default_rng(3)
        pc0 = _random_cloud(rng, 700)
        pc1 = _random_cloud(rng, 500)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=64))
        seen = np.concatenate([c.source_indices for c in chunks])
        # empty-target leaves are dropped, so sources may be missing, but
        # never duplicated
        assert len(seen) == len(set(seen.tolist()))

    def test_cap_respected_on_both_epochs(self):
        rng = np.random.default_rng(4)
        pc0 = _random_cloud(rng, 2000)
        pc1 = _random_cloud(rng, 300)
        for chunk in build_chunks(pc0, pc1, ChunkingConfig(point_cap=150)):
            assert len(chunk.source_indices) <= 150
            assert len(chunk.target_indices) <= 150

    def test_targets_inside_region(self):
        rng = np.random.default_rng(5)
        pc0 = _random_cloud(rng, 400)
        pc1 = _random_cloud(rng, 400)
        for chunk in build_chunks(pc0, pc1, ChunkingConfig(point_cap=50)):
            x0, y0, x1, y1 = chunk.region
            xy = pc1.xyz[chunk.target_indices, :2]
            assert ((xy >= (x0, y0)) & (xy <= (x1, y1))).all()

    def test_halo_grows_sources(self):
        rng = np.random.default_rng(6)
        pc0 = _random_cloud(rng, 800)
        pc1 = _random_cloud(rng, 800)
        plain = build_chunks(pc0, pc1, ChunkingConfig(point_cap=100))
        haloed = build_chunks(
            pc0, pc1, ChunkingConfig(point_cap=100, halo_margin=10.0)
        )
        assert len(plain) == len(haloed)
        grew = 0
        xy = pc0.xyz[:, :2]
        for p, h in zip(plain, haloed):
            np.testing.assert_array_equal(p.target_indices, h.target_indices)
            assert h.region == p.region
            assert set(p.source_indices) <= set(h.source_indices)
            # exactly the sources in the grown cell, in ascending index order
            x0, y0, x1, y1 = p.region
            inside = (xy >= (x0 - 10.0, y0 - 10.0)) & (xy <= (x1 + 10.0, y1 + 10.0))
            np.testing.assert_array_equal(
                h.source_indices, np.flatnonzero(inside.all(axis=1))
            )
            grew += len(h.source_indices) > len(p.source_indices)
        assert grew > 0

    def test_halo_edge_is_closed(self):
        # one target per corner and cap 3: a single split at (10, 10) gives
        # the lower-left chunk the cell (0, 0, 10, 10)
        pc1 = _cloud([[0, 0], [20, 0], [0, 20], [20, 20]])
        halo = 0.3
        edge = 10.0 + halo
        beyond = np.nextafter(edge, np.inf)
        # sources in the neighbouring cells, on and one ulp past the grown
        # edge in x and in y; the lower-left chunk's own source is index 3
        pc0 = _cloud([[beyond, 5], [edge, 5], [5, beyond], [5, 5], [5, edge]])
        plain = build_chunks(pc0, pc1, ChunkingConfig(point_cap=3))[0]
        haloed = build_chunks(
            pc0, pc1, ChunkingConfig(point_cap=3, halo_margin=halo)
        )[0]
        assert plain.region == haloed.region == (0.0, 0.0, 10.0, 10.0)
        np.testing.assert_array_equal(plain.source_indices, [3])
        np.testing.assert_array_equal(haloed.source_indices, [1, 3, 4])

    def test_empty_source_chunk_kept_and_flagged(self):
        # all epoch-0 mass in one corner, epoch-1 points in both corners
        pc0 = _cloud([[1, 1], [2, 2], [1, 2]])
        pc1 = _cloud([[1, 1], [2, 1], [99, 99], [98, 99]])
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=3))
        flagged = [c for c in chunks if c.source_empty]
        assert flagged
        covered = np.concatenate([c.target_indices for c in chunks])
        assert set(covered.tolist()) == {0, 1, 2, 3}

    def test_coincident_points_beyond_cap_error(self):
        xy = np.full((10, 2), 3.25)
        pc = _cloud(xy)
        with pytest.raises(ChunkingError, match="3.25"):
            build_chunks(pc, pc, ChunkingConfig(point_cap=5))

    def test_split_at_the_depth_limit_is_a_stall(self):
        # two groups of 5 that only the split at depth 96 separates: the
        # depth limit holds there too, though the split itself would succeed
        tiny = 0.75 * 2.0**-96
        pc = _cloud([[0.0, 0.0]] * 5 + [[tiny, 0.0]] * 5 + [[1.0, 1.0]])
        with pytest.raises(ChunkingError, match="stalled at depth 96"):
            build_chunks(pc, pc, ChunkingConfig(point_cap=5))

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            ChunkingConfig(point_cap=0)

    def test_negative_halo_rejected(self):
        with pytest.raises(ValueError):
            ChunkingConfig(halo_margin=-1.0)
        for halo in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ChunkingConfig(halo_margin=halo)

    def test_empty_cloud_rejected(self):
        pc = _cloud([[0, 0]])
        empty = PointCloud(xyz=np.empty((0, 3)))
        with pytest.raises(ChunkingError, match="both epochs must be non-empty"):
            build_chunks(empty, pc, ChunkingConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pc0 = _random_cloud(rng, 500)
        pc1 = _random_cloud(rng, 500)
        first = build_chunks(pc0, pc1, ChunkingConfig(point_cap=60))
        second = build_chunks(pc0, pc1, ChunkingConfig(point_cap=60))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.source_indices, b.source_indices)
            np.testing.assert_array_equal(a.target_indices, b.target_indices)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 4.0]),
    )
    def test_partition_property(self, seed, cap, h):
        # coordinates on a 1 m grid put points on split lines and on the
        # grown edges of a 0.5, 1 or 4 m halo
        rng = np.random.default_rng(seed)
        pc0, pc1 = (
            _cloud(rng.integers(0, 51, (int(rng.integers(1, 300)), 2)))
            for _ in range(2)
        )
        try:
            chunks = build_chunks(
                pc0, pc1, ChunkingConfig(point_cap=cap, halo_margin=h)
            )
        except ChunkingError as exc:
            # more than cap points on one grid node
            assert "coincident" in str(exc)
            return
        assert [c.chunk_id for c in chunks] == list(range(len(chunks)))
        tgt = np.concatenate([c.target_indices for c in chunks])
        assert len(tgt) == len(pc1)
        assert set(tgt.tolist()) == set(range(len(pc1)))
        src = np.concatenate([c.source_indices for c in chunks])
        xy = pc0.xyz[:, :2]
        for c in chunks:
            assert len(c.target_indices) <= cap
            if h == 0:
                assert len(c.source_indices) <= cap
                continue
            # the brute-force rule: every source in the closed grown cell
            x0, y0, x1, y1 = c.region
            inside = (xy >= (x0 - h, y0 - h)) & (xy <= (x1 + h, y1 + h))
            np.testing.assert_array_equal(
                c.source_indices, np.flatnonzero(inside.all(axis=1))
            )
        if h == 0:
            assert len(src) == len(set(src.tolist()))


def _unit_chunk(target_indices, chunk_id=0, source_indices=None):
    return ChunkPair(
        source_indices=np.asarray(
            source_indices if source_indices is not None else target_indices
        ),
        target_indices=np.asarray(target_indices),
        region=(0.0, 0.0, 1.0, 1.0),
        chunk_id=chunk_id,
    )


class TestMergeScores:
    def test_identity_reassembly(self):
        chunk = _unit_chunk([0, 1, 2])
        out = merge_scores([(chunk, np.array([1.0, 2.0, 3.0]))], 3)
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_interleaved_scatter(self):
        parts = [
            (_unit_chunk([0, 2], 0), np.array([10.0, 30.0])),
            (_unit_chunk([1, 3], 1), np.array([20.0, 40.0])),
        ]
        out = merge_scores(parts, 4)
        np.testing.assert_array_equal(out, [10.0, 20.0, 30.0, 40.0])

    def test_overlap_rejected(self):
        parts = [
            (_unit_chunk([0, 1], 0), np.zeros(2)),
            (_unit_chunk([1, 2], 1), np.zeros(2)),
        ]
        with pytest.raises(ValueError, match="more than one"):
            merge_scores(parts, 3)

    def test_missing_index_rejected(self):
        parts = [(_unit_chunk([0, 2], 0), np.zeros(2))]
        with pytest.raises(ValueError, match="not covered"):
            merge_scores(parts, 3)

    def test_length_mismatch_rejected(self):
        parts = [(_unit_chunk([0, 1], 0), np.zeros(1))]
        with pytest.raises(ValueError, match="length"):
            merge_scores(parts, 2)

    def test_target_index_beyond_n1_rejected(self):
        parts = [(_unit_chunk([0, 1, 2], 0), np.zeros(3))]
        with pytest.raises(ValueError, match="target index 2 >= n1=2"):
            merge_scores(parts, 2)

    def test_negative_target_index_rejected(self):
        # -1 would wrap to the last point
        parts = [(_unit_chunk([0, 1, -1], 0), np.zeros(3))]
        with pytest.raises(ValueError, match="target index -1 < 0"):
            merge_scores(parts, 3)


class TestChunkStats:
    def test_order_statistics(self):
        chunks = [
            _unit_chunk(list(range(s)), i) for i, s in enumerate([10, 20, 30])
        ]
        stats = chunk_stats(chunks)
        assert stats["count"] == 3
        assert stats["tgt"] == {"min": 10, "median": 20.0, "max": 30}

    def test_single_chunk_degenerate_stats(self):
        stats = chunk_stats([_unit_chunk([0, 1])])
        assert stats["src"] == {"min": 2, "median": 2.0, "max": 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chunk_stats([])

    def test_json_shape(self):
        payload = json.loads(json.dumps(chunk_stats([_unit_chunk([0])])))
        assert payload == {
            "count": 1,
            "src": {"min": 1, "median": 1.0, "max": 1},
            "tgt": {"min": 1, "median": 1.0, "max": 1},
        }
