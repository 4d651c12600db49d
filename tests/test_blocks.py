import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointlabel import blocks as blk
from pointlabel.io import (BoundsError, PointCloud, Raster, SamplingError,
                           ShapeError)


def flat_image(value=100.0, size=64, cell=1.0, origin=(-1.0, 65.0)):
    data = np.full((3, size, size), float(value))
    return Raster(data, origin_x=origin[0], origin_y=origin[1], cell_size=cell)


def cloud_of(xyz, spectral=None, labels=None):
    return PointCloud(np.asarray(xyz, dtype=float), spectral, labels)


class TestAttributeSpectral:
    def test_constant_image(self):
        cloud = cloud_of([[5.0, 5.0, 1.0]])
        out = blk.attribute_spectral(cloud, flat_image(100.0))
        assert np.array_equal(out.spectral[0], [100.0, 100.0, 100.0])
        assert np.array_equal(out.xyz, cloud.xyz)

    def test_bilinear_midpoint(self):
        data = np.zeros((3, 2, 2))
        data[:, 1, :] = 1.0
        img = Raster(data, origin_x=0.0, origin_y=0.0, cell_size=1.0)
        out = blk.attribute_spectral(cloud_of([[0.5, -0.5, 0.0]]), img)
        assert np.allclose(out.spectral[0], 0.5)

    def test_overwrites_existing_values(self):
        cloud = cloud_of([[5.0, 5.0, 1.0]], spectral=[[9.0, 9.0, 9.0]])
        out = blk.attribute_spectral(cloud, flat_image(100.0))
        assert out.spectral[0, 0] == 100.0

    def test_error_names_point_index(self):
        cloud = cloud_of([[5.0, 5.0, 0.0], [500.0, 500.0, 0.0]])
        with pytest.raises(ValueError, match="point 1"):
            blk.attribute_spectral(cloud, flat_image())

    def test_error_names_first_failing_point(self):
        img = flat_image()
        img.data[:, :3, :3] = img.nodata
        # point 0 sits over all-nodata pixels, point 1 outside the image
        cloud = cloud_of([[0.0, 64.0, 0.0], [500.0, 500.0, 0.0]])
        with pytest.raises(SamplingError, match="point 0"):
            blk.attribute_spectral(cloud, img)
        with pytest.raises(BoundsError, match="point 0"):
            blk.attribute_spectral(cloud_of(cloud.xyz[::-1]), img)

    def test_wrong_band_count(self):
        dtm = Raster(np.zeros((1, 4, 4)), origin_x=0, origin_y=4, cell_size=1)
        with pytest.raises(ShapeError):
            blk.attribute_spectral(cloud_of([[1, 1, 0]]), dtm)


class TestNormalizeHeight:
    def dtm(self, value=2.0):
        return Raster(np.full((8, 8), value), origin_x=-1, origin_y=8,
                      cell_size=1)

    def test_subtracts_terrain(self):
        out = blk.normalize_height(cloud_of([[1, 1, 5.0]]), self.dtm(2.0))
        assert out.xyz[0, 2] == 3.0

    def test_zero_height(self):
        out = blk.normalize_height(cloud_of([[1, 1, 2.0]]), self.dtm(2.0))
        assert out.xyz[0, 2] == 0.0

    def test_negative_height_kept(self):
        out = blk.normalize_height(cloud_of([[1, 1, 1.0]]), self.dtm(2.0))
        assert out.xyz[0, 2] == -1.0

    def test_nodata_point_dropped(self):
        data = np.full((8, 8), 2.0)
        data[4, 4] = -9999.0
        dtm = Raster(data, origin_x=-1, origin_y=8, cell_size=1)
        # point directly over the nodata cell center
        cloud = cloud_of([[1.0, 1.0, 5.0], [3.0, 4.0, 5.0]],
                         labels=[1, 2])
        out = blk.normalize_height(cloud, dtm)
        assert len(out) == 1
        assert out.labels[0] == 1


    def test_drop_causes_counted_separately(self, caplog):
        data = np.full((8, 8), 2.0)
        data[4, 4] = -9999.0
        dtm = Raster(data, origin_x=-1, origin_y=8, cell_size=1)
        cloud = cloud_of([[1.0, 1.0, 5.0], [3.0, 4.0, 5.0], [20.0, 1.0, 5.0]])
        with caplog.at_level("WARNING", logger="pointlabel.blocks"):
            out = blk.normalize_height(cloud, dtm)
        assert len(out) == 1
        assert ("dropped 1 point(s) over nodata terrain and 1 outside the "
                "DTM extent") in caplog.text

    def test_dtm_covering_no_point_rejected_with_counts(self):
        data = np.full((8, 8), 2.0)
        data[4, 4] = -9999.0
        dtm = Raster(data, origin_x=-1, origin_y=8, cell_size=1)
        cloud = cloud_of([[3.0, 4.0, 5.0], [20.0, 1.0, 5.0], [1.0, 30.0, 5.0]])
        counts = {}
        with pytest.raises(ValueError, match="covers none of the 3 points: 1 "
                           "over nodata terrain and 2 outside the DTM extent"):
            blk.normalize_height(cloud, dtm, counts=counts)
        assert counts == {"dtm_dropped_nodata": 1, "dtm_dropped_outside": 2}

    def test_empty_cloud_stays_empty(self):
        out = blk.normalize_height(cloud_of(np.zeros((0, 3))), self.dtm())
        assert len(out) == 0


class TestTileBlocks:
    def test_stride_origins_cover_far_edge(self):
        xs = np.linspace(0.0, 10.0, 50)
        cloud = cloud_of(np.stack([xs, np.zeros(50), np.zeros(50)], axis=1))
        fps = blk.tile_blocks(cloud, size=5.0, overlap=2.0, min_points=1)
        assert sorted({fp.origin_x for fp in fps}) == [0.0, 3.0, 6.0, 9.0]

    def test_small_footprint_discarded(self):
        pts = np.zeros((18, 3))
        pts[:8, 0] = 1.0          # 8 points near x=1
        pts[8:, 0] = 30.0         # 10 points near x=30
        pts[:, 1] = 0.5
        cloud = cloud_of(pts)
        fps = blk.tile_blocks(cloud, size=5.0, overlap=0.0)
        assert all(len(fp.indices) >= 10 for fp in fps)
        assert all(fp.origin_x > 20 for fp in fps)

    def test_overlap_must_be_less_than_size(self):
        with pytest.raises(ValueError):
            blk.tile_blocks(cloud_of([[0, 0, 0]]), size=5.0, overlap=5.0)

    def test_empty_cloud(self):
        assert blk.tile_blocks(PointCloud(np.zeros((0, 3))), 5.0, 1.0) == []

    @pytest.mark.parametrize("row, axis, value", [(1, 0, np.nan),
                                                  (2, 1, np.inf),
                                                  (0, 0, -np.inf)])
    def test_non_finite_xy_named(self, row, axis, value):
        # the origin grid would grow without end towards a NaN or inf
        xyz = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        xyz[row, axis] = value
        with pytest.raises(ValueError, match=f"point {row} has a non-finite"):
            blk.tile_blocks(cloud_of(xyz), 5.0, 1.0, min_points=1)

    def test_every_point_covered_before_discard(self, scene):
        for size, overlap in [(2.0, 1.0), (5.0, 2.0), (10.0, 2.0)]:
            fps = blk.tile_blocks(scene, size, overlap, min_points=0)
            seen = np.zeros(len(scene), dtype=bool)
            for fp in fps:
                seen[fp.indices] = True
                inside = ((scene.xyz[fp.indices, 0] >= fp.origin_x)
                          & (scene.xyz[fp.indices, 0] <= fp.origin_x + size)
                          & (scene.xyz[fp.indices, 1] >= fp.origin_y)
                          & (scene.xyz[fp.indices, 1] <= fp.origin_y + size))
                assert inside.all()
            assert seen.all()

    @staticmethod
    def lexsort_tiling(cloud, size, overlap, min_points):
        """Footprints from the full np.lexsort((z, y, x)) order with one
        x-strip scan per footprint."""
        stride = size - overlap
        xs, ys = cloud.xyz[:, 0], cloud.xyz[:, 1]

        def origins(values):
            out = [float(values.min())]
            while out[-1] + stride < values.max():
                out.append(float(values.min()) + len(out) * stride)
            return out

        order = np.lexsort((cloud.xyz[:, 2], ys, xs))
        xs_sorted = xs[order]
        footprints = []
        for oy in origins(ys):
            for ox in origins(xs):
                cand = order[np.searchsorted(xs_sorted, ox, side="left"):
                             np.searchsorted(xs_sorted, ox + size, side="right")]
                members = cand[(ys[cand] >= oy) & (ys[cand] <= oy + size)]
                if len(members) >= min_points:
                    footprints.append((ox, oy, members))
        return footprints

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 120), levels=st.integers(1, 5),
           continuous=st.sampled_from([(), (2,), (1, 2), (0,)]),
           twins=st.integers(0, 30), signed_zeros=st.booleans(),
           size=st.sampled_from([0.5, 1.0, 2.5]),
           overlap=st.sampled_from([0.0, 0.25, 0.5]),
           min_points=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_lexsort_reference(self, n, levels, continuous, twins,
                                       signed_zeros, size, overlap,
                                       min_points, seed):
        # coordinates on a few levels tie in x, in (x, y) and in all of
        # x, y, z; appended copies of random rows are exact xyz twins
        rng = np.random.default_rng(seed)
        xyz = rng.integers(0, levels, (n, 3)) * 0.5
        for ax in continuous:
            xyz[:, ax] = rng.uniform(0.0, levels * 0.5, n)
        xyz = np.vstack([xyz, xyz[rng.integers(0, n, twins)]])
        if signed_zeros:
            xyz[(xyz == 0) & (rng.random(xyz.shape) < 0.5)] = -0.0
        xyz = xyz[rng.permutation(len(xyz))]
        cloud = cloud_of(xyz)
        assert blk.canonical_order(cloud).tobytes() == np.lexsort(
            (xyz[:, 2], xyz[:, 1], xyz[:, 0])).tobytes()
        got = blk.tile_blocks(cloud, size, overlap * size, min_points)
        want = self.lexsort_tiling(cloud, size, overlap * size, min_points)
        assert len(got) == len(want)
        for fp, (ox, oy, members) in zip(got, want):
            assert (fp.origin_x, fp.origin_y, fp.size) == (ox, oy, size)
            assert fp.indices.tobytes() == members.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 120), levels=st.integers(1, 5),
           continuous=st.sampled_from([(), (2,), (1, 2), (0,)]),
           twins=st.integers(0, 30), signed_zeros=st.booleans(),
           size=st.sampled_from([0.5, 1.0, 2.5]),
           overlap=st.sampled_from([0.0, 0.25, 0.5]),
           strays=st.integers(1, 3), axes=st.sampled_from([(0,), (1,), (0, 1)]),
           away=st.sampled_from([1.0, -1.0]),
           min_points=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_far_points_match_lexsort_reference(self, n, levels, continuous,
                                                twins, signed_zeros, size,
                                                overlap, strays, axes, away,
                                                min_points, seed):
        # the reference's clouds, with 1-3 points moved 40-400 strides away
        # in x, in y or both: most cells of the grid are then empty
        rng = np.random.default_rng(seed)
        xyz = rng.integers(0, levels, (n, 3)) * 0.5
        for ax in continuous:
            xyz[:, ax] = rng.uniform(0.0, levels * 0.5, n)
        xyz = np.vstack([xyz, xyz[rng.integers(0, n, twins)]])
        if signed_zeros:
            xyz[(xyz == 0) & (rng.random(xyz.shape) < 0.5)] = -0.0
        stride = size - overlap * size
        for ax in axes:
            moved = rng.integers(0, len(xyz), strays)
            xyz[moved, ax] += away * rng.uniform(40, 400, strays) * stride
        xyz = xyz[rng.permutation(len(xyz))]
        cloud = cloud_of(xyz)
        got = blk.tile_blocks(cloud, size, overlap * size, min_points)
        want = self.lexsort_tiling(cloud, size, overlap * size, min_points)
        assert len(got) == len(want)
        for fp, (ox, oy, members) in zip(got, want):
            assert (fp.origin_x, fp.origin_y, fp.size) == (ox, oy, size)
            assert fp.indices.tobytes() == members.tobytes()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_far_stray_adds_no_per_cell_work(self, axis):
        # a 20 m tile of 63 x 63 jittered scan points, one point 200 km past
        # its far edge: 2:1 tiling then spans 200 000 columns or rows
        rng = np.random.default_rng(63)
        ij = np.stack(np.meshgrid(np.arange(63), np.arange(63)), -1).reshape(-1, 2)
        xy = (ij + rng.uniform(0.0, 1.0, ij.shape)) * (20.0 / 63)
        xyz = np.column_stack([xy, rng.uniform(0.0, 11.0, len(xy))])
        stray = xyz[:1].copy()
        stray[0, axis] = xyz[:, axis].max() + 200_000.0
        far = cloud_of(np.vstack([xyz, stray]))
        start = time.perf_counter()
        got = blk.tile_blocks(far, 2.0, 1.0)
        assert time.perf_counter() - start < 2.0
        want = blk.tile_blocks(cloud_of(xyz), 2.0, 1.0)
        assert len(got) == len(want) > 0

        def key(fp):
            return (repr(fp.origin_x), repr(fp.origin_y), fp.size,
                    fp.indices.tobytes())
        assert [key(fp) for fp in got] == [key(fp) for fp in want]


def one_footprint(cloud, size=100.0):
    fps = blk.tile_blocks(cloud, size=size, overlap=0.0, min_points=1)
    assert len(fps) == 1
    return fps[0]


class TestSampleBlock:
    def test_exact_count_is_a_shuffle(self, scene, rng):
        fp = one_footprint(scene)
        n = len(fp.indices)
        block = blk.sample_block(scene, fp, n, True, rng, blk.SceneExtent.of(scene))
        assert sorted(block.parent_idx) == sorted(fp.indices)

    def test_repetition_covers_all_points(self, rng):
        pts = np.concatenate([rng.uniform(0, 1, (12, 2)),
                              rng.uniform(0, 1, (12, 1))], axis=1)
        cloud = PointCloud(pts, np.full((12, 3), 50.0),
                           np.zeros(12, dtype=np.int32))
        fp = one_footprint(cloud)
        block = blk.sample_block(cloud, fp, 1024, True, rng,
                                 blk.SceneExtent.of(cloud))
        assert block.sample_count == 1024
        assert set(block.parent_idx) == set(range(12))
        # duplicates are jittered: rows of one parent never coincide
        rows = block.features[block.parent_idx == block.parent_idx[0]]
        assert len(np.unique(rows[:, 0])) > 1

    def test_test_time_duplicates_are_exact_repeats(self, rng):
        pts = rng.uniform(0, 1, (12, 3))
        cloud = PointCloud(pts, np.full((12, 3), 50.0))
        fp = one_footprint(cloud)
        block = blk.sample_block(cloud, fp, 100, False, rng,
                                 blk.SceneExtent.of(cloud))
        for parent in range(12):
            rows = block.features[block.parent_idx == parent]
            assert (rows == rows[0]).all()

    def test_too_few_points_rejected(self, rng):
        pts = np.random.default_rng(0).uniform(0, 1, (9, 3))
        cloud = PointCloud(pts, np.full((9, 3), 1.0))
        fp = one_footprint(cloud)
        with pytest.raises(ValueError):
            blk.sample_block(cloud, fp, 64, True, rng, blk.SceneExtent.of(cloud))

    def test_deterministic_for_fixed_seed(self, scene):
        fp = one_footprint(scene)
        ext = blk.SceneExtent.of(scene)
        a = blk.sample_block(scene, fp, 256, False, blk.block_rng(7, 0, 0), ext)
        b = blk.sample_block(scene, fp, 256, False, blk.block_rng(7, 0, 0), ext)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.parent_idx, b.parent_idx)


class TestAssembleFeatures:
    def extent(self):
        return blk.SceneExtent(0, 0, 0, 10, 10, 10)

    def test_scene_min_corner(self):
        f = blk.assemble_features([[0.0, 0.0, 0.0]], [[128, 128, 128]],
                                  self.extent())
        assert np.array_equal(f[0, 6:9], [0, 0, 0])

    def test_scene_max_corner(self):
        f = blk.assemble_features([[10.0, 10.0, 10.0]], [[128, 128, 128]],
                                  self.extent())
        assert np.array_equal(f[0, 6:9], [1, 1, 1])

    def test_symmetric_points_negate(self):
        f = blk.assemble_features([[2.0, 2.0, 2.0], [4.0, 4.0, 4.0]],
                                  np.full((2, 3), 100.0), self.extent())
        assert np.allclose(f[0, 0:3], -f[1, 0:3])

    def test_spectral_scaled_to_unit(self):
        f = blk.assemble_features([[1.0, 1.0, 1.0]], [[255.0, 0.0, 51.0]],
                                  self.extent())
        assert np.allclose(f[0, 3:6], [1.0, 0.0, 0.2])

    def test_degenerate_axis_pinned(self):
        ext = blk.SceneExtent(0, 0, 5, 10, 10, 5)
        f = blk.assemble_features([[5.0, 5.0, 5.0]], [[0, 0, 0]], ext)
        assert f[0, 8] == 0.5

    def test_fully_degenerate_extent_rejected(self):
        ext = blk.SceneExtent(1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            blk.assemble_features([[1.0, 1.0, 1.0]], [[0, 0, 0]], ext)

    def test_zero_mean_centering(self, scene, rng):
        fp = one_footprint(scene)
        block = blk.sample_block(scene, fp, 256, True, rng,
                                 blk.SceneExtent.of(scene))
        mean = block.features[:, 0:2].mean(axis=0)
        assert np.abs(mean).max() < 1e-4
        assert block.features[:, 6:9].min() >= 0.0
        assert block.features[:, 6:9].max() <= 1.0


class TestAugment:
    def test_rotate_zero_identity(self, scene):
        out = blk.augment_rotate_z(scene, 0.0)
        assert np.allclose(out.xyz, scene.xyz)

    def test_quarter_turn(self):
        cloud = cloud_of([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = blk.augment_rotate_z(cloud, np.pi / 2, pivot=(1.0, 0.0))
        assert np.allclose(out.xyz[1, :2], [1.0, 1.0], atol=1e-12)

    def test_full_turn_identity(self, scene):
        out = blk.augment_rotate_z(scene, 2 * np.pi)
        assert np.allclose(out.xyz, scene.xyz, atol=1e-5)

    def test_rotation_preserves_pairwise_distances(self, rng):
        cloud = cloud_of(rng.uniform(0, 50, (40, 3)))
        out = blk.augment_rotate_z(cloud, rng.uniform(0, 2 * np.pi))
        d0 = np.linalg.norm(cloud.xyz[:, None, :2] - cloud.xyz[None, :, :2], axis=2)
        d1 = np.linalg.norm(out.xyz[:, None, :2] - out.xyz[None, :, :2], axis=2)
        assert np.allclose(d0, d1, atol=1e-5)

    def test_jitter_clipped_at_maxima(self, monkeypatch, scene):
        class BigRng:
            def normal(self, loc, scale, n):
                return np.full(n, 0.50)
        out = blk.augment_jitter(scene.select([0]), BigRng())
        delta = out.xyz[0] - scene.xyz[0]
        assert np.allclose(delta, [0.30, 0.30, 0.15])

    def test_zero_noise_identity(self, scene):
        class ZeroRng:
            def normal(self, loc, scale, n):
                return np.zeros(n)
        out = blk.augment_jitter(scene, ZeroRng())
        assert np.array_equal(out.xyz, scene.xyz)

    def test_jitter_sigma_empirical(self):
        rng = np.random.default_rng(5)
        n = 100_000
        cloud = PointCloud(np.zeros((n, 3)))
        out = blk.augment_jitter(cloud, rng)
        d = out.xyz - cloud.xyz
        # clipping at 3.75 sigma barely moves the estimate
        assert d[:, 0].std() == pytest.approx(0.08, rel=0.05)
        assert d[:, 2].std() == pytest.approx(0.04, rel=0.05)

    def test_jitter_displacement_bounded(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(np.zeros((10_000, 3)))
        out = blk.augment_jitter(cloud, rng)
        limit = np.sqrt(0.30 ** 2 + 0.30 ** 2 + 0.15 ** 2)
        assert np.linalg.norm(out.xyz, axis=1).max() <= limit


class TestRasterToPoints:
    def test_coplanar_points(self):
        dsm = Raster(np.zeros((2, 2)), origin_x=0, origin_y=0, cell_size=1)
        img = Raster(np.full((3, 2, 2), 7.0), origin_x=0, origin_y=0, cell_size=1)
        cloud = blk.raster_to_points(dsm, img)
        assert len(cloud) == 4
        assert (cloud.xyz[:, 2] == 0).all()
        assert (cloud.spectral == 7.0).all()
        # pixel units: column index is x, row index is y
        assert np.array_equal(cloud.xyz[1, :2], [1.0, 0.0])

    def test_nodata_pixels_skipped(self):
        data = np.zeros((2, 2))
        data[0, 1] = -9999.0
        dsm = Raster(data, origin_x=0, origin_y=0, cell_size=1)
        img = Raster(np.zeros((3, 2, 2)), origin_x=0, origin_y=0, cell_size=1)
        assert len(blk.raster_to_points(dsm, img)) == 3

    def test_size_mismatch_rejected(self):
        dsm = Raster(np.zeros((2, 2)), origin_x=0, origin_y=0, cell_size=1)
        img = Raster(np.zeros((3, 3, 3)), origin_x=0, origin_y=0, cell_size=1)
        with pytest.raises(ShapeError):
            blk.raster_to_points(dsm, img)


class TestBuildBlocks:
    def test_blocks_carry_labels_and_scale_ids(self, scene):
        scales = [type("S", (), {"size": 6.0, "overlap": 2.0, "sample_count": 64}),
                  type("S", (), {"size": 12.0, "overlap": 2.0, "sample_count": 128})]
        out = blk.build_blocks(scene, scales, seed=0)
        assert {b.scale_id for b in out} == {0, 1}
        assert all(b.labels is not None and len(b.labels) == b.sample_count
                   for b in out)

    def test_augmented_replicas_tagged(self, scene):
        scales = [type("S", (), {"size": 12.0, "overlap": 2.0, "sample_count": 64})]
        plain = blk.build_blocks(scene, scales, seed=0, augment_copies=0)
        aug = blk.build_blocks(scene, scales, seed=0, augment_copies=2)
        assert {b.replica for b in plain} == {0}
        assert {b.replica for b in aug} == {0, 1, 2}
        # replica 0 blocks identical to the unaugmented run
        assert aug[0].features.tobytes() == plain[0].features.tobytes()

    def test_deterministic(self, scene):
        scales = [type("S", (), {"size": 6.0, "overlap": 2.0, "sample_count": 64})]
        a = blk.build_blocks(scene, scales, seed=3)
        b = blk.build_blocks(scene, scales, seed=3)
        assert all(x.features.tobytes() == y.features.tobytes()
                   for x, y in zip(a, b))

    def test_counts_footprints_and_duplicated_rows(self, scene):
        scales = [type("S", (), {"size": 1.5, "overlap": 0.0, "sample_count": 16}),
                  type("S", (), {"size": 6.0, "overlap": 2.0, "sample_count": 64})]
        counts = {}
        out = blk.build_blocks(scene, scales, seed=0, counts=counts)
        # counting leaves the blocks as they are
        assert [b.features.tobytes() for b in out] == [
            b.features.tobytes() for b in blk.build_blocks(scene, scales, seed=0)]
        for i, sc in enumerate(scales):
            raw = blk.tile_blocks(scene, sc.size, sc.overlap, min_points=0)
            blocks = [b for b in out if b.scale_id == i]
            rows = sum(b.sample_count for b in blocks)
            duplicated = sum(b.sample_count - len(np.unique(b.parent_idx))
                             for b in blocks)
            assert counts[f"scale{i}.footprints_kept"] == len(blocks)
            assert counts[f"scale{i}.footprints_discarded"] == len(raw) - len(blocks)
            assert counts[f"scale{i}.rows"] == rows
            assert counts[f"scale{i}.duplicated_rows"] == duplicated
            assert counts[f"scale{i}.duplicated_fraction"] == duplicated / rows
        # 1.5 m footprints hold about ten points each: many are discarded
        assert counts["scale0.footprints_discarded"] > 0 < counts["scale0.footprints_kept"]
        assert counts["scale0.duplicated_rows"] > 0 == counts["scale1.duplicated_rows"]

    def test_counts_sum_over_replicas(self, scene):
        scales = [type("S", (), {"size": 6.0, "overlap": 2.0, "sample_count": 64})]
        plain, augmented = {}, {}
        blk.build_blocks(scene, scales, seed=0, counts=plain)
        out = blk.build_blocks(scene, scales, seed=0, augment_copies=2,
                               counts=augmented)
        assert augmented["scale0.footprints_kept"] == len(out) \
            > plain["scale0.footprints_kept"]
        assert augmented["scale0.rows"] == 64 * len(out)

    def test_negative_augment_rejected(self, scene):
        scales = [type("S", (), {"size": 6.0, "overlap": 2.0, "sample_count": 64})]
        with pytest.raises(ValueError, match="augment_copies"):
            blk.build_blocks(scene, scales, seed=0, augment_copies=-1)


class TestSampleScale:
    @pytest.mark.parametrize("replica,training", [(0, False), (0, True),
                                                  (3, True)])
    def test_matches_tile_rng_sample_reference(self, scene, replica, training):
        # the recipe a block store can be rebuilt from: footprints in tiling
        # order, each sampled from block_rng(seed, scale, index, replica)
        sc = type("S", (), {"size": 5.0, "overlap": 1.5, "sample_count": 48})
        if replica:
            scene = blk.augment_rotate_z(scene, 0.7)
        extent = blk.SceneExtent.of(scene)
        want = [blk.sample_block(scene, fp, sc.sample_count, training,
                                 blk.block_rng(11, 2, bi, replica), extent, 2,
                                 replica)
                for bi, fp in enumerate(blk.tile_blocks(scene, sc.size,
                                                        sc.overlap))]
        got = list(blk.sample_scale(scene, sc, 2, 11, training, replica))
        assert len(got) == len(want) > 1
        for g, w in zip(got, want):
            assert (g.origin_x, g.origin_y, g.size, g.scale_id, g.replica) \
                == (w.origin_x, w.origin_y, w.size, 2, replica)
            assert g.features.tobytes() == w.features.tobytes()
            assert g.parent_idx.tobytes() == w.parent_idx.tobytes()
            assert g.labels.tobytes() == w.labels.tobytes()

    def scale(self, count=16):
        return type("S", (), {"size": 4.0, "overlap": 1.0,
                              "sample_count": count})

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_scene_without_kept_footprint_yields_nothing(self, n):
        # no spectral values and a degenerate extent: nothing is sampled,
        # so neither is an error
        cloud = cloud_of(np.ones((n, 3)))
        counts = {}
        assert list(blk.sample_scale(cloud, self.scale(), 0, 0, True,
                                     counts=counts)) == []
        assert counts["footprints_kept"] == counts["rows"] == 0

    def test_cloud_without_spectral_values_rejected(self, scene):
        cloud = PointCloud(scene.xyz, None, scene.labels)
        with pytest.raises(ValueError, match="must be spectrally attributed "
                           "before feature assembly"):
            next(blk.sample_scale(cloud, self.scale(), 0, 0, False))

    def test_degenerate_extent_rejected(self):
        cloud = cloud_of(np.ones((12, 3)), np.full((12, 3), 9.0))
        with pytest.raises(ValueError,
                           match="scene extent is degenerate on all axes"):
            next(blk.sample_scale(cloud, self.scale(), 0, 0, False))

    def test_too_few_points_named(self, rng):
        cloud = cloud_of(rng.uniform(0, 1, (9, 3)), np.full((9, 3), 1.0))
        with pytest.raises(ValueError, match="footprint holds 9 points; "
                           "caller must discard < 10"):
            blk.sample_block(cloud, one_footprint(cloud), 16, False, rng,
                             blk.SceneExtent.of(cloud))


def reference_block(cloud, footprint, count, training, rng, extent):
    """One block drawn and assembled row by row, as a per-block sampler
    does it: (features, parent indices)."""
    idx = footprint.indices
    n = len(idx)
    if n >= count:
        sel = rng.choice(n, size=count, replace=False)
    else:
        sel = np.concatenate([rng.permutation(n),
                              rng.integers(0, n, size=count - n)])
    parent = idx[sel]
    coords = cloud.xyz[parent]
    if training and n < count:
        d = np.stack([rng.normal(0.0, sigma, count - n) for sigma in (
            blk.JITTER_SIGMA_XY, blk.JITTER_SIGMA_XY, blk.JITTER_SIGMA_Z)],
            axis=1)
        limit = np.array([blk.JITTER_MAX_XY, blk.JITTER_MAX_XY,
                          blk.JITTER_MAX_Z])
        coords[n:] += np.clip(d, -limit, limit)
    span = extent.maxs - extent.mins
    features = np.empty((count, blk.FEATURE_DIM), dtype=np.float32)
    features[:, 0:3] = coords - coords.mean(axis=0)
    features[:, 3:6] = cloud.spectral[parent] / 255.0
    norm = np.full_like(coords, 0.5)
    for ax in np.flatnonzero(span):
        norm[:, ax] = (coords[:, ax] - extent.mins[ax]) / span[ax]
    features[:, 6:9] = np.clip(norm, 0.0, 1.0)
    return features, parent


class TestSampleGroups:
    """sample_scale samples its footprints in groups of at most
    SAMPLE_GROUP_ROWS rows; no bit depends on the group size."""

    @settings(max_examples=80, deadline=None)
    @given(per_group=st.sampled_from([1, 2, 3]),
           count=st.sampled_from([12, 20, 48]),
           n=st.integers(10, 160), continuous=st.booleans(),
           easting=st.sampled_from([0.0, 512_345.6]),
           twins=st.integers(0, 20), flat_z=st.booleans(),
           negative_zero=st.booleans(), training=st.booleans(),
           replica=st.sampled_from([0, 2]), seed=st.integers(0, 2 ** 32 - 1))
    def test_group_size_changes_no_bit(self, per_group, count, n, continuous,
                                       easting, twins, flat_z, negative_zero,
                                       training, replica, seed):
        rng = np.random.default_rng(seed)
        xyz = rng.uniform(0.0, 6.0, (n, 3))
        if not continuous:
            xyz = np.round(xyz * 2.0) / 2.0    # ties, and zeros
        # far from the origin, a centroid summed in another order than row
        # by row moves some float32 features
        xyz[:, 0] += easting
        twins = min(twins, n // 2)
        xyz[:twins] = xyz[n - twins:]          # exact xyz twins
        if flat_z:
            xyz[:, 2] = 0.0                    # a zero-span z axis
        if negative_zero:
            xyz[::5, 2] = 0.0
            xyz[xyz == 0.0] = -0.0
        cloud = cloud_of(xyz, rng.uniform(0, 255, (n, 3)),
                         rng.integers(0, 4, n))
        sc = type("S", (), {"size": 3.0, "overlap": 1.0, "sample_count": count})
        footprints = blk.tile_blocks(cloud, sc.size, sc.overlap)
        want = list(blk.sample_scale(cloud, sc, 1, seed, training, replica))
        with mock.patch.object(blk, "SAMPLE_GROUP_ROWS", per_group * count):
            got = list(blk.sample_scale(cloud, sc, 1, seed, training,
                                        replica))
        assert len(got) == len(want) == len(footprints)
        extent = blk.SceneExtent.of(cloud)
        for bi, (g, w, fp) in enumerate(zip(got, want, footprints)):
            one = blk.sample_block(cloud, fp, count, training,
                                   blk.block_rng(seed, 1, bi, replica),
                                   extent, 1, replica)
            features, parent = reference_block(
                cloud, fp, count, training,
                blk.block_rng(seed, 1, bi, replica), extent)
            for b in (g, w, one):
                assert (b.origin_x, b.origin_y, b.size, b.scale_id,
                        b.replica) == (fp.origin_x, fp.origin_y, fp.size, 1,
                                       replica)
                assert b.features.tobytes() == features.tobytes()
                assert b.parent_idx.tobytes() == parent.tobytes()
                assert b.labels.tobytes() == cloud.labels[parent].tobytes()


class TestFeatureSets:
    @pytest.mark.parametrize("name", sorted(blk.FEATURE_SETS))
    def test_width_names_its_set(self, name):
        assert blk.feature_set(len(blk.FEATURE_SETS[name])) == name

    def test_unknown_width_rejected(self):
        with pytest.raises(ValueError, match="width 5"):
            blk.feature_set(5)
