"""Scene preprocessing: spectral attribution, terrain normalization,
multi-scale square tiling, per-block sampling and 9-column feature
assembly, plus the training augmentations (z-rotation, clipped jitter)
and the raster-to-points restructuring used for 2D scenes.

Tiling visits points in a canonical order, np.lexsort((z, y, x)) bit for
bit, found with one stable argsort on x and a lexsort of the tied-x runs
only. A footprint row is a slice of a y-sort put back in canonical order,
which sorts by x first, so each footprint is one run of its row.

A scale's blocks are sampled in groups of at most SAMPLE_GROUP_ROWS
rows. Only each block's random draws run block by block; the gather of
its points, the jitter and the features run once per group over
(blocks, rows) arrays, and a single block (sample_block,
assemble_features) is the one-block case of the same code.

Feature columns per sampled point (all float32):

    0-2  x, y, z minus the centroid of the block's sampled points
    3-5  IR, R, G scaled to [0,1]
    6-8  x, y, z normalized to the scene extent, clipped to [0,1]
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .io import (PointCloud, SamplingError, BoundsError, ShapeError, _sample,
                 sample_raster)

log = logging.getLogger(__name__)

FEATURE_DIM = 9
MIN_BLOCK_POINTS = 10

# the columns each feature ablation feeds the network; a network's input
# width names its set
FEATURE_SETS = {
    "both": tuple(range(FEATURE_DIM)),
    "xyz": (0, 1, 2, 6, 7, 8),       # centered + scene-normalized coordinates
    "spectral": (3, 4, 5),
}

JITTER_SIGMA_XY = 0.08   # meters
JITTER_SIGMA_Z = 0.04
JITTER_MAX_XY = 0.30
JITTER_MAX_Z = 0.15

# rows sampled per group in sample_scale. It bounds the group's arrays:
# about 140 bytes a row at peak (9 MB at 2^16 rows), of which the blocks
# keep 49 (features, parents, labels)
SAMPLE_GROUP_ROWS = 2 ** 16


@dataclass
class SceneExtent:
    min_x: float
    min_y: float
    min_z: float
    max_x: float
    max_y: float
    max_z: float

    @classmethod
    def of(cls, cloud):
        # one reduction per column: on an (N, 3) array, min(axis=0) is
        # about 8x slower, and sample_scale takes the extent once per scale
        lo = [cloud.xyz[:, ax].min() for ax in range(3)]
        hi = [cloud.xyz[:, ax].max() for ax in range(3)]
        return cls(*lo, *hi)

    @property
    def mins(self):
        return np.array([self.min_x, self.min_y, self.min_z])

    @property
    def maxs(self):
        return np.array([self.max_x, self.max_y, self.max_z])


@dataclass
class Footprint:
    """One square tile with the indices of the points it contains."""

    origin_x: float
    origin_y: float
    size: float
    indices: np.ndarray   # canonical (coordinate-sorted) order


@dataclass
class Block:
    """Sampled tile ready for the network."""

    origin_x: float
    origin_y: float
    size: float
    scale_id: int
    features: np.ndarray          # (S, 9) float32
    parent_idx: np.ndarray        # (S,) int64, source-point index per row
    labels: np.ndarray | None = None  # (S,) int32
    replica: int = 0              # 0 = original scene, >0 = augmented copy

    @property
    def sample_count(self):
        return len(self.features)

    def dominant_class(self):
        """Most frequent point label; ties go to the lowest class id."""
        if self.labels is None:
            raise ValueError("block has no labels")
        return int(np.bincount(self.labels).argmax())


# ---------------------------------------------------------------------------
# per-point attribution

def attribute_spectral(cloud, image, counts=None):
    """Attach (IR,R,G) to every point by bilinear lookup in the image.

    Existing spectral values are overwritten. A sampling failure re-raises
    with the index of the first failing point. A dict passed as `counts`
    receives `attribution_clamped`, the points beyond the image's pixel
    centers that took edge-clamped values.
    """
    if image.bands != 3:
        raise ShapeError(f"spectral image must have 3 bands, got {image.bands}")
    x, y = cloud.xyz[:, 0], cloud.xyz[:, 1]
    spectral, outside, empty, clamped = _sample(image, x, y)
    try:
        if outside.any() or empty.any():
            sample_raster(image, x, y)   # raises the first failure's error
    except (SamplingError, BoundsError) as exc:
        raise type(exc)(f"point {exc.index}: {exc}") from None
    clamped = int(clamped.sum())
    if counts is not None:
        counts["attribution_clamped"] = clamped
    if clamped:
        log.warning("attribute_spectral: %d point(s) beyond the image "
                    "footprint took edge-clamped values", clamped)
    return PointCloud(cloud.xyz.copy(), spectral, _copy(cloud.labels))


def normalize_height(cloud, dtm, counts=None):
    """Subtract the terrain height under each point (raw difference, no
    clamping at zero). Points over nodata terrain or outside the DTM
    extent are dropped; both counts are logged, and a dict passed as
    `counts` receives them as `dtm_dropped_nodata` and
    `dtm_dropped_outside`. A DTM that covers none of the points raises a
    ValueError naming both counts."""
    if dtm.bands != 1:
        raise ShapeError(f"DTM must be single-band, got {dtm.bands} bands")
    terrain, outside, empty, _ = _sample(dtm, cloud.xyz[:, 0], cloud.xyz[:, 1])
    nodata = empty[:, 0] & ~outside
    keep = ~(outside | nodata)
    n_nodata, n_outside = int(nodata.sum()), int(outside.sum())
    if counts is not None:
        counts["dtm_dropped_nodata"] = n_nodata
        counts["dtm_dropped_outside"] = n_outside
    if len(cloud) and not keep.any():
        raise ValueError(f"the DTM covers none of the {len(cloud)} points: "
                         f"{n_nodata} over nodata terrain and {n_outside} "
                         f"outside the DTM extent")
    if n_nodata or n_outside:
        log.warning("normalize_height: dropped %d point(s) over nodata "
                    "terrain and %d outside the DTM extent",
                    n_nodata, n_outside)
    out = cloud.select(keep)
    out.xyz[:, 2] -= terrain[keep, 0]
    return out


def _copy(a):
    return None if a is None else a.copy()


# ---------------------------------------------------------------------------
# tiling and sampling

def canonical_order(cloud):
    """Point indices sorted by x, then y, then z, ties of all three in
    input order: np.lexsort((z, y, x)), bit for bit.

    One stable argsort on x orders the points; only the runs of tied x
    are then lexsorted by (y, z), which on a scanned cloud is a small
    share of the points.
    """
    xs = cloud.xyz[:, 0]
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    tied = xs_sorted[1:] == xs_sorted[:-1]
    if len(xs) and np.isnan(xs_sorted[-1]):
        # NaNs sort last and tie with each other, as in lexsort
        tied |= np.isnan(xs_sorted[1:]) & np.isnan(xs_sorted[:-1])
    if not tied.any():
        return order
    in_run = np.zeros(len(order), dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    # a run starts where a tie begins; every point of a run gets its number
    starts = np.zeros(len(order), dtype=bool)
    starts[:-1] = tied
    starts[1:] &= ~tied
    run = np.cumsum(starts)[in_run]
    members = order[in_run]
    order[in_run] = members[np.lexsort((cloud.xyz[members, 2],
                                        cloud.xyz[members, 1], run))]
    return order


def _grid(cloud, size, overlap):
    """Footprint origins along x and along y of a non-empty cloud."""
    xy = cloud.xyz[:, :2]
    bad = ~np.isfinite(xy).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"point {i} has a non-finite coordinate "
                         f"(x={xy[i, 0]}, y={xy[i, 1]}); tiling needs "
                         f"finite x and y")
    stride = size - overlap
    grid = []
    for values in (xy[:, 0], xy[:, 1]):
        lo, hi = float(values.min()), float(values.max())
        # lo + 0 * stride: a -0.0 minimum gives a 0.0 origin
        out = [lo + 0 * stride]
        while out[-1] + stride < hi:
            out.append(lo + len(out) * stride)
        grid.append(out)
    return grid


def tile_blocks(cloud, size, overlap, min_points=MIN_BLOCK_POINTS):
    """Square footprints on a stride = size - overlap grid.

    Origins start at the scene minimum and advance until the next stride
    would start at or past the maximum, so the last row/column always
    covers the far edge. Membership is inclusive on all footprint edges.
    Footprints with fewer than min_points points are discarded. A
    footprint's indices follow canonical_order, so which points it holds
    and how they are sampled do not depend on the input point order,
    except among exact xyz twins. The cost follows the points, not the
    grid: Python steps once per row of at least min_points points and
    once per footprint kept.
    """
    if not 0 <= overlap < size:
        raise ValueError(f"need 0 <= overlap < size, got overlap={overlap}, size={size}")
    if len(cloud) == 0:
        return []
    origins_x, origins_y = _grid(cloud, size, overlap)
    order = canonical_order(cloud)
    by_y = np.argsort(cloud.xyz[order, 1])
    ys = cloud.xyz[order[by_y], 1]
    # row r holds the points with origins_y[r] <= y <= origins_y[r] + size
    row_lo = np.searchsorted(ys, origins_y, side="left")
    row_hi = np.searchsorted(ys, np.add(origins_y, size), side="right")
    ox = np.array(origins_x)
    footprints = []
    for r in np.flatnonzero(row_hi - row_lo >= min_points):
        # canonical positions ascending: x ascends, so a footprint is a run
        members = order[np.sort(by_y[row_lo[r]:row_hi[r]])]
        xs = cloud.xyz[members, 0]
        lo = np.searchsorted(xs, ox, side="left")
        hi = np.searchsorted(xs, ox + size, side="right")
        footprints.extend(Footprint(origins_x[c], origins_y[r], size,
                                    members[lo[c]:hi[c]])
                          for c in np.flatnonzero(hi - lo >= min_points))
    return footprints


def _jitter_draws(rng, n):
    """n unclipped jitter deltas per axis, drawn x, then y, then z."""
    return (rng.normal(0.0, JITTER_SIGMA_XY, n),
            rng.normal(0.0, JITTER_SIGMA_XY, n),
            rng.normal(0.0, JITTER_SIGMA_Z, n))


def _jitter_deltas(draws):
    """Per axis, the deltas of a list of _jitter_draws results laid end to
    end, clipped."""
    return [np.clip(np.concatenate(column), -limit, limit) for column, limit
            in zip(zip(*draws), (JITTER_MAX_XY, JITTER_MAX_XY, JITTER_MAX_Z))]


def sample_block(cloud, footprint, count, training, rng, extent,
                 scale_id=0, replica=0):
    """Draw exactly `count` rows from a footprint and assemble features.

    With at least `count` members, a uniform sample without replacement
    (a full shuffle when equal). With fewer, every member appears once and
    the remainder is drawn with replacement; in training mode each
    duplicate row is jittered so no two rows coincide, at test time
    duplicates are exact repeats. parent_idx maps every row back to its
    source point. This is the one-block case of sample_scale's groups.
    """
    n = len(footprint.indices)
    if n < MIN_BLOCK_POINTS:
        raise ValueError(f"footprint holds {n} points; caller must discard < "
                         f"{MIN_BLOCK_POINTS}")
    return _sample_group(cloud, [footprint], count, training, [rng], extent,
                         scale_id, replica)[0]


def _sample_group(cloud, footprints, count, training, rngs, extent,
                  scale_id, replica):
    """sample_block for each footprint, the i-th drawn from rngs[i].

    Per block only the random draws run: `choice`, or `permutation` then
    `integers` when the footprint holds fewer than `count` points, then in
    training mode the three jitter draws for its duplicate rows. The
    gather, jitter and features run once over (blocks, rows) arrays, and
    each Block holds views of the group's arrays.
    """
    sizes = [len(fp.indices) for fp in footprints]
    parent = np.empty((len(footprints), count), dtype=np.int64)
    draws = []
    for b, (fp, n, rng) in enumerate(zip(footprints, sizes, rngs)):
        if n >= count:
            sel = rng.choice(n, size=count, replace=False)
        else:
            base = rng.permutation(n)
            extra = rng.integers(0, n, size=count - n)
            sel = np.concatenate([base, extra])
            if training:
                draws.append(_jitter_draws(rng, count - n))
        parent[b] = fp.indices[sel]
    coords = np.take(cloud.xyz, parent, axis=0)
    if draws:
        # each block's duplicates are its rows after its first n; only they
        # move, since adding even 0.0 would turn a -0.0 into 0.0
        dup = np.flatnonzero(np.arange(count) >= np.array(sizes)[:, None])
        rows = coords.reshape(-1, 3)
        for ax, delta in enumerate(_jitter_deltas(draws)):
            rows[dup, ax] += delta
    spectral = (None if cloud.spectral is None
                else np.take(cloud.spectral, parent, axis=0))
    features = _features(coords, spectral, extent)
    labels = None if cloud.labels is None else cloud.labels[parent]
    return [Block(fp.origin_x, fp.origin_y, fp.size, scale_id, features[b],
                  parent[b], None if labels is None else labels[b], replica)
            for b, fp in enumerate(footprints)]


def assemble_features(coords, spectral, extent):
    """Build the (S,9) float32 feature matrix for one block.

    coords are the sampled (possibly jittered) world coordinates. Columns
    0-2 subtract the centroid of these rows; 6-8 normalize against the
    scene extent with degenerate axes pinned at 0.5 and values clipped to
    [0,1] (jitter can push a point slightly outside the extent).
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    if spectral is not None:
        spectral = np.asarray(spectral, dtype=np.float64).reshape(-1, 3)
        if len(spectral) != len(coords):
            raise ShapeError("spectral length != coordinate length")
    return _features(coords, spectral, extent)


def _features(coords, spectral, extent):
    """assemble_features of blocks of S rows: (..., S, 3) float64 coords
    and spectral values give (..., S, 9) float32 features."""
    if spectral is None:
        raise ValueError("points must be spectrally attributed before feature "
                         "assembly")
    span = extent.maxs - extent.mins
    if np.all(span == 0):
        raise ValueError("scene extent is degenerate on all axes")
    out = np.empty(coords.shape[:-1] + (FEATURE_DIM,), dtype=np.float32)
    # each block's rows added in row order, the bits of one block's
    # mean(axis=0): with the rows axis first, the sum adds whole rows,
    # while numpy sums along a contiguous rows axis pairwise
    centroid = np.moveaxis(coords, -2, 0).copy().sum(axis=0) / coords.shape[-2]
    # float64 results, each rounded once into its float32 column
    np.divide(spectral, 255.0, out=out[..., 3:6], casting="same_kind")
    for ax in range(3):
        column = coords[..., ax]
        np.subtract(column, centroid[..., ax, None], out=out[..., ax],
                    casting="same_kind")
        if span[ax] == 0:
            out[..., 6 + ax] = 0.5
        else:
            np.clip((column - extent.mins[ax]) / span[ax], 0.0, 1.0,
                    out=out[..., 6 + ax], casting="same_kind")
    return out


# ---------------------------------------------------------------------------
# augmentation

def augment_rotate_z(cloud, angle, pivot=None):
    """Rotate x,y about a pivot (default: scene xy-centroid); z, spectral
    and labels are untouched."""
    if pivot is None:
        pivot = cloud.xyz[:, :2].mean(axis=0)
    c, s = np.cos(angle), np.sin(angle)
    xy = cloud.xyz[:, :2] - pivot
    rot = np.empty_like(cloud.xyz)
    rot[:, 0] = xy[:, 0] * c - xy[:, 1] * s + pivot[0]
    rot[:, 1] = xy[:, 0] * s + xy[:, 1] * c + pivot[1]
    rot[:, 2] = cloud.xyz[:, 2]
    return PointCloud(rot, _copy(cloud.spectral), _copy(cloud.labels))


def augment_jitter(cloud, rng):
    """Additive Gaussian noise, sigma 0.08 m horizontal / 0.04 m vertical,
    clipped per component at 0.30 m / 0.15 m."""
    xyz = cloud.xyz + np.stack(_jitter_deltas([_jitter_draws(rng, len(cloud))]),
                               axis=1)
    return PointCloud(xyz, _copy(cloud.spectral), _copy(cloud.labels))


# ---------------------------------------------------------------------------
# 2D rasters as point arrays

def raster_to_points(dsm, image):
    """One point per raster pixel: (x,y) in pixel units, z from the DSM,
    spectral from the image. Nodata DSM pixels are skipped."""
    if dsm.bands != 1:
        raise ShapeError(f"DSM must be single-band, got {dsm.bands}")
    if image.bands != 3:
        raise ShapeError(f"image must have 3 bands, got {image.bands}")
    if (dsm.height, dsm.width) != (image.height, image.width):
        raise ShapeError(
            f"DSM {dsm.height}x{dsm.width} and image "
            f"{image.height}x{image.width} sizes differ")
    cols, rows = np.meshgrid(np.arange(dsm.width), np.arange(dsm.height))
    z = dsm.data[0]
    keep = (z != dsm.nodata).reshape(-1)
    xyz = np.stack([cols.reshape(-1), rows.reshape(-1), z.reshape(-1)],
                   axis=1).astype(np.float64)[keep]
    spectral = image.data.transpose(1, 2, 0).reshape(-1, 3)[keep]
    return PointCloud(xyz, spectral.copy(), None)


# ---------------------------------------------------------------------------
# whole-scene block generation

def feature_set(width):
    """Name of the FEATURE_SETS entry a network of input width `width`
    reads; ValueError when no set has that many columns."""
    for name, columns in FEATURE_SETS.items():
        if len(columns) == width:
            return name
    known = ", ".join(f"{len(c)}={n}" for n, c in FEATURE_SETS.items())
    raise ValueError(f"network input width {width} matches no feature set "
                     f"({known})")


def block_rng(seed, scale_id, block_index, replica=0):
    """Per-block generator; serial and parallel runs agree exactly."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), int(scale_id), int(block_index),
                                int(replica))))


def sample_scale(scene, scale, scale_id, seed, training, replica=0,
                 counts=None):
    """Yield one scale's blocks of `scene` in footprint order.

    scale is an object with size/overlap/sample_count fields. Each block
    is drawn from its own block_rng(seed, scale_id, footprint index,
    replica), so a block depends only on the scene, the scale, the seed
    and the replica, never on which blocks were drawn before it. Blocks
    are sampled in groups of at most SAMPLE_GROUP_ROWS rows (at least one
    block), each bitwise what sample_block gives on its footprint and
    generator. The scene extent is taken once a footprint is kept, so a
    scene that is empty or whose footprints are all discarded yields
    nothing and raises nothing.

    A dict passed as `counts` gains, when sampling starts, the scale's
    `footprints_kept`, `footprints_discarded` (fewer than
    MIN_BLOCK_POINTS points), `rows` sampled and `duplicated_rows` (rows
    repeating a point of their block: a footprint of n < sample_count
    points repeats sample_count - n).
    """
    footprints = tile_blocks(scene, scale.size, scale.overlap)
    if counts is not None:
        cells = 0
        if len(scene):
            cells = math.prod(map(len, _grid(scene, scale.size, scale.overlap)))
        count = scale.sample_count
        for key, value in (
                ("footprints_kept", len(footprints)),
                ("footprints_discarded", cells - len(footprints)),
                ("rows", count * len(footprints)),
                ("duplicated_rows", sum(max(count - len(fp.indices), 0)
                                        for fp in footprints))):
            counts[key] = counts.get(key, 0) + value
    if not footprints:
        return
    # taken only once a footprint is kept: an empty scene has no extent
    extent = SceneExtent.of(scene)
    per_group = max(1, SAMPLE_GROUP_ROWS // scale.sample_count)
    for start in range(0, len(footprints), per_group):
        group = footprints[start:start + per_group]
        rngs = [block_rng(seed, scale_id, bi, replica)
                for bi in range(start, start + len(group))]
        yield from _sample_group(scene, group, scale.sample_count, training,
                                 rngs, extent, scale_id, replica)


def build_blocks(cloud, scales, seed, training=True, augment_copies=0,
                 counts=None):
    """Tile and sample a whole scene at every scale.

    scales is a sequence of objects with size/overlap/sample_count fields.
    augment_copies (>= 0) adds that many rotated+jittered replicas of the
    scene (training only); replica blocks carry replica >= 1.

    A dict passed as `counts` receives per scale i the sample_scale counts
    as `scale{i}.footprints_kept`, `.footprints_discarded`, `.rows` and
    `.duplicated_rows`, summed over the scene and its replicas, and
    `.duplicated_fraction` (duplicated rows over rows).
    """
    if augment_copies < 0:
        raise ValueError(f"augment_copies must be >= 0, got {augment_copies}")
    tallies = [{} for _ in scales]
    out = []
    scene_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xA46)))
    for replica in range(augment_copies + 1):
        if replica == 0:
            scene = cloud
        else:
            angle = scene_rng.uniform(0.0, 2.0 * np.pi)
            scene = augment_jitter(augment_rotate_z(cloud, angle), scene_rng)
        for scale_id, sc in enumerate(scales):
            out.extend(sample_scale(scene, sc, scale_id, seed, training,
                                    replica, tallies[scale_id]))
    if counts is not None:
        for scale_id, tally in enumerate(tallies):
            tally["duplicated_fraction"] = (
                tally["duplicated_rows"] / tally["rows"] if tally["rows"] else 0.0)
            counts.update({f"scale{scale_id}.{k}": v for k, v in tally.items()})
    return out
