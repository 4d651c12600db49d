"""Scene preprocessing: spectral attribution, terrain normalization,
multi-scale square tiling, per-block sampling and 9-column feature
assembly, plus the training augmentations (z-rotation, clipped jitter)
and the raster-to-points restructuring used for 2D scenes.

Tiling visits points in a canonical order, np.lexsort((z, y, x)) bit for
bit, found with one stable argsort on x and a lexsort of the tied-x runs
only. A footprint row is a slice of a y-sort put back in canonical order,
which sorts by x first, so each footprint is one run of its row.

tile_scale gives one Tiling, the kept footprints of a scene (or
replica) at one scale; tile_scene lists them for every replica and
scale, and tiling_counts counts them. sample_scene, the one sampler,
yields the blocks of a list of tilings lazily, so the block store can
free each group before the next is drawn. build_blocks is the whole
scene's stream as a list.

Footprints are sampled in groups of at most SAMPLE_GROUP_ROWS rows.
Only each block's random draws run block by block; the gather of its
points, the jitter and the features run once per group over (blocks,
rows) arrays, and a single block (sample_block) is the one-block case of
the same code.

Feature columns per sampled point (all float32):

    0-2  x, y, z minus the centroid of the block's sampled points
    3-5  IR, R, G scaled to [0,1]
    6-8  x, y, z normalized to the scene extent, clipped to [0,1]
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .io import PointCloud, ShapeError, _raise_failure, _sample

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

# rows sampled per group in sample_scene. It bounds the group's arrays:
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
        # about 8x slower, and sample_scene takes the extent once per tiling
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

    Existing spectral values are overwritten. The image is sampled once;
    the lowest-indexed point that fails raises BoundsError when it lies
    beyond the half-cell margin around the image's outermost pixel
    centers, else SamplingError when a band holds only nodata around it,
    the message naming the point. A dict passed as `counts` receives
    `attribution_clamped`, the points beyond the image's pixel centers
    that took edge-clamped values.
    """
    if image.bands != 3:
        raise ShapeError(f"spectral image must have 3 bands, got {image.bands}")
    x, y = cloud.xyz[:, 0], cloud.xyz[:, 1]
    spectral, outside, empty, clamped = _sample(image, x, y)
    _raise_failure(image, x, y, outside, empty)
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
    input order: np.lexsort((z, y, x)), bit for bit, for finite x (its
    one caller, tile_blocks, refuses any other).

    One stable argsort on x orders the points; only the runs of tied x
    are then lexsorted by (y, z), which on a scanned cloud is a small
    share of the points.
    """
    xs = cloud.xyz[:, 0]
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    tied = xs_sorted[1:] == xs_sorted[:-1]
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
        # origin j = lo + j * stride (a -0.0 minimum gives a 0.0 origin),
        # and origin j + 1 follows while origin j + stride < hi: the loop
        # that test comes from, run from an estimate of the last j
        last = max(0, math.ceil((hi - lo) / stride) - 1)
        while last > 0 and not lo + (last - 1) * stride + stride < hi:
            last -= 1
        while lo + last * stride + stride < hi:
            last += 1
        grid.append((lo + np.arange(last + 1) * stride).tolist())
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
    once per footprint kept, and a row searches only the columns its
    points span (every column when min_points < 1 keeps empty cells).
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
    oy = np.array(origins_y)
    row_lo = np.searchsorted(ys, oy, side="left")
    row_hi = np.searchsorted(ys, oy + size, side="right")
    ox = np.array(origins_x)
    ox_far = ox + size
    footprints = []
    for r in np.flatnonzero(row_hi - row_lo >= min_points):
        # canonical positions ascending: x ascends, so a footprint is a run
        members = order[np.sort(by_y[row_lo[r]:row_hi[r]])]
        xs = cloud.xyz[members, 0]
        first, stop = 0, len(ox)
        if min_points >= 1:
            # the other columns end short of the row or start past its end
            first = int(np.searchsorted(ox_far, xs[0], side="left"))
            stop = int(np.searchsorted(ox, xs[-1], side="right"))
        lo = np.searchsorted(xs, ox[first:stop], side="left")
        hi = np.searchsorted(xs, ox_far[first:stop], side="right")
        footprints.extend(Footprint(origins_x[first + c], origins_y[r], size,
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
    source point. This is the one-block case of sample_scene's groups.
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


def _features(coords, spectral, extent):
    """The float32 feature matrices of blocks of S rows: (..., S, 3)
    float64 coords and spectral values give (..., S, 9) features.

    coords are the sampled (possibly jittered) world coordinates. Columns
    0-2 subtract the centroid of each block's rows; 3-5 scale IR, R, G
    by 1/255; 6-8 normalize against the scene extent with degenerate
    axes pinned at 0.5 and values clipped to [0,1] (jitter can push a
    point slightly outside the extent).
    """
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

def augment_rotate_z(cloud, angle):
    """Rotate x,y about the scene's xy-centroid; z, spectral and labels
    are untouched. An empty cloud, which has no centroid, stays empty."""
    # an empty mean warns "Mean of empty slice"; any pivot rotates no point
    pivot = cloud.xyz[:, :2].mean(axis=0) if len(cloud) else np.zeros(2)
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


@dataclass
class Tiling:
    """The kept footprints of one (replica, scale) pair of a scene."""

    scene: PointCloud             # the scene or its augmented replica
    scale: object                 # size/overlap/sample_count fields
    scale_id: int
    replica: int
    footprints: list              # in tiling order


def tile_scale(scene, scale, scale_id, replica):
    """The Tiling of `scene` at one scale."""
    return Tiling(scene, scale, scale_id, replica,
                  tile_blocks(scene, scale.size, scale.overlap))


def tile_scene(cloud, scales, seed, augment_copies=0):
    """Tile a whole scene at every scale: one Tiling per (replica, scale)
    pair, replica-major, each tiled once.

    scales is a sequence of objects with size/overlap/sample_count fields.
    augment_copies (>= 0) adds that many rotated+jittered replicas of the
    scene (training only); their footprints carry replica >= 1.
    """
    if augment_copies < 0:
        raise ValueError(f"augment_copies must be >= 0, got {augment_copies}")
    tilings = []
    scene_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xA46)))
    for replica in range(augment_copies + 1):
        if replica == 0:
            scene = cloud
        else:
            angle = scene_rng.uniform(0.0, 2.0 * np.pi)
            scene = augment_jitter(augment_rotate_z(cloud, angle), scene_rng)
        tilings.extend(tile_scale(scene, sc, scale_id, replica)
                       for scale_id, sc in enumerate(scales))
    return tilings


def tiling_counts(tilings):
    """Per scale id i of `tilings`, summed over its replicas:
    `scale{i}.footprints_kept`, `.footprints_discarded` (fewer than
    MIN_BLOCK_POINTS points), `.rows` to be sampled, `.duplicated_rows`
    (rows repeating a point of their block: a footprint of n <
    sample_count points repeats sample_count - n) and
    `.duplicated_fraction` (duplicated rows over rows, 0.0 without rows).
    """
    counts = {}
    for t in tilings:
        count, kept = t.scale.sample_count, len(t.footprints)
        cells = 0
        if len(t.scene):
            cells = math.prod(map(len, _grid(t.scene, t.scale.size,
                                             t.scale.overlap)))
        for key, value in (
                ("footprints_kept", kept),
                ("footprints_discarded", cells - kept),
                ("rows", count * kept),
                ("duplicated_rows", sum(max(count - len(fp.indices), 0)
                                        for fp in t.footprints))):
            key = f"scale{t.scale_id}.{key}"
            counts[key] = counts.get(key, 0) + value
    for i in {t.scale_id for t in tilings}:
        rows = counts[f"scale{i}.rows"]
        counts[f"scale{i}.duplicated_fraction"] = (
            counts[f"scale{i}.duplicated_rows"] / rows if rows else 0.0)
    return counts


def sample_scene(tilings, seed, training=True):
    """Yield the blocks of `tilings` in order, sampled at each tiling's
    sample_count in groups of at most SAMPLE_GROUP_ROWS rows (at least
    one block); a group's arrays are freed once the consumer lets go of
    its blocks, before the next group is drawn.

    Footprint i of a tiling is drawn from block_rng(seed, scale_id, i,
    replica), so each block is bitwise what sample_block gives on its
    footprint and generator, whatever was drawn before it. A tiling
    without footprints yields nothing and raises nothing: the scene
    extent is taken only when there is a footprint to sample.
    """
    for t in tilings:
        if not t.footprints:
            continue
        extent = SceneExtent.of(t.scene)
        count = t.scale.sample_count
        per_group = max(1, SAMPLE_GROUP_ROWS // count)
        for start in range(0, len(t.footprints), per_group):
            group = t.footprints[start:start + per_group]
            rngs = [block_rng(seed, t.scale_id, bi, t.replica)
                    for bi in range(start, start + len(group))]
            yield from _sample_group(t.scene, group, count, training, rngs,
                                     extent, t.scale_id, t.replica)


def build_blocks(cloud, scales, seed, training=True, augment_copies=0):
    """Tile and sample a whole scene at every scale: the blocks of
    sample_scene over tile_scene, as a list. The arguments are
    tile_scene's and sample_scene's."""
    return list(sample_scene(tile_scene(cloud, scales, seed, augment_copies),
                             seed, training))
