"""Scene preprocessing: spectral attribution, terrain normalization,
multi-scale square tiling, per-block sampling and 9-column feature
assembly, plus the training augmentations (z-rotation, clipped jitter)
and the raster-to-points restructuring used for 2D scenes.

Feature columns per sampled point (all float32):

    0-2  x, y, z minus the centroid of the block's sampled points
    3-5  IR, R, G scaled to [0,1]
    6-8  x, y, z normalized to the scene extent, clipped to [0,1]
"""

import logging
from dataclasses import dataclass

import numpy as np

from .io import (PointCloud, SamplingError, BoundsError, _sample,
                 raster_overhang, sample_raster)
from .linalg import ShapeError

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

def attribute_spectral(cloud, image):
    """Attach (IR,R,G) to every point by bilinear lookup in the image.

    Existing spectral values are overwritten. A sampling failure re-raises
    with the index of the first failing point.
    """
    if image.bands != 3:
        raise ShapeError(f"spectral image must have 3 bands, got {image.bands}")
    x, y = cloud.xyz[:, 0], cloud.xyz[:, 1]
    try:
        spectral = sample_raster(image, x, y)
    except (SamplingError, BoundsError) as exc:
        raise type(exc)(f"point {exc.index}: {exc}") from None
    clamped = int(raster_overhang(image, x, y)[0].sum())
    if clamped:
        log.warning("attribute_spectral: %d point(s) beyond the image "
                    "footprint took edge-clamped values", clamped)
    return PointCloud(cloud.xyz.copy(), spectral, _copy(cloud.labels))


def normalize_height(cloud, dtm):
    """Subtract the terrain height under each point (raw difference, no
    clamping at zero). Points over nodata terrain or outside the DTM
    extent are dropped; both counts are logged."""
    if dtm.bands != 1:
        raise ShapeError(f"DTM must be single-band, got {dtm.bands} bands")
    terrain, outside, empty = _sample(dtm, cloud.xyz[:, 0], cloud.xyz[:, 1])
    nodata = empty[:, 0] & ~outside
    keep = ~(outside | nodata)
    if not keep.all():
        log.warning("normalize_height: dropped %d point(s) over nodata "
                    "terrain and %d outside the DTM extent",
                    int(nodata.sum()), int(outside.sum()))
    xyz = cloud.xyz[keep]
    xyz[:, 2] -= terrain[keep, 0]
    return PointCloud(xyz,
                      cloud.spectral[keep] if cloud.spectral is not None else None,
                      cloud.labels[keep] if cloud.labels is not None else None)


def _copy(a):
    return None if a is None else a.copy()


# ---------------------------------------------------------------------------
# tiling and sampling

def tile_blocks(cloud, size, overlap, min_points=MIN_BLOCK_POINTS):
    """Square footprints on a stride = size - overlap grid.

    Origins start at the scene minimum and advance until the next stride
    would start at or past the maximum, so the last row/column always
    covers the far edge. Membership is inclusive on all footprint edges.
    Footprints with fewer than min_points points are discarded.
    """
    if not 0 <= overlap < size:
        raise ValueError(f"need 0 <= overlap < size, got overlap={overlap}, size={size}")
    if len(cloud) == 0:
        return []
    stride = size - overlap
    xs = cloud.xyz[:, 0]
    ys = cloud.xyz[:, 1]
    min_x, max_x = float(xs.min()), float(xs.max())
    min_y, max_y = float(ys.min()), float(ys.max())

    def origins(lo, hi):
        out = []
        k = 0
        while True:
            o = lo + k * stride
            out.append(o)
            if o + stride >= hi:
                return out
            k += 1

    # canonical point order: coordinate-sorted, so footprint membership and
    # downstream sampling do not depend on the input point order
    order = np.lexsort((cloud.xyz[:, 2], ys, xs))
    xs_sorted = xs[order]

    footprints = []
    for oy in origins(min_y, max_y):
        for ox in origins(min_x, max_x):
            lo = np.searchsorted(xs_sorted, ox, side="left")
            hi = np.searchsorted(xs_sorted, ox + size, side="right")
            cand = order[lo:hi]
            yy = ys[cand]
            members = cand[(yy >= oy) & (yy <= oy + size)]
            if len(members) >= min_points:
                footprints.append(Footprint(ox, oy, size, members))
    return footprints


def _jitter_deltas(rng, n):
    d = np.empty((n, 3), dtype=np.float64)
    d[:, 0] = rng.normal(0.0, JITTER_SIGMA_XY, n)
    d[:, 1] = rng.normal(0.0, JITTER_SIGMA_XY, n)
    d[:, 2] = rng.normal(0.0, JITTER_SIGMA_Z, n)
    d[:, :2] = np.clip(d[:, :2], -JITTER_MAX_XY, JITTER_MAX_XY)
    d[:, 2] = np.clip(d[:, 2], -JITTER_MAX_Z, JITTER_MAX_Z)
    return d


def sample_block(cloud, footprint, count, training, rng, extent,
                 scale_id=0, replica=0):
    """Draw exactly `count` rows from a footprint and assemble features.

    With at least `count` members, a uniform sample without replacement
    (a full shuffle when equal). With fewer, every member appears once and
    the remainder is drawn with replacement; in training mode each
    duplicate row is jittered so no two rows coincide, at test time
    duplicates are exact repeats. parent_idx maps every row back to its
    source point.
    """
    idx = footprint.indices
    n = len(idx)
    if n < MIN_BLOCK_POINTS:
        raise ValueError(f"footprint holds {n} points; caller must discard < "
                         f"{MIN_BLOCK_POINTS}")
    if n >= count:
        sel = rng.choice(n, size=count, replace=False)
        dup = np.zeros(count, dtype=bool)
    else:
        base = rng.permutation(n)
        extra = rng.integers(0, n, size=count - n)
        sel = np.concatenate([base, extra])
        dup = np.zeros(count, dtype=bool)
        dup[n:] = True
    parent = idx[sel].astype(np.int64)
    coords = cloud.xyz[parent].copy()
    if training and dup.any():
        coords[dup] += _jitter_deltas(rng, int(dup.sum()))
    spectral = cloud.spectral[parent] if cloud.spectral is not None else None
    features = assemble_features(coords, spectral, extent)
    labels = cloud.labels[parent].copy() if cloud.labels is not None else None
    return Block(footprint.origin_x, footprint.origin_y, footprint.size,
                 scale_id, features, parent, labels, replica)


def assemble_features(coords, spectral, extent):
    """Build the (S,9) float32 feature matrix for one block.

    coords are the sampled (possibly jittered) world coordinates. Columns
    0-2 subtract the centroid of these rows; 6-8 normalize against the
    scene extent with degenerate axes pinned at 0.5 and values clipped to
    [0,1] (jitter can push a point slightly outside the extent).
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    if spectral is None:
        raise ValueError("points must be spectrally attributed before feature "
                         "assembly")
    spectral = np.asarray(spectral, dtype=np.float64).reshape(-1, 3)
    if len(spectral) != len(coords):
        raise ShapeError("spectral length != coordinate length")
    span = extent.maxs - extent.mins
    if np.all(span == 0):
        raise ValueError("scene extent is degenerate on all axes")
    out = np.empty((len(coords), FEATURE_DIM), dtype=np.float32)
    out[:, 0:3] = coords - coords.mean(axis=0)
    out[:, 3:6] = spectral / 255.0
    norm = np.empty_like(coords)
    for ax in range(3):
        if span[ax] == 0:
            norm[:, ax] = 0.5
        else:
            norm[:, ax] = (coords[:, ax] - extent.mins[ax]) / span[ax]
    out[:, 6:9] = np.clip(norm, 0.0, 1.0)
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
    xyz = cloud.xyz + _jitter_deltas(rng, len(cloud))
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


def sample_scale(scene, scale, scale_id, seed, training, replica=0):
    """Yield one scale's blocks of `scene` in footprint order.

    scale is an object with size/overlap/sample_count fields. Each block
    is drawn from its own block_rng(seed, scale_id, footprint index,
    replica), so a block depends only on the scene, the scale, the seed
    and the replica, never on which blocks were drawn before it.
    """
    extent = SceneExtent.of(scene)
    for bi, fp in enumerate(tile_blocks(scene, scale.size, scale.overlap)):
        yield sample_block(scene, fp, scale.sample_count, training,
                           block_rng(seed, scale_id, bi, replica), extent,
                           scale_id, replica)


def build_blocks(cloud, scales, seed, training=True, augment_copies=0):
    """Tile and sample a whole scene at every scale.

    scales is a sequence of objects with size/overlap/sample_count fields.
    augment_copies (>= 0) adds that many rotated+jittered replicas of the
    scene (training only); replica blocks carry replica >= 1.
    """
    if augment_copies < 0:
        raise ValueError(f"augment_copies must be >= 0, got {augment_copies}")
    out = []
    scene_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xA46)))
    for replica in range(augment_copies + 1):
        if replica == 0:
            scene = cloud
        else:
            angle = scene_rng.uniform(0.0, 2.0 * np.pi)
            scene = augment_jitter(augment_rotate_z(cloud, angle), scene_rng)
        for scale_id, sc in enumerate(scales):
            out.extend(sample_scale(scene, sc, scale_id, seed, training, replica))
    return out
