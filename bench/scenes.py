"""Synthetic labeled scenes and the files the benchmark hands to pointlabel.

Every scene is three separable strata, as in the package's acceptance
tests: class c lies at height LAYER_Z[c] + U(0, 1) m above the terrain
with spectral tone TONES[c] + N(0, 8). The density (points per m²)
alone decides how many sampled rows repeat a point. All randomness comes
from the generator passed in.
"""

import numpy as np

from pointlabel import io as pio
from pointlabel.io import PointCloud, Raster

TONES = (40.0, 130.0, 220.0)
LAYER_Z = (0.0, 5.0, 10.0)


def terrain(x, y):
    """Planar terrain; bilinear DTM lookup reproduces it exactly inside
    the grid."""
    return 100.0 + 0.05 * x + 0.03 * y


def strata(rng, side, width, shares=(1 / 3, 1 / 3, 1 / 3), with_terrain=False):
    """side² labeled, spectrally attributed points on a width x width tile.

    Points sit on a jittered scan grid, one per cell, so every footprint
    holds close to its area's share of points and the set of footprints
    kept by the 10-point rule does not change from seed to seed. Classes
    are dealt to the cells at random in the given shares.
    """
    n = side * side
    cell = width / side
    ij = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(n, 2)
    xy = (ij + rng.uniform(0.0, 1.0, size=(n, 2))) * cell
    counts = [int(n * s) for s in shares]
    counts[0] += n - sum(counts)
    labels = rng.permutation(np.repeat(np.arange(3, dtype=np.int32), counts))
    z = np.asarray(LAYER_Z)[labels] + rng.uniform(0.0, 1.0, size=n)
    if with_terrain:
        z = z + terrain(xy[:, 0], xy[:, 1])
    spectral = np.clip(np.asarray(TONES)[labels, None]
                       + rng.normal(0.0, 8.0, size=(n, 3)), 0.0, 255.0)
    return PointCloud(np.column_stack([xy, z]), spectral, labels)


def write_rasters(rng, width, image_path, dtm_path, cell=0.5):
    """A smooth random IR/R/G image and the terrain DTM covering the tile
    with one cell of margin, as a P3 PPM (+ .wld) and an ESRI ASCII grid."""
    pixels = int(np.ceil(width / cell)) + 3
    origin_x, origin_y = -cell, width + cell       # upper-left pixel center
    cx = origin_x + cell * np.arange(pixels)
    cy = origin_y - cell * np.arange(pixels)
    gx, gy = np.meshgrid(cx, cy)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))
    image = np.stack([127.5 + 100.0 * np.sin(0.3 * gx + a) * np.cos(0.2 * gy + b)
                      for a, b in phase])
    pio.write_ppm_image(image_path, Raster(image.round(), origin_x, origin_y, cell))
    dtm = Raster(terrain(gx, gy), origin_x, origin_y, cell)
    with open(dtm_path, "w", encoding="utf-8") as fh:
        fh.write(pio.write_ascii_grid(dtm))


def write_raw(path, cloud):
    """Unattributed survey file: x y z label."""
    pio.save_points(path, PointCloud(cloud.xyz, None, cloud.labels))


def write_attributed(path, cloud):
    """Preprocessed point file without truth: x y z ir r g."""
    pio.save_points(path, PointCloud(cloud.xyz, cloud.spectral, None))
