"""Point-cloud and raster text formats.

Point files are whitespace-delimited UTF-8 text, one point per line, with
`#` starting a comment. A column layout names each column; without one,
the column count of the first data line picks a named layout:

    xyz      x y z
    xyzL     x y z label
    xyzirg   x y z ir r g
    xyzirgL  x y z ir r g label

Raw survey exports with extra columns (intensity, return counts) pass an
explicit layout instead, "-" marking a column to discard.

Rasters come from two carriers: ESRI ASCII grids (DTM/DSM heights) and
8-bit plain-text PPM `P3` images (IR,R,G bands, maxval 255) with a 6-line
ESRI world file sidecar. Internally a Raster stores the world coordinate
of the upper-left pixel *center*; ASCII-grid corner coordinates are
converted on parse. Rasters are sampled bilinearly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError

__all__ = [
    "PointCloud", "Raster", "ParseError", "SchemaError", "SamplingError",
    "BoundsError", "parse_points", "write_points", "load_points",
    "save_points", "parse_ascii_grid", "write_ascii_grid", "read_ascii_grid",
    "read_ppm_image", "write_ppm_image", "raster_overhang", "sample_raster",
]

# rows write_points formats at a time: bounds its Python-float lists
WRITE_CHUNK_ROWS = 4096

COLUMN_NAMES = ("x", "y", "z", "ir", "r", "g", "label")
# named layouts (xyz, xyzL, xyzirg, xyzirgL) by column count
LAYOUTS = {3: COLUMN_NAMES[:3], 4: COLUMN_NAMES[:3] + ("label",),
           6: COLUMN_NAMES[:6], 7: COLUMN_NAMES}
MAX_LABEL = 2 ** 31 - 1


class ParseError(ValueError):
    """Malformed text input; the message carries the 1-based line number."""


class SchemaError(ParseError):
    """Input structure disagrees with the declared schema."""


class _QueryError(ValueError):
    """A raster query failed; index is its position among the queries of
    the sample_raster call (0 for a scalar call)."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


class SamplingError(_QueryError):
    """Raster query could not produce a value (nodata neighborhood)."""


class BoundsError(_QueryError):
    """Raster query outside the clamped extent."""


@dataclass
class PointCloud:
    """N points with optional spectral triplet (IR,R,G) and class labels."""

    xyz: np.ndarray                    # (N,3) float64, meters
    spectral: np.ndarray | None = None # (N,3) float64, 0..255
    labels: np.ndarray | None = None   # (N,) int32

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        if self.spectral is not None:
            self.spectral = np.asarray(self.spectral, dtype=np.float64).reshape(-1, 3)
            if len(self.spectral) != len(self.xyz):
                raise ShapeError("spectral length != point count")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int32).reshape(-1)
            if len(self.labels) != len(self.xyz):
                raise ShapeError("labels length != point count")

    def __len__(self):
        return len(self.xyz)

    @property
    def has_spectral(self):
        return self.spectral is not None

    @property
    def has_labels(self):
        return self.labels is not None

    def select(self, idx):
        """New cloud restricted to the given point indices."""
        return PointCloud(
            self.xyz[idx],
            self.spectral[idx] if self.spectral is not None else None,
            self.labels[idx] if self.labels is not None else None,
        )


@dataclass
class Raster:
    """Georeferenced grid; data is (bands, height, width), row 0 = north."""

    data: np.ndarray
    origin_x: float       # world x of upper-left pixel center
    origin_y: float       # world y of upper-left pixel center
    cell_size: float
    nodata: float = -9999.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim == 2:
            self.data = self.data[None, :, :]
        if self.data.ndim != 3:
            raise ShapeError(f"raster data must be 2-D or 3-D, got {self.data.shape}")
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")

    @property
    def bands(self):
        return self.data.shape[0]

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]


# ---------------------------------------------------------------------------
# point files

def _check_layout(columns):
    columns = tuple(c.strip() for c in columns)
    for c in columns:
        if c not in COLUMN_NAMES and c != "-":
            raise ValueError(f"unknown column name {c!r}")
    for c in COLUMN_NAMES:
        if columns.count(c) > 1:
            raise ValueError(f"column layout names {c!r} more than once")
    for c in ("x", "y", "z"):
        if c not in columns:
            raise ValueError(f"column layout must name {c!r}")
    if 0 < sum(c in columns for c in ("ir", "r", "g")) < 3:
        raise ValueError("spectral columns must be all of ir, r, g or none")
    return columns


def _convert(lines, layout):
    """Convert data lines of the layout's width in one numpy pass.

    Returns the kept coordinate and spectral columns as float64 (N, k) in
    x,y,z,ir,r,g order, and the int64 labels or None; "-" columns are not
    read. Raises ValueError if any value is malformed.
    """
    names = [c for c in COLUMN_NAMES[:-1] if c in layout]
    fields = [("v", np.float64, (len(names),))]
    usecols = [layout.index(c) for c in names]
    if "label" in layout:
        fields.append(("label", np.int64))
        usecols.append(layout.index("label"))
    if lines:
        table = np.loadtxt(lines, dtype=fields, usecols=usecols,
                           comments=None, ndmin=1)
    else:
        table = np.zeros(0, dtype=fields)
    return table["v"], table["label"] if "label" in layout else None


def _first_invalid(values, labels, layout):
    """(row, reason) of the first row holding a non-finite value or a label
    outside 0..MAX_LABEL, or None."""
    bad_value = ~np.isfinite(values)
    bad = bad_value.any(axis=1)
    if labels is not None:
        bad |= (labels < 0) | (labels > MAX_LABEL)
    if not bad.any():
        return None
    row = int(bad.argmax())
    if bad_value[row].any():
        name = [c for c in COLUMN_NAMES if c in layout][int(bad_value[row].argmax())]
        return row, f"non-finite {name}"
    return row, f"label {labels[row]} outside 0..{MAX_LABEL}"


def _malformed(line, layout):
    """What _convert rejects in one line: its first malformed column."""
    for name, tok in zip(layout, line.split()):
        if name == "-":
            continue
        try:
            _convert([tok], (name,))
        except ValueError:
            kind = "an integer" if name == "label" else "a number"
            return f"{name} {tok!r} is not {kind}"
    return f"malformed line {line.strip()!r}"


def parse_points(stream, columns=None):
    """Parse a point file from an iterable of text lines (or one string).

    columns names each column (x, y, z, ir, r, g, label, or "-" for a
    column to discard); x, y and z are required, and ir, r, g go together.
    Without it, the first data line's column count picks the named layout.
    Blank lines and `#` comments are skipped; point order is preserved.
    Every kept value must be finite and a label an integer in
    0..2^31-1. The first bad line is reported by its 1-based number: a
    wrong column count raises SchemaError, any other bad value ParseError.
    """
    layout = None if columns is None else _check_layout(columns)
    if isinstance(stream, str):
        stream = stream.splitlines()
    lines, linenos, width_error = [], [], None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0]
        width = len(line.split())
        if not width:
            continue
        if layout is None:
            layout = LAYOUTS.get(width)
            if layout is None:
                raise SchemaError(f"line {lineno}: {width} columns match no "
                                  f"named layout (3, 4, 6 or 7 columns)")
        if width != len(layout):
            width_error = SchemaError(f"line {lineno}: expected {len(layout)} "
                                      f"columns, got {width}")
            break
        lines.append(line)
        linenos.append(lineno)
    layout = layout or LAYOUTS[3]
    # a bad value before the first wrong column count is reported first
    malformed = None
    try:
        values, labels = _convert(lines, layout)
    except ValueError:
        # bisect for the first line that does not convert
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _convert(lines[lo:mid], layout)
                lo = mid
            except ValueError:
                hi = mid
        malformed = lo
        values, labels = _convert(lines[:lo], layout)
    invalid = _first_invalid(values, labels, layout)
    if invalid is not None:
        row, reason = invalid
        raise ParseError(f"line {linenos[row]}: {reason}")
    if malformed is not None:
        raise ParseError(f"line {linenos[malformed]}: "
                         f"{_malformed(lines[malformed], layout)}")
    if width_error is not None:
        raise width_error
    return PointCloud(values[:, :3].copy(),
                      values[:, 3:6].copy() if "ir" in layout else None,
                      labels)


def write_points(cloud, labels=None):
    """Render a cloud as point-file text.

    labels overrides cloud.labels when given. Coordinates and spectral
    values are written with 6 decimals, labels as bare integers.
    """
    if labels is None:
        labels = cloud.labels
    if labels is not None:
        labels = np.asarray(labels).reshape(-1)
        if len(labels) != len(cloud):
            raise ShapeError(f"labels length {len(labels)} != point count {len(cloud)}")
    # one format per column layout, applied to float64 rows; a label goes
    # through float64 exactly and "%d" truncates it as int() does
    cols, fmt = [cloud.xyz], ["%.6f %.6f %.6f"]
    if cloud.spectral is not None:
        cols.append(cloud.spectral)
        fmt.append("%.6f %.6f %.6f")
    if labels is not None:
        cols.append(labels.reshape(-1, 1))
        fmt.append("%d")
    fmt = " ".join(fmt) + "\n"
    parts = []
    for start in range(0, len(cloud), WRITE_CHUNK_ROWS):
        rows = np.hstack([c[start:start + WRITE_CHUNK_ROWS] for c in cols])
        parts.append("".join([fmt % tuple(r) for r in rows.tolist()]))
    return "".join(parts)


def load_points(path, columns=None):
    """Read a point file; see parse_points for columns."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh, columns)


def save_points(path, cloud, labels=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_points(cloud, labels))


# ---------------------------------------------------------------------------
# ESRI ASCII grid

_GRID_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
              "nodata_value")


def parse_ascii_grid(stream):
    """Parse an ESRI ASCII grid into a single-band Raster.

    A line is a header line when its first word is one of _GRID_KEYS, in
    any case; every other non-blank line holds grid values. Header numbers
    and grid values must be finite, and ncols and nrows positive
    integers; the first bad line raises ParseError naming it. The
    header's lower-left corner coordinates are converted to the
    upper-left pixel-center convention used by Raster.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    header = {}
    values = []
    for lineno, raw in enumerate(stream, start=1):
        toks = raw.split()
        if not toks:
            continue
        key = toks[0].lower()
        if key in _GRID_KEYS:
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: malformed header line")
            size = key in ("ncols", "nrows")
            try:
                value = int(toks[1]) if size else float(toks[1])
                ok = value >= 1 if size else math.isfinite(value)
            except ValueError:
                ok = False
            if not ok:
                want = "a positive integer" if size else "a finite number"
                raise ParseError(f"line {lineno}: {toks[0]} is {toks[1]!r}, "
                                 f"not {want}")
            header[key] = value
        else:
            try:
                row = [float(t) for t in toks]
            except ValueError:
                raise ParseError(f"line {lineno}: bad grid value") from None
            if not all(map(math.isfinite, row)):
                bad = next(t for t, v in zip(toks, row) if not math.isfinite(v))
                raise ParseError(f"line {lineno}: grid value {bad!r} is not "
                                 f"finite")
            values.extend(row)
    missing = [k for k in _GRID_KEYS if k not in header]
    if missing:
        raise ParseError(f"missing header key(s): {', '.join(missing)}")
    ncols, nrows = header["ncols"], header["nrows"]
    cell = header["cellsize"]
    if len(values) != ncols * nrows:
        raise SchemaError(
            f"expected {ncols * nrows} grid values, got {len(values)}")
    data = np.array(values, dtype=np.float64).reshape(nrows, ncols)
    return Raster(
        data,
        origin_x=header["xllcorner"] + cell / 2.0,
        origin_y=header["yllcorner"] + nrows * cell - cell / 2.0,
        cell_size=cell,
        nodata=header["nodata_value"],
    )


def write_ascii_grid(raster):
    """Render a 1-band raster back to ESRI ASCII grid text."""
    if raster.bands != 1:
        raise ShapeError(f"ASCII grid is single-band, raster has {raster.bands}")
    cell = float(raster.cell_size)
    lines = [
        f"ncols {raster.width}",
        f"nrows {raster.height}",
        f"xllcorner {float(raster.origin_x) - cell / 2.0!r}",
        f"yllcorner {float(raster.origin_y) - raster.height * cell + cell / 2.0!r}",
        f"cellsize {cell!r}",
        f"NODATA_value {float(raster.nodata)!r}",
    ]
    for row in raster.data[0]:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_ascii_grid(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ascii_grid(fh)


# ---------------------------------------------------------------------------
# PPM P3 image + world file

def _world_file_path(image_path):
    image_path = str(image_path)
    stem = image_path.rsplit(".", 1)[0] if "." in image_path else image_path
    return stem + ".wld"


def read_ppm_image(path):
    """Read an 8-bit P3 (ASCII) PPM plus its ESRI world file sidecar;
    width, height, maxval and samples must be integers, maxval 255 and
    every sample in 0..255 (ParseError otherwise)."""
    with open(path, "r", encoding="utf-8") as fh:
        toks = []
        for raw in fh:
            toks.extend(raw.split("#", 1)[0].split())
    if not toks or toks[0] != "P3":
        raise ParseError(f"{path}: expected P3 magic, got {toks[:1]}")
    try:
        width, height, maxval = int(toks[1]), int(toks[2]), int(toks[3])
    except (IndexError, ValueError):
        raise ParseError(f"{path}: malformed image header") from None
    samples = []
    for k, t in enumerate(toks[4:]):
        try:
            samples.append(int(t))
        except ValueError:
            raise ParseError(f"{path}: sample {k} is {t}, not an integer") from None
    vals = np.array(samples, dtype=np.float64)
    if maxval != 255:
        raise ParseError(f"{path}: maxval {maxval}; only 8-bit images "
                         f"(maxval 255) are supported")
    if vals.size != width * height * 3:
        raise SchemaError(
            f"{path}: expected {width * height * 3} samples, got {vals.size}")
    bad = ~((vals >= 0) & (vals <= 255))
    if bad.any():
        k = int(bad.argmax())
        raise ParseError(f"{path}: sample {k} is {vals[k]:g}, outside 0..255")
    # interleaved samples -> (bands, H, W)
    data = vals.reshape(height, width, 3).transpose(2, 0, 1)
    world_path = _world_file_path(path)
    with open(world_path, "r", encoding="utf-8") as fh:
        w = [float(line.strip()) for line in fh if line.strip()]
    if len(w) != 6:
        raise ParseError(f"{world_path}: world file needs 6 lines, got {len(w)}")
    cell_x, rot1, rot2, cell_y, ox, oy = w
    if rot1 != 0.0 or rot2 != 0.0:
        raise ParseError(f"{world_path}: rotated world files are not supported")
    if not math.isclose(cell_x, -cell_y, rel_tol=1e-9):
        raise ParseError(f"{world_path}: anisotropic cell sizes are not supported")
    return Raster(data, origin_x=ox, origin_y=oy, cell_size=cell_x, nodata=-9999.0)


def write_ppm_image(path, raster):
    """Write a 3-band raster as an 8-bit P3 image plus world file (test
    fixtures). Samples are rounded to integers, which must lie in 0..255."""
    if raster.bands != 3:
        raise ShapeError(f"P3 image needs 3 bands, raster has {raster.bands}")
    samples = np.rint(raster.data.transpose(1, 2, 0).reshape(-1))
    bad = ~((samples >= 0) & (samples <= 255))
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"sample {k} rounds to {samples[k]:g}, outside 0..255")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P3\n{raster.width} {raster.height}\n255\n")
        fh.write("\n".join(str(int(v)) for v in samples))
        fh.write("\n")
    with open(_world_file_path(path), "w", encoding="utf-8") as fh:
        for v in (raster.cell_size, 0.0, 0.0, -raster.cell_size,
                  raster.origin_x, raster.origin_y):
            fh.write(f"{float(v)!r}\n")


# ---------------------------------------------------------------------------
# raster sampling

def _pixel_coords(raster, x, y):
    """Fractional pixel coordinates (px, py) of world points, with pixel
    centers on integers, and the mask of points beyond the half-cell
    margin around the outermost pixel centers, which no query may reach."""
    px = (x - raster.origin_x) / raster.cell_size
    py = (raster.origin_y - y) / raster.cell_size
    margin = 0.5 + 1e-9
    outside = ~((-margin <= px) & (px <= raster.width - 1 + margin)
                & (-margin <= py) & (py <= raster.height - 1 + margin))
    return px, py, outside


def raster_overhang(raster, x, y):
    """Masks (clamped, outside) of world points (arrays) against a raster's
    footprint: clamped points lie in the half-cell margin beyond the
    outermost pixel centers and sample edge-clamped values; outside points
    lie beyond that margin and cannot be sampled."""
    px, py, outside = _pixel_coords(raster, x, y)
    span = ((0 <= px) & (px <= raster.width - 1)
            & (0 <= py) & (py <= raster.height - 1))
    return ~span & ~outside, outside


def _sample(raster, x, y):
    """Array core of sample_raster; raises nothing for a failing query.

    Returns (values, outside, empty): values is (N, bands), outside marks
    queries beyond the clamped extent, and empty (N, bands) marks bands
    whose four bilinear neighbors are all nodata. Values of failing
    queries are meaningless.
    """
    w, h = raster.width, raster.height
    px, py, outside = _pixel_coords(raster, x, y)
    # outside queries (NaN included) are parked on pixel 0 so that indexing
    # stays valid; their values are never used
    px = np.where(outside, 0.0, np.minimum(np.maximum(px, 0.0), float(w - 1)))
    py = np.where(outside, 0.0, np.minimum(np.maximum(py, 0.0), float(h - 1)))
    i0 = np.minimum(np.floor(px).astype(np.intp), max(w - 2, 0))
    j0 = np.minimum(np.floor(py).astype(np.intp), max(h - 2, 0))
    i1 = np.minimum(i0 + 1, w - 1)
    j1 = np.minimum(j0 + 1, h - 1)
    fx = px - i0
    fy = py - j0

    # per band, accumulate the neighbors in this order from 0.0, a nodata
    # neighbor adding 0.0 to both sums: every value then equals, bit for
    # bit, what a per-point loop over the same formula computes
    neighbors = ((j0, i0, (1 - fx) * (1 - fy)), (j0, i1, fx * (1 - fy)),
                 (j1, i0, (1 - fx) * fy), (j1, i1, fx * fy))
    values = np.empty((len(px), raster.bands), dtype=np.float64)
    empty = np.empty((len(px), raster.bands), dtype=bool)
    for band, plane in enumerate(raster.data):
        acc = np.zeros(len(px))
        wsum = np.zeros(len(px))
        for j, i, wgt in neighbors:
            v = plane[j, i]
            valid = v != raster.nodata
            acc += np.where(valid, wgt * v, 0.0)
            wsum += np.where(valid, wgt, 0.0)
        empty[:, band] = wsum <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            values[:, band] = acc / wsum
    return values, outside, empty


def sample_raster(raster, x, y):
    """Sample every band of a raster bilinearly at world coordinates (x, y).

    x and y are scalars, giving a (bands,) result, or equal-length 1-D
    arrays, giving an (N, bands) result. Each value blends the 4
    surrounding pixel centers; nodata neighbors are excluded and the
    remaining weights renormalized. Queries up to half a cell outside the
    outermost pixel centers clamp to the edge; anything farther raises
    BoundsError. A query without a valid value raises SamplingError. Of
    several failing queries, the one with the lowest index is reported,
    its extent checked before its nodata; the exception's `index` holds
    that index.
    """
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ShapeError(f"x has {x.size} coordinates, y has {y.size}")
    values, outside, empty = _sample(raster, x, y)
    failed = outside | empty.any(axis=1)
    if failed.any():
        k = int(failed.argmax())
        if outside[k]:
            px, py, _ = _pixel_coords(raster, x[k], y[k])
            raise BoundsError(f"query ({x[k]}, {y[k]}) outside raster extent "
                              f"(pixel coords {px:.3f}, {py:.3f})", k)
        band = int(empty[k].argmax())
        raise SamplingError(f"no valid raster neighbors at ({x[k]}, {y[k]}) "
                            f"in band {band}", k)
    return values[0] if scalar else values
