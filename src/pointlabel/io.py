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

A file is read in one np.loadtxt pass over all its lines; when that pass
fails or finds an invalid value, the lines are bisected with the same
conversion to find the first bad line, and that line alone is classified
to name what is wrong with it. The writer renders each chunk of rows as
a byte matrix of digits and matches Python's "%.6f" (values) and "%d"
(labels) byte for byte: a row holding a value whose rounding the matrix
cannot vouch for (non-finite, within 2^-50 relative of a tie, or
|v| * 1e6 of 2^52 and beyond) is formatted by Python.

Rasters come from two carriers: ESRI ASCII grids (DTM/DSM heights) and
8-bit plain-text PPM `P3` images (IR,R,G bands, maxval 255) with a 6-line
ESRI world file sidecar. Internally a Raster stores the world coordinate
of the upper-left pixel *center*; ASCII-grid corner coordinates are
converted on parse. Rasters are sampled bilinearly, by one array
sampler (_sample) that marks failing queries instead of raising.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointCloud", "Raster", "ParseError", "SchemaError", "ShapeError",
    "SamplingError", "BoundsError", "parse_points", "load_points",
    "save_points", "save_values", "parse_ascii_grid", "write_ascii_grid",
    "read_ascii_grid", "read_ppm_image", "write_ppm_image",
]

# rows the writer renders at a time: bounds its byte matrices
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


class ShapeError(ValueError):
    """Arrays have incompatible or non-2D shapes."""


class SamplingError(ValueError):
    """A raster query without a value: in some band its four bilinear
    neighbors are all nodata."""


class BoundsError(ValueError):
    """A raster query beyond the half-cell margin around the outermost
    pixel centers."""


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
        """New cloud holding copies of the points idx picks (indices or a
        boolean mask)."""
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


def _table(lines, layout):
    """The reader's one np.loadtxt call: one pass over raw lines, comments
    and blank lines included, that types every column of the layout ("-"
    columns as text) as structured fields c0, c1, ..., so that a line of
    another width fails just as a malformed value does. Raises ValueError.
    """
    kinds = {"label": np.int64, "-": "U1"}
    fields = [(f"c{i}", kinds.get(c, np.float64)) for i, c in enumerate(layout)]
    return np.loadtxt(lines, dtype=fields, comments="#", ndmin=1)


def _convert(lines, layout):
    """The PointCloud of raw lines, or None when a line fails to convert
    or holds a non-finite value or a label outside 0..MAX_LABEL."""
    try:
        table = _table(lines, layout)
    except ValueError:
        return None

    def gather(names):
        out = np.empty((len(table), len(names)))
        for k, name in enumerate(names):
            out[:, k] = table[f"c{layout.index(name)}"]
        return out

    xyz = gather(COLUMN_NAMES[:3])
    spectral = gather(COLUMN_NAMES[3:6]) if "ir" in layout else None
    labels = table[f"c{layout.index('label')}"] if "label" in layout else None
    if not (np.isfinite(xyz).all()
            and (spectral is None or np.isfinite(spectral).all())
            and (labels is None or ((labels >= 0) & (labels <= MAX_LABEL)).all())):
        return None
    return PointCloud(xyz, spectral, labels)


def _raise_line_fault(lineno, line, layout):
    """Raise the error naming why _convert refuses this one line: its
    column count, else its first malformed kept column in file order, else
    numpy's refusal of the line as a whole, else its first non-finite
    value in x, y, z, ir, r, g order, else its label's range."""
    data = line.split("#", 1)[0]
    tokens = data.split()
    if len(tokens) != len(layout):
        raise SchemaError(f"line {lineno}: expected {len(layout)} columns, "
                          f"got {len(tokens)}")
    for name, token in zip(layout, tokens):
        if name == "-":
            continue
        try:
            _table([token], (name,))
        except ValueError:
            kind = "an integer" if name == "label" else "a number"
            raise ParseError(f"line {lineno}: {name} {token!r} is not "
                             f"{kind}") from None
    try:
        row = _table([line], layout)[0]
    except ValueError:
        raise ParseError(f"line {lineno}: malformed line {data.strip()!r}") from None
    for name in COLUMN_NAMES[:6]:
        if name in layout and not np.isfinite(row[layout.index(name)]):
            raise ParseError(f"line {lineno}: non-finite {name}")
    # what _convert can still refuse is the label's range
    raise ParseError(f"line {lineno}: label {row[layout.index('label')]} "
                     f"outside 0..{MAX_LABEL}")


def _lines(stream):
    """A string's lines as a file read in text mode gives them, broken at
    line feeds, carriage returns and their pairs only (str.splitlines()
    also breaks at form feeds, NEL, U+2028 and more); any other stream
    as it is."""
    if not isinstance(stream, str):
        return stream
    # text read from a file holds no "\r", and the "\r\n" search alone
    # would cost about 4 ms on a 2.7 MB text (2-vCPU VM)
    if "\r" in stream:
        stream = stream.replace("\r\n", "\n").replace("\r", "\n")
    return stream.split("\n")


def parse_points(stream, columns=None):
    """Parse a point file from an iterable of text lines (or one string).

    columns names each column (x, y, z, ir, r, g, label, or "-" for a
    column to discard); x, y and z are required, and ir, r, g go together.
    Without it, the first data line's column count picks the named layout.
    Blank lines and `#` comments are skipped; point order is preserved.
    Every kept value must be finite and a label an integer in
    0..2^31-1. The first bad line is reported by its 1-based number: a
    wrong column count raises SchemaError, any other bad value ParseError.

    A string is split into lines as a file read in text mode is, at
    "\n", "\r\n" and "\r" only. The whole input is converted in one
    np.loadtxt pass; numpy splits a line into the same whitespace-separated
    tokens as str.split(), and refuses a line holding a line break of its
    own. When that pass fails or finds an invalid value, the raw lines are
    bisected with the same conversion to find the first bad line, and that
    one line is classified to name what is wrong with it.
    """
    layout = None if columns is None else _check_layout(columns)
    lines = list(_lines(stream))
    # the first data line picks the layout; without one there is no data
    widths = (len(raw.split("#", 1)[0].split()) for raw in lines)
    lineno, width = next(((n, w) for n, w in enumerate(widths, 1) if w), (0, 0))
    if not width:
        layout = layout or LAYOUTS[3]
        return PointCloud(np.zeros((0, 3)),
                          np.zeros((0, 3)) if "ir" in layout else None,
                          np.zeros(0, np.int32) if "label" in layout else None)
    if layout is None:
        layout = LAYOUTS.get(width)
        if layout is None:
            raise SchemaError(f"line {lineno}: {width} columns match no "
                              f"named layout (3, 4, 6 or 7 columns)")
    cloud = _convert(lines, layout)
    if cloud is not None:
        return cloud
    # lines[:lo] convert and lines[lo:hi] hold a bad line; a chunk of
    # comments and blank lines converts to no points
    lo, hi = 0, len(lines)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _convert(lines[lo:mid], layout) is None:
                hi = mid
            else:
                lo = mid
    _raise_line_fault(lo + 1, lines[lo], layout)


# ASCII codes of the writer's byte matrices; a 0 byte is padding, dropped
# when a chunk is joined into text
_MINUS, _DOT, _SPACE, _NEWLINE, _ZERO = 45, 46, 32, 10, 48
# a value whose scaled product v * 1e6 lies within |v * 1e6| * 2^-50 of a
# half-integer (the product's own rounding error is at most 2^-53 of it)
# may round either way, and beyond 2^52 digits run out: Python's "%.6f"
# writes such rows
_TIE_MARGIN = 2.0 ** -50
_EXACT_LIMIT = 2.0 ** 52


def _write_digits(n, out, pad):
    """Write the ASCII digits of the non-negative integer array n,
    right-aligned, into out (n.shape + (width,), uint8); with pad, leading
    zeros become 0 bytes (the last digit is always written)."""
    n = n.astype(np.uint32 if n.max(initial=0) < 2 ** 32 else np.uint64)
    width = out.shape[-1]
    for k in range(width - 1, -1, -1):
        higher = n // 10
        digit = n - higher * 10
        digit += _ZERO
        if pad and k < width - 1:
            digit *= n != 0
        out[..., k] = digit
        n = higher


def _render_rows(values, labels):
    """Point-file text of float64 rows (R, C) and float64 labels (R,) or
    None: each value as "%.6f" % v, each label as "%d" % v.

    Every row is laid out in one uint8 matrix, a value as [sign][integer
    digits][.][6 digits][separator] with the integer digits right-aligned
    to the chunk's widest. The digits come from np.rint(|v| * 1e6) and the
    sign from np.signbit, so -0.0 reads -0.000000 as in Python; a label is
    truncated toward zero as int() does. A row holding a value that is not
    finite, lies within _TIE_MARGIN of a rounding tie or reaches
    _EXACT_LIMIT is formatted by Python instead.
    """
    rows, cols = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values * 1e6)
        exact = ((scaled < _EXACT_LIMIT)
                 & (np.abs(scaled - np.floor(scaled) - 0.5) > scaled * _TIE_MARGIN))
    q = np.rint(np.where(exact, scaled, 0.0)).astype(np.uint64)
    whole, part = np.divmod(q, 10 ** 6)
    width = len(str(whole.max()))
    field = width + 9
    label_field = 0
    if labels is not None:
        labels = np.trunc(labels)
        exact_label = np.abs(labels) < _EXACT_LIMIT
        number = np.where(exact_label, np.abs(labels), 0.0).astype(np.uint64)
        label_width = len(str(number.max()))
        label_field = label_width + 2
    out = np.empty((rows, cols * field + label_field), dtype=np.uint8)
    cells = out[:, :cols * field].reshape(rows, cols, field)
    cells[..., 0] = np.where(np.signbit(values), _MINUS, 0)
    _write_digits(whole, cells[..., 1:width + 1], pad=True)
    cells[..., width + 1] = _DOT
    _write_digits(part, cells[..., width + 2:width + 8], pad=False)
    cells[..., -1] = _SPACE
    fallback = ~exact.all(axis=1)
    if labels is None:
        cells[:, -1, -1] = _NEWLINE
    else:
        tail = out[:, cols * field:]
        tail[:, 0] = np.where(labels < 0, _MINUS, 0)
        _write_digits(number, tail[:, 1:-1], pad=True)
        tail[:, -1] = _NEWLINE
        fallback |= ~exact_label
    flat = out.reshape(-1)
    text = flat[flat != 0].tobytes().decode("ascii")
    if not fallback.any():
        return text
    fmt = " ".join(["%.6f"] * cols + ["%d"] * (labels is not None)) + "\n"
    ends = np.cumsum(np.count_nonzero(out, axis=1))
    pieces, at = [], 0
    for row in np.flatnonzero(fallback):
        start = ends[row - 1] if row else 0
        row_values = values[row].tolist()
        if labels is not None:
            row_values.append(float(labels[row]))
        pieces += [text[at:start], fmt % tuple(row_values)]
        at = ends[row]
    pieces.append(text[at:])
    return "".join(pieces)


def load_points(path, columns=None):
    """Read a point file; see parse_points for columns."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read(), columns)


def save_points(path, cloud, labels=None):
    """Write a cloud to path as point-file text, labels overriding
    cloud.labels when given: each value as "%.6f" % v, each label as
    "%d" % v of it as a float64, rendered WRITE_CHUNK_ROWS rows at a time
    without per-row Python (see _render_rows for how the digits stay
    exact). With save_values, the writer's only entry point."""
    if labels is None:
        labels = cloud.labels
    if labels is not None:
        labels = np.asarray(labels).reshape(-1)
        if len(labels) != len(cloud):
            raise ShapeError(f"labels length {len(labels)} != point count {len(cloud)}")
        # a label goes through float64, as in a row of the other columns
        labels = labels.astype(np.float64)
    cols = [cloud.xyz] + ([cloud.spectral] if cloud.spectral is not None else [])
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(cloud), WRITE_CHUNK_ROWS):
            stop = start + WRITE_CHUNK_ROWS
            fh.write(_render_rows(np.hstack([c[start:stop] for c in cols]),
                                  None if labels is None else labels[start:stop]))


def save_values(path, values):
    """Write the rows of a 2-D float array as "%.6f" columns separated by
    one space: the bytes of np.savetxt(path, values, fmt="%.6f"), rendered
    WRITE_CHUNK_ROWS rows at a time by _render_rows."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(values), WRITE_CHUNK_ROWS):
            fh.write(_render_rows(values[start:start + WRITE_CHUNK_ROWS], None))


# ---------------------------------------------------------------------------
# ESRI ASCII grid

_GRID_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
              "nodata_value")


def parse_ascii_grid(stream):
    """Parse an ESRI ASCII grid into a single-band Raster.

    A line is a header line when its first word is one of _GRID_KEYS, in
    any case; every other non-blank line holds grid values. Header numbers
    and grid values must be finite, ncols and nrows positive integers,
    cellsize > 0 and no key given twice; the first bad line raises
    ParseError naming it. NODATA_value is optional and defaults to -9999,
    as the format has it; the other five keys are required. The header's
    lower-left corner coordinates are converted to the upper-left
    pixel-center convention used by Raster. A string is split into lines
    as a file read in text mode is (as in parse_points).
    """
    header = {}
    values = []
    for lineno, raw in enumerate(_lines(stream), start=1):
        toks = raw.split()
        if not toks:
            continue
        key = toks[0].lower()
        if key in _GRID_KEYS:
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: malformed header line")
            if key in header:
                raise ParseError(f"line {lineno}: repeated header key {toks[0]}")
            size = key in ("ncols", "nrows")
            positive = size or key == "cellsize"
            try:
                value = int(toks[1]) if size else float(toks[1])
                ok = math.isfinite(value) and (value > 0 or not positive)
            except ValueError:
                ok = False
            if not ok:
                want = ("a positive integer" if size else
                        "a finite number > 0" if positive else "a finite number")
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
    missing = [k for k in _GRID_KEYS if k not in header and k != "nodata_value"]
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
        nodata=header.get("nodata_value", -9999.0),
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


# the six non-blank lines of an ESRI world file, in order
_WORLD_VALUES = ("x cell size", "row rotation", "column rotation",
                 "y cell size", "x origin", "y origin")


def read_ppm_image(path):
    """Read an 8-bit P3 (ASCII) PPM plus its ESRI world file sidecar;
    width, height, maxval and samples must be integers, width and height
    positive, maxval 255 and every sample in 0..255, and the world
    file's six values finite numbers with an x cell size > 0 (ParseError
    otherwise, naming the world file's line)."""
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
    for what, size in (("width", width), ("height", height)):
        if size < 1:
            raise ParseError(f"{path}: {what} is {size}, not a positive integer")
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
        lines = [(n, t) for n, t in enumerate(map(str.strip, fh), start=1) if t]
    if len(lines) != 6:
        raise ParseError(f"{world_path}: world file needs 6 lines, got {len(lines)}")
    w = []
    for (lineno, text), what in zip(lines, _WORLD_VALUES):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        positive = what == "x cell size"
        if not (math.isfinite(value) and (value > 0 or not positive)):
            want = "a finite number > 0" if positive else "a finite number"
            raise ParseError(f"{world_path}: line {lineno}: {what} is {text!r}, "
                             f"not {want}")
        w.append(value)
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


def _sample(raster, x, y):
    """Sample every band of a raster bilinearly at the world coordinates
    of equal-length 1-D arrays x and y: each value blends the 4 nearest
    pixel centers, nodata ones excluded and the weights renormalized, and
    a query in the half-cell margin clamps to the edge. Raises nothing.

    Returns (values, outside, empty, clamped): values is (N, bands);
    outside and clamped mark queries beyond the clamped extent and in its
    half-cell margin; empty (N, bands) marks bands whose four bilinear
    neighbors are all nodata. Values of failing queries are meaningless.
    """
    w, h = raster.width, raster.height
    px, py, outside = _pixel_coords(raster, x, y)
    clamped = ~outside & ~((0 <= px) & (px <= w - 1)
                           & (0 <= py) & (py <= h - 1))
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
    return values, outside, empty, clamped


def _raise_failure(raster, x, y, outside, empty):
    """Raise the error of the lowest query that _sample's outside and
    empty masks mark failed, naming the query as a point by its index:
    BoundsError when it lies outside the extent, else SamplingError for
    its first band without a valid neighbor. Returns when none failed."""
    failed = outside | empty.any(axis=1)
    if not failed.any():
        return
    k = int(failed.argmax())
    if outside[k]:
        px, py, _ = _pixel_coords(raster, x[k], y[k])
        raise BoundsError(f"point {k}: query ({x[k]}, {y[k]}) outside raster "
                          f"extent (pixel coords {px:.3f}, {py:.3f})")
    raise SamplingError(f"point {k}: no valid raster neighbors at "
                        f"({x[k]}, {y[k]}) in band {int(empty[k].argmax())}")
