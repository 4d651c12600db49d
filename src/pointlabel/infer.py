"""Multi-scale prediction and contest-style evaluation.

Prediction tiles the scene at each configured scale, runs every sampled
block through the network in eval mode, and accumulates each sampled
row's probability vector onto its source point (overlapping blocks and
repeated rows all vote; votes are averaged). A block's test-time repeats
are exact copies of a row, so each distinct source point is forwarded
once: in eval mode every layer but the max-pool acts row by row, and the
max over a set does not change when members repeat. Consecutive blocks
share one segmented forward, in chunks of at most the scale's sample
count of distinct rows, so sparse (airborne-density) blocks do not each
pay a forward's fixed cost. One worker pool forwards the chunks of
every scale, largest sample count first, so a scale with fewer chunks
than workers leaves none idle; each scale's votes still merge in its
block order. Scales are then averaged per point over the scales that
covered it, and points never sampled at any scale copy the class
probabilities of their nearest covered neighbor, ties to the lowest
index, found by an exact uniform-grid search in numpy.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blocks as blk
from . import network
from .io import COLUMN_NAMES, PointCloud

# (query, covered point) pairs scored per chunk of the nearest-covered
# search. It bounds the chunk's arrays: about 80 bytes a pair (5 MB at
# 2^16 pairs); one query whose block holds more is a chunk of its own
NEAREST_CANDIDATES = 2 ** 16
# cells along an axis of that search's first grid, so a cell key of
# three axes fits an int64
_MAX_AXIS_CELLS = 2 ** 20

ISPRS_CLASS_NAMES = ("power", "low_veg", "imp_surf", "car", "fence_hedge",
                     "roof", "fac", "shrub", "tree")


@dataclass(frozen=True)
class ScaleConfig:
    size: float          # block edge, meters
    overlap: float       # meters
    sample_count: int    # points sampled per block

    def __post_init__(self):
        if not (0 < self.size < np.inf and 0 <= self.overlap < self.size
                and self.sample_count >= 1):
            raise ValueError(f"scale {self} needs a finite size > 0, overlap "
                             f"in [0, size) and sample count >= 1")

    def __str__(self):
        """"size:overlap:count" text that parse reads back exactly: each
        length is its shortest repr, less a trailing ".0"."""
        def length(v):
            text = repr(float(v))
            return text[:-2] if text.endswith(".0") else text
        return f"{length(self.size)}:{length(self.overlap)}:{self.sample_count}"

    @classmethod
    def parse(cls, text):
        """Parse "size:overlap:count" triplets separated by commas; the
        inverse of ",".join(map(str, scales))."""
        out = []
        for part in text.split(","):
            fields = part.split(":")
            if len(fields) != 3:
                raise ValueError(f"bad scale spec {part!r}, want size:overlap:count")
            values = []
            for name, kind, field in zip(("size", "overlap", "sample count"),
                                         (float, float, int), fields):
                try:
                    values.append(kind(field))
                except ValueError:
                    noun = "a number" if kind is float else "an integer"
                    raise ValueError(f"bad scale spec {part!r}: {name} "
                                     f"{field!r} is not {noun}") from None
            out.append(cls(*values))
        return tuple(out)


DEFAULT_SCALES = (ScaleConfig(2.0, 1.0, 1024),
                  ScaleConfig(5.0, 2.0, 3072),
                  ScaleConfig(10.0, 2.0, 4096))


@dataclass
class ProbabilityField:
    """Per original point: accumulated class-probability votes and how
    many sampled rows contributed."""

    probs: np.ndarray     # (N, C) float64, sum of votes
    counts: np.ndarray    # (N,) int64
    stats: dict | None = None   # _forward_scales' run counts, by name

    @property
    def covered(self):
        return self.counts > 0

    def normalized(self):
        """Unit-sum probabilities where covered; zeros elsewhere.

        Normalizes by the accumulated row sum (each vote is itself a unit
        vector), so the operation is idempotent on already-averaged
        fields."""
        out = np.zeros_like(self.probs)
        c = self.covered
        out[c] = self.probs[c] / self.probs[c].sum(axis=1, keepdims=True)
        return out


def predict_scale(cloud, params, scale, scale_id=0, seed=0, threads=1):
    """`_forward_scales` for one scale: its ProbabilityField of votes."""
    return _forward_scales(cloud, params, [(scale_id, scale)], seed, threads)[0]


def _forward_scales(cloud, params, scales, seed=0, threads=1):
    """One ProbabilityField per (scale_id, ScaleConfig) of `scales`, in
    that order, from one scheduler for all of them.

    Each scale is tiled alone (blocks.tile_scale, replica 0) and sampled
    in test mode (blocks.sample_scene), and the network's input width
    picks the feature columns forwarded (blocks.feature_set). Each block
    keeps one row per distinct source point. Consecutive blocks are
    packed into chunks of at most `scale.sample_count` distinct rows,
    and each chunk is one segmented eval forward: pooling and the head's
    global term stay per block and every other layer acts row by row, so
    a chunk gives each block the bits its own forward would. A field's
    `stats` count blocks, forward calls and rows forwarded.

    Scales are chunked largest sample_count first (ties in the given
    order), so the biggest chunks start first and smaller ones fill the
    workers after them. With `threads` > 1 one pool forwards every
    scale's chunks, at most `threads` + 1 in flight, while the main
    thread samples the next; with 1 the chunks run inline. Votes merge
    in submission order, so
    each field takes its own scale's chunks in block order and is
    bitwise what a serial run of that scale alone gives. The weights are
    prepared once per call (network.eval_weights: batch norm folded, W
    widened to float64), on a copy unless `params` is prepared already,
    and every forward on every worker reads that one copy.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    params = network.eval_weights(params)
    columns = blk.FEATURE_SETS[blk.feature_set(params.encoder_specs[0].in_width)]
    n_classes = params.head_specs[-1].out_width
    fields = [ProbabilityField(np.zeros((len(cloud), n_classes)),
                               np.zeros(len(cloud), dtype=np.int64),
                               {"blocks": 0, "forward_calls": 0,
                                "rows_forwarded": 0})
              for _ in scales]

    def chunks(field, scale, scale_id):
        """Lists of consecutive blocks' (parent_idx, inverse, distinct
        feature rows), at most scale.sample_count rows per list."""
        chunk, rows = [], 0
        tiling = blk.tile_scale(cloud, scale, scale_id, 0)
        for block in blk.sample_scene([tiling], seed, training=False):
            field.stats["blocks"] += 1
            # features come from the full sample (centering counts repeats);
            # only the forward is restricted to one row per source point
            _, first, inverse = np.unique(block.parent_idx, return_index=True,
                                          return_inverse=True)
            if chunk and rows + len(first) > scale.sample_count:
                yield field, chunk
                chunk, rows = [], 0
            chunk.append((block.parent_idx, inverse,
                          block.features[np.ix_(first, columns)]))
            rows += len(first)
        if chunk:
            yield field, chunk

    def jobs():
        order = sorted(range(len(scales)),
                       key=lambda i: -scales[i][1].sample_count)
        for i in order:
            scale_id, scale = scales[i]
            yield from chunks(fields[i], scale, scale_id)

    def run(field, chunk):
        x = np.concatenate([xs for _, _, xs in chunk])
        q = network.forward(x, params, "eval",
                            segments=[len(xs) for _, _, xs in chunk]).q
        return field, chunk, q

    def merge(field, chunk, q):
        field.stats["forward_calls"] += 1
        field.stats["rows_forwarded"] += len(q)
        probs = field.probs.reshape(-1)
        start = 0
        for parent_idx, inverse, xs in chunk:
            votes = q[start:start + len(xs)][inverse]
            # flat index parent * C + c per vote element (a 1-D add.at is
            # the fast one); each probability sums its votes in row order
            flat = parent_idx[:, None] * n_classes + np.arange(n_classes)
            np.add.at(probs, flat.reshape(-1),
                      votes.astype(np.float64).reshape(-1))
            np.add.at(field.counts, parent_idx, 1)
            start += len(xs)

    if threads > 1:
        # every worker busy and one chunk queued; merged in submission order
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for job in jobs():
                pending.append(pool.submit(run, *job))
                if len(pending) > threads:
                    merge(*pending.popleft().result())
            while pending:
                merge(*pending.popleft().result())
    else:
        for job in jobs():
            merge(*run(*job))
    return fields


def average_scales(fields):
    """Mean of the normalized per-scale probabilities over the scales
    that covered each point, renormalized to unit sum."""
    if not fields:
        raise ValueError("need at least one scale")
    n, c = fields[0].probs.shape
    for f in fields:
        if f.probs.shape != (n, c):
            raise ValueError("probability fields disagree in shape")
    acc = np.zeros((n, c), dtype=np.float64)
    covered_scales = np.zeros(n, dtype=np.int64)
    for f in fields:
        acc += f.normalized()
        covered_scales += f.covered
    out = np.zeros_like(acc)
    cov = covered_scales > 0
    out[cov] = acc[cov] / covered_scales[cov, None]
    s = out[cov].sum(axis=1, keepdims=True)
    out[cov] /= s
    return ProbabilityField(out, covered_scales)


def _cell_keys(xyz, lo, hi, edge, cells):
    """Per point, its cell along each axis of the grid of cell edge `edge`
    over the box [lo, hi] (a point outside takes the nearest cell), and
    its cell key, z the fastest axis."""
    t = np.clip(xyz, lo, hi)
    t -= lo
    t /= edge
    index = np.floor(t, out=t).astype(np.int64)
    return index, (index[:, 0] * cells[1] + index[:, 1]) * cells[2] + index[:, 2]


def _nearest_covered(query_xyz, covered_xyz):
    """Index into covered_xyz of each query's nearest point: the argmin
    of ((covered_xyz - query) ** 2).sum(axis=1), ties to the lowest index.

    An exact search on a uniform grid over the covered points' bounding
    box (Bentley, Weide & Yao, ACM TOMS 1980). Each round sorts the
    covered points by cell key and scores every open query against the
    points of the 3 x 3 x 3 cells around its own (clipped into the grid),
    one key range per (x, y) column, with the reference's arithmetic. A
    query is answered once its best squared distance is below the
    squared distance to the nearest face of that block with cells beyond
    it, less a rounding slack, or once no cell lies beyond the block;
    the rest go to the next round with the cell edge doubled. The first
    edge is the covered points' spacing over the axes they spread along,
    refined twice to the cells they occupy; it has at most
    _MAX_AXIS_CELLS cells an axis, so a round's grid is one cell wide
    after at most 21 doublings. Queries are scored in chunks of at most
    NEAREST_CANDIDATES (query, point) pairs, or one query.
    """
    if not (np.isfinite(query_xyz).all() and np.isfinite(covered_xyz).all()):
        raise ValueError("nearest-covered search needs finite coordinates")
    n = len(covered_xyz)
    lo, hi = covered_xyz.min(axis=0), covered_xyz.max(axis=0)
    extent = hi - lo
    spread = extent > 0
    floor = max(extent.max() / _MAX_AXIS_CELLS, np.finfo(np.float64).tiny)
    edge = floor
    if spread.any():
        # the spacing of n points over the spread axes of the bounding
        # box, refined twice to the cells they occupy at the edge before
        root = 1.0 / spread.sum()
        edge = max(edge * (np.prod(extent[spread] / edge) / n) ** root, floor)
        for _ in range(2):
            cells = np.floor(extent / edge).astype(np.int64) + 1
            keys = np.sort(_cell_keys(covered_xyz, lo, hi, edge, cells)[1])
            occupied = 1 + np.count_nonzero(np.diff(keys))
            edge = max(edge * (occupied / n) ** root, floor)
    scale = max(np.abs(covered_xyz).max(), np.abs(query_xyz).max(initial=0.0))
    # queries whose blocks are found at once: one chunk at 27 points a block
    per_slice = NEAREST_CANDIDATES // 27
    out = np.empty(len(query_xyz), dtype=np.int64)
    pending = np.arange(len(query_xyz))
    while len(pending):
        cells = np.floor(extent / edge).astype(np.int64) + 1
        # bounds the rounding of a cell index, a face and a squared
        # distance, so a point outside the block scores above the best
        slack = 64 * np.finfo(np.float64).eps * (scale + extent.max() + 3 * edge)
        keys = _cell_keys(covered_xyz, lo, hi, edge, cells)[1]
        order = np.argsort(keys)
        keys = keys[order]
        by_cell = [covered_xyz[order, a] for a in range(3)]
        # queries in cell order search the sorted keys in order
        pending = pending[np.argsort(
            _cell_keys(query_xyz[pending], lo, hi, edge, cells)[1])]
        still = []
        for s in range(0, len(pending), per_slice):
            idx = pending[s:s + per_slice]
            q = query_xyz[idx]
            qc = _cell_keys(q, lo, hi, edge, cells)[0]
            # distance to the block's nearest face with cells beyond it
            below = np.where(qc >= 2, q - (lo + (qc - 1) * edge), np.inf)
            above = np.where(qc <= cells - 3, (lo + (qc + 2) * edge) - q,
                             np.inf)
            face = np.minimum(below, above).min(axis=1) - slack
            best, best_d2 = _score_block(q, qc, keys, cells, by_cell, order)
            done = ((best_d2 < np.maximum(face, 0) ** 2 * (1 - 1e-12))
                    | np.isinf(face))
            out[idx[done]] = best[done]
            still.append(idx[~done])
        pending = np.concatenate(still)
        edge *= 2
    return out


def _score_block(q, qc, keys, cells, by_cell, order):
    """Per query of q (its cells qc), the lowest index of the nearest
    covered point in its 3 x 3 x 3 block and that point's squared
    distance (inf for an empty block).

    `keys` are the covered points' sorted cell keys, `by_cell` their x,
    y and z in that order and `order` their indices; a block is nine key
    ranges, one per (x, y) column. Pairs are scored in chunks of at most
    NEAREST_CANDIDATES, or one query."""
    z_lo = np.maximum(qc[:, 2] - 1, 0)
    z_hi = np.minimum(qc[:, 2] + 1, cells[2] - 1)
    starts = np.empty((len(q), 9), dtype=np.int64)
    lengths = np.empty((len(q), 9), dtype=np.int64)
    for k, (dx, dy) in enumerate(np.ndindex(3, 3)):
        ix, iy = qc[:, 0] + dx - 1, qc[:, 1] + dy - 1
        column = (ix * cells[1] + iy) * cells[2]
        starts[:, k] = np.searchsorted(keys, column + z_lo, "left")
        ends = np.searchsorted(keys, column + z_hi, "right")
        inside = (ix >= 0) & (ix < cells[0]) & (iy >= 0) & (iy < cells[1])
        lengths[:, k] = np.where(inside, ends - starts[:, k], 0)
    counts = lengths.sum(axis=1)
    stop = np.cumsum(counts)
    best = np.zeros(len(q), dtype=np.int64)
    best_d2 = np.full(len(q), np.inf)
    i = 0
    while i < len(q):
        base = stop[i - 1] if i else 0
        j = max(int(np.searchsorted(stop, base + NEAREST_CANDIDATES, "right")),
                i + 1)
        c, size = counts[i:j], lengths[i:j].reshape(-1)
        # positions in the sorted points of every (query, point) pair
        pos = (np.repeat(starts[i:j].reshape(-1) - (np.cumsum(size) - size),
                         size)
               + np.arange(stop[j - 1] - base))
        # the reference's arithmetic: ((dx * dx + dy * dy) + dz * dz)
        d2 = np.zeros(len(pos))
        for a in range(3):
            d = by_cell[a][pos] - np.repeat(q[i:j, a], c)
            d2 += d * d
        has = c > 0
        first = (np.cumsum(c) - c)[has]
        low = np.minimum.reduceat(d2, first)
        best_d2[i:j][has] = low
        ties = np.where(d2 == np.repeat(low, c[has]), order[pos], len(order))
        best[i:j][has] = np.minimum.reduceat(ties, first)
        i = j
    return best, best_d2


def interpolate_labels(field, cloud):
    """Final per-point labels from an averaged probability field.

    Uncovered points copy the class probabilities of their 3D-nearest
    covered point (ties go to the lowest point index); every point's
    label is then the argmax of its probability vector.
    """
    covered = field.covered
    if not covered.any():
        raise ValueError("no covered points to interpolate from")
    probs = field.normalized()
    uncovered = np.flatnonzero(~covered)
    if len(uncovered):
        cov_idx = np.flatnonzero(covered)
        nearest = _nearest_covered(cloud.xyz[uncovered], cloud.xyz[cov_idx])
        probs[uncovered] = probs[cov_idx[nearest]]
    return probs.argmax(axis=1), probs


# ---------------------------------------------------------------------------
# full multi-scale pipeline

def predict(cloud, params, scales=DEFAULT_SCALES, seed=0, threads=1,
            counts=None):
    """Tile, forward and merge every scale; returns (labels, probabilities).

    Every coordinate and spectral value must be finite; the first point
    holding another raises ValueError naming it and its column. The
    network's input width names the feature set it reads
    (blocks.feature_set). A cloud without spectral values is accepted by
    an "xyz" network only, and is blocked with zero spectral values that
    network never reads; any other network raises ValueError on it. A
    cloud of which no scale samples a point, because no footprint holds
    the blocks.MIN_BLOCK_POINTS points a block needs, raises ValueError
    naming its point count.

    A dict passed as `counts` receives the run's counts: per scale i,
    `scale{i}.blocks`, `.forward_calls`, `.rows_forwarded` and `.coverage`
    (the share of points that scale sampled), then `nn_filled` (points
    no scale sampled) and `coverage` (the share of points some scale
    sampled).
    """
    values = [cloud.xyz] + ([cloud.spectral] if cloud.has_spectral else [])
    if not all(np.isfinite(v).all() for v in values):
        bad = ~np.isfinite(np.column_stack(values))
        i, column = (int(k) for k in np.argwhere(bad)[0])
        raise ValueError(f"point {i} has a non-finite {COLUMN_NAMES[column]} "
                         f"({values[column // 3][i, column % 3]}); prediction "
                         f"needs finite coordinates and spectral values")
    features = blk.feature_set(params.encoder_specs[0].in_width)
    if not cloud.has_spectral:
        if features != "xyz":
            raise ValueError(f"a {features!r} network reads spectral features "
                             f"but the cloud has none")
        cloud = PointCloud(cloud.xyz, np.zeros((len(cloud), 3)), cloud.labels)
    fields = _forward_scales(cloud, params, list(enumerate(scales)), seed,
                            threads)
    merged = average_scales(fields)
    if not merged.covered.any():
        raise ValueError(f"none of the {len(cloud)} points was sampled: no "
                         f"footprint at any scale holds the "
                         f"{blk.MIN_BLOCK_POINTS} points a block needs")
    if counts is not None:
        for scale_id, f in enumerate(fields):
            counts.update({f"scale{scale_id}.{k}": v for k, v in f.stats.items()})
            counts[f"scale{scale_id}.coverage"] = float(f.covered.mean())
        counts["nn_filled"] = int((~merged.covered).sum())
        counts["coverage"] = float(merged.covered.mean())
    return interpolate_labels(merged, cloud)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class EvalReport:
    confusion: np.ndarray          # (C, C) counts, rows = truth, cols = predicted
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    overall_accuracy: float
    absent_classes: tuple          # classes in neither truth nor prediction
    class_names: tuple

    @property
    def mean_f1(self):
        """Mean of the per-class F1 over the classes present in truth or
        prediction (the paper's headline metric)."""
        present = [c for c in range(len(self.f1)) if c not in self.absent_classes]
        return float(self.f1[present].mean())

    def to_csv(self):
        lines = ["class,precision,recall,f1"]
        for i, name in enumerate(self.class_names):
            lines.append(f"{name},{self.precision[i]:.6f},{self.recall[i]:.6f},"
                         f"{self.f1[i]:.6f}")
        lines.append(f"overall_accuracy,{self.overall_accuracy:.6f},,")
        lines.append(f"mean_f1,{self.mean_f1:.6f},,")
        return "\n".join(lines) + "\n"

    def render(self):
        """Aligned text grid: row-normalized confusion (percent of each
        truth class) over precision/recall/F1 rows."""
        names = self.class_names
        width = max(12, max(len(n) for n in names) + 2)
        head = "Classes".ljust(width) + "".join(n.rjust(width) for n in names)
        lines = [head]
        totals = self.confusion.sum(axis=1)
        for i, name in enumerate(names):
            if totals[i] > 0:
                row = self.confusion[i] / totals[i] * 100.0
                cells = "".join(f"{v:.1f}".rjust(width) for v in row)
            else:
                cells = "".join("-".rjust(width) for _ in names)
            lines.append(name.ljust(width) + cells)
        for label, vec in (("Precision", self.precision), ("Recall", self.recall),
                           ("F1 Score", self.f1)):
            lines.append(label.ljust(width)
                         + "".join(f"{v * 100.0:.1f}".rjust(width) for v in vec))
        lines.append(f"Overall accuracy: {self.overall_accuracy * 100.0:.1f}%")
        lines.append(f"Mean F1: {self.mean_f1 * 100.0:.1f}%")
        if self.absent_classes:
            lines.append("absent classes (no truth, no prediction): "
                         + ", ".join(names[c] for c in self.absent_classes))
        return "\n".join(lines) + "\n"


def evaluate(pred_labels, truth_labels, n_classes=9, class_names=None):
    """Confusion matrix plus per-class precision/recall/F1 and overall
    accuracy. Classes absent from both truth and prediction score 0 and
    are flagged in the report."""
    if class_names is not None and len(class_names) != n_classes:
        raise ValueError(f"{len(class_names)} class names for {n_classes} "
                         f"classes")
    pred = np.asarray(pred_labels).reshape(-1)
    truth = np.asarray(truth_labels).reshape(-1)
    if len(pred) != len(truth):
        raise ValueError(f"{len(pred)} predictions vs {len(truth)} truth labels")
    if len(pred) == 0:
        raise ValueError("cannot evaluate an empty labeling")
    if truth.min() < 0 or truth.max() >= n_classes:
        raise ValueError(f"truth labels outside 0..{n_classes - 1}")
    if pred.min() < 0 or pred.max() >= n_classes:
        raise ValueError(f"predicted labels outside 0..{n_classes - 1}")
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (truth, pred), 1)
    tp = np.diag(conf).astype(np.float64)
    col = conf.sum(axis=0).astype(np.float64)
    row = conf.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, col, out=np.zeros_like(tp), where=col > 0)
    recall = np.divide(tp, row, out=np.zeros_like(tp), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(tp),
                   where=pr > 0)
    oa = float(tp.sum() / conf.sum())
    absent = tuple(int(c) for c in range(n_classes)
                   if row[c] == 0 and col[c] == 0)
    if class_names is None:
        class_names = (ISPRS_CLASS_NAMES if n_classes == 9 else
                       tuple(f"class{i}" for i in range(n_classes)))
    return EvalReport(conf, precision, recall, f1, oa, absent, tuple(class_names))
