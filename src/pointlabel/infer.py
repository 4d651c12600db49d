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
probabilities of their nearest covered neighbor (one k=2 kd-tree query;
only queries whose two nearest distances nearly tie re-check a ball).
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blocks as blk
from . import network
from .io import PointCloud

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
            out.append(cls(float(fields[0]), float(fields[1]), int(fields[2])))
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

    Blocks come from blocks.sample_scale in test mode, and the network's
    input width picks the feature columns forwarded (blocks.feature_set).
    Each block keeps one row per distinct source point. Consecutive
    blocks are packed into chunks of at most `scale.sample_count`
    distinct rows, and each chunk is one segmented eval forward: pooling
    and the head's global term stay per block and every other layer acts
    row by row, so a chunk gives each block the bits its own forward
    would. A field's `stats` count blocks, forward calls and rows
    forwarded.

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
        for block in blk.sample_scale(cloud, scale, scale_id, seed, False):
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


def _nearest_covered(query_xyz, covered_xyz):
    """Index into covered_xyz of each query's nearest point by a kd-tree;
    ties go to the lowest index, re-derived exactly from the candidates'
    squared distances."""
    from scipy.spatial import cKDTree

    tree = cKDTree(covered_xyz)
    # a second neighbor (inf if there is none) within an inflated radius
    # of the first may tie it: only those queries re-check all candidates
    # in that radius, so equal distances resolve to the lowest index
    d, j = tree.query(query_xyz, k=2)
    out = np.asarray(j[:, 0], dtype=np.int64)
    radius = d[:, 0] * (1.0 + 1e-9) + 1e-9
    tied = np.flatnonzero(d[:, 1] <= radius)
    for qi, cand in zip(tied, tree.query_ball_point(query_xyz[tied],
                                                   radius[tied])):
        if len(cand) <= 1:
            continue
        cand = np.sort(np.asarray(cand, dtype=np.int64))
        d2 = ((covered_xyz[cand] - query_xyz[qi]) ** 2).sum(axis=1)
        out[qi] = cand[d2.argmin()]
    return out


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

    The network's input width names the feature set it reads
    (blocks.feature_set). A cloud without spectral values is accepted by
    an "xyz" network only, and is blocked with zero spectral values that
    network never reads; any other network raises ValueError on it.

    A dict passed as `counts` receives the run's counts: per scale i,
    `scale{i}.blocks`, `.forward_calls`, `.rows_forwarded` and `.coverage`
    (the share of points that scale sampled), then `nn_filled` (points
    no scale sampled) and `coverage` (the share of points some scale
    sampled).
    """
    features = blk.feature_set(params.encoder_specs[0].in_width)
    if not cloud.has_spectral:
        if features != "xyz":
            raise ValueError(f"a {features!r} network reads spectral features "
                             f"but the cloud has none")
        cloud = PointCloud(cloud.xyz, np.zeros((len(cloud), 3)), cloud.labels)
    fields = _forward_scales(cloud, params, list(enumerate(scales)), seed,
                            threads)
    merged = average_scales(fields)
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
