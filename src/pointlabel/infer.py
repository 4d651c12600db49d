"""Multi-scale prediction and contest-style evaluation.

Prediction tiles the scene at each configured scale, runs every sampled
block through the network in eval mode, and accumulates each sampled
row's probability vector onto its source point (overlapping blocks and
repeated rows all vote; votes are averaged). A block's test-time repeats
are exact copies of a row, so each distinct source point is forwarded
once: in eval mode every layer but the max-pool acts row by row, and the
max over a set does not change when members repeat. Scales are then
averaged per point over the scales that covered it, and points never
sampled at any scale copy the class probabilities of their nearest
covered neighbor.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blocks as blk
from . import network

ISPRS_CLASS_NAMES = ("power", "low_veg", "imp_surf", "car", "fence_hedge",
                     "roof", "fac", "shrub", "tree")


@dataclass(frozen=True)
class ScaleConfig:
    size: float          # block edge, meters
    overlap: float       # meters
    sample_count: int    # points sampled per block

    @classmethod
    def parse(cls, text):
        """Parse "size:overlap:count" triplets separated by commas."""
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


def predict_scale(cloud, params, scale, scale_id=0, seed=0, feature_columns=None,
                  threads=1, n_classes=None):
    """Accumulated per-point probability votes for one block scale."""
    if n_classes is None:
        n_classes = params.head_specs[-1].out_width
    extent = blk.SceneExtent.of(cloud)
    footprints = blk.tile_blocks(cloud, scale.size, scale.overlap)
    sums = np.zeros((len(cloud), n_classes), dtype=np.float64)
    counts = np.zeros(len(cloud), dtype=np.int64)

    def run(args):
        bi, fp = args
        rng = blk.block_rng(seed, scale_id, bi)
        block = blk.sample_block(cloud, fp, scale.sample_count, False, rng,
                                 extent, scale_id)
        x = block.features
        if feature_columns is not None:
            x = x[:, feature_columns]
        # features come from the full sample (centering counts repeats);
        # only the forward is restricted to one row per source point
        _, first, inverse = np.unique(block.parent_idx, return_index=True,
                                      return_inverse=True)
        q = network.forward(x[first], params, "eval").q
        return block.parent_idx, q[inverse]

    jobs = list(enumerate(footprints))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    # merge in block order so threaded and serial runs agree exactly
    for parent_idx, q in results:
        np.add.at(sums, parent_idx, q.astype(np.float64))
        np.add.at(counts, parent_idx, 1)
    return ProbabilityField(sums, counts)


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


def _nearest_covered_brute(query_xyz, covered_xyz):
    """Index into covered_xyz of each query's nearest point; ties -> lowest
    index. Chunked so memory stays bounded."""
    out = np.empty(len(query_xyz), dtype=np.int64)
    step = max(1, int(4e7 // max(len(covered_xyz), 1)))
    for s in range(0, len(query_xyz), step):
        q = query_xyz[s:s + step]
        d2 = ((q[:, None, :] - covered_xyz[None, :, :]) ** 2).sum(axis=2)
        out[s:s + step] = d2.argmin(axis=1)
    return out


def _nearest_covered_kdtree(query_xyz, covered_xyz):
    """kd-tree accelerated nearest covered point, with the lowest-index
    tie-break re-derived exactly from the candidate distances."""
    from scipy.spatial import cKDTree

    tree = cKDTree(covered_xyz)
    d1, j1 = tree.query(query_xyz, k=1)
    out = np.asarray(j1, dtype=np.int64)
    # re-check every query against all candidates within an inflated
    # radius so equal distances resolve to the lowest index
    radius = d1 * (1.0 + 1e-9) + 1e-9
    for qi, cand in enumerate(tree.query_ball_point(query_xyz, radius)):
        if len(cand) <= 1:
            continue
        cand = np.sort(np.asarray(cand, dtype=np.int64))
        d2 = ((covered_xyz[cand] - query_xyz[qi]) ** 2).sum(axis=1)
        out[qi] = cand[d2.argmin()]
    return out


def interpolate_labels(field, cloud, method="auto"):
    """Final per-point labels from an averaged probability field.

    Uncovered points copy the class probabilities of their 3D-nearest
    covered point (ties go to the lowest point index); every point's
    label is then the argmax of its probability vector.
    """
    covered = field.covered
    n_cov = int(covered.sum())
    if n_cov == 0:
        raise ValueError("no covered points to interpolate from")
    probs = field.normalized()
    uncovered = np.flatnonzero(~covered)
    if len(uncovered):
        cov_idx = np.flatnonzero(covered)
        cov_xyz = cloud.xyz[cov_idx]
        if method == "auto":
            method = "brute" if len(uncovered) * n_cov <= 2_000_000 else "kdtree"
        if method == "brute":
            nearest = _nearest_covered_brute(cloud.xyz[uncovered], cov_xyz)
        elif method == "kdtree":
            nearest = _nearest_covered_kdtree(cloud.xyz[uncovered], cov_xyz)
        else:
            raise ValueError(f"unknown method {method!r}")
        probs[uncovered] = probs[cov_idx[nearest]]
    return probs.argmax(axis=1), probs


# ---------------------------------------------------------------------------
# full multi-scale pipeline

def predict(cloud, params, scales=DEFAULT_SCALES, seed=0, feature_columns=None,
            threads=1, nn_method="auto"):
    """Tile, forward and merge every scale; returns (labels, probabilities)."""
    fields = [predict_scale(cloud, params, sc, scale_id, seed, feature_columns,
                            threads)
              for scale_id, sc in enumerate(scales)]
    merged = average_scales(fields)
    return interpolate_labels(merged, cloud, nn_method)


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

    def to_csv(self):
        lines = ["class,precision,recall,f1"]
        for i, name in enumerate(self.class_names):
            lines.append(f"{name},{self.precision[i]:.6f},{self.recall[i]:.6f},"
                         f"{self.f1[i]:.6f}")
        lines.append(f"overall_accuracy,{self.overall_accuracy:.6f},,")
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
