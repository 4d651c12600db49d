"""The four benchmark workloads: set-up, one timed command, output checks.

Each workload is a closed loop with one client: `iterate` runs its
command in process, then checks the artifacts. Set-up runs in a child
process (see run.py) so that the measuring process's peak RSS belongs to
the commands alone. The program only ever sees the generated files; the
workload seed picks the scene, never a program setting.
"""

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pointlabel import blocks as blk
from pointlabel import cli, infer, network
from pointlabel import io as pio

import scenes

N_CLASSES = 9
PREDICT_SCALES = "2:1:1024,5:2:3072,10:2:4096"   # the package default
SMOKE_SCALES = "2:1:64,4:1:128,8:2:256"
OA_FLOOR = 0.9                  # predict overall accuracy, full size
SHADOW_MAX_DQ = 1e-4            # float32 vs float64-shadow probabilities

# The predict checkpoint is trained from a fixed scene, not from the
# workload seed, so every run labels with the same model and accuracy
# differences come from the predict path rather than from training luck.
CKPT_SCENE_SEED = 1


@dataclass
class Sizes:
    tile_m: float
    side: int                   # the tile holds side² points
    scales: str

    @property
    def points(self):
        return self.side * self.side


@dataclass
class Outcome:
    seconds: float              # wall time of the workload's command
    items: int                  # points labeled / rows trained / points preprocessed
    accuracy: float
    checks: list                # (name, passed, detail)


def run_cli(argv):
    """Run one pointlabel command in process; stdout is swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def check(name, passed, detail=""):
    return (name, bool(passed), detail)


# ---------------------------------------------------------------------------
# predict-dense / predict-als

class Predict:
    """Label a 3 m tile with a default-architecture checkpoint, then score
    it with `evaluate`. Only the density and the thread count differ
    between the two predict workloads; the 3 m tile gives nine 2 m
    footprints and one footprint at each larger scale."""

    TILE_M = 3.0

    def __init__(self, side, threads):
        self.side = side
        self.threads = threads

    def sizes(self, smoke):
        if smoke:
            return Sizes(self.TILE_M, max(self.side // 4, 5), SMOKE_SCALES)
        return Sizes(self.TILE_M, self.side, PREDICT_SCALES)

    def setup(self, d, rng, smoke):
        ckpt_rng = np.random.default_rng(CKPT_SCENE_SEED)
        train_cloud = scenes.strata(ckpt_rng, 24 if smoke else 55,
                                    6.0 if smoke else 12.0)
        scales = infer.ScaleConfig.parse("3:1:64")
        all_blocks = blk.build_blocks(train_cloud, scales, seed=0, training=True)
        cli.write_block_store(d / "ckpt_store", train_cloud, all_blocks, scales)
        rc = run_cli(["train", "--blocks", d / "ckpt_store", "--out", d / "ckpt",
                      "--epochs", 1 if smoke else 6, "--batch", 4, "--lr", 0.003])
        if rc != 0:
            raise RuntimeError("checkpoint training failed")
        sz = self.sizes(smoke)
        cloud = scenes.strata(rng, sz.side, sz.tile_m)
        scenes.write_attributed(d / "scene.txt", cloud)
        scenes.write_raw(d / "truth.txt", cloud)

    def iterate(self, d, out, smoke):
        sz = self.sizes(smoke)
        t0 = time.perf_counter()
        rc = run_cli(["predict", "--points", d / "scene.txt",
                      "--model", d / "ckpt" / "model.ckpt",
                      "--out", out / "pred.txt", "--scales", sz.scales,
                      "--threads", self.threads])
        seconds = time.perf_counter() - t0
        checks = [check("predict exits 0", rc == 0)]
        rc = run_cli(["evaluate", "--pred", out / "pred.txt",
                      "--truth", d / "truth.txt", "--out", out / "report.csv"])
        checks.append(check("evaluate exits 0", rc == 0))
        pred = pio.load_points(out / "pred.txt")
        truth = pio.load_points(d / "truth.txt")
        one_label = (pred.has_labels and len(pred) == len(truth)
                     and np.allclose(pred.xyz, truth.xyz, atol=1e-6)
                     and pred.labels.min() >= 0
                     and pred.labels.max() < N_CLASSES)
        checks.append(check("one in-range label per input point", one_label))
        oa = _overall_accuracy(out / "report.csv")
        floor = 0.0 if smoke else OA_FLOOR
        checks.append(check("overall accuracy at or above floor", oa >= floor,
                            f"{oa:.4f} vs {floor}"))
        return Outcome(seconds, len(truth), oa, checks), [out / "pred.txt"]

    def final_checks(self, d, out, smoke):
        """float32 forward against a float64 shadow of the same weights on
        a few real blocks of the scene: argmax must agree wherever the
        shadow's top-2 margin exceeds twice the tolerance, and no
        probability may move by more than SHADOW_MAX_DQ. Returns (checks,
        None): accuracy comes from the iterations."""
        params = network.load_checkpoint(d / "ckpt" / "model.ckpt")
        shadow = network.params_astype(params, np.float64)
        cloud = pio.load_points(d / "scene.txt")
        extent = blk.SceneExtent.of(cloud)
        out = []
        for sid, sc in enumerate(infer.ScaleConfig.parse(self.sizes(smoke).scales)):
            for bi, fp in enumerate(blk.tile_blocks(cloud, sc.size, sc.overlap)[:2]):
                block = blk.sample_block(cloud, fp, sc.sample_count, False,
                                         blk.block_rng(0, sid, bi), extent, sid)
                q32 = network.forward(block.features, params, "eval").q
                q64 = network.forward(block.features.astype(np.float64),
                                      shadow, "eval").q
                dq = float(np.abs(q32 - q64).max())
                top2 = np.sort(q64, axis=1)[:, -2:]
                clear = (top2[:, 1] - top2[:, 0]) > 2 * SHADOW_MAX_DQ
                agree = np.array_equal(q32.argmax(1)[clear], q64.argmax(1)[clear])
                out.append(check(f"float64 shadow scale {sid} block {bi}",
                                 agree and dq <= SHADOW_MAX_DQ,
                                 f"max |dq| {dq:.2e}"))
        return out, None


def _overall_accuracy(report_csv):
    for line in Path(report_csv).read_text(encoding="utf-8").splitlines():
        if line.startswith("overall_accuracy,"):
            return float(line.split(",")[1])
    return math.nan


# ---------------------------------------------------------------------------
# train

class Train:
    """Two epochs of `train --scales 2:1:1024 --batch 1` on a block store
    built by `preprocess` in set-up. The 2 m tile tiles into four
    footprints, all dominated by class 0, so every seed splits into 3
    training and 1 validation block and the epoch has the same shape on
    every run. Six Adam steps leave the batch-norm running statistics far
    from converged, so the eval-mode val_acc swings between 0 and about
    0.3 from seed to seed; the reported accuracy is the last epoch's
    train-mode train_acc."""

    EPOCHS = 2

    def sizes(self, smoke):
        return Sizes(2.0, 20 if smoke else 55, "2:1:64" if smoke else "2:1:1024")

    def setup(self, d, rng, smoke):
        sz = self.sizes(smoke)
        cloud = scenes.strata(rng, sz.side, sz.tile_m, shares=(0.5, 0.3, 0.2),
                              with_terrain=True)
        scenes.write_raw(d / "raw.txt", cloud)
        scenes.write_rasters(rng, sz.tile_m, d / "image.ppm", d / "dtm.asc")
        rc = run_cli(["preprocess", "--points", d / "raw.txt",
                      "--image", d / "image.ppm", "--dtm", d / "dtm.asc",
                      "--out", d / "store", "--scales", sz.scales])
        if rc != 0:
            raise RuntimeError("preprocess of the training store failed")

    def iterate(self, d, out, smoke):
        sz = self.sizes(smoke)
        t0 = time.perf_counter()
        rc = run_cli(["train", "--blocks", d / "store", "--out", out,
                      "--epochs", self.EPOCHS, "--batch", 1,
                      "--scales", sz.scales])
        seconds = time.perf_counter() - t0
        checks = [check("train exits 0", rc == 0)]
        try:
            network.load_checkpoint(out / "model.ckpt")
            loads = True
        except (ValueError, OSError):
            loads = False
        checks.append(check("checkpoint loads", loads))
        rows = (out / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
        history = [[float(v) for v in r.split(",")] for r in rows]
        checks.append(check("history has the requested epochs",
                            len(history) == self.EPOCHS, f"{len(history)} rows"))
        finite = all(math.isfinite(h[2]) and math.isfinite(h[4]) for h in history)
        checks.append(check("every loss finite", finite))
        in_range = all(0.0 <= h[3] <= 1.0 and 0.0 <= h[5] <= 1.0 for h in history)
        checks.append(check("accuracies within [0, 1]", in_range))
        manifest = _manifest(out / "run_manifest.txt")
        per_block = infer.ScaleConfig.parse(sz.scales)[0].sample_count
        items = int(manifest["train_blocks"]) * per_block * len(history)
        train_acc = history[-1][3] if history else math.nan
        return (Outcome(seconds, items, train_acc, checks),
                [out / "model.ckpt", out / "history.csv"])

    def final_checks(self, d, out, smoke):
        return [], None


def _manifest(path):
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        k, _, v = line.partition("=")
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# preprocess

class Preprocess:
    """`preprocess` with image and DTM at the default scales on a 20 m
    tile of mid density (100 points/m²)."""

    def sizes(self, smoke):
        if smoke:
            return Sizes(4.0, 40, SMOKE_SCALES)
        return Sizes(20.0, 200, PREDICT_SCALES)

    def setup(self, d, rng, smoke):
        sz = self.sizes(smoke)
        cloud = scenes.strata(rng, sz.side, sz.tile_m, with_terrain=True)
        scenes.write_raw(d / "raw.txt", cloud)
        scenes.write_rasters(rng, sz.tile_m, d / "image.ppm", d / "dtm.asc")

    def iterate(self, d, out, smoke):
        sz = self.sizes(smoke)
        t0 = time.perf_counter()
        rc = run_cli(["preprocess", "--points", d / "raw.txt",
                      "--image", d / "image.ppm", "--dtm", d / "dtm.asc",
                      "--out", out, "--scales", sz.scales])
        seconds = time.perf_counter() - t0
        checks = [check("preprocess exits 0", rc == 0)]
        artifacts = [out / "blocks.bin", out / "blocks.manifest", out / "points.txt"]
        return Outcome(seconds, sz.points, math.nan, checks), artifacts

    def final_checks(self, d, out, smoke):
        """Full check of the last store, which every iteration reproduced
        byte for byte: every block has its scale's row count, the
        manifest, the run manifest and the tensors agree on the block
        count, and every stored label is its parent point's label.
        Returns (checks, share of rows with the right label)."""
        blocks, scales = cli.read_block_store(out)
        stored = _container_tensors(out / "blocks.bin", ".features")
        lines = (out / "blocks.manifest").read_text(encoding="utf-8").splitlines()
        declared = int(_manifest(out / "run_manifest.txt")["blocks"])
        counts = all(b.sample_count == scales[b.scale_id].sample_count
                     and len(b.parent_idx) == b.sample_count for b in blocks)
        points = pio.load_points(out / "points.txt")
        right = sum(int((b.labels == points.labels[b.parent_idx]).sum())
                    for b in blocks)
        rows = sum(b.sample_count for b in blocks)
        checks = [
            check("every block has its scale's row count", counts),
            check("manifest block count matches stored tensors",
                  len(lines) - 1 == stored == declared == len(blocks),
                  f"manifest {len(lines) - 1}, tensors {stored}, run {declared}"),
            check("stored labels match their parent points", right == rows),
        ]
        return checks, right / rows


def _container_tensors(path, suffix):
    """Count the tensors whose name ends in suffix, reading only the
    container's header lines (the payloads are skipped, not loaded)."""
    count = 0
    with open(path, "rb") as fh:
        fh.readline()                                   # magic
        fh.readline()                                   # layers <n>
        while (fields := fh.readline().split())[:1] == [b"tensor"]:
            count += fields[1].decode().endswith(suffix)
            fh.seek(int(fields[2]) * int(fields[3]) * 4, 1)
    return count


WORKLOADS = {
    "predict-dense": Predict(side=112, threads=2),    # 1394 points/m²
    "predict-als": Predict(side=8, threads=1),        # 7.1 points/m²
    "train": Train(),
    "preprocess": Preprocess(),
}
