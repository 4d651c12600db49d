"""Acceptance gate: one test per criterion, each with its tolerance
pinned. Run with `pytest tests/test_acceptance.py -v` for a pass/fail
line per criterion.

The two heavyweight criteria (overfit oracle, throughput) run real
training/prediction and take a few minutes combined.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pointlabel import blocks as blk
from pointlabel import cli
from pointlabel import infer
from pointlabel import io as pio
from pointlabel import network as net
from pointlabel import training as tr
from pointlabel.io import PointCloud, Raster

from conftest import strata_scene, toy_architecture

ROOT = Path(__file__).resolve().parents[1]


def test_c01_gradient_oracle():
    """Analytic gradients match central finite differences on the toy net
    (16 points, 9 inputs, widths 9-8-8-16-16-32, 3-class head) for every
    parameter entry, within 1e-4 relative, in under 30 s."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)
    enc, head = toy_architecture(in_width=9, n_classes=3)
    params = net.params_astype(
        net.init_params(enc, head, np.random.default_rng(3)), np.float64)
    x = rng.standard_normal((16, 9))
    labels = rng.integers(0, 3, 16)

    def loss():
        shadow = net.params_astype(params, np.float64)
        return net.cross_entropy(net.forward(x, shadow, "train").q, labels)

    trace = net.forward(x, net.params_astype(params, np.float64), "train")
    grads = net.backward(trace, labels, params)
    # delta in the float64 central-difference sweet spot; 1e-3 straddles
    # ReLU/max-pool kinks where the loss is not differentiable
    delta = 1e-5
    checked = 0
    for name, arr in net.iter_tensors(params):
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + delta
            up = loss()
            flat[k] = orig - delta
            dn = loss()
            flat[k] = orig
            fd = (up - dn) / (2 * delta)
            assert abs(g[k] - fd) <= max(1e-4 * max(abs(g[k]), abs(fd)), 1e-8), \
                f"{name}[{k}]: analytic {g[k]:.3e} vs fd {fd:.3e}"
            checked += 1
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    print(f"criterion 1: {checked} parameter entries within 1e-4 relative "
          f"in {elapsed:.1f}s")


def test_c02_permutation_invariance():
    """200 random clouds: eval-mode probabilities identical after
    unpermuting (exact equality), global feature bitwise identical."""
    rng = np.random.default_rng(11)
    enc, head = net.default_architecture(9, 9)
    params = net.init_params(enc, head, np.random.default_rng(0))
    for _ in range(200):
        n = int(rng.integers(2, 65))
        x = rng.standard_normal((n, 9)).astype(np.float32)
        perm = rng.permutation(n)
        t0 = net.forward(x, params, "eval")
        t1 = net.forward(x[perm], params, "eval")
        unperm = np.empty_like(t1.q)
        unperm[perm] = t1.q
        assert np.array_equal(unperm, t0.q)
        assert t0.g_segments.tobytes() == t1.g_segments.tobytes()
    print("criterion 2: 200 clouds exactly permutation-invariant")


def test_c03_batch_norm_contract():
    """Train-mode normalized pre-scale activations: |mean| < 1e-4 and
    |var - 1| < 1e-3 per column at N=64; eval with scale=sqrt(Var),
    shift=E recovers the input within 1e-4 relative."""
    rng = np.random.default_rng(5)
    spec = net.LayerSpec(16, 16, has_bn=True, has_relu=False)
    lp = net.init_layer(spec, np.random.default_rng(1))
    x = (rng.standard_normal((64, 16)) * 1.7 + 0.8).astype(np.float32)
    _, trace = net.pointwise_forward(x, spec, lp, "train")
    assert np.abs(trace.s_hat.mean(axis=0)).max() < 1e-4
    assert np.abs(trace.s_hat.var(axis=0) - 1.0).max() < 1e-3

    ident = net.LayerParams(np.eye(16, dtype=np.float32),
                            np.zeros(16, dtype=np.float32))
    s = x  # W = I, b = 0
    ident.running_mean = s.mean(axis=0)
    ident.running_var = s.var(axis=0)
    ident.gamma = np.sqrt(ident.running_var)
    ident.beta = ident.running_mean.copy()
    out, _ = net.pointwise_forward(x, spec, ident, "eval")
    rel = np.abs(out - s).max() / np.abs(s).max()
    assert rel < 1e-4
    print(f"criterion 3: batch stats standardized; identity recovery at "
          f"{rel:.2e} relative")


def test_c04_loss_calibration():
    """Uniform predictions over 9 classes cost ln 9 within 1e-6."""
    q = np.full((64, 9), 1.0 / 9.0, dtype=np.float64)
    labels = np.arange(64) % 9
    loss = net.cross_entropy(q, labels)
    assert abs(loss - np.log(9.0)) < 1e-6
    print(f"criterion 4: uniform cross-entropy {loss:.8f} == ln 9")


def test_c05_learning_rate_schedule():
    """lr(epoch) = 0.001 * (1 - epoch/30) exactly for epochs 0..29."""
    config = tr.TrainConfig()
    for epoch in range(30):
        assert tr.lr_at(epoch, config) == 0.001 * (1.0 - epoch / 30.0)
    assert tr.lr_at(0, config) == 0.001
    assert tr.lr_at(15, config) == 0.0005
    assert tr.lr_at(29, config) == pytest.approx(0.001 / 30.0, rel=1e-12)
    print("criterion 5: schedule exact for all 30 epochs, lr(15) == 0.0005")


def test_c06_overfit_oracle():
    """Three separable height/spectral strata (~2000 points) reach 99%
    train and 95% held-out accuracy within 50 epochs in under 10 min."""
    t_start = time.perf_counter()
    scene = strata_scene(n_points=2001, seed=42, extent=12.0)
    scales = [infer.ScaleConfig(6.0, 2.0, 256), infer.ScaleConfig(12.0, 2.0, 512)]
    all_blocks = blk.build_blocks(scene, scales, seed=0, training=True)
    train_set, val_set = tr.stratified_split(all_blocks, 0.25, seed=0)
    train_set = tr.balance_classes(train_set)
    config = tr.TrainConfig(epoch_total=50, patience=50, batch_size=8, seed=0)
    result = tr.fit(train_set, val_set, config, n_classes=3)
    elapsed = time.perf_counter() - t_start
    hits = [h.epoch for h in result.history
            if h.train_acc >= 0.99 and h.val_acc >= 0.95]
    assert hits, (f"never reached 99/95: best train "
                  f"{max(h.train_acc for h in result.history):.4f}, best val "
                  f"{max(h.val_acc for h in result.history):.4f}")
    assert elapsed < 600.0
    print(f"criterion 6: 99%/95% reached at epoch {hits[0]} "
          f"({elapsed:.0f}s for 50 epochs)")


def test_c07_tiling_oracle(scene):
    """Brute-force membership: every point in >= 1 footprint per scale
    before the 10-point discard; the discard itself is exact."""
    for size, overlap in ((2.0, 1.0), (5.0, 2.0), (10.0, 2.0)):
        raw = blk.tile_blocks(scene, size, overlap, min_points=0)
        covered = np.zeros(len(scene), dtype=bool)
        for fp in raw:
            inside = ((scene.xyz[:, 0] >= fp.origin_x)
                      & (scene.xyz[:, 0] <= fp.origin_x + size)
                      & (scene.xyz[:, 1] >= fp.origin_y)
                      & (scene.xyz[:, 1] <= fp.origin_y + size))
            assert np.array_equal(np.flatnonzero(inside), np.sort(fp.indices))
            covered |= inside
        assert covered.all()
        kept = blk.tile_blocks(scene, size, overlap)
        expected = [(fp.origin_x, fp.origin_y) for fp in raw
                    if len(fp.indices) >= 10]
        assert [(fp.origin_x, fp.origin_y) for fp in kept] == expected
        assert all(len(fp.indices) >= 10 for fp in kept)
    print("criterion 7: full coverage pre-discard; 10-point rule exact "
          "at all three scales")


def test_c08_metrics_oracle():
    """Hand-computed 4-point confusion: OA 0.75, F1 2/3 and 0.8, exact;
    report layout carries the precision/recall/F1 rows."""
    report = infer.evaluate([0, 1, 1, 1], [0, 0, 1, 1], n_classes=2,
                            class_names=("a", "b"))
    assert report.overall_accuracy == 0.75
    assert report.f1[0] == 2.0 / 3.0
    assert report.f1[1] == 0.8
    text = report.render()
    for row in ("Precision", "Recall", "F1 Score"):
        assert row in text
    norm = report.confusion / report.confusion.sum(axis=1, keepdims=True)
    assert np.allclose(norm.sum(axis=1), 1.0, atol=1e-6)
    print("criterion 8: hand confusion reproduced exactly; layout OK")


def test_c09_parameter_count():
    """Default architecture holds between 1.6M and 2.2M learnable
    parameters."""
    enc, head = net.default_architecture(9, 9)
    params = net.init_params(enc, head, np.random.default_rng(0))
    count = net.param_count(params)
    assert 1_600_000 <= count <= 2_200_000
    print(f"criterion 9: {count:,} parameters")


THROUGHPUT_DRIVER = r"""
import json, time
import numpy as np
from pointlabel import infer, network as net
from pointlabel.io import PointCloud

threads = {threads}
rng = np.random.default_rng(0)
n = 412_000
xyz = np.column_stack([rng.uniform(0, 12, n), rng.uniform(0, 12, n),
                       rng.uniform(0, 8, n)])
cloud = PointCloud(xyz, rng.uniform(0, 255, (n, 3)))
enc, head = net.default_architecture(9, 9)
params = net.init_params(enc, head, rng)
t0 = time.perf_counter()
labels, probs = infer.predict(cloud, params, infer.DEFAULT_SCALES, seed=0,
                              threads=threads)
print(json.dumps({{"seconds": time.perf_counter() - t0,
                   "labeled": int(len(labels))}}))
"""


def run_throughput(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c",
                          THROUGHPUT_DRIVER.format(threads=threads)],
                         capture_output=True, text=True, env=env, timeout=900)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_c10_throughput_sanity():
    """Non-binding target: eval-mode prediction of a 412k-point scene at
    the three default scales within 60 s on one thread; the 15 s
    8-thread figure is only checkable with >= 8 CPUs."""
    r1 = run_throughput(1)
    assert r1["labeled"] == 412_000
    assert r1["seconds"] <= 60.0, f"single-threaded took {r1['seconds']:.1f}s"
    r8 = run_throughput(8)
    assert r8["seconds"] <= 60.0
    if os.cpu_count() >= 8:
        assert r8["seconds"] <= 15.0, f"8 threads took {r8['seconds']:.1f}s"
        note = ""
    else:
        note = f" ({os.cpu_count()} CPUs: 15 s bound not applicable)"
    print(f"criterion 10: 412k points in {r1['seconds']:.1f}s single-threaded, "
          f"{r8['seconds']:.1f}s with 8 threads{note}")


def test_c11_train_determinism(tmp_path):
    """Two identical `train` runs produce byte-identical checkpoints and
    history CSVs."""
    scene = strata_scene(n_points=360, seed=11, extent=10.0)
    raw = PointCloud(scene.xyz, None, scene.labels)
    pio.save_points(tmp_path / "points.txt", raw)
    rng = np.random.default_rng(4)
    image = Raster(rng.uniform(0, 255, (3, 14, 14)).round(),
                   origin_x=-1.5, origin_y=11.5, cell_size=1.0)
    pio.write_ppm_image(tmp_path / "image.ppm", image)
    dtm = Raster(np.full((14, 14), 1.0), origin_x=-1.5, origin_y=11.5,
                 cell_size=1.0)
    (tmp_path / "dtm.asc").write_text(pio.write_ascii_grid(dtm))
    assert cli.main(["preprocess", "--points", str(tmp_path / "points.txt"),
                     "--image", str(tmp_path / "image.ppm"),
                     "--dtm", str(tmp_path / "dtm.asc"),
                     "--out", str(tmp_path / "prep"),
                     "--scales", "5:1:64,10:2:128"]) == 0
    for out in ("run_a", "run_b"):
        assert cli.main(["train", "--blocks", str(tmp_path / "prep"),
                         "--out", str(tmp_path / out), "--epochs", "2",
                         "--batch", "4", "--seed", "9", "--classes", "3"]) == 0
    ckpt_a = (tmp_path / "run_a" / "model.ckpt").read_bytes()
    ckpt_b = (tmp_path / "run_b" / "model.ckpt").read_bytes()
    hist_a = (tmp_path / "run_a" / "history.csv").read_bytes()
    hist_b = (tmp_path / "run_b" / "history.csv").read_bytes()
    assert ckpt_a == ckpt_b
    assert hist_a == hist_b
    print(f"criterion 11: checkpoints ({len(ckpt_a)} bytes) and histories "
          f"byte-identical")
