import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pointlabel import blocks as blk
from pointlabel import cli, network
from pointlabel import io as pio
from pointlabel.container import read_container_file, write_container_file
from pointlabel.io import PointCloud, Raster

from conftest import strata_scene, toy_params


@pytest.fixture
def fixture_dir(tmp_path):
    """Point file + orthoimage + DTM covering a small labeled scene."""
    scene = strata_scene(n_points=360, seed=11, extent=10.0)
    raw = PointCloud(scene.xyz, None, scene.labels)  # xyzL, no spectral yet
    pio.save_points(tmp_path / "points.txt", raw)
    rng = np.random.default_rng(4)
    image = Raster(rng.uniform(0, 255, (3, 14, 14)).round(),
                   origin_x=-1.5, origin_y=11.5, cell_size=1.0)
    pio.write_ppm_image(tmp_path / "image.ppm", image)
    dtm = Raster(np.full((14, 14), 1.0), origin_x=-1.5, origin_y=11.5,
                 cell_size=1.0)
    (tmp_path / "dtm.asc").write_text(pio.write_ascii_grid(dtm))
    return tmp_path


SCALES = "5:1:64,10:2:128"


def run_preprocess(fixture_dir, out="prep", extra=()):
    rc = cli.main(["preprocess",
                   "--points", str(fixture_dir / "points.txt"),
                   "--image", str(fixture_dir / "image.ppm"),
                   "--dtm", str(fixture_dir / "dtm.asc"),
                   "--out", str(fixture_dir / out),
                   "--scales", SCALES, *extra])
    assert rc == 0
    return fixture_dir / out


def run_train(fixture_dir, prep, out="model", epochs=2, extra=()):
    rc = cli.main(["train", "--blocks", str(prep),
                   "--out", str(fixture_dir / out),
                   "--epochs", str(epochs), "--batch", "4",
                   "--seed", "1", "--classes", "3", *extra])
    assert rc == 0
    return fixture_dir / out


class TestPreprocess:
    def test_artifacts_written(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        assert (prep / "points.txt").exists()
        assert (prep / "blocks.bin").exists()
        assert (prep / "blocks.manifest").exists()
        assert (prep / "run_manifest.txt").exists()
        manifest = (prep / "run_manifest.txt").read_text()
        assert "command=preprocess" in manifest
        assert "digest.points.txt=" in manifest
        # heights were terrain-normalized: flat DTM at 1.0
        cloud = pio.load_points(prep / "points.txt")
        assert cloud.has_spectral and cloud.has_labels
        assert cloud.xyz[:, 2].min() >= -1.5

    def test_block_store_roundtrip(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        blocks, scales = cli.read_block_store(prep)
        assert [f"{s.size:g}:{s.overlap:g}:{s.sample_count}" for s in scales] \
            == SCALES.split(",")
        assert all(b.features.shape == (b.sample_count, 9) for b in blocks)
        assert all(b.labels is not None for b in blocks)

    @pytest.mark.parametrize("edit", ["drop_last", "repeat_last",
                                      "sample_count"])
    def test_block_store_manifest_checked(self, fixture_dir, edit):
        prep = run_preprocess(fixture_dir)
        path = prep / "blocks.manifest"
        lines = path.read_text().splitlines()
        if edit == "drop_last":
            lines = lines[:-1]
        elif edit == "repeat_last":
            lines = lines + lines[-1:]
        else:
            f = lines[1].split()
            f[4] = str(int(f[4]) + 1)
            lines[1] = " ".join(f)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(pio.ParseError, match="block"):
            cli.read_block_store(prep)

    def test_store_refuses_clouds_beyond_float32_indices(self, tmp_path):
        # zero strides: 2^24 + 1 points without allocating them
        xyz = np.broadcast_to(np.zeros(3), (2 ** 24 + 1, 3))
        cloud = PointCloud(xyz)
        assert cloud.xyz.strides[0] == 0
        with pytest.raises(ValueError, match="16777216"):
            cli.write_block_store(tmp_path / "store", cloud, [], ())
        assert not (tmp_path / "store").exists()

    def test_preprocess_refuses_labels_float32_would_round(self, fixture_dir,
                                                           capsys):
        # float32 holds every integer up to 2^24; 2^24 + 1 would come back
        # from the store as 2^24
        raw = pio.load_points(fixture_dir / "points.txt")
        raw.labels[5] = 2 ** 24 + 1
        pio.save_points(fixture_dir / "points.txt", raw)
        rc = cli.main(["preprocess",
                       "--points", str(fixture_dir / "points.txt"),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--dtm", str(fixture_dir / "dtm.asc"),
                       "--out", str(fixture_dir / "prep"), "--scales", SCALES])
        err = assert_error_exit(rc, capsys)
        assert "point 5 has label 16777217" in err
        assert not (fixture_dir / "prep" / "blocks.bin").exists()

    def test_preprocess_refuses_clouds_beyond_store_indices(
            self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STORE_POINTS", 359)
        rc = cli.main(["preprocess",
                       "--points", str(fixture_dir / "points.txt"),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--dtm", str(fixture_dir / "dtm.asc"),
                       "--out", str(fixture_dir / "prep"), "--scales", SCALES])
        assert assert_error_exit(rc, capsys) == (
            "error: cloud holds 360 points; the block store indexes at most "
            "359\n")
        assert not (fixture_dir / "prep" / "blocks.bin").exists()

    def test_manifest_times_load_attribution_and_blocking(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        lines = (prep / "run_manifest.txt").read_text().splitlines()
        timings = [line.split("=")[0] for line in lines
                   if line.startswith("timing.")]
        assert timings == ["timing.load", "timing.attribution",
                           "timing.blocking"]

    def test_columns_flag_checks_values(self, fixture_dir, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("1 2 3 180 1 0\n1 2 3 180 1 -1\n")
        rc = cli.main(["preprocess", "--points", str(raw),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--no-dtm", "--out", str(tmp_path / "prep"),
                       "--columns", "x,y,z,-,-,label"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: line 2: label -1")

    def test_no_dtm_keeps_heights(self, fixture_dir):
        prep = run_preprocess(fixture_dir, out="prep2", extra=("--no-dtm",))
        cloud = pio.load_points(prep / "points.txt")
        assert cloud.xyz[:, 2].min() >= 0.0

    def test_manifest_counts_clamped_and_dropped_points(self, fixture_dir):
        # the DTM is one column narrower than the image and has one nodata
        # cell; three points beyond the scene: over that nodata cell, past
        # the DTM's extent, and past it inside the image's half-cell margin
        cloud = pio.load_points(fixture_dir / "points.txt")
        extra = [[10.5, 11.5, 3.0], [11.5, 5.0, 3.0], [11.8, 5.0, 3.0]]
        pio.save_points(fixture_dir / "points.txt", PointCloud(
            np.vstack([cloud.xyz, extra]), None,
            np.concatenate([cloud.labels, [0, 0, 0]])))
        data = np.full((14, 13), 1.0)
        data[0, 12] = -9999.0
        dtm = Raster(data, origin_x=-1.5, origin_y=11.5, cell_size=1.0)
        (fixture_dir / "dtm.asc").write_text(pio.write_ascii_grid(dtm))
        prep = run_preprocess(fixture_dir)
        lines = (prep / "run_manifest.txt").read_text().splitlines()
        assert "attribution_clamped=1" in lines
        assert "dtm_dropped_nodata=1" in lines
        assert "dtm_dropped_outside=2" in lines
        assert f"points={len(cloud)}" in lines

    def test_library_counts_match_the_manifest(self, fixture_dir):
        # two points in the image's half-cell margin, one over the DTM's
        # nodata cell and two past the DTM's extent; the manifest reports
        # the counts of the library steps that clamp and drop them
        cloud = pio.load_points(fixture_dir / "points.txt")
        extra = [[10.5, 11.5, 3.0], [-1.8, 4.0, 3.0], [11.5, 5.0, 3.0],
                 [11.8, 5.0, 3.0]]
        pio.save_points(fixture_dir / "points.txt", PointCloud(
            np.vstack([cloud.xyz, extra]), None,
            np.concatenate([cloud.labels, [0, 0, 0, 0]])))
        data = np.full((14, 13), 1.0)
        data[0, 12] = -9999.0
        dtm = Raster(data, origin_x=-1.5, origin_y=11.5, cell_size=1.0)
        (fixture_dir / "dtm.asc").write_text(pio.write_ascii_grid(dtm))
        counts = {}
        attributed = blk.attribute_spectral(
            pio.load_points(fixture_dir / "points.txt"),
            pio.read_ppm_image(fixture_dir / "image.ppm"), counts=counts)
        blk.normalize_height(attributed, dtm, counts=counts)
        assert counts == {"attribution_clamped": 2, "dtm_dropped_nodata": 1,
                          "dtm_dropped_outside": 2}
        prep = run_preprocess(fixture_dir)
        manifest = dict(line.split("=", 1) for line in
                        (prep / "run_manifest.txt").read_text().splitlines())
        assert {k: int(manifest[k]) for k in counts} == counts

    @pytest.mark.parametrize("augment", ["0", "1"])
    def test_manifest_counts_footprints_and_duplicated_rows(self, fixture_dir,
                                                            augment):
        prep = run_preprocess(fixture_dir, extra=("--augment", augment))
        manifest = dict(line.split("=", 1) for line in
                        (prep / "run_manifest.txt").read_text().splitlines())
        blocks, scales = cli.read_block_store(prep)
        for i, sc in enumerate(scales):
            mine = [b for b in blocks if b.scale_id == i]
            rows = sc.sample_count * len(mine)
            duplicated = sum(b.sample_count - len(np.unique(b.parent_idx))
                             for b in mine)
            assert int(manifest[f"scale{i}.footprints_kept"]) == len(mine) > 0
            assert int(manifest[f"scale{i}.footprints_discarded"]) >= 0
            assert int(manifest[f"scale{i}.rows"]) == rows
            assert int(manifest[f"scale{i}.duplicated_rows"]) == duplicated
            assert float(manifest[f"scale{i}.duplicated_fraction"]) == duplicated / rows
        assert int(manifest["blocks"]) == len(blocks)

    def test_dtm_required_without_no_dtm(self, fixture_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["preprocess", "--points", "p", "--image", "i",
                      "--out", "o"])
        assert exc.value.code == 2

    def test_augment_flag_adds_replicas(self, fixture_dir):
        prep = run_preprocess(fixture_dir, out="prep3", extra=("--augment", "1"))
        blocks, _ = cli.read_block_store(prep)
        assert {b.replica for b in blocks} == {0, 1}

    def test_columns_flag_maps_raw_layout(self, fixture_dir, tmp_path):
        # raw survey layout: x y z intensity returns label
        cloud = pio.load_points(fixture_dir / "points.txt")
        lines = [f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f} 180 1 {l}"
                 for p, l in zip(cloud.xyz, cloud.labels)]
        raw = tmp_path / "raw.txt"
        raw.write_text("\n".join(lines) + "\n")
        rc = cli.main(["preprocess", "--points", str(raw),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--dtm", str(fixture_dir / "dtm.asc"),
                       "--out", str(tmp_path / "prep"),
                       "--scales", SCALES,
                       "--columns", "x,y,z,-,-,label"])
        assert rc == 0
        out = pio.load_points(tmp_path / "prep" / "points.txt")
        assert len(out) == len(cloud) and out.has_labels


class TestTrain:
    def test_checkpoint_and_history(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        out = run_train(fixture_dir, prep)
        assert (out / "model.ckpt").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,train_acc,val_loss,val_acc"
        assert len(history) == 3
        manifest = (out / "run_manifest.txt").read_text()
        assert "command=train" in manifest

    def test_manifest_times_each_epoch(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        out = run_train(fixture_dir, prep, out="m5", epochs=3)
        history = (out / "history.csv").read_text().splitlines()[1:]
        manifest = dict(line.split("=", 1) for line in
                        (out / "run_manifest.txt").read_text().splitlines())
        epochs = [k for k in manifest if k.startswith("timing.epoch")]
        assert epochs == [f"timing.epoch{i}" for i in range(len(history))]
        seconds = [float(manifest[k].rstrip("s")) for k in epochs]
        assert sum(seconds) <= float(manifest["timing.fit"].rstrip("s")) + 0.01
        assert float(manifest["rows_per_s"]) > 0

    def test_manifest_times_validation_apart_from_history(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        out = run_train(fixture_dir, prep, out="m6")
        manifest = dict(line.split("=", 1) for line in
                        (out / "run_manifest.txt").read_text().splitlines())
        seconds = float(manifest["timing.validation"].rstrip("s"))
        assert 0 < seconds <= float(manifest["timing.fit"].rstrip("s"))
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,train_acc,val_loss,val_acc"

    def test_manifest_records_blas_thread_settings(self, fixture_dir,
                                                   monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        prep = run_preprocess(fixture_dir)
        out = run_train(fixture_dir, prep, out="m7", epochs=1)
        manifest = dict(line.split("=", 1) for line in
                        (out / "run_manifest.txt").read_text().splitlines())
        assert manifest["env.OPENBLAS_NUM_THREADS"] == "1"
        assert manifest["env.MKL_NUM_THREADS"] == "2"
        assert manifest["env.OMP_NUM_THREADS"] == "unset"

    def test_runs_are_byte_identical(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        a = run_train(fixture_dir, prep, out="m1")
        b = run_train(fixture_dir, prep, out="m2")
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "history.csv").read_text() == (b / "history.csv").read_text()

    def test_scale_subset_filter(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        out = run_train(fixture_dir, prep, out="m3", extra=("--scales", "5:1:64"))
        assert (out / "model.ckpt").exists()

    def test_scale_text_stored_exactly(self, fixture_dir):
        # ":g" formatting would store 2.12346 and the subset would match
        # none of the stored scales
        prep = run_preprocess(fixture_dir, extra=("--scales", "2.1234567:1:64"))
        lines = (prep / "blocks.manifest").read_text().splitlines()
        assert lines[0] == "scales 2.1234567:1:64"
        run_train(fixture_dir, prep, extra=("--scales", "2.1234567:1:64"))

    def test_unknown_scale_rejected(self, fixture_dir, capsys):
        prep = run_preprocess(fixture_dir)
        rc = cli.main(["train", "--blocks", str(prep),
                       "--out", str(fixture_dir / "m4"),
                       "--scales", "99:1:10"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_partly_unknown_scales_rejected(self, fixture_dir, capsys):
        # one stored scale must not train on its subset while the
        # manifest records the unknown one too
        prep = run_preprocess(fixture_dir)
        rc = cli.main(["train", "--blocks", str(prep),
                       "--out", str(fixture_dir / "m5"),
                       "--scales", "5:1:64,99:1:10"])
        assert rc == 1
        assert "99:1:10 is not a stored scale" in capsys.readouterr().err
        assert not (fixture_dir / "m5").exists()

    @pytest.mark.parametrize("features", ["both", "xyz"])
    def test_store_of_narrow_features_rejected(self, fixture_dir, capsys,
                                               features):
        # read unchecked, 5-wide blocks would train a 5-input network that
        # predict refuses (both) or be indexed past their width (xyz)
        prep = run_preprocess(fixture_dir)
        blocks, scales = cli.read_block_store(prep)
        for b in blocks:
            b.features = np.ascontiguousarray(b.features[:, :5])
        cli.write_block_store(prep, pio.load_points(prep / "points.txt"),
                              blocks, scales)
        rc = cli.main(["train", "--blocks", str(prep),
                       "--out", str(fixture_dir / "m7"),
                       "--features", features])
        err = assert_error_exit(rc, capsys)
        assert "block 0: features are 5 columns wide, not 9" in err
        assert not (fixture_dir / "m7").exists()


class TestPredictEvaluate:
    def test_predict_writes_labels_probs_manifest(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep) / "model.ckpt"
        out = fixture_dir / "labeled.txt"
        rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                       "--model", str(model), "--out", str(out),
                       "--scales", SCALES, "--seed", "3",
                       "--probs", str(fixture_dir / "probs.txt")])
        assert rc == 0
        labeled = pio.load_points(out)
        truth = pio.load_points(prep / "points.txt")
        assert len(labeled) == len(truth)
        assert labeled.has_labels and labeled.has_spectral
        probs = np.loadtxt(fixture_dir / "probs.txt")
        assert probs.shape == (len(truth), 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-4)
        assert (fixture_dir / "labeled.txt.manifest").exists()

    def test_manifests_record_peak_memory(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep, epochs=1)
        out = fixture_dir / "labeled.txt"
        rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                       "--model", str(model / "model.ckpt"),
                       "--out", str(out), "--scales", SCALES])
        assert rc == 0
        for path in (prep / "run_manifest.txt", model / "run_manifest.txt",
                     fixture_dir / "labeled.txt.manifest"):
            manifest = dict(line.split("=", 1)
                            for line in path.read_text().splitlines())
            assert float(manifest["peak_rss_mb"]) > 0, path.name

    def test_manifests_record_minor_faults(self, fixture_dir):
        # each command runs in a fresh child (`python -m pointlabel`, src/
        # on the path), which must fault in pages. The child's count adds
        # start-up and imports, which a `--help` child measures; a running
        # total would hold them, so the command's count stays half of them
        # below the child's
        import pointlabel
        src = str(Path(pointlabel.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}

        def child_faults(argv):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            done = subprocess.run([sys.executable, "-m", "pointlabel", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        start_up = child_faults(["--help"])
        prep, model = fixture_dir / "prep", fixture_dir / "model"
        out = fixture_dir / "labeled.txt"
        runs = [
            (["preprocess", "--points", str(fixture_dir / "points.txt"),
              "--image", str(fixture_dir / "image.ppm"),
              "--dtm", str(fixture_dir / "dtm.asc"), "--out", str(prep),
              "--scales", SCALES], prep / "run_manifest.txt"),
            (["train", "--blocks", str(prep), "--out", str(model),
              "--epochs", "1", "--batch", "4", "--seed", "1",
              "--classes", "3"], model / "run_manifest.txt"),
            (["predict", "--points", str(prep / "points.txt"),
              "--model", str(model / "model.ckpt"), "--out", str(out),
              "--scales", SCALES], fixture_dir / "labeled.txt.manifest"),
        ]
        for argv, path in runs:
            child = child_faults(argv)
            manifest = dict(line.split("=", 1)
                            for line in path.read_text().splitlines())
            faults = int(manifest["minor_faults"])
            assert 0 < faults < child - start_up // 2, (path.name, child)

    def test_train_manifest_records_most_rows_per_step(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep, epochs=1,
                          extra=("--scales", "5:1:64"))
        manifest = dict(line.split("=", 1) for line in
                        (model / "run_manifest.txt").read_text().splitlines())
        # --batch 4 of 64-row blocks
        assert int(manifest["step_rows_max"]) == 64 * min(
            4, int(manifest["train_blocks"]))

    def test_probs_file_matches_per_value_formatting(self, fixture_dir,
                                                     monkeypatch):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep) / "model.ckpt"
        seen = {}
        predict = cli.infer.predict

        def spy(*args, **kwargs):
            seen["probs"] = predict(*args, **kwargs)[1]
            seen["probs"][:2, 0] = [-0.0, 5e-7]   # sign and rounding edges
            return seen["probs"].argmax(axis=1), seen["probs"]

        monkeypatch.setattr(cli.infer, "predict", spy)
        out = fixture_dir / "probs.txt"
        rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                       "--model", str(model),
                       "--out", str(fixture_dir / "labeled.txt"),
                       "--scales", SCALES, "--probs", str(out)])
        assert rc == 0
        want = "".join(" ".join(f"{v:.6f}" for v in row) + "\n"
                       for row in seen["probs"])
        assert out.read_text() == want

    def test_xyz_model_keeps_xyz_only_columns(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep, extra=("--features", "xyz"))
        points = pio.load_points(prep / "points.txt")
        bare = fixture_dir / "bare.txt"
        pio.save_points(bare, PointCloud(points.xyz, None, None))
        outs = {}
        for name, src in (("bare", bare), ("full", prep / "points.txt")):
            outs[name] = fixture_dir / f"{name}_pred.txt"
            rc = cli.main(["predict", "--points", str(src),
                           "--model", str(model / "model.ckpt"),
                           "--out", str(outs[name]), "--scales", SCALES,
                           "--probs", str(fixture_dir / f"{name}_probs.txt")])
            assert rc == 0
        rows = np.loadtxt(outs["bare"])
        assert rows.shape == (len(points), 4)
        assert np.array_equal(rows[:, 3], np.loadtxt(outs["full"])[:, 6])
        assert ((fixture_dir / "bare_probs.txt").read_bytes()
                == (fixture_dir / "full_probs.txt").read_bytes())
        assert "features=xyz" in (fixture_dir / "bare_pred.txt.manifest").read_text()

    def test_predict_deterministic(self, fixture_dir):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep) / "model.ckpt"
        outs = []
        for name in ("l1.txt", "l2.txt"):
            rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                           "--model", str(model), "--out",
                           str(fixture_dir / name), "--scales", SCALES])
            assert rc == 0
            outs.append((fixture_dir / name).read_bytes())
        assert outs[0] == outs[1]

    def test_folded_predict_matches_unfolded_checkpoint(self, fixture_dir):
        # the CLI folds batch norm into the loaded weights; infer.predict
        # on the unfolded checkpoint folds a copy, with the same bits;
        # this recipe gives a model that predicts all three classes
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep, epochs=6,
                          extra=("--lr", "0.003")) / "model.ckpt"
        out, probs_out = fixture_dir / "labeled.txt", fixture_dir / "probs.txt"
        rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                       "--model", str(model), "--out", str(out),
                       "--scales", SCALES, "--seed", "3", "--threads", "2",
                       "--probs", str(probs_out)])
        assert rc == 0
        params = cli.network.load_checkpoint(model)
        assert all(s.has_bn for s in params.encoder_specs)
        labels, probs = cli.infer.predict(
            pio.load_points(prep / "points.txt"), params,
            cli.infer.ScaleConfig.parse(SCALES), seed=3)
        assert len(np.unique(labels)) == 3
        assert np.array_equal(pio.load_points(out).labels, labels)
        np.savetxt(fixture_dir / "library_probs.txt", probs, fmt="%.6f")
        assert (probs_out.read_bytes()
                == (fixture_dir / "library_probs.txt").read_bytes())
        # 6-decimal text cannot show a 1e-7 difference; the arrays can
        folded = cli.network.fold_batch_norm(cli.network.copy_params(params))
        cloud = pio.load_points(prep / "points.txt")
        for threads in (1, 2):
            _, unfolded_probs = cli.infer.predict(
                cloud, params, cli.infer.ScaleConfig.parse(SCALES), seed=3,
                threads=threads)
            _, folded_probs = cli.infer.predict(
                cloud, folded, cli.infer.ScaleConfig.parse(SCALES), seed=3,
                threads=threads)
            assert unfolded_probs.tobytes() == folded_probs.tobytes()
            assert unfolded_probs.tobytes() == probs.tobytes()

    def test_manifest_times_load_apart_from_predict(self, fixture_dir,
                                                    monkeypatch):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep) / "model.ckpt"
        load_points, predict = cli.pio.load_points, cli.infer.predict
        spent = {}

        def slow_load(*args, **kwargs):
            time.sleep(0.3)
            return load_points(*args, **kwargs)

        def timed_predict(*args, **kwargs):
            t0 = time.perf_counter()
            result = predict(*args, **kwargs)
            spent["predict"] = time.perf_counter() - t0
            return result

        monkeypatch.setattr(cli.pio, "load_points", slow_load)
        monkeypatch.setattr(cli.infer, "predict", timed_predict)
        out = fixture_dir / "labeled.txt"
        rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                       "--model", str(model), "--out", str(out),
                       "--scales", SCALES])
        assert rc == 0
        lines = Path(str(out) + ".manifest").read_text().splitlines()
        timings = {k: float(v.rstrip("s")) for k, v in
                   (line.split("=") for line in lines
                    if line.startswith("timing."))}
        assert list(timings) == ["timing.load", "timing.predict"]
        assert timings["timing.load"] >= 0.3
        assert abs(timings["timing.predict"] - spent["predict"]) < 0.1

    def test_manifest_counts_blocks_rows_and_coverage(self, fixture_dir):
        # 2 m footprints hold about 14 points, so 64 samples repeat rows and
        # one forward takes several blocks; 12 samples of each 10 m block
        # fill a forward alone and leave a few points to the NN fill
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep) / "model.ckpt"
        out = fixture_dir / "labeled.txt"
        scales = "2:1:64,10:2:12"
        rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                       "--model", str(model), "--out", str(out),
                       "--scales", scales, "--seed", "5", "--threads", "2"])
        assert rc == 0
        manifest = dict(line.split("=", 1) for line in
                        Path(str(out) + ".manifest").read_text().splitlines())
        cloud = pio.load_points(prep / "points.txt")
        extent = blk.SceneExtent.of(cloud)
        covered_any = np.zeros(len(cloud), dtype=bool)
        for sid, sc in enumerate(cli.infer.ScaleConfig.parse(scales)):
            footprints = blk.tile_blocks(cloud, sc.size, sc.overlap)
            covered = np.zeros(len(cloud), dtype=bool)
            rows = 0
            for bi, fp in enumerate(footprints):
                block = blk.sample_block(cloud, fp, sc.sample_count, False,
                                         blk.block_rng(5, sid, bi), extent, sid)
                rows += len(np.unique(block.parent_idx))
                covered[block.parent_idx] = True
            covered_any |= covered
            calls = int(manifest[f"scale{sid}.forward_calls"])
            assert int(manifest[f"scale{sid}.blocks"]) == len(footprints)
            assert int(manifest[f"scale{sid}.rows_forwarded"]) == rows
            assert -(-rows // sc.sample_count) <= calls <= len(footprints)
            assert float(manifest[f"scale{sid}.coverage"]) == covered.mean()
        # several sparse blocks per chunk; full 10 m blocks one per chunk
        assert int(manifest["scale0.forward_calls"]) * 3 <= int(
            manifest["scale0.blocks"])
        assert calls == int(manifest["scale1.blocks"]) > 1
        filled = int(manifest["nn_filled"])
        assert filled == (~covered_any).sum() > 0
        assert float(manifest["coverage"]) == covered_any.mean()

    def test_missing_model_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--points", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = cli.main(["predict", "--points", str(tmp_path / "nope.txt"),
                       "--model", str(tmp_path / "nope.ckpt"),
                       "--out", str(tmp_path / "o.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_evaluate_report(self, fixture_dir, capsys):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep) / "model.ckpt"
        out = fixture_dir / "labeled.txt"
        cli.main(["predict", "--points", str(prep / "points.txt"),
                  "--model", str(model), "--out", str(out),
                  "--scales", SCALES])
        rc = cli.main(["evaluate", "--pred", str(out),
                       "--truth", str(prep / "points.txt"),
                       "--out", str(fixture_dir / "report.csv"),
                       "--classes", "3"])
        assert rc == 0
        csv = (fixture_dir / "report.csv").read_text()
        assert csv.startswith("class,precision,recall,f1")
        text = capsys.readouterr().out
        assert "F1 Score" in text and "Overall accuracy" in text


    def test_evaluate_rejects_label_beyond_int32(self, fixture_dir, capsys):
        text = "1 2 3 0\n1 2 3 99999999999\n"
        (fixture_dir / "pred.txt").write_text(text)
        (fixture_dir / "truth.txt").write_text(text.replace("99999999999", "1"))
        rc = cli.main(["evaluate", "--pred", str(fixture_dir / "pred.txt"),
                       "--truth", str(fixture_dir / "truth.txt"),
                       "--out", str(fixture_dir / "report.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1


def assert_error_exit(rc, capsys):
    """Exit code 1 with a single `error:` line on stderr."""
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


class TestRejectedSettings:
    @pytest.mark.parametrize("scales", ["2:1:0", "0:0:64", "5:5:64", "5:-1:64",
                                        "inf:1:64"])
    def test_preprocess_bad_scale(self, fixture_dir, capsys, scales):
        rc = cli.main(["preprocess",
                       "--points", str(fixture_dir / "points.txt"),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--dtm", str(fixture_dir / "dtm.asc"),
                       "--out", str(fixture_dir / "prep"), "--scales", scales])
        assert "scale" in assert_error_exit(rc, capsys)
        assert not (fixture_dir / "prep").exists()

    def test_preprocess_dtm_covering_no_point(self, fixture_dir, capsys):
        # the fixture's DTM moved 1000 m east: every point lies outside it
        dtm = Raster(np.full((14, 14), 1.0), origin_x=998.5, origin_y=11.5,
                     cell_size=1.0)
        (fixture_dir / "dtm.asc").write_text(pio.write_ascii_grid(dtm))
        rc = cli.main(["preprocess",
                       "--points", str(fixture_dir / "points.txt"),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--dtm", str(fixture_dir / "dtm.asc"),
                       "--out", str(fixture_dir / "prep"), "--scales", SCALES])
        assert assert_error_exit(rc, capsys) == (
            "error: the DTM covers none of the 360 points: 0 over nodata "
            "terrain and 360 outside the DTM extent\n")
        assert not (fixture_dir / "prep").exists()

    def test_preprocess_negative_augment(self, fixture_dir, capsys):
        rc = cli.main(["preprocess",
                       "--points", str(fixture_dir / "points.txt"),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--dtm", str(fixture_dir / "dtm.asc"),
                       "--out", str(fixture_dir / "prep"), "--augment", "-1"])
        assert "--augment" in assert_error_exit(rc, capsys)
        assert not (fixture_dir / "prep").exists()

    @pytest.mark.parametrize("flag,name", [("--epochs", "epoch_total"),
                                           ("--batch", "batch_size")])
    def test_train_zero_setting(self, fixture_dir, capsys, flag, name):
        prep = run_preprocess(fixture_dir)
        capsys.readouterr()
        rc = cli.main(["train", "--blocks", str(prep),
                       "--out", str(fixture_dir / "model"), flag, "0"])
        assert name in assert_error_exit(rc, capsys)
        assert not (fixture_dir / "model").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_train_non_finite_lr(self, fixture_dir, capsys, lr):
        prep = run_preprocess(fixture_dir)
        capsys.readouterr()
        rc = cli.main(["train", "--blocks", str(prep),
                       "--out", str(fixture_dir / "model"), "--lr", lr])
        assert "lr_initial" in assert_error_exit(rc, capsys)
        assert not (fixture_dir / "model").exists()

    def test_predict_zero_threads(self, fixture_dir, capsys):
        prep = run_preprocess(fixture_dir)
        model = run_train(fixture_dir, prep) / "model.ckpt"
        capsys.readouterr()
        out = fixture_dir / "labeled.txt"
        rc = cli.main(["predict", "--points", str(prep / "points.txt"),
                       "--model", str(model), "--out", str(out),
                       "--scales", SCALES, "--threads", "0",
                       "--probs", str(fixture_dir / "probs.txt")])
        assert "threads" in assert_error_exit(rc, capsys)
        assert not out.exists() and not (fixture_dir / "probs.txt").exists()
        assert not (fixture_dir / "labeled.txt.manifest").exists()


class TestMalformedCheckpoint:
    def predict_with(self, tmp_path, drop, extra=()):
        """Exit code of predict with a toy checkpoint from which the
        tensors `drop` picks by name are removed and to which the (name,
        array) pairs `extra` are added."""
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(path, toy_params())
        n_layers, tensors = read_container_file(path)
        kept = [(k, v) for k, v in tensors.items() if not drop(k)] + list(extra)
        layers = len({k.split(".")[0] for k, _ in kept} - {"meta"})
        write_container_file(path, layers, kept)
        scene = strata_scene(n_points=60, seed=2)
        pio.save_points(tmp_path / "points.txt", scene)
        out = tmp_path / "labeled.txt"
        rc = cli.main(["predict", "--points", str(tmp_path / "points.txt"),
                       "--model", str(path), "--out", str(out),
                       "--scales", "6:2:32"])
        assert out.exists() == (rc == 0)
        return rc

    def test_layer_without_weights(self, tmp_path, capsys):
        rc = self.predict_with(tmp_path, lambda k: k == "enc2.W")
        assert "enc2.W" in assert_error_exit(rc, capsys)

    def test_layer_without_bias(self, tmp_path, capsys):
        rc = self.predict_with(tmp_path, lambda k: k == "head2.b")
        assert "head2.b" in assert_error_exit(rc, capsys)

    def test_missing_layer_index(self, tmp_path, capsys):
        rc = self.predict_with(tmp_path, lambda k: k.startswith("enc1."))
        assert "layer enc1" in assert_error_exit(rc, capsys)

    @pytest.mark.parametrize("name", ["junk", "enc0.W.x", "enc0.", ".W"])
    def test_malformed_tensor_name(self, tmp_path, capsys, name):
        rc = self.predict_with(tmp_path, lambda k: False,
                               [(name, np.zeros(2, dtype=np.float32))])
        assert repr(name) in assert_error_exit(rc, capsys)

    @pytest.mark.parametrize("name", ["enc2.b", "head1.running_var"])
    def test_vector_narrower_than_its_layer(self, tmp_path, capsys, name):
        # a 7-wide enc2.b loaded, and predict failed in numpy's broadcast
        rc = self.predict_with(tmp_path, lambda k: k == name,
                               [(name, np.zeros(7, dtype=np.float32))])
        err = assert_error_exit(rc, capsys)
        assert repr(name) in err and "(1, 7)" in err

    def test_weights_that_do_not_chain(self, tmp_path, capsys):
        # a 100-row enc3.W loaded, and the first forward failed
        rc = self.predict_with(tmp_path, lambda k: k == "enc3.W",
                               [("enc3.W", np.zeros((100, 16), dtype=np.float32))])
        err = assert_error_exit(rc, capsys)
        assert "'enc3.W' has 100 rows" in err

    @pytest.mark.parametrize("name, value", [("enc4.W", np.nan),
                                             ("head1.running_var", np.inf),
                                             ("enc0.beta", -np.inf)])
    def test_non_finite_tensor(self, tmp_path, capsys, name, value):
        # a NaN weight used to label every point class 0, and exit 0
        path = tmp_path / "model.ckpt"
        network.save_checkpoint(path, toy_params())
        n_layers, tensors = read_container_file(path)
        tensors[name].reshape(-1)[-1] = value
        write_container_file(path, n_layers, tensors.items())
        scene = strata_scene(n_points=60, seed=2)
        pio.save_points(tmp_path / "points.txt", scene)
        out = tmp_path / "labeled.txt"
        rc = cli.main(["predict", "--points", str(tmp_path / "points.txt"),
                       "--model", str(path), "--out", str(out),
                       "--scales", "6:2:32"])
        err = assert_error_exit(rc, capsys)
        assert repr(name) in err and "non-finite" in err and str(value) in err
        assert not out.exists()

    def test_checkpoint_without_momentum_predicts(self, tmp_path):
        rc = self.predict_with(tmp_path, lambda k: k == "meta.momentum")
        assert rc == 0


class TestRaster2Points:
    def test_conversion(self, fixture_dir):
        out = fixture_dir / "raster_pts.txt"
        rc = cli.main(["raster2points", "--dsm", str(fixture_dir / "dtm.asc"),
                       "--image", str(fixture_dir / "image.ppm"),
                       "--out", str(out)])
        assert rc == 0
        cloud = pio.load_points(out)
        assert len(cloud) == 14 * 14
        assert cloud.has_spectral
        assert (cloud.xyz[:, 2] == 1.0).all()


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--bogus", "x"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_module_entry_point(self):
        # `python -m pointlabel` from a checkout, with src/ on the path
        import pointlabel
        src = str(Path(pointlabel.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "pointlabel", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: pointlabel")
        assert "predict" in done.stdout
