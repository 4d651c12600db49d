import numpy as np
import pytest

from pointlabel import cli
from pointlabel import io as pio
from pointlabel.io import PointCloud, Raster

from conftest import strata_scene


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

    def test_no_dtm_keeps_heights(self, fixture_dir):
        prep = run_preprocess(fixture_dir, out="prep2", extra=("--no-dtm",))
        cloud = pio.load_points(prep / "points.txt")
        assert cloud.xyz[:, 2].min() >= 0.0

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

    def test_unknown_scale_rejected(self, fixture_dir, capsys):
        prep = run_preprocess(fixture_dir)
        rc = cli.main(["train", "--blocks", str(prep),
                       "--out", str(fixture_dir / "m4"),
                       "--scales", "99:1:10"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


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
