import numpy as np
import pytest

from pointlabel import blocks as blk
from pointlabel import infer, network
from pointlabel.io import PointCloud

from conftest import strata_scene, toy_params


def uniform_params():
    """Toy net whose final layer is zeroed: logits 0, probabilities
    uniform for any input."""
    params = toy_params()
    params.head[-1].W[:] = 0.0
    params.head[-1].b[:] = 0.0
    return params


def field(probs, counts):
    return infer.ProbabilityField(np.asarray(probs, dtype=np.float64),
                                  np.asarray(counts, dtype=np.int64))


class TestScaleConfig:
    def test_parse(self):
        scales = infer.ScaleConfig.parse("2:1:1024,5:2:3072")
        assert scales == (infer.ScaleConfig(2.0, 1.0, 1024),
                          infer.ScaleConfig(5.0, 2.0, 3072))

    def test_defaults_match_contract(self):
        assert infer.DEFAULT_SCALES == (infer.ScaleConfig(2.0, 1.0, 1024),
                                        infer.ScaleConfig(5.0, 2.0, 3072),
                                        infer.ScaleConfig(10.0, 2.0, 4096))

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            infer.ScaleConfig.parse("2:1")


class TestPredictScale:
    def test_uniform_logits_give_uniform_probs(self, scene):
        params = uniform_params()
        f = infer.predict_scale(scene, params, infer.ScaleConfig(12.0, 2.0, 64),
                                seed=0)
        cov = f.covered
        assert cov.any()
        norm = f.normalized()
        assert np.allclose(norm[cov], 1.0 / 3.0)

    def test_overlapping_blocks_accumulate_votes(self):
        # two overlapping footprints, every member sampled in both
        xs = np.linspace(0.0, 8.0, 40)
        cloud = PointCloud(np.stack([xs, np.full(40, 1.0), np.zeros(40)], 1),
                           np.full((40, 3), 100.0))
        params = uniform_params()
        f = infer.predict_scale(cloud, params, infer.ScaleConfig(5.0, 2.0, 64),
                                seed=0)
        # x in [3,5] lies in both the [0,5] and [3,8] footprints; with 64
        # samples from <=40 points every member is drawn at least once
        overlap = (xs >= 3.0) & (xs <= 5.0)
        assert (f.counts[overlap] >= 2).all()

    def test_duplicated_rows_do_not_change_the_mean(self, scene):
        params = uniform_params()
        f = infer.predict_scale(scene, params,
                                infer.ScaleConfig(12.0, 2.0, 4096), seed=0)
        norm = f.normalized()
        assert np.allclose(norm[f.covered].sum(axis=1), 1.0)
        assert np.allclose(norm[f.covered], 1.0 / 3.0)

    def test_sparse_blocks_forward_each_point_once(self, monkeypatch):
        cloud = strata_scene(n_points=300, seed=3)
        params = toy_params(seed=5)
        sc = infer.ScaleConfig(6.0, 2.0, 256)
        extent = blk.SceneExtent.of(cloud)
        sums = np.zeros((len(cloud), 3))
        counts = np.zeros(len(cloud), dtype=np.int64)
        expected_rows = []
        for bi, fp in enumerate(blk.tile_blocks(cloud, sc.size, sc.overlap)):
            block = blk.sample_block(cloud, fp, sc.sample_count, False,
                                     blk.block_rng(4, 1, bi), extent, 1)
            q = network.forward(block.features, params, "eval").q
            np.add.at(sums, block.parent_idx, q.astype(np.float64))
            np.add.at(counts, block.parent_idx, 1)
            expected_rows.append(len(np.unique(block.parent_idx)))
        assert sum(expected_rows) < sc.sample_count * len(expected_rows)

        forwarded = []
        real_forward = network.forward

        def counting_forward(x, *args, **kwargs):
            forwarded.append(len(x))
            return real_forward(x, *args, **kwargs)

        monkeypatch.setattr(network, "forward", counting_forward)
        f = infer.predict_scale(cloud, params, sc, scale_id=1, seed=4)
        assert forwarded == expected_rows
        assert f.probs.tobytes() == sums.tobytes()
        assert np.array_equal(f.counts, counts)

    def test_threaded_matches_serial(self, scene):
        params = toy_params(seed=7)
        sc = infer.ScaleConfig(6.0, 2.0, 64)
        a = infer.predict_scale(scene, params, sc, seed=1, threads=1)
        b = infer.predict_scale(scene, params, sc, seed=1, threads=4)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.counts, b.counts)


class TestAverageScales:
    def test_identical_fields_unchanged(self):
        f = field([[0.2, 0.8], [0.6, 0.4]], [1, 1])
        out = infer.average_scales([f, f, f])
        assert np.allclose(out.probs, [[0.2, 0.8], [0.6, 0.4]])

    def test_disagreeing_scales_average(self):
        a = field([[1.0, 0.0]], [1])
        b = field([[0.0, 1.0]], [1])
        out = infer.average_scales([a, b])
        assert np.allclose(out.probs[0], [0.5, 0.5])

    def test_uncovered_scales_ignored(self):
        covered = field([[0.9, 0.1]], [1])
        empty = field([[0.0, 0.0]], [0])
        out = infer.average_scales([covered, empty, empty])
        assert np.allclose(out.probs[0], [0.9, 0.1])
        assert out.counts[0] == 1

    def test_idempotent_on_single_scale(self):
        f = field([[0.3, 0.7], [0.0, 0.0]], [2, 0])
        out = infer.average_scales([f])
        assert np.allclose(out.probs[0], [0.15, 0.35] / np.asarray(0.5))
        assert out.counts[1] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            infer.average_scales([])


class TestInterpolateLabels:
    def cloud(self, xyz):
        return PointCloud(np.asarray(xyz, dtype=float))

    def test_fully_covered_is_pure_argmax(self):
        f = field([[0.9, 0.1], [0.2, 0.8]], [1, 1])
        labels, _ = infer.interpolate_labels(f, self.cloud([[0, 0, 0], [1, 0, 0]]))
        assert np.array_equal(labels, [0, 1])

    def test_uncovered_copies_nearest(self):
        f = field([[0.9, 0.1], [0.0, 0.0]], [1, 0])
        labels, probs = infer.interpolate_labels(
            f, self.cloud([[0, 0, 0], [5, 5, 5]]))
        assert np.array_equal(labels, [0, 0])
        assert np.allclose(probs[1], probs[0])

    def test_equidistant_tie_takes_lower_index(self):
        # point 2 is exactly between covered points 0 and 1
        f = field([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1, 1, 0])
        labels, _ = infer.interpolate_labels(
            f, self.cloud([[0, 0, 0], [2, 0, 0], [1, 0, 0]]))
        assert labels[2] == 0

    def test_no_coverage_rejected(self):
        f = field([[0.0, 0.0]], [0])
        with pytest.raises(ValueError):
            infer.interpolate_labels(f, self.cloud([[0, 0, 0]]))

    def test_kdtree_matches_brute(self, rng):
        n = 400
        xyz = rng.uniform(0, 20, (n, 3))
        counts = (rng.uniform(0, 1, n) < 0.5).astype(np.int64)
        probs = rng.uniform(0, 1, (n, 3)) * counts[:, None]
        f = field(probs, counts)
        cloud = self.cloud(xyz)
        la, pa = infer.interpolate_labels(f, cloud, method="brute")
        lb, pb = infer.interpolate_labels(f, cloud, method="kdtree")
        assert np.array_equal(la, lb)
        assert np.array_equal(pa, pb)


class TestEvaluate:
    def test_perfect_prediction(self):
        r = infer.evaluate([0, 1, 2, 1], [0, 1, 2, 1], n_classes=3)
        assert r.overall_accuracy == 1.0
        assert (r.f1[:3] == 1.0).all()

    def test_hand_computed_example(self):
        r = infer.evaluate([0, 1, 1, 1], [0, 0, 1, 1], n_classes=2)
        assert r.overall_accuracy == 0.75
        assert r.precision[0] == 1.0 and r.recall[0] == 0.5
        assert r.f1[0] == 2.0 / 3.0
        assert r.precision[1] == 2.0 / 3.0 and r.recall[1] == 1.0
        assert r.f1[1] == 0.8
        assert np.array_equal(r.confusion, [[1, 1], [0, 2]])

    def test_absent_class_flagged_with_zero_scores(self):
        r = infer.evaluate([0, 0], [0, 0], n_classes=3)
        assert r.absent_classes == (1, 2)
        assert r.precision[1] == r.recall[1] == r.f1[1] == 0.0

    def test_self_evaluation_is_perfect(self, rng):
        x = rng.integers(0, 9, 500)
        assert infer.evaluate(x, x).overall_accuracy == 1.0

    def test_confusion_total_is_point_count(self, rng):
        pred = rng.integers(0, 9, 321)
        truth = rng.integers(0, 9, 321)
        r = infer.evaluate(pred, truth)
        assert r.confusion.sum() == 321

    def test_row_normalized_confusion_sums_to_one(self, rng):
        pred = rng.integers(0, 4, 200)
        truth = rng.integers(0, 4, 200)
        r = infer.evaluate(pred, truth, n_classes=4)
        rows = r.confusion / r.confusion.sum(axis=1, keepdims=True)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            infer.evaluate([0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            infer.evaluate([], [])

    def test_render_layout(self):
        r = infer.evaluate([0, 1, 1, 1], [0, 0, 1, 1], n_classes=2,
                           class_names=("a", "b"))
        text = r.render()
        assert "Precision" in text and "Recall" in text and "F1 Score" in text
        csv = r.to_csv()
        assert csv.splitlines()[0] == "class,precision,recall,f1"
        assert "overall_accuracy,0.750000" in csv


class TestEndToEnd:
    def test_full_predict_pipeline(self, scene):
        params = toy_params(seed=2)
        scales = (infer.ScaleConfig(6.0, 2.0, 64),
                  infer.ScaleConfig(12.0, 2.0, 128))
        labels, probs = infer.predict(scene, params, scales, seed=0)
        assert labels.shape == (len(scene),)
        assert probs.shape == (len(scene), 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_permutation_invariance_end_to_end(self, scene):
        params = toy_params(seed=2)
        scales = (infer.ScaleConfig(6.0, 2.0, 64),)
        labels0, _ = infer.predict(scene, params, scales, seed=0)
        perm = np.random.default_rng(9).permutation(len(scene))
        shuffled = scene.select(perm)
        labels1, _ = infer.predict(shuffled, params, scales, seed=0)
        unshuffled = np.empty_like(labels1)
        unshuffled[perm] = labels1
        assert np.array_equal(unshuffled, labels0)
