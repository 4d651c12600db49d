import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def brute_nearest(query_xyz, covered_xyz):
    """Reference: index into covered_xyz of each query's nearest point by
    exhaustive search over squared distances; ties go to the lowest index."""
    d2 = ((query_xyz[:, None, :] - covered_xyz[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def per_block_reference(cloud, params, sc, scale_id, seed, columns):
    """Votes of one full-row eval forward per block, merged in block
    order: the field predict_scale must reproduce bit for bit."""
    extent = blk.SceneExtent.of(cloud)
    n_classes = params.head_specs[-1].out_width
    sums = np.zeros((len(cloud), n_classes))
    counts = np.zeros(len(cloud), dtype=np.int64)
    for bi, fp in enumerate(blk.tile_blocks(cloud, sc.size, sc.overlap)):
        block = blk.sample_block(cloud, fp, sc.sample_count, False,
                                 blk.block_rng(seed, scale_id, bi), extent,
                                 scale_id)
        x = block.features if columns is None else block.features[:, columns]
        q = network.forward(x, params, "eval").q
        np.add.at(sums, block.parent_idx, q.astype(np.float64))
        np.add.at(counts, block.parent_idx, 1)
    return field(sums, counts)


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

    @pytest.mark.parametrize("spec,match", [
        ("0:0:64", "size"), ("-2:0:64", "size"), ("nan:0:64", "size"),
        ("2:2:64", "overlap"), ("2:-0.5:64", "overlap"), ("2:1:0", "count")])
    def test_out_of_range_fields_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            infer.ScaleConfig.parse(spec)

    def test_smallest_valid_fields_accepted(self):
        assert infer.ScaleConfig.parse("0.1:0:1")[0].sample_count == 1

    @settings(max_examples=200, deadline=None)
    @given(size=st.floats(1e-6, 1e6), overlap_share=st.floats(0.0, 0.99),
           count=st.integers(1, 10 ** 6))
    @example(size=2.1234567, overlap_share=0.5, count=64)
    @example(size=1e-05, overlap_share=0.0, count=1)
    @example(size=10.0, overlap_share=0.2, count=4096)
    def test_text_parses_back_exactly(self, size, overlap_share, count):
        sc = infer.ScaleConfig(size, size * overlap_share, count)
        assert infer.ScaleConfig.parse(str(sc)) == (sc,)

    def test_default_text(self):
        assert ",".join(map(str, infer.DEFAULT_SCALES)) == \
            "2:1:1024,5:2:3072,10:2:4096"


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
            forwarded.append((len(x), list(kwargs["segments"])))
            return real_forward(x, *args, **kwargs)

        monkeypatch.setattr(network, "forward", counting_forward)
        f = infer.predict_scale(cloud, params, sc, scale_id=1, seed=4)
        # each call forwards one chunk of consecutive blocks' distinct rows
        assert [n for _, segs in forwarded for n in segs] == expected_rows
        for rows, segs in forwarded:
            assert rows == sum(segs) <= sc.sample_count
        assert len(forwarded) < len(expected_rows)
        assert sum(rows for rows, _ in forwarded) == sum(expected_rows)
        assert f.probs.tobytes() == sums.tobytes()
        assert np.array_equal(f.counts, counts)

    @settings(max_examples=150, deadline=None)
    @given(n_points=st.integers(1, 200), extent=st.floats(0.5, 20.0),
           size=st.floats(1.0, 12.0), overlap_share=st.floats(0.0, 0.9),
           count=st.sampled_from([1, 2, 16, 64, 256]),
           n_classes=st.sampled_from([3, 9]), xyz_only=st.booleans(),
           fold=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_chunked_forwards_match_per_block_reference(
            self, n_points, extent, size, overlap_share, count, n_classes,
            xyz_only, fold, seed):
        # count 1 gives 1-row blocks, each its own chunk; larger counts on
        # sparse clouds pack many blocks into one chunk
        rng = np.random.default_rng(seed)
        xyz = rng.uniform(0.0, extent, (n_points, 3))
        xyz[rng.integers(0, n_points, n_points // 4)] = xyz[0]   # twins
        cloud = PointCloud(xyz, rng.uniform(0.0, 255.0, (n_points, 3)))
        columns = [0, 1, 2, 6, 7, 8] if xyz_only else None
        params = toy_params(in_width=6 if xyz_only else 9,
                            n_classes=n_classes, seed=seed % 1000)
        for lp in params.encoder + params.head[:-1]:
            for t in (lp.gamma, lp.beta, lp.running_mean):
                t[:] = rng.normal(0.0, 0.5, t.shape)
            lp.running_var[:] = rng.uniform(0.2, 3.0, lp.running_var.shape)
        if fold:
            network.fold_batch_norm(params)
        sc = infer.ScaleConfig(size, size * overlap_share, count)
        want = per_block_reference(cloud, params, sc, 2, seed % 97, columns)
        for threads in (1, 2):
            got = infer.predict_scale(cloud, params, sc, scale_id=2,
                                      seed=seed % 97, threads=threads)
            assert got.probs.tobytes() == want.probs.tobytes()
            assert np.array_equal(got.counts, want.counts)

    def test_zero_threads_rejected(self, scene):
        with pytest.raises(ValueError, match="threads"):
            infer.predict_scale(scene, toy_params(), infer.ScaleConfig(6.0, 2.0, 64),
                                threads=0)

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

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 300), covered_share=st.floats(0.05, 0.95),
           lattice=st.booleans(), step=st.sampled_from([0.25, 1.0, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_kdtree_matches_brute(self, n, covered_share, lattice, step, seed):
        # lattice clouds put uncovered points at exactly equal distances
        # from several covered ones (cell centers, edge midpoints)
        rng = np.random.default_rng(seed)
        if lattice:
            xyz = rng.integers(0, 4, (n, 3)) * step
            xyz = xyz + rng.integers(0, 2, (n, 3)) * (step / 2)
        else:
            xyz = rng.uniform(0, 20, (n, 3))
        counts = (rng.uniform(0, 1, n) < covered_share).astype(np.int64)
        counts[rng.integers(0, n)] = 1
        probs = rng.uniform(0.1, 1, (n, 3)) * counts[:, None]
        f = field(probs, counts)
        labels, got = infer.interpolate_labels(f, self.cloud(xyz))
        want = f.normalized()
        cov = np.flatnonzero(counts > 0)
        unc = np.flatnonzero(counts == 0)
        if len(unc):
            want[unc] = want[cov[brute_nearest(xyz[unc], xyz[cov])]]
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(labels, want.argmax(axis=1))


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

    def test_mean_f1_skips_absent_classes(self):
        # F1 is 2/3 and 0.8 for classes 0 and 1; class 2 is absent
        r = infer.evaluate([0, 1, 1, 1], [0, 0, 1, 1], n_classes=3,
                           class_names=("a", "b", "c"))
        assert r.absent_classes == (2,)
        assert r.mean_f1 == pytest.approx((2.0 / 3.0 + 0.8) / 2.0)
        assert r.to_csv().splitlines()[-2:] == ["overall_accuracy,0.750000,,",
                                                "mean_f1,0.733333,,"]
        assert "Mean F1: 73.3%" in r.render()

    def test_mean_f1_counts_classes_present_in_truth_only(self):
        # class 1 is in truth but never predicted: F1 0, still averaged
        r = infer.evaluate([0, 0, 0], [0, 0, 1], n_classes=2)
        assert r.f1[1] == 0.0 and r.absent_classes == ()
        assert r.mean_f1 == pytest.approx(0.8 / 2.0)

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

    def test_xyz_network_predicts_cloud_without_spectral(self, scene):
        params = toy_params(in_width=6, seed=2)
        scales = (infer.ScaleConfig(6.0, 2.0, 64),)
        bare = PointCloud(scene.xyz, None, scene.labels)
        zeros = PointCloud(scene.xyz, np.zeros((len(scene), 3)), scene.labels)
        labels, probs = infer.predict(bare, params, scales, seed=0)
        want_labels, want_probs = infer.predict(zeros, params, scales, seed=0)
        assert np.array_equal(labels, want_labels)
        assert probs.tobytes() == want_probs.tobytes()

    @pytest.mark.parametrize("in_width", [9, 3])
    def test_spectral_network_refuses_cloud_without_spectral(self, scene,
                                                             in_width):
        bare = PointCloud(scene.xyz, None, scene.labels)
        with pytest.raises(ValueError, match="spectral"):
            infer.predict(bare, toy_params(in_width=in_width),
                          (infer.ScaleConfig(6.0, 2.0, 64),))

    def test_unknown_input_width_rejected(self, scene):
        with pytest.raises(ValueError, match="width 5"):
            infer.predict(scene, toy_params(in_width=5),
                          (infer.ScaleConfig(6.0, 2.0, 64),))

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
