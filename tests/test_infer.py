import copy
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pointlabel import blocks as blk
from pointlabel import infer, network
from pointlabel.io import PointCloud

from conftest import strata_scene, toy_params, traced


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

    @pytest.mark.parametrize("spec", ["6:2:64,40:2:256",
                                      "40:2:128,3:1:32,12:2:128"])
    def test_one_pool_matches_per_scale_reference(self, scene, spec):
        # the 40 m scale covers the 12 m scene with one block, so one
        # worker forwards its chunk while the others take the rest
        params = toy_params(seed=4)
        scales = infer.ScaleConfig.parse(spec)
        fields = [infer.predict_scale(scene, params, sc, scale_id=i, seed=5)
                  for i, sc in enumerate(scales)]
        assert any(f.stats["blocks"] == 1 for f in fields)
        want_labels, want_probs = infer.interpolate_labels(
            infer.average_scales(fields), scene)
        want_counts = {}
        for i, f in enumerate(fields):
            want_counts.update({f"scale{i}.{k}": v for k, v in f.stats.items()})
        for threads in (1, 2, 3):
            counts = {}
            labels, probs = infer.predict(scene, params, scales, seed=5,
                                          threads=threads, counts=counts)
            assert probs.tobytes() == want_probs.tobytes()
            assert np.array_equal(labels, want_labels)
            for name, value in want_counts.items():
                assert counts[name] == value, name

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_one_pool_per_call_largest_scale_first(self, scene, monkeypatch,
                                                   threads):
        pools, tiled = [], []
        tile_scale = blk.tile_scale

        class CountingPool(infer.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        def recording_tile_scale(cloud, scale, scale_id, *args):
            tiled.append(scale_id)
            return tile_scale(cloud, scale, scale_id, *args)

        monkeypatch.setattr(infer, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(blk, "tile_scale", recording_tile_scale)
        scales = infer.ScaleConfig.parse("6:2:64,12:2:256,3:1:32,4:1:256")
        infer.predict(scene, toy_params(seed=4), scales, threads=threads)
        assert pools == ([] if threads == 1 else [threads])
        assert tiled == [1, 3, 0, 2]

    def test_one_thread_runs_every_layer_on_the_calling_thread(
            self, scene, monkeypatch):
        # --threads 1 is one thread: predict never hands eval panels to
        # the helper thread that training's validation uses
        threads = []
        layer = network.pointwise_forward

        def recording_forward(*args, **kwargs):
            threads.append(threading.get_ident())
            return layer(*args, **kwargs)

        monkeypatch.setattr(network, "pointwise_forward", recording_forward)
        scales = infer.ScaleConfig.parse("6:2:256,12:2:512")
        counts = {}
        infer.predict(scene, toy_params(seed=4), scales, threads=1,
                      counts=counts)
        # chunks of several panels, each panel running all eight layers
        assert counts["scale1.rows_forwarded"] > 2 * network.EXACT_PANEL_ROWS
        assert len(threads) > 8 * len(scales)
        assert set(threads) == {threading.get_ident()}

    def test_batch_norm_folded_into_a_copy_once_per_call(self, scene,
                                                         monkeypatch):
        folds = []
        fold = network.fold_batch_norm

        def counting_fold(params):
            folds.append(params)
            return fold(params)

        monkeypatch.setattr(network, "fold_batch_norm", counting_fold)
        params = toy_params(seed=4)
        before = [a.tobytes() for _, a in network.iter_tensors(params, False)]
        scales = infer.ScaleConfig.parse("6:2:64,12:2:128")
        infer.predict(scene, params, scales, threads=2)
        assert len(folds) == 1 and folds[0] is not params
        assert all(s.has_bn for s in params.encoder_specs)
        assert before == [a.tobytes()
                          for _, a in network.iter_tensors(params, False)]
        folded = fold(copy.deepcopy(params))
        folds.clear()
        infer.predict(scene, folded, scales, threads=2)
        assert folds == []

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_weights_prepared_once_per_call(self, scene, monkeypatch,
                                            threads):
        seen, prepared = [], []
        forward, eval_weights = network.forward, network.eval_weights

        def spy_forward(x, params, mode="eval", segments=None):
            seen.append(params)
            return forward(x, params, mode, segments)

        def spy_eval_weights(params):
            out = eval_weights(params)
            if out is not params:
                prepared.append(out)
            return out

        monkeypatch.setattr(network, "forward", spy_forward)
        monkeypatch.setattr(network, "eval_weights", spy_eval_weights)
        params = toy_params(seed=4)
        before = [(n, a.dtype, a.tobytes())
                  for n, a in network.iter_tensors(params, False)]
        scales = infer.ScaleConfig.parse("6:2:64,12:2:128,3:1:32")
        infer.predict(scene, params, scales, threads=threads)
        # one preparation, one object for every forward on every worker
        assert len(prepared) == 1 and len(seen) > 3
        assert all(p is prepared[0] for p in seen)
        assert all(lp.W.dtype == np.float64 and lp.b.dtype == np.float32
                   for lp in prepared[0].encoder + prepared[0].head)
        assert before == [(n, a.dtype, a.tobytes())
                          for n, a in network.iter_tensors(params, False)]
        assert all(s.has_bn for s in params.encoder_specs)
        # prepared weights passed in are neither copied nor prepared again
        weights = prepared.pop()
        arrays = [id(a) for _, a in network.iter_tensors(weights)]
        seen.clear()
        infer.predict(scene, weights, scales, threads=threads)
        assert prepared == [] and seen and all(p is weights for p in seen)
        assert arrays == [id(a) for _, a in network.iter_tensors(weights)]

    def test_peak_memory_of_a_two_worker_predict(self):
        # 42.5 MB traced at the parent of eval_weights, where every worker
        # folded and widened its own copy of the weights per forward, and
        # 31.3 MB with one prepared copy per call (numpy 2.4.6)
        enc, head = network.default_architecture()
        params = network.init_params(enc, head, np.random.default_rng(0))
        scene = strata_scene(n_points=1200, seed=3, extent=4.0)
        scales = infer.ScaleConfig.parse("4:2:1024,8:2:2048")
        tracemalloc.start()
        try:
            infer.predict(scene, params, scales, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 37e6

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


class TestNearestCovered:
    """The grid search of infer._nearest_covered against brute_nearest,
    on the clouds a uniform grid finds hardest."""

    @staticmethod
    def cloud(rng, n, shape):
        if shape == "lattice":
            return rng.integers(0, 4, (n, 3)) * 0.5
        if shape == "coincident":
            return np.repeat(rng.uniform(0, 3, (1, 3)), n, axis=0)
        if shape == "collinear":
            return np.outer(rng.uniform(-5, 5, n), rng.uniform(-1, 1, 3)) + 2.0
        xyz = rng.uniform(0, 20, (n, 3))
        if shape == "coplanar":
            xyz[:, 2] = 3.0
        return xyz

    @settings(max_examples=300, deadline=None)
    @given(n_covered=st.integers(1, 150), n_query=st.integers(1, 80),
           shape=st.sampled_from(["uniform", "lattice", "coincident",
                                  "collinear", "coplanar"]),
           query_shape=st.sampled_from(["same", "uniform", "far_cluster"]),
           offset=st.sampled_from([0.0, 5e5, 5e6]),
           covered_stray=st.booleans(), query_stray=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_covered=1, n_query=5, shape="uniform", query_shape="uniform",
             offset=0.0, covered_stray=False, query_stray=False, seed=0)
    def test_matches_brute(self, n_covered, n_query, shape, query_shape,
                           offset, covered_stray, query_stray, seed):
        # a far cluster of queries sits 1 km from every covered point;
        # strays sit 200 km out; offsets are UTM-sized eastings/northings
        rng = np.random.default_rng(seed)
        covered = self.cloud(rng, n_covered, shape)
        if query_shape == "same":
            query = self.cloud(rng, n_query, shape)
        else:
            query = rng.uniform(0, 20, (n_query, 3))
            if query_shape == "far_cluster":
                query[:, 0] += 1000.0
        if covered_stray:
            covered[rng.integers(0, n_covered)] = [2e5, 1.0, 0.5]
        if query_stray:
            query[rng.integers(0, n_query)] = [-2e5, 3.0, 2.0]
        covered = covered + [offset, offset, 0.0]
        query = query + [offset, offset, 0.0]
        got = infer._nearest_covered(query, covered)
        assert got.dtype == np.int64
        assert got.tobytes() == brute_nearest(query, covered).tobytes()

    def test_fill_memory_is_bounded(self):
        # an airborne-density fill: 100k queries against 150k covered
        # points at 8 points/m2 on three height layers; unchunked pair
        # arrays would peak near 200 MB
        rng = np.random.default_rng(8)
        n = 250_000
        side = (n / 8) ** 0.5
        xyz = np.column_stack([rng.uniform(0, side, (n, 2)),
                               rng.integers(0, 3, n) * 4.0 + rng.uniform(0, 1, n)])
        query, covered = xyz[:100_000].copy(), xyz[100_000:].copy()
        got, _, peak = traced(infer._nearest_covered, query, covered)
        assert peak < 32 * 2 ** 20
        for i in rng.integers(0, len(query), 40):
            assert got[i] == brute_nearest(query[i:i + 1], covered)[0]
        # 2 000 queries 1 km from a 1 m cluster of 1 000 covered points:
        # the last round scores every pair, 2M of them
        cluster = rng.uniform(0, 1, (1000, 3))
        far = rng.uniform(0, 1, (2000, 3)) + [1000.0, 0.0, 0.0]
        got, _, peak = traced(infer._nearest_covered, far, cluster)
        assert peak < 32 * 2 ** 20
        assert got.tobytes() == brute_nearest(far, cluster).tobytes()

    def test_far_query_ends_quickly(self):
        # the grid's edge doubles until the search reaches 200 km
        scene = strata_scene(9000, seed=3, extent=3.0)
        query = np.array([[2e5, 1.5, 5.0]])
        start = time.perf_counter()
        got = infer._nearest_covered(query, scene.xyz)
        assert time.perf_counter() - start < 1.0
        assert got.tolist() == brute_nearest(query, scene.xyz).tolist()

    @pytest.mark.parametrize("which", ["query", "covered"])
    def test_non_finite_refused(self, which):
        # the search's rounds would never end on a NaN
        arrays = {"query": np.zeros((2, 3)), "covered": np.ones((3, 3))}
        arrays[which][1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            infer._nearest_covered(arrays["query"], arrays["covered"])


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

    def test_class_names_must_match_classes(self):
        # two names for three classes dropped class 2 from the CSV and
        # rendered 3-column rows under a 2-name header
        with pytest.raises(ValueError, match="2 class names for 3 classes"):
            infer.evaluate([0, 1, 2, 2], [0, 1, 2, 1], n_classes=3,
                           class_names=("a", "b"))

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

    @pytest.mark.parametrize("array, row, column, name", [
        ("spectral", 7, 1, "r"), ("xyz", 3, 2, "z"), ("xyz", 0, 0, "x"),
        ("spectral", 5, 0, "ir")])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_input_refused(self, scene, array, row, column, name,
                                      value):
        # a later point's bad value must not hide this one's
        xyz, spectral = scene.xyz.copy(), scene.spectral.copy()
        {"xyz": xyz, "spectral": spectral}[array][row, column] = value
        spectral[row + 20, 2] = np.nan
        cloud = PointCloud(xyz, spectral, scene.labels)
        with pytest.raises(ValueError,
                           match=rf"point {row} has a non-finite {name} \({value}\)"):
            infer.predict(cloud, toy_params(seed=2),
                          (infer.ScaleConfig(6.0, 2.0, 64),))

    @pytest.mark.parametrize("n", [0, 5, 9])
    def test_unsampled_cloud_names_the_rule(self, scene, n):
        # fewer points than blocks.MIN_BLOCK_POINTS: no footprint is kept
        # at any scale, and the fill would find no covered point
        cloud = scene.select(np.arange(n))
        scales = (infer.ScaleConfig(6.0, 2.0, 64),
                  infer.ScaleConfig(12.0, 2.0, 128))
        with pytest.raises(ValueError) as info:
            infer.predict(cloud, toy_params(seed=2), scales)
        assert str(info.value) == (
            f"none of the {n} points was sampled: no footprint at any scale "
            f"holds the 10 points a block needs")

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
