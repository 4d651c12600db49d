import contextlib
import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointlabel import network as net
from pointlabel import training
from pointlabel.container import read_container_file, write_container_file
from pointlabel.io import ShapeError
from pointlabel.network import matmul

from conftest import toy_architecture, toy_params, traced


def f32(x):
    return np.array(x, dtype=np.float32)


class TestInit:
    def test_biases_exactly_zero(self, rng):
        lp = net.init_layer(net.LayerSpec(64, 64), rng)
        assert (lp.b == 0).all()
        assert (lp.beta == 0).all() and (lp.gamma == 1).all()
        assert (lp.running_mean == 0).all() and (lp.running_var == 1).all()

    def test_glorot_bound(self, rng):
        lp = net.init_layer(net.LayerSpec(64, 64), rng)
        a = np.sqrt(6.0 / 128.0)
        assert a == pytest.approx(0.2165, abs=1e-4)
        assert np.abs(lp.W).max() <= a

    def test_glorot_variance(self):
        rng = np.random.default_rng(0)
        lp = net.init_layer(net.LayerSpec(500, 200), rng)  # 1e5 draws
        a = np.sqrt(6.0 / 700.0)
        assert lp.W.var() == pytest.approx(a * a / 3.0, rel=0.05)


class TestPointwise:
    def test_identity_weights_positive_input(self, rng):
        spec = net.LayerSpec(3, 3, has_bn=False, has_relu=True)
        lp = net.LayerParams(np.eye(3, dtype=np.float32),
                             np.zeros(3, dtype=np.float32))
        x = np.abs(rng.standard_normal((5, 3))).astype(np.float32)
        out, _ = net.pointwise_forward(x, spec, lp, "eval")
        assert np.allclose(out, x)

    def test_bn_standardizes_column(self):
        spec = net.LayerSpec(1, 1, has_bn=True, has_relu=False)
        lp = net.init_layer(spec, np.random.default_rng(0))
        lp.W[0, 0] = 1.0
        x = f32([[1.0], [2.0], [3.0]])
        out, tr = net.pointwise_forward(x, spec, lp, "train")
        expect = np.array([-1.2247, 0.0, 1.2247])
        assert np.allclose(tr.s_hat[:, 0], expect, atol=1e-4)
        assert np.allclose(out[:, 0], expect, atol=1e-4)

    def test_bn_recovers_identity_in_eval(self, rng):
        spec = net.LayerSpec(4, 4, has_bn=True, has_relu=False)
        lp = net.LayerParams(np.eye(4, dtype=np.float32),
                             np.zeros(4, dtype=np.float32))
        x = (rng.standard_normal((64, 4)) * 2.0 + 3.0).astype(np.float32)
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        lp.gamma = np.sqrt(var)
        lp.beta = mu.copy()
        lp.running_mean = mu.copy()
        lp.running_var = var.copy()
        out, _ = net.pointwise_forward(x, spec, lp, "eval")
        # error relative to the data scale (entries near zero have no
        # meaningful per-element relative error)
        assert np.abs(out - x).max() / np.abs(x).max() < 1e-4

    def test_train_needs_two_points(self, rng):
        spec = net.LayerSpec(2, 2)
        lp = net.init_layer(spec, rng)
        with pytest.raises(ValueError, match="N >= 2"):
            net.pointwise_forward(np.ones((1, 2), dtype=np.float32), spec, lp,
                                  "train")

    @pytest.mark.parametrize("has_bn", [False, True])
    def test_relu_gate_recorded_in_train_mode_only(self, has_bn, rng):
        # an eval layer returns no trace, so no gate
        spec = net.LayerSpec(4, 6, has_bn=has_bn, has_relu=True)
        lp = net.init_layer(spec, rng)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        _, ev = net.pointwise_forward(x, spec, lp, "eval")
        assert ev is None
        out, tr = net.pointwise_forward(x, spec, lp, "train")
        z = (matmul(x, lp.W) + lp.b if not has_bn
             else lp.gamma * tr.s_hat + lp.beta)
        assert np.array_equal(tr.mask, z > 0)
        assert 0 < tr.mask.sum() < tr.mask.size
        # finite inputs: the same bits as gating z by its sign
        assert out.tobytes() == np.where(z > 0, z, np.float32(0)).tobytes()

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_nan_pre_activation_propagates(self, mode, rng):
        spec = net.LayerSpec(3, 2, has_bn=False, has_relu=True)
        lp = net.LayerParams(f32([[1, -1], [0, 0], [0, 0]]), f32([0, 0]))
        x = f32([[np.nan, 0, 0], [2, 0, 0], [-2, 0, 0]])
        out, _ = net.pointwise_forward(x, spec, lp, mode)
        assert np.isnan(out[0]).all()
        assert np.array_equal(out[1:], f32([[2, 0], [0, 2]]))

    @pytest.mark.parametrize("has_bn", [False, True])
    def test_eval_bias_and_relu_write_into_the_product(self, has_bn, rng,
                                                       monkeypatch):
        # an eval layer holds one (N, out) array, the product it returns,
        # and no trace
        spec = net.LayerSpec(4, 6, has_bn=has_bn, has_relu=True)
        lp = net.init_layer(spec, rng)
        lp.b[:] = rng.standard_normal(6)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        products = []
        real = net.matmul

        def spy(a, b):
            products.append(real(a, b))
            return products[-1]

        monkeypatch.setattr(net, "matmul", spy)
        out, tr = net.pointwise_forward(x, spec, lp, "eval")
        assert tr is None and out is products[-1]
        prepared = copy.deepcopy(lp)
        net._prepare_layer(spec, prepared)
        want = np.maximum(real(x, prepared.W) + prepared.b, np.float32(0))
        assert out.tobytes() == want.tobytes()

    def test_unprepared_float32_eval_product_is_exact(self, rng):
        # an unprepared layer is prepared on a copy, so its eval product
        # is the float64 product rounded once, never float32 BLAS (which
        # differs here), and the caller's W stays float32
        spec = net.LayerSpec(2112, 256, has_bn=False, has_relu=False)
        lp = net.init_layer(spec, rng)
        lp.b[:] = rng.standard_normal(256)
        x = np.maximum(rng.standard_normal((64, 2112)), 0).astype(np.float32)
        out, _ = net.pointwise_forward(x, spec, lp, "eval")
        exact = (x.astype(np.float64) @ lp.W.astype(np.float64)).astype(np.float32)
        assert out.tobytes() == (exact + lp.b).tobytes()
        assert (x @ lp.W + lp.b).tobytes() != out.tobytes()
        assert lp.W.dtype == np.float32

    def test_running_stats_advance(self, rng):
        spec = net.LayerSpec(2, 2)
        lp = net.init_layer(spec, rng)
        x = rng.standard_normal((32, 2)).astype(np.float32)
        net.pointwise_forward(x, spec, lp, "train")
        assert not np.allclose(lp.running_mean, 0.0)
        assert not np.allclose(lp.running_var, 1.0)


class TestPoolConcatSoftmax:
    def test_softmax_symmetry(self):
        assert np.allclose(net.softmax_rows(f32([[0, 0]])), [[0.5, 0.5]])

    def test_softmax_closed_form(self):
        out = net.softmax_rows(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_softmax_no_overflow(self):
        out = net.softmax_rows(f32([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_softmax_rows_sum_to_one(self, rng):
        q = net.softmax_rows(rng.standard_normal((50, 9)).astype(np.float32))
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-6)


class TestCrossEntropy:
    def test_one_hot_is_zero(self):
        q = f32([[0.0, 1.0, 0.0]])
        assert net.cross_entropy(q, [1]) == 0.0

    def test_uniform_nine_classes(self):
        q = np.full((4, 9), 1.0 / 9.0, dtype=np.float32)
        assert net.cross_entropy(q, [0, 3, 5, 8]) == pytest.approx(np.log(9.0),
                                                                   abs=1e-6)

    def test_zero_probability_clamped(self):
        q = f32([[1.0, 0.0]])
        loss = net.cross_entropy(q, [1])
        assert loss == pytest.approx(-np.log(1e-12), rel=1e-6)
        assert np.isfinite(loss)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            net.cross_entropy(f32([[0.5, 0.5]]), [2])


class TestForward:
    @pytest.mark.parametrize("n", [1, 10, 4096])
    def test_output_shape_any_point_count(self, n, rng):
        params = toy_params()
        x = rng.standard_normal((n, 9)).astype(np.float32)
        trace = net.forward(x, params, "eval")
        assert trace.q.shape == (n, 3)
        assert np.allclose(trace.q.sum(axis=1), 1.0, atol=1e-5)

    def test_permutation_equivariant_exact(self, rng):
        params = toy_params()
        x = rng.standard_normal((32, 9)).astype(np.float32)
        p = rng.permutation(32)
        q0 = net.forward(x, params, "eval").q
        q1 = net.forward(x[p], params, "eval").q
        assert np.array_equal(q1, q0[p])

    def test_global_feature_permutation_invariant_bitwise(self, rng):
        params = toy_params()
        x = rng.standard_normal((32, 9)).astype(np.float32)
        p = rng.permutation(32)
        t0 = net.forward(x, params, "eval")
        t1 = net.forward(x[p], params, "eval")
        assert t0.g_segments.tobytes() == t1.g_segments.tobytes()

    def test_duplicated_rows_identical_probs(self, rng):
        params = toy_params()
        x = rng.standard_normal((8, 9)).astype(np.float32)
        x = np.vstack([x, x[0]])
        q = net.forward(x, params, "eval").q
        assert np.array_equal(q[0], q[-1])

    @settings(max_examples=40, deadline=None)
    @given(n_unique=st.integers(1, 40), n_repeats=st.integers(0, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_forwarding_distinct_rows_once_is_exact(self, n_unique, n_repeats,
                                                    seed):
        # eval mode is row-wise up to the max-pool, and a max does not
        # change when members repeat
        rng = np.random.default_rng(seed)
        params = toy_params(seed=seed % 1000)
        for lp in params.encoder + params.head[:-1]:
            for t in (lp.gamma, lp.beta, lp.running_mean):
                t[:] = rng.normal(0.0, 0.5, t.shape)
            lp.running_var[:] = rng.uniform(0.2, 3.0, lp.running_var.shape)
        rows = rng.standard_normal((n_unique, 9)).astype(np.float32)
        source = rng.permutation(np.concatenate(
            [np.arange(n_unique), rng.integers(0, n_unique, n_repeats)]))
        x = rows[source]
        _, first, inverse = np.unique(source, return_index=True,
                                      return_inverse=True)
        full = net.forward(x, params, "eval").q
        once = net.forward(x[first], params, "eval").q[inverse]
        assert full.tobytes() == once.tobytes()

    def test_eval_deterministic(self, rng):
        params = toy_params()
        x = rng.standard_normal((16, 9)).astype(np.float32)
        assert np.array_equal(net.forward(x, params, "eval").q,
                              net.forward(x, params, "eval").q)

    def test_pooled_feature_matches_column_max(self, rng):
        params = toy_params()
        x = rng.standard_normal((16, 9)).astype(np.float32)
        f = _encoder_reference(x, params, "eval")
        tr = net.forward(x, params, "eval")
        assert np.array_equal(tr.g_segments[0], f.max(axis=0))

    @settings(max_examples=40, deadline=None)
    @given(segments=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           mode=st.sampled_from(["train", "eval"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pooled_feature_is_each_blocks_column_max(self, segments, mode,
                                                      seed):
        if mode == "train" and sum(segments) < 2:
            segments = segments + [1]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((sum(segments), 9)).astype(np.float32)
        params = toy_params(seed=seed % 1000)
        f = _encoder_reference(x, params, mode)
        tr = net.forward(x, params, mode, segments=segments)
        start = 0
        for s, rows in enumerate(segments):
            want = f[start:start + rows].max(axis=0)
            assert tr.g_segments[s].tobytes() == want.tobytes()
            start += rows

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(ShapeError):
            net.forward(np.ones((4, 5), dtype=np.float32), toy_params(), "eval")

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_empty_input_rejected(self, mode):
        with pytest.raises(ValueError, match="empty"):
            net.forward(np.zeros((0, 9), dtype=np.float32), toy_params(), mode)

    def test_unknown_mode_rejected_before_weights_are_touched(self, rng):
        params = _moved_stats_params(12)
        before = [(n, a.dtype, a.tobytes())
                  for n, a in net.iter_tensors(params, False)]
        x = rng.standard_normal((12, 9)).astype(np.float32)
        with pytest.raises(ValueError, match="bogus"):
            net.forward(x, params, "bogus")
        assert [(n, a.dtype, a.tobytes())
                for n, a in net.iter_tensors(params, False)] == before

    def test_empty_block_rejected(self, rng):
        # stacked blocks must each hold a row for the max-pool
        x = rng.standard_normal((4, 9)).astype(np.float32)
        with pytest.raises(ValueError, match="partition"):
            net.forward(x, toy_params(), "eval", segments=(4, 0))


class TestEvalPanels:
    """An eval forward runs in row panels of at most EXACT_PANEL_ROWS rows
    and pools as it goes; no bit depends on the panel size."""

    @settings(max_examples=60, deadline=None)
    @given(panel=st.sampled_from([4, 7, 64]),
           segments=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           folded=st.booleans(), nan_column=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_panel_size_changes_no_bit(self, panel, segments, folded,
                                       nan_column, seed):
        # blocks of up to 40 rows straddle panels of 4, 7 and 64 rows; the
        # default forward holds every row in one panel
        assert sum(segments) <= net.EXACT_PANEL_ROWS
        params = _moved_stats_params(seed % 1000)
        if folded:
            params = net.fold_batch_norm(params)
        column = seed % params.encoder_specs[-1].out_width
        if nan_column:
            params.encoder[-1].b[column] = np.nan
        x = np.random.default_rng(seed).normal(
            0, 2, (sum(segments), 9)).astype(np.float32)
        want = net.forward(x, params, "eval", segments=segments)
        with mock.patch.object(net, "EXACT_PANEL_ROWS", panel):
            got = net.forward(x, params, "eval", segments=segments)
        assert np.isnan(want.g_segments[:, column]).all() == nan_column
        assert got.g_segments.tobytes() == want.g_segments.tobytes()
        assert got.q.tobytes() == want.q.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(panel=st.sampled_from([4, 7, 64]),
           segments=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_train_forward_is_one_panel(self, panel, segments, seed):
        # batch statistics read every row, so no panel size splits a
        # train forward
        if sum(segments) < 2:
            segments = segments + [1]
        params = _moved_stats_params(seed % 1000)
        x = np.random.default_rng(seed).normal(
            0, 2, (sum(segments), 9)).astype(np.float32)
        want_params, got_params = (net.copy_params(params) for _ in range(2))
        want = net.forward(x, want_params, "train", segments=segments)
        with mock.patch.object(net, "EXACT_PANEL_ROWS", panel):
            got = net.forward(x, got_params, "train", segments=segments)
        for field in ("q", "g_segments", "argmax_segments"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes()), field
        for (name, a), (_, b) in zip(
                net.iter_tensors(got_params, learnable_only=False),
                net.iter_tensors(want_params, learnable_only=False)):
            assert a.tobytes() == b.tobytes(), name    # running stats too

    def test_trace_holds_q_and_pooled_features_only(self, rng):
        x = rng.standard_normal((12, 9)).astype(np.float32)
        trace = net.forward(x, toy_params(), "eval", segments=(5, 7))
        assert trace.encoder_traces is None and trace.head_traces is None
        assert trace.q.shape == (12, 3) and trace.g_segments.shape == (2, 32)

    def test_peak_memory_of_a_4096_row_forward(self):
        # whole-array layers held about 75 MB here (a 4096 x 2048 pooled
        # layer, its float64 panels and every layer's trace)
        enc, head = net.default_architecture()
        params = net.fold_batch_norm(
            net.init_params(enc, head, np.random.default_rng(0)))
        x = np.random.default_rng(1).standard_normal((4096, 9)).astype(
            np.float32)
        tracemalloc.start()
        try:
            net.forward(x, params, "eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestLayerSteps:
    """forward and backward run every layer through the module attributes
    pointwise_forward and pointwise_backward, so a wrapper of either sees
    each layer step."""

    def test_train_step_calls_each_layer_step_once(self, rng):
        params = toy_params()
        x = rng.standard_normal((12, 9)).astype(np.float32)
        with mock.patch.object(net, "pointwise_forward",
                               wraps=net.pointwise_forward) as fwd, \
                mock.patch.object(net, "pointwise_backward",
                                  wraps=net.pointwise_backward) as bwd:
            trace = net.forward(x, params, "train", segments=(5, 7))
            net.backward(trace, rng.integers(0, 3, 12), params)
        specs = params.encoder_specs + params.head_specs
        assert [c.args[1] for c in fwd.call_args_list] == specs
        assert [c.args[1] for c in bwd.call_args_list] == specs[::-1]

    def test_eval_forward_calls_each_layer_once_per_panel(self, rng):
        params = toy_params()
        n_layers = len(params.encoder) + len(params.head)
        x = rng.standard_normal((2 * net.EXACT_PANEL_ROWS + 1, 9)).astype(
            np.float32)
        with mock.patch.object(net, "pointwise_forward",
                               wraps=net.pointwise_forward) as fwd:
            net.forward(x, params, "eval", segments=(100, len(x) - 100))
        assert fwd.call_count == 3 * n_layers   # three panels


class TestBackward:
    def test_perfect_one_hot_gives_zero_gradients(self, rng):
        params = toy_params(dtype=np.float64)
        x = rng.standard_normal((12, 9))
        labels = rng.integers(0, 3, 12)
        trace = net.forward(x, params, "train")
        trace.q = np.zeros_like(trace.q)
        trace.q[np.arange(12), labels] = 1.0
        grads = net.backward(trace, labels, params)
        assert all((g == 0).all() for g in grads.values())

    def test_eval_trace_rejected(self, rng):
        params = toy_params()
        trace = net.forward(rng.standard_normal((8, 9)).astype(np.float32),
                            params, "eval")
        with pytest.raises(ValueError, match="train"):
            net.backward(trace, np.zeros(8, dtype=int), params)

    def test_non_winning_pool_rows_get_zero_gradient(self, rng):
        # gradient wrt the pooled input is nonzero only at each block's
        # argmax rows, and each block's winners lie in that block
        params = toy_params(dtype=np.float64)
        segments = (4, 1, 5)
        x = rng.standard_normal((10, 9))
        labels = rng.integers(0, 3, 10)
        trace = net.forward(x, params, "train", segments=segments)
        # recompute the pool routing gradient the way backward does
        d = trace.q.copy()
        d[np.arange(10), labels] -= 1.0
        d /= 10
        for i in reversed(range(len(params.head))):
            d, _ = net.pointwise_backward(d, params.head_specs[i],
                                          params.head[i], trace.head_traces[i])
        _, dg_seg = d
        assert dg_seg.shape == trace.g_segments.shape
        pooled_shape = (10, trace.g_segments.shape[1])
        cols = np.arange(pooled_shape[1])
        routed = np.zeros(pooled_shape)
        winners = np.zeros(pooled_shape, dtype=bool)
        start = 0
        for s, rows in enumerate(segments):
            am = trace.argmax_segments[s]
            assert ((am >= start) & (am < start + rows)).all()
            routed[am, cols] += dg_seg[s]
            winners[am, cols] = True
            start += rows
        assert (routed[~winners] == 0).all()
        assert np.count_nonzero(routed) > 0

    def test_train_trace_holds_only_what_backward_reads(self):
        # a 4096-row default-architecture trace held 170.8 MB when it kept
        # every layer's pre-normalization s and output; without them it
        # holds 84.7 MB (numpy 2.4.6)
        enc, head = net.default_architecture()
        params = net.init_params(enc, head, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4096, 9)).astype(
            np.float32)
        tracemalloc.start()
        try:
            trace = net.forward(x, params, "train")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert trace.q.shape == (4096, 9)
        assert held < 128e6

    def test_train_step_holds_its_trace_and_one_layers_gradient(self):
        # a 4096-row default-architecture forward + backward peaked at
        # 201.3 MB when every batch-norm layer's backward made a gated copy
        # of its gradient and an (N, out) product with s_hat; it holds the
        # 84.6 MB trace plus about one enc4 gradient now (136.3 MB,
        # numpy 2.4.6)
        enc, head = net.default_architecture()
        params = net.init_params(enc, head, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4096, 9)).astype(
            np.float32)
        labels = np.random.default_rng(2).integers(0, 9, 4096)
        grads, _, peak = traced(
            lambda: net.backward(net.forward(x, params, "train"), labels,
                                 params))
        assert set(grads) == {name for name, _ in net.iter_tensors(params)}
        assert peak < 150e6

    @staticmethod
    def _gate_signature(trace):
        """ReLU masks and pool routing; FD probes that flip any gate
        straddle a non-differentiable point and are not a valid oracle."""
        parts = [tr.mask.tobytes() for tr in
                 trace.encoder_traces + trace.head_traces if tr.mask is not None]
        parts.append(trace.argmax_segments.tobytes())
        return b"".join(parts)

    def test_gradients_match_finite_differences(self, rng):
        params = toy_params(dtype=np.float64, seed=3)
        x = rng.standard_normal((16, 9))
        labels = rng.integers(0, 3, 16)

        def loss_and_gates():
            shadow = net.params_astype(params, np.float64)
            trace = net.forward(x, shadow, "train")
            return net.cross_entropy(trace.q, labels), self._gate_signature(trace)

        trace = net.forward(x, net.params_astype(params, np.float64), "train")
        grads = net.backward(trace, labels, params)
        center_gates = self._gate_signature(trace)
        delta = 1e-3
        checked = skipped = 0
        for name, arr in net.iter_tensors(params):
            flat = arr.reshape(-1)
            picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for k in picks:
                orig = flat[k]
                flat[k] = orig + delta
                up, gates_up = loss_and_gates()
                flat[k] = orig - delta
                dn, gates_dn = loss_and_gates()
                flat[k] = orig
                if gates_up != center_gates or gates_dn != center_gates:
                    skipped += 1
                    continue
                fd = (up - dn) / (2 * delta)
                an = grads[name].reshape(-1)[k]
                assert abs(an - fd) <= max(1e-4 * max(abs(an), abs(fd)), 1e-8), name
                checked += 1
        # roughly a third of the probes straddle a gate at this delta;
        # everything measurable must match
        assert checked > 150

    def test_gradients_match_finite_differences_small_delta(self, rng):
        # delta in the float64 central-difference sweet spot: no gate
        # crossings, truncation and rounding both far below tolerance
        params = toy_params(dtype=np.float64, seed=3)
        x = rng.standard_normal((16, 9))
        labels = rng.integers(0, 3, 16)

        def loss_fn():
            shadow = net.params_astype(params, np.float64)
            return net.cross_entropy(net.forward(x, shadow, "train").q, labels)

        trace = net.forward(x, net.params_astype(params, np.float64), "train")
        grads = net.backward(trace, labels, params)
        delta = 1e-5
        for name, arr in net.iter_tensors(params):
            flat = arr.reshape(-1)
            picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for k in picks:
                orig = flat[k]
                flat[k] = orig + delta
                up = loss_fn()
                flat[k] = orig - delta
                dn = loss_fn()
                flat[k] = orig
                fd = (up - dn) / (2 * delta)
                an = grads[name].reshape(-1)[k]
                assert abs(an - fd) <= max(1e-4 * max(abs(an), abs(fd)), 1e-8), name


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        params = toy_params(seed=9)
        # nudge running stats so they are not all defaults
        x = rng.standard_normal((32, 9)).astype(np.float32)
        net.forward(x, params, "train")
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(path, params)
        loaded = net.load_checkpoint(path)
        for (n0, a0), (n1, a1) in zip(
                net.iter_tensors(params, learnable_only=False),
                net.iter_tensors(loaded, learnable_only=False)):
            assert n0 == n1
            assert np.array_equal(a0, a1.reshape(a0.shape)), n0
        assert [s.out_width for s in loaded.encoder_specs] == [8, 8, 16, 16, 32]
        assert loaded.head_specs[-1].has_bn is False

    def test_momentum_tensor_optional(self, tmp_path):
        params = toy_params(seed=5)
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(path, params)
        n_layers, tensors = read_container_file(path)
        assert tensors.pop("meta.momentum").tolist() == [[np.float32(0.1)]]
        write_container_file(path, n_layers, tensors.items())
        loaded = net.load_checkpoint(path)
        for (n0, a0), (n1, a1) in zip(
                net.iter_tensors(params, learnable_only=False),
                net.iter_tensors(loaded, learnable_only=False)):
            assert n0 == n1
            assert np.array_equal(a0, a1.reshape(a0.shape)), n0

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        net.save_checkpoint(p1, toy_params(seed=4))
        net.save_checkpoint(p2, toy_params(seed=4))
        assert p1.read_bytes() == p2.read_bytes()


class TestParamCount:
    def test_default_architecture_size(self):
        enc, head = net.default_architecture(9, 9)
        params = net.init_params(enc, head, np.random.default_rng(0))
        assert 1_600_000 <= net.param_count(params) <= 2_200_000

    def test_toy_count_by_hand(self):
        enc, head = toy_architecture()
        params = net.init_params(enc, head, np.random.default_rng(0))
        # weights+biases plus one gamma/beta pair per normalized layer
        expect = ((9 * 8 + 8) + (8 * 8 + 8) + (8 * 16 + 16) + (16 * 16 + 16)
                  + (16 * 32 + 32) + (40 * 16 + 16) + (16 * 8 + 8)
                  + (8 * 3 + 3)
                  + 2 * (8 + 8 + 16 + 16 + 32 + 16 + 8))
        assert net.param_count(params) == expect


def _encoder_reference(x, params, mode):
    """The last encoder layer's rows from a pointwise_forward chain over
    all of x, on a copy of params (train mode moves running statistics)."""
    params = net.copy_params(params)
    f = x
    for spec, lp in zip(params.encoder_specs, params.encoder):
        f, _ = net.pointwise_forward(f, spec, lp, mode)
    return f


def _layerwise_eval(x, params, segments):
    """(pooled features, q) of an eval forward as one pointwise_forward
    per layer over all rows, head0 split into its local and per-block
    terms."""
    f = x
    for i, (spec, lp) in enumerate(zip(params.encoder_specs, params.encoder)):
        f, _ = net.pointwise_forward(f, spec, lp, "eval")
        if i == net.LOCAL_LAYER:
            local = f
    offsets = np.concatenate([[0], np.cumsum(segments)[:-1]])
    g = np.stack([f[o:o + rows].max(axis=0)
                  for o, rows in zip(offsets, segments)])
    f, _ = net.pointwise_forward(local, params.head_specs[0], params.head[0],
                                 "eval", g=g, segments=tuple(segments))
    for spec, lp in zip(params.head_specs[1:], params.head[1:]):
        f, _ = net.pointwise_forward(f, spec, lp, "eval")
    return g, net.softmax_rows(f)


def _concat_reference(x, params, mode, segments, labels):
    """The network with head0 reading the built (N, local + G)
    concat/repeat of each row's local feature and its block's pooled
    feature; returns (q, grads or None in eval mode)."""
    f, enc_traces, enc_outputs = x, [], []
    for spec, lp in zip(params.encoder_specs, params.encoder):
        f, tr = net.pointwise_forward(f, spec, lp, mode)
        enc_traces.append(tr)
        enc_outputs.append(f)
    offsets = np.concatenate([[0], np.cumsum(segments)[:-1]])
    parts = [f[o:o + rows] for o, rows in zip(offsets, segments)]
    g = np.stack([part.max(axis=0) for part in parts])
    am = np.stack([part.argmax(axis=0) + o for part, o in zip(parts, offsets)])
    local = enc_outputs[net.LOCAL_LAYER]
    h = np.concatenate([local, np.repeat(g, segments, axis=0)], axis=1)
    head_traces = []
    for spec, lp in zip(params.head_specs, params.head):
        h, tr = net.pointwise_forward(h, spec, lp, mode)
        head_traces.append(tr)
    q = net.softmax_rows(h)
    if mode == "eval":
        return q, None
    n = len(q)
    d = q.copy()
    d[np.arange(n), labels] -= 1
    d /= n
    grads = {}
    for i in reversed(range(len(params.head))):
        d, gr = net.pointwise_backward(d, params.head_specs[i], params.head[i],
                                       head_traces[i])
        grads.update({f"head{i}.{k}": v for k, v in gr.items()})
    d_local = d[:, :local.shape[1]]
    dg = np.add.reduceat(d[:, local.shape[1]:], offsets, axis=0)
    d = np.zeros_like(f)
    for s in range(len(segments)):
        d[am[s], np.arange(f.shape[1])] += dg[s]
    for i in reversed(range(len(params.encoder))):
        if i == net.LOCAL_LAYER:
            d = d + d_local
        d, gr = net.pointwise_backward(d, params.encoder_specs[i],
                                       params.encoder[i], enc_traces[i])
        grads.update({f"enc{i}.{k}": v for k, v in gr.items()})
    return q, grads


def _moved_stats_params(seed, dtype=np.float32, forwards=3):
    """Toy network whose batch-norm running statistics were moved by
    train-mode forwards on shifted, scaled inputs."""
    rng = np.random.default_rng(seed)
    params = toy_params(seed=seed, dtype=dtype)
    for _ in range(forwards):
        x = rng.normal(rng.normal(0, 2, 9), rng.uniform(0.5, 3, 9), (48, 9))
        net.forward(x.astype(dtype), params, "train", segments=(20, 28))
    return params


def _rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestSplitHead:
    @settings(max_examples=40, deadline=None)
    @given(segments=st.lists(st.integers(1, 7), min_size=1, max_size=5),
           mode=st.sampled_from(["train", "eval"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_concat_reference(self, segments, mode, seed):
        # head0's split form local·W_l + (g·W_g + b) against the built
        # concat/repeat, forward and every gradient
        if mode == "train" and sum(segments) < 2:
            segments = segments + [1]
        rng = np.random.default_rng(seed)
        params = _moved_stats_params(seed % 1000, dtype=np.float64, forwards=1)
        x = rng.standard_normal((sum(segments), 9))
        labels = rng.integers(0, 3, len(x))
        ref_params = net.copy_params(params)
        q_ref, grads_ref = _concat_reference(x, ref_params, mode, segments, labels)
        trace = net.forward(x, params, mode, segments=segments)
        assert _rel_err(trace.q, q_ref) <= 1e-10
        if mode == "eval":
            assert trace.argmax_segments is None
            return
        grads = net.backward(trace, labels, params)
        assert list(grads) == [name for name, _ in net.iter_tensors(params)]
        # relative to the largest gradient entry: a gradient that is 0 in
        # exact arithmetic (the bias under a batch norm, everything under
        # a two-row batch norm) holds only rounding noise of that order
        scale = max(np.abs(g).max() for g in grads_ref.values())
        for name, grad in grads.items():
            assert np.abs(grad - grads_ref[name]).max() <= 1e-10 * scale, name
        for (name, a), (_, b) in zip(
                net.iter_tensors(params, learnable_only=False),
                net.iter_tensors(ref_params, learnable_only=False)):
            assert _rel_err(a, b) <= 1e-10, name      # running stats too

    def test_head0_reads_local_rows_and_per_block_global(self, rng):
        params = toy_params()
        x = rng.standard_normal((12, 9)).astype(np.float32)
        trace = net.forward(x, params, "train", segments=(5, 7))
        tr = trace.head_traces[0]
        # the next encoder layer reads the same LOCAL_LAYER output
        assert tr.f_in is trace.encoder_traces[net.LOCAL_LAYER + 1].f_in
        assert tr.g is trace.g_segments and tr.segments == (5, 7)

    def test_mismatched_segments_rejected(self, rng):
        params = toy_params()
        local = rng.standard_normal((6, 8)).astype(np.float32)
        g = rng.standard_normal((2, 32)).astype(np.float32)
        with pytest.raises(ShapeError, match="segments"):
            net.pointwise_forward(local, params.head_specs[0], params.head[0],
                                  "eval", g=g, segments=(2, 3))


class TestFoldBatchNorm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @settings(max_examples=30, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           forwards=st.integers(1, 3),
           segments=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           x_seed=st.integers(0, 2 ** 32 - 1))
    def test_folded_eval_matches_unfolded(self, seed, dtype, forwards,
                                          segments, x_seed):
        # an eval forward folds each batch norm as fold_batch_norm does,
        # so folding first changes no bit
        params = _moved_stats_params(seed, dtype, forwards)
        folded = net.fold_batch_norm(net.copy_params(params))
        x = np.random.default_rng(x_seed).normal(
            0, 2, (sum(segments), 9)).astype(dtype)
        q = net.forward(x, params, "eval", segments=segments).q
        qf = net.forward(x, folded, "eval", segments=segments).q
        _assert_same_bits(q, qf, "q")

    def test_folded_layers_keep_relu_and_drop_bn(self):
        params = _moved_stats_params(3)
        before = [(s.has_bn, s.has_relu) for s, _ in params.layers()]
        net.fold_batch_norm(params)
        for (had_bn, relu), (spec, lp) in zip(before, params.layers()):
            assert spec.has_bn is False and spec.has_relu is relu
            assert lp.gamma is None and lp.running_var is None
            assert lp.W.dtype == np.float64 and lp.b.dtype == np.float32

    def test_second_fold_is_a_no_op(self):
        params = net.fold_batch_norm(_moved_stats_params(4))
        once = [(n, a.copy()) for n, a in net.iter_tensors(params)]
        specs = [(s.in_width, s.out_width, s.has_bn, s.has_relu)
                 for s, _ in params.layers()]
        assert net.fold_batch_norm(params) is params
        assert [(s.in_width, s.out_width, s.has_bn, s.has_relu)
                for s, _ in params.layers()] == specs
        for (n0, a0), (n1, a1) in zip(once, net.iter_tensors(params)):
            assert n0 == n1 and a0.tobytes() == a1.tobytes()

    def test_last_layer_unchanged(self):
        params = _moved_stats_params(5)
        last = params.head[-1]
        W, b = last.W.copy(), last.b.copy()
        net.fold_batch_norm(params)
        assert params.head[-1].W.tobytes() == W.astype(np.float64).tobytes()
        assert params.head[-1].b.tobytes() == b.tobytes()
        assert params.head_specs[-1] == net.LayerSpec(8, 3, False, False)

    def test_copies_are_not_folded(self):
        params = _moved_stats_params(6)
        keep = net.copy_params(params)
        net.fold_batch_norm(params)
        assert all(s.has_bn for s, _ in keep.layers()[:-1])
        assert keep.encoder[0].gamma is not None

    def test_folded_params_refuse_checkpointing(self, tmp_path):
        params = net.fold_batch_norm(_moved_stats_params(7))
        with pytest.raises(ValueError, match="folded"):
            net.save_checkpoint(tmp_path / "model.ckpt", params)
        assert not (tmp_path / "model.ckpt").exists()

    @staticmethod
    def _default_checkpoint(path):
        enc, head = net.default_architecture()
        net.save_checkpoint(path, net.init_params(enc, head,
                                                  np.random.default_rng(0)))
        return path

    def test_prepares_a_loaded_checkpoint(self, tmp_path):
        path = self._default_checkpoint(tmp_path / "model.ckpt")
        params = net.fold_batch_norm(net.load_checkpoint(path))
        for spec, lp in params.layers():
            assert not spec.has_bn and lp.gamma is None
            assert lp.W.dtype == np.float64 and lp.b.dtype == np.float32
        arrays = [id(a) for _, a in net.iter_tensors(params)]
        assert net.eval_weights(params) is params
        assert arrays == [id(a) for _, a in net.iter_tensors(params)]

    def test_peak_memory_of_preparing_a_checkpoint(self, tmp_path):
        # each float32 W is freed as it is widened: 15.7 MB traced for the
        # default network (numpy 2.4.6), against 20.4 MB when the float32
        # network is held beside the float64 one
        path = self._default_checkpoint(tmp_path / "model.ckpt")
        tracemalloc.start()
        try:
            params = net.fold_batch_norm(net.load_checkpoint(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layers = params.encoder + params.head
        assert all(lp.W.dtype == np.float64 for lp in layers)
        widened = sum(lp.W.nbytes for lp in layers)
        assert peak < widened + max(lp.W.nbytes for lp in layers) // 2


class TestEvalWeights:
    """eval_weights folds batch norm and widens every W to float64 once;
    forwards on the result carry the bits of forwards on the raw or the
    folded network."""

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           panel=st.sampled_from([None, 4, 7]),
           segments=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_prepared_weights_change_no_bit(self, dtype, panel, segments,
                                            seed):
        # every forward prepares unprepared weights with eval_weights, so
        # the reference is a whole-array chain of pointwise_forward calls,
        # which fold per call and widen inside each product. Panel None
        # runs every forward as one panel, 4 and 7 split it; float64
        # products are BLAS products, whose rows may change with the rows
        # beside them, so split float64 forwards are compared to each other
        params = _moved_stats_params(seed % 1000, dtype)
        x = np.random.default_rng(seed).normal(
            0, 2, (sum(segments), 9)).astype(dtype)
        rows = panel or net.EXACT_PANEL_ROWS
        folded = net.fold_batch_norm(net.copy_params(params))
        with mock.patch.object(net, "EXACT_PANEL_ROWS", rows):
            outs = [net.forward(x, weights, "eval", segments=segments)
                    for weights in (params, net.eval_weights(params), folded)]
        if dtype == np.float64 and panel:
            g_want, q_want = outs[0].g_segments, outs[0].q
        else:
            g_want, q_want = _layerwise_eval(x, params, segments)
        for got in outs:
            assert got.g_segments.tobytes() == g_want.tobytes()
            assert got.q.dtype == dtype
            assert got.q.tobytes() == q_want.tobytes()

    def test_caller_keeps_its_network(self):
        params = _moved_stats_params(8)
        specs = [(s.has_bn, s.has_relu) for s, _ in params.layers()]
        before = [(n, id(a), a.dtype, a.tobytes())
                  for n, a in net.iter_tensors(params, False)]
        weights = net.eval_weights(params)
        assert weights is not params
        assert [(s.has_bn, s.has_relu) for s, _ in params.layers()] == specs
        assert [(n, id(a), a.dtype, a.tobytes())
                for n, a in net.iter_tensors(params, False)] == before
        for (spec, lp), (_, relu) in zip(weights.layers(), specs):
            assert not spec.has_bn and spec.has_relu is relu
            assert lp.W.dtype == np.float64 and lp.b.dtype == np.float32
            assert lp.gamma is None and lp.running_var is None

    def test_forward_prepares_unprepared_weights_once(self, monkeypatch,
                                                      rng):
        calls = []
        eval_weights = net.eval_weights

        def spy(params):
            calls.append(params)
            return eval_weights(params)

        monkeypatch.setattr(net, "eval_weights", spy)
        monkeypatch.setattr(net, "EXACT_PANEL_ROWS", 4)
        params = _moved_stats_params(11)
        x = rng.normal(0, 2, (12, 9)).astype(np.float32)
        net.forward(x, params, "eval", segments=(5, 7))
        assert len(calls) == 1 and calls[0] is params

    def test_prepared_weights_returned_unchanged(self):
        weights = net.eval_weights(_moved_stats_params(9))
        assert net.eval_weights(weights) is weights
        # a folded float64 network is prepared as it is
        shadow = net.fold_batch_norm(_moved_stats_params(9, np.float64))
        assert net.eval_weights(shadow) is shadow

    def test_copy_keeps_bits_and_dtypes(self, rng):
        # a copy that cast b to float64 added head0's global term to the
        # local one unrounded, and most forwards changed bits
        weights = net.eval_weights(_moved_stats_params(10))
        copied = net.copy_params(weights)
        for (n, a), (_, b) in zip(net.iter_tensors(weights),
                                  net.iter_tensors(copied)):
            assert a is not b and a.dtype == b.dtype, n
            assert a.tobytes() == b.tobytes(), n
        x = rng.normal(0, 2, (64, 9)).astype(np.float32)
        q = [net.forward(x, w, "eval", segments=(30, 34)).q.tobytes()
             for w in (copied, weights)]
        assert q[0] == q[1]


class TestPrecisionPolicy:
    """The operand dtypes pick each product: a float32 train step and its
    backward multiply float32 by float32 (BLAS); every eval product reads
    a float64 W, the exact product, whose rows do not depend on their
    neighbours (TestPrecision)."""

    @staticmethod
    def _record_dtypes(monkeypatch):
        dtypes = []
        real = net.matmul

        def spy(a, b):
            dtypes.append((a.dtype, b.dtype))
            return real(a, b)

        monkeypatch.setattr(net, "matmul", spy)
        return dtypes

    def test_train_step_uses_only_the_float32_form(self, monkeypatch, rng):
        params = toy_params()
        x = rng.standard_normal((12, 9)).astype(np.float32)
        dtypes = self._record_dtypes(monkeypatch)
        trace = net.forward(x, params, "train", segments=(5, 7))
        net.backward(trace, rng.integers(0, 3, 12), params)
        assert dtypes and all(d == (np.float32, np.float32) for d in dtypes)

    def test_eval_forward_uses_only_the_exact_form(self, monkeypatch, rng):
        params = toy_params()
        x = rng.standard_normal((12, 9)).astype(np.float32)
        dtypes = self._record_dtypes(monkeypatch)
        net.forward(x, params, "eval", segments=(5, 7))
        net.forward(x, net.fold_batch_norm(params), "eval", segments=(5, 7))
        assert dtypes and all(d == (np.float32, np.float64) for d in dtypes)

    def test_float32_gradients_track_the_float64_shadow(self):
        rng = np.random.default_rng(5)
        enc, head = net.default_architecture()
        params = net.init_params(enc, head, rng)
        shadow = net.params_astype(params, np.float64)
        x = rng.standard_normal((64, 9)).astype(np.float32)
        labels = rng.integers(0, 9, 64)
        grads = net.backward(net.forward(x, params, "train", segments=(32, 32)),
                             labels, params)
        want = net.backward(net.forward(x.astype(np.float64), shadow, "train",
                                        segments=(32, 32)), labels, shadow)
        # relative to the largest entry: some tensors' gradients are 0 in
        # exact arithmetic and hold rounding noise only
        scale = max(np.abs(g).max() for g in want.values())
        for name, g in grads.items():
            assert g.dtype == np.float32, name
            assert np.abs(g - want[name]).max() <= 1e-3 * scale, name


# ---------------------------------------------------------------------------
# the buffer-reusing train step against its out-of-place formulas

def _colstat(x, stat):
    return stat(x, axis=0, dtype=np.float64).astype(x.dtype)


def _reference_layer_forward(f_in, spec, params, mode, g=None, segments=None):
    """pointwise_forward with every elementwise step writing a fresh
    array, in the order and with the float64 reductions the library
    keeps; eval mode folds batch norm into a new W and b and multiplies
    by W widened to float64, the exact product."""
    exact = mode == "eval"
    W, b = params.W, params.b
    if spec.has_bn and exact:
        k = params.gamma / np.sqrt(params.running_var.astype(np.float64)
                                   + net.BN_EPS)
        W = (params.W * k).astype(params.W.dtype)
        b = ((params.b - params.running_mean.astype(np.float64)) * k
             + params.beta).astype(params.b.dtype)
    if exact:
        W = W.astype(np.float64)
    if g is None:
        s = net.matmul(f_in, W) + b
    else:
        local_w = f_in.shape[1]
        s = net.matmul(f_in, W[:local_w])
        s += np.repeat(net.matmul(g, W[local_w:]) + b, segments, axis=0)
    s_hat = inv_std = None
    if spec.has_bn and not exact:
        eps = np.asarray(net.BN_EPS, dtype=s.dtype)
        mu = _colstat(s, np.mean)
        d = s - mu
        var = _colstat(d * d, np.mean)
        inv_std = 1.0 / np.sqrt(var + eps)
        s_hat = d * inv_std
        m = params.running_mean.dtype.type(net.BN_MOMENTUM)
        params.running_mean += m * (mu.astype(params.running_mean.dtype)
                                    - params.running_mean)
        params.running_var += m * (var.astype(params.running_var.dtype)
                                   - params.running_var)
        z = params.gamma * s_hat + params.beta
    else:
        z = s
    mask = None
    if spec.has_relu:
        if mode == "train":
            mask = z > 0
        f_out = np.maximum(z, np.asarray(0, dtype=z.dtype))
    else:
        f_out = z
    return f_out, (None if exact else
                   net.LayerTrace(f_in, s_hat, inv_std, mask, g, segments))


def _reference_pointwise_backward(d_out, spec, params, trace):
    """pointwise_backward with every elementwise step writing a fresh
    array."""
    d = d_out
    if spec.has_relu:
        d = d * trace.mask
    grads = {}
    if spec.has_bn:
        grads["gamma"] = _colstat(d * trace.s_hat, np.sum)
        grads["beta"] = _colstat(d, np.sum)
        ds_hat = d * params.gamma
        d = trace.inv_std * (ds_hat - _colstat(ds_hat, np.mean)
                             - trace.s_hat * _colstat(ds_hat * trace.s_hat, np.mean))
    grads["b"] = _colstat(d, np.sum)
    if trace.g is None:
        grads["W"] = net.matmul(trace.f_in.T, d)
        return net.matmul(d, params.W.T), grads
    local_w = trace.f_in.shape[1]
    d_seg = np.add.reduceat(d.astype(np.float64), net._offsets(trace.segments),
                            axis=0).astype(d.dtype)
    grads["W"] = np.vstack([net.matmul(trace.f_in.T, d),
                            net.matmul(trace.g.T, d_seg)])
    return (net.matmul(d, params.W[:local_w].T),
            net.matmul(d_seg, params.W[local_w:].T)), grads


def _reference_adam_step(params, grads, state, lr):
    """adam_step's update with a fresh array for every operation."""
    state.t += 1
    c1 = 1.0 - training.ADAM_BETA1 ** state.t
    c2 = 1.0 - training.ADAM_BETA2 ** state.t
    for name, arr in net.iter_tensors(params):
        g, m, v = grads[name], state.m[name], state.v[name]
        m += (1.0 - training.ADAM_BETA1) * (g - m)
        v += (1.0 - training.ADAM_BETA2) * (g * g - v)
        arr -= (lr / c1) * m / (np.sqrt(v / c2) + training.ADAM_EPS)


@contextlib.contextmanager
def _reference_math():
    """forward and backward composed from the reference layers, with the
    pool's winners taken by argmax."""
    with mock.patch.object(net, "pointwise_forward", _reference_layer_forward), \
            mock.patch.object(net, "pointwise_backward",
                              _reference_pointwise_backward), \
            mock.patch.object(net, "_pool_winners",
                              lambda block, top: block.argmax(axis=0)):
        yield


def _mixed_params(flags, dtype, seed):
    """Toy-width network whose hidden layers have the given (has_bn,
    has_relu) flags; the classifier layer has neither."""
    widths = (9, 8, 8, 16, 16, 32)
    enc = [net.LayerSpec(i, o, *f) for i, o, f in zip(widths, widths[1:], flags)]
    head = [net.LayerSpec(40, 16, *flags[5]), net.LayerSpec(16, 8, *flags[6]),
            net.LayerSpec(8, 3, False, False)]
    return net.params_astype(net.init_params(enc, head,
                                             np.random.default_rng(seed)), dtype)


def _assert_same_bits(a, b, what):
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), what


class TestInPlaceStep:
    @settings(max_examples=60, deadline=None)
    @given(flags=st.lists(st.sampled_from([(True, True), (True, False),
                                           (False, True), (False, False)]),
                          min_size=7, max_size=7),
           dtype=st.sampled_from([np.float32, np.float64]),
           segments=st.lists(st.sampled_from([1, 2, 3, 7, 20, 70]),
                             min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_step_matches_out_of_place_reference_bitwise(self, flags, dtype,
                                                         segments, seed):
        if sum(segments) < 2:
            segments = segments + [1]
        rng = np.random.default_rng(seed)
        params = _mixed_params(flags, dtype, seed % 1000)
        ref = net.copy_params(params)
        state = training.AdamState.for_params(params)
        ref_state = training.AdamState.for_params(ref)
        n = sum(segments)
        for step in range(3):
            x = rng.normal(rng.normal(0, 2, 9), 2.0, (n, 9)).astype(dtype)
            labels = rng.integers(0, 3, n)
            trace = net.forward(x, params, "train", segments=segments)
            grads = net.backward(trace, labels, params)
            training.adam_step(params, grads, state, 0.01)
            with _reference_math():
                ref_trace = net.forward(x, ref, "train", segments=segments)
                ref_grads = net.backward(ref_trace, labels, ref)
                _reference_adam_step(ref, ref_grads, ref_state, 0.01)
            _assert_same_bits(trace.q, ref_trace.q, f"step {step} q")
            _assert_same_bits(trace.argmax_segments, ref_trace.argmax_segments,
                              f"step {step} pool winners")
            for name in ref_grads:
                _assert_same_bits(grads[name], ref_grads[name], f"step {step} d{name}")
                _assert_same_bits(state.m[name], ref_state.m[name], f"m {name}")
                _assert_same_bits(state.v[name], ref_state.v[name], f"v {name}")
            for (name, a), (_, b) in zip(net.iter_tensors(params, False),
                                         net.iter_tensors(ref, False)):
                _assert_same_bits(a, b, f"step {step} {name}")
        x = rng.normal(0, 2, (n, 9)).astype(dtype)
        q = net.forward(x, params, "eval", segments=segments).q
        with _reference_math():
            _assert_same_bits(q, net.forward(x, ref, "eval", segments=segments).q,
                              "eval q")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_forward_writes_only_running_statistics(self, mode, rng):
        params = _moved_stats_params(8)
        x = rng.normal(0, 2, (40, 9)).astype(np.float32)
        x_before = x.copy()
        before = {n: a.copy() for n, a in net.iter_tensors(params, False)}
        net.forward(x, params, mode, segments=(1, 2, 37))
        _assert_same_bits(x, x_before, "x")
        for name, a in net.iter_tensors(params, False):
            moved = a.tobytes() != before[name].tobytes()
            stat = name.endswith(("running_mean", "running_var"))
            assert moved == (stat and mode == "train"), name

    def test_backward_twice_on_one_trace_is_bitwise_equal(self, rng):
        params = _moved_stats_params(9)
        x = rng.normal(0, 2, (40, 9)).astype(np.float32)
        labels = rng.integers(0, 3, 40)
        trace = net.forward(x, params, "train", segments=(1, 2, 37))
        first = net.backward(trace, labels, params)
        second = net.backward(trace, labels, params)
        for name in first:
            _assert_same_bits(first[name], second[name], name)

    @pytest.mark.parametrize("has_relu", [False, True])
    @pytest.mark.parametrize("per_block", [False, True])
    def test_pointwise_backward_writes_only_d(self, has_relu, per_block, rng):
        # the step is handed d to overwrite; params and the trace are read
        spec = net.LayerSpec(7 if per_block else 4, 6, has_bn=True,
                             has_relu=has_relu)
        lp = net.init_layer(spec, rng)
        f_in = rng.standard_normal((16, 4)).astype(np.float32)
        g = rng.standard_normal((2, 3)).astype(np.float32) if per_block else None
        _, trace = net.pointwise_forward(f_in, spec, lp, "train", g=g,
                                         segments=(9, 7) if per_block else None)
        fields = {k: v for k, v in vars(trace).items()
                  if isinstance(v, np.ndarray)}
        assert fields.keys() == ({"f_in", "s_hat", "inv_std"}
                                 | ({"mask"} if has_relu else set())
                                 | ({"g"} if per_block else set()))
        kept = {k: v.copy() for k, v in fields.items()}
        tensors = {f: getattr(lp, f).copy() for f in vars(lp)}
        net.pointwise_backward(rng.standard_normal((16, 6)).astype(np.float32),
                               spec, lp, trace)
        for k, v in fields.items():
            _assert_same_bits(getattr(trace, k), kept[k], f"trace.{k}")
        for f, a in tensors.items():
            _assert_same_bits(getattr(lp, f), a, f"params.{f}")
        assert trace.segments == ((9, 7) if per_block else None)


_P = net.EXACT_PANEL_ROWS
_PANEL_EDGE_ROWS = [1, 2, _P - 1, _P, _P + 1, 3 * _P + 5]
_FLAG_PAIRS = [(True, True), (True, False), (False, True), (False, False)]
# batch norm in train mode needs two rows
_LAYER_CASES = [(rows, has_bn, has_relu) for rows in _PANEL_EDGE_ROWS
                for has_bn, has_relu in _FLAG_PAIRS if rows > 1 or not has_bn]


class TestPanelledBackward:
    """Batch norm's backward forms its products with s_hat in row panels
    of at most EXACT_PANEL_ROWS rows, summing each column in float64 row
    by row; the out-of-place formulas sum whole (N, out) products."""

    @pytest.mark.parametrize("rows,has_bn,has_relu", _LAYER_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 33])
    def test_layer_matches_out_of_place_reference(self, rows, has_bn,
                                                  has_relu, dtype, width):
        rng = np.random.default_rng(rows * 7 + width)
        spec = net.LayerSpec(5, width, has_bn, has_relu)
        lp = net.init_layer(spec, rng)
        lp = net.LayerParams(*[None if t is None else t.astype(dtype)
                               for t in (lp.W, lp.b, lp.gamma, lp.beta,
                                         lp.running_mean, lp.running_var)])
        if has_bn:
            lp.beta[0] = -100.0   # with ReLU, a dead column: its gated d is ±0
        x = rng.normal(0, 2, (rows, 5)).astype(dtype)
        _, trace = net.pointwise_forward(x, spec, lp, "train")
        d_out = rng.standard_normal((rows, width)).astype(dtype)
        d_out[::3, -1] = -0.0
        kept = d_out.copy()
        d_in, grads = net.pointwise_backward(d_out.copy(), spec, lp, trace)
        ref_in, ref_grads = _reference_pointwise_backward(d_out, spec, lp,
                                                          trace)
        _assert_same_bits(d_out, kept, "d_out")
        _assert_same_bits(d_in, ref_in, "d_in")
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            _assert_same_bits(grads[name], ref_grads[name], name)

    @pytest.mark.parametrize("rows", _PANEL_EDGE_ROWS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_out_of_place_reference(self, rows, dtype):
        # every hidden layer takes one of the four flag pairs in turn; a
        # one-row forward has no batch norm to run
        flags = [(has_bn and rows > 1, has_relu) for has_bn, has_relu
                 in (_FLAG_PAIRS * 2)[:7]]
        params = _mixed_params(flags, dtype, rows)
        rng = np.random.default_rng(rows)
        x = rng.normal(0, 2, (rows, 9)).astype(dtype)
        labels = rng.integers(0, 3, rows)
        segments = (rows,) if rows < 3 else (1, rows // 2, rows - 1 - rows // 2)
        trace = net.forward(x, params, "train", segments=segments)
        grads = net.backward(trace, labels, params)
        with _reference_math():
            ref_grads = net.backward(trace, labels, params)
        assert list(grads) == list(ref_grads)
        for name in ref_grads:
            _assert_same_bits(grads[name], ref_grads[name], name)


class TestPoolWinners:
    """The pool's winning rows come from an equality scan against the
    column max; argmax(axis=0) is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.one_of(st.integers(1, 3), st.integers(1, 3 * net.POOL_PANEL + 5)),
           cols=st.integers(1, 24),
           dtype=st.sampled_from([np.float32, np.float64]),
           ties=st.sampled_from(["relu", "signed zeros", "few values", "normal"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_argmax(self, rows, cols, dtype, ties, seed):
        rng = np.random.default_rng(seed)
        if ties == "relu":
            block = np.maximum(rng.normal(-1.0, 1.0, (rows, cols)), 0)
        elif ties == "signed zeros":
            block = rng.choice([-0.0, 0.0], (rows, cols))
        elif ties == "few values":
            block = rng.choice([-1.0, -0.0, 0.0, 2.0, np.inf, -np.inf], (rows, cols))
        else:
            block = rng.standard_normal((rows, cols))
        block = block.astype(dtype)
        winners = net._pool_winners(block, block.max(axis=0))
        assert np.array_equal(winners, block.argmax(axis=0))

    def test_nan_column_takes_its_first_nan_row(self):
        block = np.zeros((3 * net.POOL_PANEL, 4), dtype=np.float32)
        block[5, 1] = 7.0
        block[[70, 150], 2] = np.nan
        block[100, 2] = 9.0
        block[[0, 130], 3] = np.nan
        winners = net._pool_winners(block, block.max(axis=0))
        assert winners.tolist() == [0, 5, 70, 0]
        assert np.array_equal(winners, block.argmax(axis=0))


# ---------------------------------------------------------------------------
# the matrix product

class TestMatmul:
    def test_identity(self):
        m = f32([[1, 2], [3, 4]])
        assert np.array_equal(matmul(np.eye(2, dtype=np.float32), m), m)

    def test_hand_expansion(self):
        # 1*3 + 2*4
        out = matmul(f32([[1, 2]]), f32([[3], [4]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_empty_inner_dimension(self):
        out = matmul(np.zeros((1, 0), dtype=np.float32),
                     np.zeros((0, 1), dtype=np.float32))
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            matmul(np.zeros((1, 2)), np.zeros((3, 1)))

    def test_float32_in_float32_out(self):
        out = matmul(f32([[1.5]]), f32([[2.0]]))
        assert out.dtype == np.float32

    def test_float64_preserved(self):
        out = matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert out.dtype == np.float64

    def test_associativity(self, rng):
        for _ in range(20):
            a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.allclose(left, right, rtol=1e-6)

    def test_bit_reproducible(self, rng):
        a = rng.standard_normal((64, 32)).astype(np.float32)
        b = rng.standard_normal((32, 16)).astype(np.float32)
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestPrecision:
    """The operand dtypes pick the product: one dtype gives `a @ b`, a
    float32 `a` against a float64 `b` (exactly widened float32 weights)
    the float64 product rounded once to float32."""

    def test_float32_form_is_the_blas_product(self, rng):
        a = rng.standard_normal((37, 300)).astype(np.float32)
        b = rng.standard_normal((300, 45)).astype(np.float32)
        out = matmul(a, b)
        assert out.dtype == np.float32
        assert out.tobytes() == (a @ b).tobytes()

    def test_float64_operands_ignore_the_form(self, rng):
        a = rng.standard_normal((37, 300))
        b = rng.standard_normal((300, 45))
        out = matmul(a, b)
        assert out.dtype == np.float64
        assert out.tobytes() == (a @ b).tobytes()
        # a float32 b is widened exactly, so it gives the same bits
        assert matmul(a, b.astype(np.float32)).tobytes() == \
            (a @ b.astype(np.float32).astype(np.float64)).tobytes()

    def test_exact_form_rounds_the_float64_product_once(self, rng):
        a = rng.standard_normal((20, 64)).astype(np.float32)
        b = rng.standard_normal((64, 8)).astype(np.float32)
        want = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        out = matmul(a, b.astype(np.float64))
        assert out.dtype == np.float32 and out.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 64), k=st.sampled_from([9, 64, 300, 2112]),
           n=st.sampled_from([1, 64, 256]), seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_rows_do_not_depend_on_their_neighbours(self, m, k, n, seed):
        # what eval forwards rely on: a chunk of blocks gives each row the
        # bits a forward of that row alone gives
        rng = np.random.default_rng(seed)
        a = np.maximum(rng.standard_normal((m, k)), 0).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, (k, n)).astype(np.float32).astype(
            np.float64)
        out = matmul(a, b)
        for i in range(m):
            assert out[i].tobytes() == matmul(a[i:i + 1], b)[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(panel=st.sampled_from([4, 7, 64, net.EXACT_PANEL_ROWS]),
           share=st.floats(0.0, 1.0), k=st.sampled_from([9, 64, 300]),
           n=st.sampled_from([1, 64, 256]), seed=st.integers(0, 2 ** 32 - 1))
    def test_panelled_exact_product_is_the_whole_product_rounded_once(
            self, panel, share, k, n, seed):
        # row counts from one row up to three panels plus a remainder
        m = 1 + int(share * (4 * panel - 2))
        rng = np.random.default_rng(seed)
        a = np.maximum(rng.standard_normal((m, k)), 0).astype(np.float32)
        b = rng.uniform(-0.05, 0.05, (k, n)).astype(np.float32)
        want = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        with mock.patch.object(net, "EXACT_PANEL_ROWS", panel):
            got = matmul(a, b.astype(np.float64))
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [4, 5, 7, 64, net.EXACT_PANEL_ROWS])
    def test_row_panels_never_leave_one_row(self, size):
        assert net.EXACT_PANEL_ROWS >= 4
        for m in range(1, 4 * size + 3):
            panels = net._row_panels(m, size)
            assert panels[0][0] == 0 and panels[-1][1] == m
            assert all(a[1] == b[0] for a, b in zip(panels, panels[1:]))
            rows = [stop - start for start, stop in panels]
            assert max(rows) - min(rows) <= 1 and max(rows) <= size
            assert min(rows) >= 2 or m == 1
