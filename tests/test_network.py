import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointlabel import network as net
from pointlabel.linalg import ShapeError

from conftest import toy_architecture, toy_params


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

    def test_running_stats_advance(self, rng):
        spec = net.LayerSpec(2, 2)
        lp = net.init_layer(spec, rng)
        x = rng.standard_normal((32, 2)).astype(np.float32)
        net.pointwise_forward(x, spec, lp, "train")
        assert not np.allclose(lp.running_mean, 0.0)
        assert not np.allclose(lp.running_var, 1.0)


class TestPoolConcatSoftmax:
    def test_pool_single_row(self):
        g, am = net.global_max_pool(f32([[1, 2, 3]]))
        assert np.array_equal(g, [1, 2, 3]) and (am == 0).all()

    def test_pool_is_order_free(self, rng):
        f = rng.standard_normal((20, 8)).astype(np.float32)
        g0, _ = net.global_max_pool(f)
        g1, _ = net.global_max_pool(f[rng.permutation(20)])
        assert np.array_equal(g0, g1)

    def test_pool_values_and_routing(self):
        g, am = net.global_max_pool(f32([[1, 5], [3, 2]]))
        assert np.array_equal(g, [3, 5])
        assert np.array_equal(am, [1, 0])

    def test_pool_empty_rejected(self):
        with pytest.raises(ValueError):
            net.global_max_pool(np.zeros((0, 4), dtype=np.float32))

    def test_concat_layout(self, rng):
        f2 = rng.standard_normal((3, 64)).astype(np.float32)
        g = rng.standard_normal(2048).astype(np.float32)
        out = net.concat_local_global(f2, g, 64, 2048)
        assert out.shape == (3, 2112)
        assert np.array_equal(out[:, 64:], np.broadcast_to(g, (3, 2048)))
        assert np.array_equal(out[:, :64], f2)

    def test_concat_identical_rows(self):
        f2 = np.ones((2, 4), dtype=np.float32)
        out = net.concat_local_global(f2, np.arange(8, dtype=np.float32))
        assert np.array_equal(out[0], out[1])

    def test_concat_width_mismatch(self):
        with pytest.raises(ShapeError):
            net.concat_local_global(np.ones((2, 3)), np.ones(8), local_width=64)

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
        assert t0.g.tobytes() == t1.g.tobytes()

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
        tr = net.forward(x, params, "eval")
        assert np.array_equal(tr.g, tr.pooled_input.max(axis=0))

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(ShapeError):
            net.forward(np.ones((4, 5), dtype=np.float32), toy_params(), "eval")


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
        # gradient wrt the pooled input is nonzero only at argmax rows
        params = toy_params(dtype=np.float64)
        x = rng.standard_normal((10, 9))
        labels = rng.integers(0, 3, 10)
        trace = net.forward(x, params, "train")
        # recompute the pool routing gradient the way backward does
        d = trace.q.copy()
        d[np.arange(10), labels] -= 1.0
        d /= 10
        for i in reversed(range(len(params.head))):
            d, _ = net.pointwise_backward(d, params.head_specs[i],
                                          params.head[i], trace.head_traces[i])
        dg = d[:, params.encoder_specs[net.LOCAL_LAYER].out_width:].sum(axis=0)
        f5 = trace.pooled_input
        routed = np.zeros_like(f5)
        routed[trace.argmax_rows, np.arange(f5.shape[1])] = dg
        winners = np.zeros_like(f5, dtype=bool)
        winners[trace.argmax_rows, np.arange(f5.shape[1])] = True
        assert (routed[~winners] == 0).all()

    @staticmethod
    def _gate_signature(trace):
        """ReLU masks and pool routing; FD probes that flip any gate
        straddle a non-differentiable point and are not a valid oracle."""
        parts = [tr.mask.tobytes() for tr in
                 trace.encoder_traces + trace.head_traces if tr.mask is not None]
        parts.append(trace.argmax_rows.tobytes())
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
        assert loaded.momentum == params.momentum

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
