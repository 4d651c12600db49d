import copy
import threading
import weakref

import numpy as np
import pytest

from pointlabel import network as net
from pointlabel import training as tr
from pointlabel.blocks import Block


def make_block(cls, rng, n=16, n_classes=3, in_width=9):
    """Mixed-class block dominated by `cls`; per-point features separate
    linearly by the point's label. The class signal must vary within the
    block (a constant per-block offset would be erased by the per-block
    batch statistics)."""
    labels = np.full(n, cls, dtype=np.int32)
    others = [c for c in range(n_classes) if c != cls]
    for i, c in enumerate(others):
        labels[(i + 1) * n // (len(others) + 2):][:n // 5] = c
    f = rng.normal(0.0, 0.3, size=(n, in_width)).astype(np.float32)
    f[:, 0] += labels * 2.0
    f[:, 3] += labels * 0.5
    return Block(0.0, 0.0, 1.0, 0, f, np.arange(n, dtype=np.int64), labels)


def block_set(counts, rng):
    out = []
    for cls, n in counts.items():
        out.extend(make_block(cls, rng) for _ in range(n))
    return out


class TestStratifiedSplit:
    def test_per_stratum_counts(self, rng):
        blocks = block_set({0: 50, 1: 50}, rng)
        train, val = tr.stratified_split(blocks, 0.2, seed=1)
        assert len(val) == 20 and len(train) == 80
        val_classes = [b.dominant_class() for b in val]
        assert val_classes.count(0) == 10 and val_classes.count(1) == 10

    def test_half_fraction_on_two_blocks(self, rng):
        blocks = block_set({0: 2}, rng)
        train, val = tr.stratified_split(blocks, 0.5, seed=0)
        assert len(train) == 1 and len(val) == 1

    def test_single_class_plain_split_deterministic(self, rng):
        blocks = block_set({2: 12}, rng)
        a = tr.stratified_split(blocks, 0.25, seed=5)
        b = tr.stratified_split(blocks, 0.25, seed=5)
        assert [id(x) for x in a[1]] == [id(x) for x in b[1]]
        assert len(a[1]) == 3

    def test_singleton_stratum_stays_in_training(self, rng, caplog):
        blocks = block_set({0: 8, 1: 1}, rng)
        train, val = tr.stratified_split(blocks, 0.25, seed=0)
        assert all(b.dominant_class() == 0 for b in val)
        assert sum(b.dominant_class() == 1 for b in train) == 1


class TestBalanceClasses:
    def test_round_robin_repetition(self, rng):
        blocks = block_set({0: 10, 1: 2}, rng)
        out = tr.balance_classes(blocks)
        classes = [b.dominant_class() for b in out]
        assert classes.count(0) == 10 and classes.count(1) == 10
        b_originals = [b for b in blocks if b.dominant_class() == 1]
        for orig in b_originals:
            assert sum(1 for b in out if b is orig) == 5

    def test_uniform_input_unchanged(self, rng):
        blocks = block_set({0: 4, 1: 4}, rng)
        assert tr.balance_classes(blocks) == blocks

    def test_single_class_unchanged(self, rng):
        blocks = block_set({0: 4}, rng)
        assert tr.balance_classes(blocks) == blocks

    def test_empty_input(self):
        assert tr.balance_classes([]) == []

    def test_histogram_exactly_uniform(self, rng):
        blocks = block_set({0: 7, 1: 3, 2: 1}, rng)
        out = tr.balance_classes(blocks)
        hist = np.bincount([b.dominant_class() for b in out])
        assert (hist == 7).all()


class TestLrSchedule:
    def cfg(self, **kw):
        return tr.TrainConfig(**kw)

    def test_epoch_zero_is_initial(self):
        assert tr.lr_at(0, self.cfg()) == 0.001

    def test_midpoint(self):
        assert tr.lr_at(15, self.cfg()) == 0.0005

    def test_last_epoch(self):
        assert tr.lr_at(29, self.cfg()) == pytest.approx(0.001 / 30.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tr.lr_at(30, self.cfg())
        with pytest.raises(ValueError):
            tr.lr_at(-1, self.cfg())

    def test_strictly_decreasing(self):
        cfg = self.cfg()
        lrs = [tr.lr_at(e, cfg) for e in range(30)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))
        assert all(lr > 0 for lr in lrs)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["batch_size", "epoch_total"])
    def test_zero_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: 0})

    def test_one_accepted(self):
        config = tr.TrainConfig(batch_size=1, epoch_total=1)
        assert tr.lr_at(0, config) == config.lr_initial


class TestAdam:
    def scalar_setup(self):
        enc, head = net.default_architecture(2, 2, (2, 2), (2,))
        params = net.init_params(enc, head, np.random.default_rng(0))
        state = tr.AdamState.for_params(params)
        return params, state

    def test_zero_gradient_keeps_params(self):
        params, state = self.scalar_setup()
        before = {n: a.copy() for n, a in net.iter_tensors(params)}
        grads = {n: np.zeros_like(a) for n, a in net.iter_tensors(params)}
        tr.adam_step(params, grads, state, lr=0.1)
        for n, a in net.iter_tensors(params):
            assert np.array_equal(a, before[n]), n
        assert state.t == 1

    def test_first_step_magnitude(self):
        params, state = self.scalar_setup()
        before = params.encoder[0].W.copy()
        grads = {n: np.zeros_like(a) for n, a in net.iter_tensors(params)}
        grads["enc0.W"] = np.full_like(params.encoder[0].W, 0.5)
        tr.adam_step(params, grads, state, lr=0.01)
        delta = before - params.encoder[0].W
        # bias-corrected first step: lr * 0.5 / (0.5 + eps)
        assert np.allclose(delta, 0.01 * 0.5 / (0.5 + 1e-8), rtol=1e-5)

    def test_opposite_steps_damp(self):
        params, state = self.scalar_setup()
        start = params.encoder[0].W.copy()
        g = np.ones_like(start)
        zeros = {n: np.zeros_like(a) for n, a in net.iter_tensors(params)}
        lr = 0.01
        tr.adam_step(params, dict(zeros, **{"enc0.W": g}), state, lr)
        tr.adam_step(params, dict(zeros, **{"enc0.W": -g}), state, lr)
        assert np.abs(params.encoder[0].W - start).max() < lr

    def test_non_finite_gradient_rejected_atomically(self):
        params, state = self.scalar_setup()
        before = {n: a.copy() for n, a in net.iter_tensors(params)}
        grads = {n: np.ones_like(a) for n, a in net.iter_tensors(params)}
        grads["head0.b"] = np.array([np.nan, 1.0], dtype=np.float32)
        with pytest.raises(ValueError, match="head0.b"):
            tr.adam_step(params, grads, state, lr=0.01)
        for n, a in net.iter_tensors(params):
            assert np.array_equal(a, before[n]), n
        assert state.t == 0

    def test_gradient_scaling_keeps_update_signs(self):
        pa, sa = self.scalar_setup()
        pb, sb = self.scalar_setup()
        rng = np.random.default_rng(3)
        grads = {n: rng.standard_normal(a.shape).astype(np.float32)
                 for n, a in net.iter_tensors(pa)}
        before = {n: a.copy() for n, a in net.iter_tensors(pa)}
        tr.adam_step(pa, grads, sa, lr=0.01)
        tr.adam_step(pb, {n: 17.0 * g for n, g in grads.items()}, sb, lr=0.01)
        for n, a in net.iter_tensors(pa):
            da = a - before[n]
            db = dict(net.iter_tensors(pb))[n] - before[n]
            nz = np.abs(grads[n]) > 1e-12
            assert np.array_equal(np.sign(da[nz]), np.sign(db[nz])), n


def toy_fit_config(**kw):
    base = dict(lr_initial=0.01, batch_size=4, epoch_total=50, patience=50,
                val_fraction=0.25, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


class TestFit:
    def build_sets(self, rng, n_train=8, n_val=2):
        train = [make_block(cls, rng) for cls in (0, 1) for _ in range(n_train // 2)]
        val = [make_block(cls, rng) for cls in (0, 1) for _ in range(n_val // 2)]
        return train, val

    def toy_specs(self):
        return net.default_architecture(9, 3, (8, 8, 16, 16, 32), (16, 8))

    def test_separable_toy_reaches_full_accuracy(self, rng):
        # 16-point blocks, 2 linearly separable classes
        train, val = self.build_sets(rng)
        enc, head = self.toy_specs()
        result = tr.fit(train, val, toy_fit_config(), encoder_specs=enc,
                        head_specs=head, n_classes=3)
        assert any(h.train_acc == 1.0 for h in result.history)
        # held-out sanity only; the 32 val points leave room for noise
        assert max(h.val_acc for h in result.history) >= 0.8

    def test_early_stopping_rule(self, rng, monkeypatch):
        train, val = self.build_sets(rng)
        enc, head = self.toy_specs()
        scripted = iter([1.0, 0.9, 0.95, 0.96, 0.97, 0.5, 0.4])
        monkeypatch.setattr(tr, "evaluate_blocks",
                            lambda *a, **k: (next(scripted), 0.5))
        result = tr.fit(train, val, toy_fit_config(patience=3, epoch_total=30),
                        encoder_specs=enc, head_specs=head, n_classes=3)
        assert len(result.history) == 5      # stopped after the fifth epoch
        assert result.best_epoch == 1        # second epoch had the best loss
        assert len(result.epoch_seconds) == 5
        assert all(s > 0 for s in result.epoch_seconds)

    def test_improving_runs_all_epochs(self, rng, monkeypatch):
        train, val = self.build_sets(rng)
        enc, head = self.toy_specs()
        losses = iter(np.linspace(1.0, 0.1, 10))
        monkeypatch.setattr(tr, "evaluate_blocks",
                            lambda *a, **k: (float(next(losses)), 0.5))
        result = tr.fit(train, val, toy_fit_config(patience=3, epoch_total=10),
                        encoder_specs=enc, head_specs=head, n_classes=3)
        assert len(result.history) == 10
        assert result.best_epoch == 9

    def test_best_checkpoint_has_min_val_loss(self, rng):
        train, val = self.build_sets(rng)
        enc, head = self.toy_specs()
        result = tr.fit(train, val, toy_fit_config(epoch_total=8), encoder_specs=enc,
                        head_specs=head, n_classes=3)
        losses = [h.val_loss for h in result.history]
        assert losses[result.best_epoch] == min(losses)
        got, _ = tr.evaluate_blocks(val, result.params)
        assert got == pytest.approx(min(losses))

    def test_deterministic_history_and_params(self, rng):
        train, val = self.build_sets(rng)
        enc1, head1 = self.toy_specs()
        enc2, head2 = self.toy_specs()
        r1 = tr.fit(train, val, toy_fit_config(epoch_total=3), encoder_specs=enc1,
                    head_specs=head1, n_classes=3)
        r2 = tr.fit(train, val, toy_fit_config(epoch_total=3), encoder_specs=enc2,
                    head_specs=head2, n_classes=3)
        assert r1.history_csv() == r2.history_csv()
        for (n1, a1), (n2, a2) in zip(net.iter_tensors(r1.params, False),
                                      net.iter_tensors(r2.params, False)):
            assert a1.tobytes() == a2.tobytes(), n1

    def test_each_step_is_let_go(self, rng, monkeypatch):
        # a step's trace is dead before Adam runs, its gradients before
        # the next backward, and neither lives on into validation
        train, val = self.build_sets(rng)
        enc, head = self.toy_specs()
        traces, grad_sets, entered = [], [], []
        real_backward, real_adam = net.backward, tr.adam_step
        real_evaluate = tr.evaluate_blocks

        class Grads(dict):
            """A gradient dict that takes weak references."""

        def backward(trace, labels, params):
            entered.append(("backward", [r() is None for r in grad_sets]))
            traces.append(weakref.ref(trace))
            grads = Grads(real_backward(trace, labels, params))
            grad_sets.append(weakref.ref(grads))
            return grads

        def adam_step(params, grads, state, lr):
            entered.append(("adam", [r() is None for r in traces]))
            return real_adam(params, grads, state, lr)

        def evaluate_blocks(blocks, params):
            entered.append(("validation",
                            [r() is None for r in traces + grad_sets]))
            return real_evaluate(blocks, params)

        monkeypatch.setattr(net, "backward", backward)
        monkeypatch.setattr(tr, "adam_step", adam_step)
        monkeypatch.setattr(tr, "evaluate_blocks", evaluate_blocks)
        result = tr.fit(train, val, toy_fit_config(epoch_total=2),
                        encoder_specs=enc, head_specs=head, n_classes=3)
        # 8 blocks in batches of 4: two steps and a validation per epoch
        assert [what for what, _ in entered] == (
            ["backward", "adam"] * 2 + ["validation"]) * 2
        assert all(all(dead) for _, dead in entered)
        assert result.step_rows_max == 4 * 16

    @pytest.mark.parametrize("fault", ["gradient", "loss"])
    def test_non_finite_step_returns_last_good_snapshot(self, rng, monkeypatch,
                                                        fault):
        train, val = self.build_sets(rng)
        enc, head = self.toy_specs()
        steps = []
        real_backward, real_loss = net.backward, net.cross_entropy

        def backward(trace, labels, params):
            steps.append(None)
            grads = real_backward(trace, labels, params)
            if fault == "gradient" and len(steps) == 5:
                grads["enc0.W"][0, 0] = np.nan
            return grads

        def loss(q, labels):
            value = real_loss(q, labels)
            return np.nan if fault == "loss" and len(steps) == 5 else value

        monkeypatch.setattr(net, "backward", backward)
        monkeypatch.setattr(net, "cross_entropy", loss)
        # 8 blocks in batches of 4: the fifth step opens the third epoch
        result = tr.fit(train, val, toy_fit_config(epoch_total=5),
                        encoder_specs=enc, head_specs=head, n_classes=3)
        assert result.diverged
        assert len(steps) == 5 and len(result.history) == 2
        assert len(result.epoch_seconds) == 2   # the aborted epoch is not timed
        losses = [h.val_loss for h in result.history]
        assert losses[result.best_epoch] == min(losses)
        monkeypatch.undo()
        got, _ = tr.evaluate_blocks(val, result.params)
        assert got == pytest.approx(min(losses))

    def test_nan_pre_activation_flags_divergence(self, rng, monkeypatch):
        # a ReLU layer without batch norm: gating mapped the NaN column to
        # 0 and training went on; now the NaN reaches the loss
        train, val = self.build_sets(rng)
        enc, head = [[net.LayerSpec(s.in_width, s.out_width, has_bn=False,
                                    has_relu=s.has_relu) for s in specs]
                     for specs in self.toy_specs()]
        params = net.init_params(enc, head, np.random.default_rng(0))
        params.encoder[0].W[0, 0] = np.nan
        monkeypatch.setattr(net, "init_params", lambda *args: params)
        result = tr.fit(train, val, toy_fit_config(epoch_total=2),
                        encoder_specs=enc, head_specs=head, n_classes=3)
        assert result.diverged
        assert result.history == [] and result.best_epoch == -1

    def test_nan_pooled_column_flags_divergence(self, rng, monkeypatch):
        # a NaN beta on the pooled layer: one NaN column in every block,
        # whose pool winner falls back to argmax's first NaN row
        train, val = self.build_sets(rng)
        enc, head = self.toy_specs()
        params = net.init_params(enc, head, np.random.default_rng(0))
        params.encoder[-1].beta[0] = np.nan
        x = np.concatenate([b.features for b in train[:2]])
        trace = net.forward(x, copy.deepcopy(params), "train",
                            segments=(16, 16))
        assert np.isnan(trace.g_segments[:, 0]).all()
        assert np.isfinite(trace.g_segments[:, 1:]).all()
        assert trace.argmax_segments[:, 0].tolist() == [0, 16]
        monkeypatch.setattr(net, "init_params", lambda *args: params)
        result = tr.fit(train, val, toy_fit_config(epoch_total=2),
                        encoder_specs=enc, head_specs=head, n_classes=3)
        assert result.diverged
        assert result.history == [] and result.best_epoch == -1

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            tr.fit([], [], toy_fit_config())

    def test_evaluate_needs_a_block(self):
        # an empty set divided 0 by 0 points
        enc, head = self.toy_specs()
        params = net.init_params(enc, head, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one block"):
            tr.evaluate_blocks([], params)


class TestValidationPanels:
    """evaluate_blocks runs each block's eval panels two at a time, on the
    calling thread and the helper; its figures are a one-thread walk's."""

    @pytest.mark.parametrize("panel", [4, 7, 64])
    def test_matches_a_per_block_one_thread_reference(self, rng, panel,
                                                      monkeypatch):
        # 1-row to 5-panel blocks, in odd and even panel counts
        enc, head = TestFit().toy_specs()
        params = net.init_params(enc, head, np.random.default_rng(2))
        blocks = [make_block(i % 3, rng, n=n)
                  for i, n in enumerate((1, 3, 16, 29, 5 * 7, 64, 70))]
        monkeypatch.setattr(net, "EXACT_PANEL_ROWS", panel)
        prepared = net.eval_weights(params)
        nll, correct, count = 0.0, 0, 0
        for b in blocks:
            q = net.forward(b.features, prepared, "eval").q
            nll += net.cross_entropy(q, b.labels) * len(q)
            correct += int((q.argmax(axis=1) == b.labels).sum())
            count += len(q)
        assert tr.evaluate_blocks(blocks, params) == (nll / count,
                                                      correct / count)

    def test_repeated_fits_start_at_most_one_thread(self, rng):
        train, val = TestFit().build_sets(rng)
        enc, head = TestFit().toy_specs()
        before = threading.active_count()
        for _ in range(3):
            tr.fit(train, val, toy_fit_config(epoch_total=2),
                   encoder_specs=enc, head_specs=head, n_classes=3)
        assert threading.active_count() <= before + 1
