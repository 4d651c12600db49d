"""Optimization loop: stratified block-level validation split, class
balancing by repetition, Adam with a linearly decaying learning rate,
per-epoch validation with best-checkpoint tracking and early stopping.

A batch is a fixed number of blocks run through the network as one
segmented forward/backward pass: normalization statistics cover every
point in the batch (pooling stays per block), the loss is the mean
cross-entropy over the batch's points, and blocks are assembled in a
fixed order, so training is deterministic for a given seed.
"""

import copy
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import network

log = logging.getLogger(__name__)

# Adam's published defaults (Kingma & Ba, arXiv 1412.6980)
ADAM_BETA1 = 0.9            # first-moment decay ("momentum")
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_PIECE = 1 << 16        # elements per piece of an Adam update


@dataclass
class TrainConfig:
    """Settings of fit, each checked; Adam's are the ADAM_* constants."""

    lr_initial: float = 0.001
    batch_size: int = 32        # blocks per optimizer step
    epoch_total: int = 30
    patience: int = 3           # non-improving epochs before stopping
    val_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epoch_total < 1:
            raise ValueError(f"epoch_total must be >= 1, got {self.epoch_total}")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"val_fraction must be in (0,1), got {self.val_fraction}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0 < self.lr_initial < math.inf:
            raise ValueError(f"lr_initial must be a finite number > 0, "
                             f"got {self.lr_initial}")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)   # first moments, by tensor name
    v: dict = field(default_factory=dict)   # second moments
    t: int = 0

    @classmethod
    def for_params(cls, params):
        state = cls()
        for name, arr in network.iter_tensors(params):
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        return state


def lr_at(epoch_current, config):
    """Linear decay: lr_initial * (1 - epoch_current / epoch_total)."""
    if not 0 <= epoch_current < config.epoch_total:
        raise ValueError(f"epoch {epoch_current} outside 0..{config.epoch_total - 1}")
    return config.lr_initial * (1.0 - epoch_current / config.epoch_total)


class NonFiniteGradientError(ValueError):
    """A gradient tensor holds a NaN or infinity; the step was not taken."""


def adam_step(params, grads, state, lr):
    """One Adam update, in place on params, with ADAM_BETA1, ADAM_BETA2
    and ADAM_EPS.

    Rejects the whole step (no tensor touched) with
    NonFiniteGradientError if any gradient is non-finite, naming the
    first such tensor.

    Every tensor is cut along its first axis into pieces of about
    ADAM_PIECE elements, and the first half of the pieces (by elements)
    is updated on this thread while the network's helper thread updates
    the rest; each thread's intermediates go into two buffers of its
    own, so no piece allocates. Every element's update is its own, so
    the bits do not depend on the pieces or the threads.
    """
    bad = next((name for name, g in grads.items()
                if not np.all(np.isfinite(g))), None)
    if bad is not None:
        raise NonFiniteGradientError(f"non-finite gradient for tensor {bad}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    pieces = []
    for name, arr in network.iter_tensors(params):
        tensors = (arr, grads[name], state.m[name], state.v[name])
        rows = max(1, ADAM_PIECE * len(arr) // arr.size)
        for r in range(0, len(arr), rows):
            pieces.append([t[r:r + rows] for t in tensors])

    def update(share):
        buffers = np.empty((2, max(p[0].size for p in share)),
                           dtype=share[0][0].dtype)
        for arr, g, m, v in share:
            tmp, tmp2 = (b[:arr.size].reshape(arr.shape) for b in buffers)
            # m += (1 - b1)(g - m); v += (1 - b2)(g*g - v);
            # arr -= (lr/c1) m / (sqrt(v/c2) + eps): each operation in that
            # order, rounded as written, with tmp and tmp2 holding the
            # intermediates
            np.subtract(g, m, out=tmp)
            tmp *= 1.0 - ADAM_BETA1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp -= v
            tmp *= 1.0 - ADAM_BETA2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            np.multiply(lr / c1, m, out=tmp2)
            np.divide(tmp2, tmp, out=tmp)
            arr -= tmp

    sizes = np.cumsum([p[0].size for p in pieces])
    cut = int(np.searchsorted(sizes, sizes[-1] / 2)) + 1
    network._beside(lambda: update(pieces[cut:]), lambda: update(pieces[:cut]))
    return params, state


# ---------------------------------------------------------------------------
# block-set preparation

def stratified_split(blocks, val_fraction, seed):
    """Split blocks into (train, val) preserving dominant-class strata.

    Per stratum, ceil(val_fraction * count) blocks go to validation;
    single-block strata stay in training with a warning. Input order is
    preserved inside each output list.
    """
    classes = [b.dominant_class() for b in blocks]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5B17)))
    val_idx = set()
    for cls in sorted(set(classes)):
        members = [i for i, c in enumerate(classes) if c == cls]
        if len(members) == 1:
            log.warning("stratum %d has a single block; keeping it in training", cls)
            continue
        k = math.ceil(val_fraction * len(members))
        picks = rng.permutation(len(members))[:k]
        val_idx.update(members[p] for p in picks)
    train = [b for i, b in enumerate(blocks) if i not in val_idx]
    val = [b for i, b in enumerate(blocks) if i in val_idx]
    if not train or not val:
        raise ValueError(f"degenerate split: {len(train)} train / {len(val)} val")
    return train, val


def balance_classes(blocks):
    """Repeat blocks of under-represented dominant classes (round-robin
    over that class's originals) until every class matches the largest."""
    if not blocks:
        return []
    by_class = {}
    for b in blocks:
        by_class.setdefault(b.dominant_class(), []).append(b)
    target = max(len(v) for v in by_class.values())
    out = list(blocks)
    for cls in sorted(by_class):
        members = by_class[cls]
        for i in range(target - len(members)):
            out.append(members[i % len(members)])
    return out


# ---------------------------------------------------------------------------
# the loop

@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class FitResult:
    params: "network.NetworkParams"   # best-validation-loss weights
    history: list
    best_epoch: int
    diverged: bool = False
    epoch_seconds: list = field(default_factory=list)  # per completed epoch
    validation_seconds: float = 0.0     # spent in evaluate_blocks, all epochs
    step_rows_max: int = 0              # most rows one optimizer step forwarded

    def history_csv(self):
        lines = ["epoch,lr,train_loss,train_acc,val_loss,val_acc"]
        for h in self.history:
            lines.append(f"{h.epoch},{h.lr:.10g},{h.train_loss:.8f},"
                         f"{h.train_acc:.6f},{h.val_loss:.8f},{h.val_acc:.6f}")
        return "\n".join(lines) + "\n"


def evaluate_blocks(blocks, params):
    """Point-weighted mean loss and accuracy over labeled blocks (eval
    mode), on weights prepared once per call (network.eval_weights: a
    folded, widened copy; params are left as they are). Each block's
    forward runs its row panels two at a time, on this thread and the
    network's helper thread; the figures are bitwise a one-thread walk's,
    summed block by block in order. Needs at least one block."""
    if not blocks:
        raise ValueError("evaluate_blocks needs at least one block")
    params = network.eval_weights(params)
    total_nll = 0.0
    correct = 0
    count = 0
    for block in blocks:
        q = network.forward(block.features, params, "eval", helper=True).q
        total_nll += network.cross_entropy(q, block.labels) * len(q)
        correct += int((q.argmax(axis=1) == block.labels).sum())
        count += len(q)
    return total_nll / count, correct / count


def fit(train_blocks, val_blocks, config, encoder_specs=None,
        head_specs=None, n_classes=9):
    """Train until epoch_total or until validation loss stalls.

    The network reads every feature column of the blocks; to train on a
    subset, select its columns in the blocks first. Without both spec
    lists, the default architecture is built for that width and
    n_classes; the weights are initialized from the config's seed.

    Every epoch shuffles the training blocks into batches of batch_size,
    forwards each batch as one call, takes the gradient of the mean
    cross-entropy over the batch's points, applies one Adam step per
    batch at that epoch's learning rate, then scores the validation set.
    Weights are snapshotted whenever the validation loss improves; after
    `patience` non-improving epochs training stops and the best snapshot
    is returned. A non-finite training loss or gradient aborts before the
    offending step with the last good snapshot flagged as diverged. The
    result records each completed epoch's wall seconds, validation
    included, the seconds spent scoring validation and the most rows one
    step forwarded. A step's trace is let go once its loss and accuracy
    are read, so Adam, validation and the next forward run without it,
    and its gradients before the next backward and before validation.
    """
    if not train_blocks or not val_blocks:
        raise ValueError("need non-empty train and validation block sets")
    ss = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    if encoder_specs is None or head_specs is None:
        encoder_specs, head_specs = network.default_architecture(
            train_blocks[0].features.shape[1], n_classes)
    params = network.init_params(encoder_specs, head_specs, init_rng)
    state = AdamState.for_params(params)

    best = copy.deepcopy(params)
    best_loss = np.inf
    best_epoch = -1
    bad_epochs = 0
    history = []
    epoch_seconds = []
    validation_seconds = 0.0
    step_rows_max = 0

    for epoch in range(config.epoch_total):
        t0 = time.perf_counter()
        lr = lr_at(epoch, config)
        order = shuffle_rng.permutation(len(train_blocks))
        nll_sum = 0.0
        correct = 0
        seen = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            xs = [train_blocks[bi].features for bi in batch]
            bx = np.concatenate(xs, axis=0)
            by = np.concatenate([train_blocks[bi].labels for bi in batch], axis=0)
            trace = network.forward(bx, params, "train",
                                    segments=[len(x) for x in xs])
            # the previous step's gradients go only now, with the new trace
            # above them: freed right after Adam, next to the freed trace,
            # they let malloc give the heap's top back to the system, to
            # be faulted in again on every small step
            grads = None
            grads = network.backward(trace, by, params)
            nll_sum += network.cross_entropy(trace.q, by) * len(bx)
            correct += int((trace.q.argmax(axis=1) == by).sum())
            del trace   # as large as the step's layers
            seen += len(bx)
            step_rows_max = max(step_rows_max, len(bx))
            diverged = not math.isfinite(nll_sum)
            if not diverged:
                try:
                    adam_step(params, grads, state, lr)
                except NonFiniteGradientError:
                    diverged = True
            if diverged:
                log.error("training diverged (non-finite loss or gradient) "
                          "at epoch %d; keeping last good checkpoint", epoch)
                return FitResult(best, history, best_epoch, diverged=True,
                                 epoch_seconds=epoch_seconds,
                                 validation_seconds=validation_seconds,
                                 step_rows_max=step_rows_max)
        grads = None   # not kept through validation
        train_loss = nll_sum / seen
        train_acc = correct / seen
        t_val = time.perf_counter()
        val_loss, val_acc = evaluate_blocks(val_blocks, params)
        validation_seconds += time.perf_counter() - t_val
        history.append(EpochStats(epoch, lr, train_loss, train_acc,
                                  val_loss, val_acc))
        epoch_seconds.append(time.perf_counter() - t0)
        if val_loss < best_loss:
            best_loss = val_loss
            best = copy.deepcopy(params)
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                log.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                break
    return FitResult(best, history, best_epoch, epoch_seconds=epoch_seconds,
                     validation_seconds=validation_seconds,
                     step_rows_max=step_rows_max)
