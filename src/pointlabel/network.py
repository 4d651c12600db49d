"""1D fully-convolutional point network: shared per-point linear layers
with batch normalization and ReLU, a global max-pool over the points, a
small classifier head on each point's local feature and its block's
global feature, softmax and cross-entropy. Forward and backward are both
implemented here by hand.

The first head layer reads the concatenation `[local_i, g]` of a point's
local feature and its block's pooled feature, but that (N, local + G)
array is never built: with W split into W_l and W_g, its pre-activation
is `local_i·W_l + (g·W_g + b)`, and the global term is computed once per
block (PointNet's segmentation head, Qi et al., arXiv 1612.00593). For
inference, `fold_batch_norm` turns every eval-mode batch norm into its
layer's W and b, so a loaded model runs matmul, bias, ReLU and max-pool
only.

Shapes follow the per-block convention: the "batch" dimension of every
layer is the N points of one block, so batch normalization standardizes
over points. All math runs in the dtype of the inputs/parameters
(float32 in production, float64 for gradient checking); reductions
accumulate in float64 either way. Matrix products of float32 tensors are
float32 BLAS products in the train-mode forward and in backward, where a
run only has to repeat itself; eval-mode forwards use matmul's exact
product, so a row's output does not depend on which rows share its
forward (see the README's notes on numerics).

Batch norm, ReLU and their backward write into arrays the step itself
made, never into the caller's inputs or weights nor into trace fields
that backward reads. Each elementwise operation, its operand order and
every float64 reduction are those of the out-of-place formulas, so the
results are bitwise theirs. The train-mode pool finds each column's
winning row by comparing row panels with the column max: the first hit
is argmax's, and a column holding a NaN falls back to argmax, which
returns its first NaN.
"""

from dataclasses import dataclass

import numpy as np

from . import container as _container
from .linalg import ShapeError, matmul

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LOG_CLAMP = 1e-12
POOL_PANEL = 64           # rows per equality scan for the pool's winners
LOCAL_LAYER = 1           # encoder layer whose output is head0's local input
DEFAULT_ENCODER_WIDTHS = (64, 64, 128, 512, 2048)
DEFAULT_HEAD_WIDTHS = (256, 128)


@dataclass
class LayerSpec:
    in_width: int
    out_width: int
    has_bn: bool = True
    has_relu: bool = True

    def __post_init__(self):
        if self.in_width < 1 or self.out_width < 1:
            raise ValueError(f"layer widths must be >= 1, got "
                             f"{self.in_width}x{self.out_width}")


@dataclass
class LayerParams:
    W: np.ndarray                       # (in, out)
    b: np.ndarray                       # (out,)
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None


@dataclass
class NetworkParams:
    encoder: list
    head: list
    encoder_specs: list
    head_specs: list

    def layers(self):
        return list(zip(self.encoder_specs + self.head_specs,
                        self.encoder + self.head))


def default_architecture(in_width=9, n_classes=9,
                         encoder_widths=DEFAULT_ENCODER_WIDTHS,
                         head_widths=DEFAULT_HEAD_WIDTHS):
    """Layer chains for the two stages.

    The encoder ends in the pooled (global) width; the first head layer
    takes each point's local feature (encoder layer LOCAL_LAYER) together
    with its block's global feature, so its in_width is their sum, and
    the head ends in a linear classifier layer (no BN/ReLU in front of
    the softmax).
    """
    if len(encoder_widths) < 2:
        raise ValueError("encoder needs at least 2 layers")
    enc = []
    w = in_width
    for out in encoder_widths:
        enc.append(LayerSpec(w, out))
        w = out
    concat_width = encoder_widths[LOCAL_LAYER] + encoder_widths[-1]
    head = []
    w = concat_width
    for out in head_widths:
        head.append(LayerSpec(w, out))
        w = out
    head.append(LayerSpec(w, n_classes, has_bn=False, has_relu=False))
    return enc, head


# ---------------------------------------------------------------------------
# initialization

def init_layer(spec, rng):
    """float32 Glorot-uniform weights, zero bias; BN starts at identity
    with unit running variance. params_astype gives other dtypes."""
    n = spec.out_width
    a = np.sqrt(6.0 / (spec.in_width + n))
    W = rng.uniform(-a, a, size=(spec.in_width, n)).astype(np.float32)
    b = np.zeros(n, dtype=np.float32)
    if not spec.has_bn:
        return LayerParams(W, b)
    return LayerParams(W, b, gamma=np.ones(n, np.float32),
                       beta=np.zeros(n, np.float32),
                       running_mean=np.zeros(n, np.float32),
                       running_var=np.ones(n, np.float32))


def init_params(encoder_specs, head_specs, rng):
    _check_chain(encoder_specs, head_specs)
    return NetworkParams(
        encoder=[init_layer(s, rng) for s in encoder_specs],
        head=[init_layer(s, rng) for s in head_specs],
        encoder_specs=list(encoder_specs),
        head_specs=list(head_specs),
    )


def _check_chain(encoder_specs, head_specs):
    for prev, cur in zip(encoder_specs, encoder_specs[1:]):
        if prev.out_width != cur.in_width:
            raise ShapeError(f"encoder chain break: {prev.out_width} -> {cur.in_width}")
    for prev, cur in zip(head_specs, head_specs[1:]):
        if prev.out_width != cur.in_width:
            raise ShapeError(f"head chain break: {prev.out_width} -> {cur.in_width}")
    concat = encoder_specs[LOCAL_LAYER].out_width + encoder_specs[-1].out_width
    if head_specs[0].in_width != concat:
        raise ShapeError(f"head expects {head_specs[0].in_width} inputs, "
                         f"concat provides {concat}")


# ---------------------------------------------------------------------------
# single shared-weight layer

@dataclass
class LayerTrace:
    f_in: np.ndarray                 # per-row input (the local part if g is set)
    s: np.ndarray                    # pre-BN pre-activation
    s_hat: np.ndarray | None         # normalized, pre gamma/beta
    inv_std: np.ndarray | None
    mask: np.ndarray | None          # ReLU gate (pre-activation > 0); train
                                     # mode only
    f_out: np.ndarray
    g: np.ndarray | None = None      # (S, G) per-block input, read by every row
    segments: tuple | None = None    # rows per block when g is set


def _colstat(x, stat):
    return stat(x, axis=0, dtype=np.float64).astype(x.dtype)


def _offsets(segments):
    """First row of each block."""
    return np.concatenate([[0], np.cumsum(segments)[:-1]]).astype(np.intp)


def _pool_winners(block, top):
    """`block.argmax(axis=0)` given `top = block.max(axis=0)`: each
    column's first row equal to its max, found by comparing POOL_PANEL-row
    panels with top (argmax along the strided axis does not vectorize).
    ±0 compare equal, so a tie of zeros goes to the first of them, as in
    argmax. A column holding a NaN has a NaN max, which equals no row;
    argmax gives those columns their first NaN row."""
    winners = np.empty(top.shape, dtype=np.intp)
    open_cols = np.ones(top.shape, dtype=bool)
    for p in range(0, len(block), POOL_PANEL):
        hit = block[p:p + POOL_PANEL] == top
        found = np.flatnonzero(open_cols & hit.any(axis=0))
        winners[found] = hit[:, found].argmax(axis=0) + p
        open_cols[found] = False
        if not open_cols.any():
            return winners
    nan_cols = np.flatnonzero(open_cols)
    winners[nan_cols] = block[:, nan_cols].argmax(axis=0)
    return winners


def pointwise_forward(f_in, spec, params, mode, g=None, segments=None):
    """Shared linear map over the rows, then BN and ReLU as configured.

    With `g` (S, G), row i's input is `[f_in_i, g_s]`, g_s being the row
    of its block (`segments` lists the rows per block): the first rows of
    W act on f_in and the last G on g, whose term g·W_g + b is computed
    once per block and repeated over that block's rows.

    Train mode normalizes with the batch statistics of the N input rows
    (biased variance, eps under the square root) and advances the running
    statistics in place at momentum BN_MOMENTUM; eval mode uses the
    stored running statistics.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    f_in = np.asarray(f_in)
    local_w = spec.in_width - (0 if g is None else g.shape[1])
    if f_in.ndim != 2 or f_in.shape[1] != local_w:
        raise ShapeError(f"layer expects (N,{local_w}), got {f_in.shape}")
    exact = mode == "eval"
    # the (N, out) arrays below come fresh from matmul or are made here,
    # so elementwise steps write into them; nothing is written into f_in,
    # g or params, and s, s_hat and mask stay as the trace records them
    if g is None:
        s = matmul(f_in, params.W, exact=exact) + params.b
    else:
        if (segments is None or len(segments) != len(g)
                or sum(segments) != len(f_in)):
            raise ShapeError(f"segments {segments} do not match {len(g)} "
                             f"global rows and {len(f_in)} local rows")
        s = matmul(f_in, params.W[:local_w], exact=exact)
        s += np.repeat(matmul(g, params.W[local_w:], exact=exact) + params.b,
                       segments, axis=0)
    s_hat = inv_std = None
    if spec.has_bn:
        if mode == "train":
            if len(s) < 2:
                raise ValueError("batch norm in train mode needs N >= 2 points")
            mu = _colstat(s, np.mean)
            s_hat = s - mu                  # deviations, scaled below
            z = np.multiply(s_hat, s_hat)   # squares, then gamma·s_hat
            var = _colstat(z, np.mean)
            inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=s.dtype))
            s_hat *= inv_std
            m = params.running_mean.dtype.type(BN_MOMENTUM)
            params.running_mean += m * (mu.astype(params.running_mean.dtype)
                                        - params.running_mean)
            params.running_var += m * (var.astype(params.running_var.dtype)
                                       - params.running_var)
            np.multiply(params.gamma, s_hat, out=z)
        else:
            inv_std = 1.0 / np.sqrt(params.running_var.astype(s.dtype)
                                    + np.asarray(BN_EPS, dtype=s.dtype))
            s_hat = s - params.running_mean.astype(s.dtype)
            s_hat *= inv_std
            z = params.gamma * s_hat
        z += params.beta
    else:
        z = s
    mask = None
    if spec.has_relu:
        # only backward reads the gate; a NaN pre-activation stays NaN.
        # Without batch norm z is s, which the trace keeps.
        if mode == "train":
            mask = z > 0
        f_out = np.maximum(z, np.asarray(0, dtype=z.dtype),
                           out=z if spec.has_bn else None)
    else:
        f_out = z
    return f_out, LayerTrace(f_in, s, s_hat, inv_std, mask, f_out, g, segments)


def pointwise_backward(d_out, spec, params, trace):
    """Analytic gradients of one layer; returns (d_in, {name: grad}).

    For a layer with a per-block input g, d_in is the pair (gradient into
    f_in, gradient into g); both, and W's g rows, come from the
    per-block sums of the pre-activation gradient.
    """
    d = d_out
    if spec.has_relu:
        d = d * trace.mask
    grads = {}
    if spec.has_bn:
        s_hat = trace.s_hat
        tmp = d * s_hat
        grads["gamma"] = _colstat(tmp, np.sum)
        grads["beta"] = _colstat(d, np.sum)
        # d_out is the caller's; the gated d is ours to overwrite
        ds_hat = np.multiply(d, params.gamma, out=d if spec.has_relu else None)
        # biased-variance batch-statistics chain rule, evaluated as
        # inv_std * ((ds_hat - mean(ds_hat)) - s_hat * mean(ds_hat * s_hat))
        mean_ds = _colstat(ds_hat, np.mean)
        mean_ds_s = _colstat(np.multiply(ds_hat, s_hat, out=tmp), np.mean)
        ds_hat -= mean_ds
        ds_hat -= np.multiply(s_hat, mean_ds_s, out=tmp)
        d = np.multiply(trace.inv_std, ds_hat, out=ds_hat)
    grads["b"] = _colstat(d, np.sum)
    if trace.g is None:
        grads["W"] = matmul(trace.f_in.T, d, exact=False)
        return matmul(d, params.W.T, exact=False), grads
    local_w = trace.f_in.shape[1]
    d_seg = np.add.reduceat(d.astype(np.float64), _offsets(trace.segments),
                            axis=0).astype(d.dtype)
    grads["W"] = np.vstack([matmul(trace.f_in.T, d, exact=False),
                            matmul(trace.g.T, d_seg, exact=False)])
    return (matmul(d, params.W[:local_w].T, exact=False),
            matmul(d_seg, params.W[local_w:].T, exact=False)), grads


# ---------------------------------------------------------------------------
# classifier math

def softmax_rows(logits):
    """Row-wise softmax with max-subtraction, so huge logits cannot
    overflow."""
    logits = np.asarray(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(q, labels):
    """Mean over rows of -ln q[i, label_i]; q is clamped below at 1e-12."""
    q = np.asarray(q)
    labels = np.asarray(labels).reshape(-1)
    if len(labels) != len(q):
        raise ShapeError(f"{len(labels)} labels for {len(q)} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= q.shape[1]):
        raise ValueError(f"label out of range for {q.shape[1]} classes")
    picked = q[np.arange(len(q)), labels]
    return float(-np.log(np.maximum(picked, LOG_CLAMP)).mean(dtype=np.float64))


# ---------------------------------------------------------------------------
# whole-network forward / backward

@dataclass
class ForwardTrace:
    mode: str
    encoder_traces: list
    head_traces: list
    segments: tuple               # rows per block in this forward
    g_segments: np.ndarray        # (S, G) pooled feature per block
    argmax_segments: np.ndarray | None  # (S, G) winning absolute row per
                                        # column; None in eval mode
    logits: np.ndarray
    q: np.ndarray                 # (N, C) class probabilities

    @property
    def pooled_input(self):
        return self.encoder_traces[-1].f_out


def _check_segments(segments, n):
    if segments is None:
        return (n,)
    segments = tuple(int(s) for s in segments)
    if any(s < 1 for s in segments) or sum(segments) != n:
        raise ValueError(f"segments {segments} do not partition {n} rows")
    return segments


def forward(x, params, mode="eval", segments=None):
    """Run points through both stages; returns the full trace.

    `segments` lists the per-block row counts when several blocks are
    stacked into one call: batch statistics then cover all rows (the
    whole mini-batch) while pooling and the global term of the first head
    layer stay per block. The default is one block. Only train mode
    records the pool's winning rows, which backward routes through; eval
    mode takes the max alone. Output probabilities have
    one row per input row for any N >= 1 (train mode needs N >= 2 for the
    batch statistics), and permuting a block's input rows permutes its
    output rows identically.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"input must be (N,M), got {x.shape}")
    if x.shape[1] != params.encoder_specs[0].in_width:
        raise ShapeError(f"input width {x.shape[1]}, network expects "
                         f"{params.encoder_specs[0].in_width}")
    if len(x) == 0:
        raise ValueError("empty point set")
    segments = _check_segments(segments, len(x))
    enc_traces = []
    f = x
    for spec, lp in zip(params.encoder_specs, params.encoder):
        f, tr = pointwise_forward(f, spec, lp, mode)
        enc_traces.append(tr)
    offsets = _offsets(segments)
    g_seg = np.empty((len(segments), f.shape[1]), dtype=f.dtype)
    am_seg = np.empty(g_seg.shape, dtype=np.int64) if mode == "train" else None
    for s, (start, rows) in enumerate(zip(offsets, segments)):
        block = f[start:start + rows]
        block.max(axis=0, out=g_seg[s])
        if am_seg is not None:
            am_seg[s] = _pool_winners(block, g_seg[s]) + start
    f, tr = pointwise_forward(enc_traces[LOCAL_LAYER].f_out, params.head_specs[0],
                              params.head[0], mode, g=g_seg, segments=segments)
    head_traces = [tr]
    for spec, lp in zip(params.head_specs[1:], params.head[1:]):
        f, tr = pointwise_forward(f, spec, lp, mode)
        head_traces.append(tr)
    q = softmax_rows(f)
    return ForwardTrace(mode, enc_traces, head_traces, segments, g_seg,
                        am_seg, f, q)


def backward(trace, labels, params):
    """Gradients of the mean cross-entropy for every learnable tensor.

    Softmax and cross-entropy are fused ((q - p)/N at the logits); each
    block's max-pool routes gradient only to its columns' winning rows;
    ReLU gates by the sign of its pre-activation. Returns {tensor name:
    grad} in checkpoint tensor order.
    """
    if trace.mode != "train":
        raise ValueError("backward needs a train-mode trace")
    labels = np.asarray(labels).reshape(-1)
    q = trace.q
    n = len(q)
    if len(labels) != n:
        raise ShapeError(f"{len(labels)} labels for {n} rows")
    if labels.min() < 0 or labels.max() >= q.shape[1]:
        raise ValueError(f"label out of range for {q.shape[1]} classes")
    d = q.copy()
    d[np.arange(n), labels] -= 1
    d /= n

    grads = {}
    for i in reversed(range(len(params.head))):
        d, g = pointwise_backward(d, params.head_specs[i], params.head[i],
                                  trace.head_traces[i])
        for k, v in g.items():
            grads[f"head{i}.{k}"] = v
    d_local, dg_seg = d
    f5 = trace.pooled_input
    d = np.zeros_like(f5)
    cols = np.arange(f5.shape[1])
    for s in range(len(trace.segments)):
        d[trace.argmax_segments[s], cols] += dg_seg[s]
    for i in reversed(range(len(params.encoder))):
        if i == LOCAL_LAYER:
            d += d_local
        d, g = pointwise_backward(d, params.encoder_specs[i], params.encoder[i],
                                  trace.encoder_traces[i])
        for k, v in g.items():
            grads[f"enc{i}.{k}"] = v
    # present gradients in the same order as iter_tensors
    return {name: grads[name] for name, _ in iter_tensors(params)}


# ---------------------------------------------------------------------------
# parameter bookkeeping

def iter_tensors(params, learnable_only=True):
    """(name, array) pairs in a stable order shared by checkpoints,
    gradients and optimizer state."""
    for prefix, specs, layers in (("enc", params.encoder_specs, params.encoder),
                                  ("head", params.head_specs, params.head)):
        for i, (spec, lp) in enumerate(zip(specs, layers)):
            yield f"{prefix}{i}.W", lp.W
            yield f"{prefix}{i}.b", lp.b
            if spec.has_bn:
                yield f"{prefix}{i}.gamma", lp.gamma
                yield f"{prefix}{i}.beta", lp.beta
                if not learnable_only:
                    yield f"{prefix}{i}.running_mean", lp.running_mean
                    yield f"{prefix}{i}.running_var", lp.running_var


def param_count(params):
    """Learnable scalars (weights, biases, BN scale/shift)."""
    return sum(int(a.size) for _, a in iter_tensors(params, learnable_only=True))


def params_astype(params, dtype):
    """Deep copy with every tensor cast (float64 shadow for grad checks)."""
    out = NetworkParams([], [], list(params.encoder_specs),
                        list(params.head_specs))
    for chain_in, chain_out in ((params.encoder, out.encoder),
                                (params.head, out.head)):
        for lp in chain_in:
            chain_out.append(LayerParams(*[
                None if t is None else t.astype(dtype)
                for t in (lp.W, lp.b, lp.gamma, lp.beta,
                          lp.running_mean, lp.running_var)]))
    return out


def copy_params(params):
    return params_astype(params, params.encoder[0].W.dtype)


def fold_batch_norm(params):
    """Fold every batch norm's eval-mode affine map into its layer's W and
    b, in place; returns params.

    Eval-mode batch norm maps s = x·W + b to gamma·(s - mean)/sqrt(var +
    eps) + beta column by column, so with k = gamma/sqrt(var + eps) the
    layer computes the same from W·diag(k) and (b - mean)·k + beta alone
    (Jacob et al., arXiv 1712.05877, section 3.2). k and the bias are
    formed in float64 and each weight is rounded once to its dtype. Folded
    layers become has_bn=False and keep their ReLU; layers without batch
    norm are left as they are, so a second fold changes nothing. The
    result is for eval-mode forwards only: train mode would not normalize,
    and save_checkpoint refuses it.
    """
    for specs, layers in ((params.encoder_specs, params.encoder),
                          (params.head_specs, params.head)):
        for i, (spec, lp) in enumerate(zip(specs, layers)):
            if not spec.has_bn:
                continue
            k = lp.gamma / np.sqrt(lp.running_var.astype(np.float64) + BN_EPS)
            np.multiply(lp.W, k, out=lp.W, casting="unsafe")
            lp.b = ((lp.b - lp.running_mean.astype(np.float64)) * k
                    + lp.beta).astype(lp.b.dtype)
            lp.gamma = lp.beta = lp.running_mean = lp.running_var = None
            specs[i] = LayerSpec(spec.in_width, spec.out_width, has_bn=False,
                                 has_relu=spec.has_relu)
    return params


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(path, params):
    if any(spec.has_relu != spec.has_bn for spec, _ in params.layers()):
        # load_checkpoint infers every layer's ReLU from its batch norm
        raise ValueError("cannot checkpoint a layer whose ReLU does not "
                         "follow a batch norm (batch norm folded?)")
    # meta.momentum keeps the format; load_checkpoint ignores it
    tensors = [("meta.momentum", np.array([[BN_MOMENTUM]], dtype=np.float32))]
    tensors += list(iter_tensors(params, learnable_only=False))
    n_layers = len(params.encoder) + len(params.head)
    return _container.write_container_file(path, n_layers, tensors)


def load_checkpoint(path):
    """Rebuild NetworkParams from a checkpoint.

    Layer specs are inferred: widths from the weight shapes, has_bn from
    the presence of BN tensors, and has_relu == has_bn (every normalized
    layer is ReLU-activated; the final linear layer is neither). A missing
    layer or tensor, or a tensor name that is not <layer>.<tensor>, raises
    ContainerError; `meta.momentum` is ignored.
    """
    n_layers, tensors = _container.read_container_file(path)
    tensors.pop("meta.momentum", None)
    groups = {}
    for name, arr in tensors.items():
        parts = name.split(".")
        if len(parts) != 2 or not all(parts):
            raise _container.ContainerError(
                f"checkpoint tensor {name!r} is not named <layer>.<tensor>")
        layer_name, attr = parts
        groups.setdefault(layer_name, {})[attr] = arr
    if len(groups) != n_layers:
        raise _container.ContainerError(
            f"checkpoint declares {n_layers} layers but holds {len(groups)}")

    def build(prefix):
        specs, layers = [], []
        for i in range(sum(1 for k in groups if k.startswith(prefix)
                           and k[len(prefix):].isdigit())):
            layer = f"{prefix}{i}"
            if layer not in groups:
                raise _container.ContainerError(f"checkpoint lacks layer {layer}")
            t = groups[layer]
            has_bn = "gamma" in t
            names = ("W", "b") + (("gamma", "beta", "running_mean", "running_var")
                                  if has_bn else ())
            missing = [n for n in names if n not in t]
            if missing:
                raise _container.ContainerError(
                    f"checkpoint lacks tensor {layer}.{missing[0]}")
            W = t["W"]
            specs.append(LayerSpec(W.shape[0], W.shape[1], has_bn, has_bn))
            layers.append(LayerParams(W, *[t[n].reshape(-1) for n in names[1:]]))
        return specs, layers

    enc_specs, enc = build("enc")
    head_specs, head = build("head")
    if not enc or not head:
        raise _container.ContainerError("checkpoint is missing layer tensors")
    return NetworkParams(enc, head, enc_specs, head_specs)
