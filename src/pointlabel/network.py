"""1D fully-convolutional point network: shared per-point linear layers
with batch normalization and ReLU, a global max-pool over the points,
local/global feature concatenation, a small classifier head, softmax and
cross-entropy. Forward and backward are both implemented here by hand.

Shapes follow the per-block convention: the "batch" dimension of every
layer is the N points of one block, so batch normalization standardizes
over points. All math runs in the dtype of the inputs/parameters
(float32 in production, float64 for gradient checking); reductions
accumulate in float64 either way.
"""

from dataclasses import dataclass

import numpy as np

from . import container as _container
from .linalg import ShapeError, matmul

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LOG_CLAMP = 1e-12
LOCAL_LAYER = 1           # encoder layer whose output feeds the concat
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
    momentum: float = BN_MOMENTUM

    def layers(self):
        return list(zip(self.encoder_specs + self.head_specs,
                        self.encoder + self.head))


def default_architecture(in_width=9, n_classes=9,
                         encoder_widths=DEFAULT_ENCODER_WIDTHS,
                         head_widths=DEFAULT_HEAD_WIDTHS):
    """Layer chains for the two stages.

    The encoder ends in the pooled (global) width; the head consumes the
    concatenated local+global vector and ends in a linear classifier
    layer (no BN/ReLU in front of the softmax).
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

def init_layer(spec, rng, dtype=np.float32):
    """Glorot-uniform weights, zero bias; BN starts at identity with unit
    running variance."""
    a = np.sqrt(6.0 / (spec.in_width + spec.out_width))
    W = rng.uniform(-a, a, size=(spec.in_width, spec.out_width)).astype(dtype)
    b = np.zeros(spec.out_width, dtype=dtype)
    if not spec.has_bn:
        return LayerParams(W, b)
    return LayerParams(
        W, b,
        gamma=np.ones(spec.out_width, dtype=dtype),
        beta=np.zeros(spec.out_width, dtype=dtype),
        running_mean=np.zeros(spec.out_width, dtype=dtype),
        running_var=np.ones(spec.out_width, dtype=dtype),
    )


def init_params(encoder_specs, head_specs, rng, momentum=BN_MOMENTUM,
                dtype=np.float32):
    _check_chain(encoder_specs, head_specs)
    return NetworkParams(
        encoder=[init_layer(s, rng, dtype) for s in encoder_specs],
        head=[init_layer(s, rng, dtype) for s in head_specs],
        encoder_specs=list(encoder_specs),
        head_specs=list(head_specs),
        momentum=momentum,
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
    f_in: np.ndarray
    s: np.ndarray                    # pre-BN pre-activation
    s_hat: np.ndarray | None         # normalized, pre gamma/beta
    inv_std: np.ndarray | None
    batch_mean: np.ndarray | None
    batch_var: np.ndarray | None
    mask: np.ndarray | None          # ReLU gate (pre-activation > 0)
    f_out: np.ndarray


def _colstat(x, stat):
    return stat(x, axis=0, dtype=np.float64).astype(x.dtype)


def pointwise_forward(f_in, spec, params, mode, momentum=BN_MOMENTUM):
    """Shared linear map over the rows, then BN and ReLU as configured.

    Train mode normalizes with the batch statistics of the N input rows
    (biased variance, eps under the square root) and advances the running
    statistics in place; eval mode uses the stored running statistics.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    f_in = np.asarray(f_in)
    if f_in.ndim != 2 or f_in.shape[1] != spec.in_width:
        raise ShapeError(f"layer expects (N,{spec.in_width}), got {f_in.shape}")
    s = matmul(f_in, params.W) + params.b
    s_hat = inv_std = mu = var = None
    if spec.has_bn:
        if mode == "train":
            if len(s) < 2:
                raise ValueError("batch norm in train mode needs N >= 2 points")
            mu = _colstat(s, np.mean)
            d = s - mu
            var = _colstat(d * d, np.mean)
            inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=s.dtype))
            s_hat = d * inv_std
            m = params.running_mean.dtype.type(momentum)
            params.running_mean += m * (mu.astype(params.running_mean.dtype)
                                        - params.running_mean)
            params.running_var += m * (var.astype(params.running_var.dtype)
                                       - params.running_var)
        else:
            inv_std = 1.0 / np.sqrt(params.running_var.astype(s.dtype)
                                    + np.asarray(BN_EPS, dtype=s.dtype))
            s_hat = (s - params.running_mean.astype(s.dtype)) * inv_std
        z = params.gamma * s_hat + params.beta
    else:
        z = s
    mask = None
    if spec.has_relu:
        mask = z > 0
        f_out = np.where(mask, z, np.asarray(0, dtype=z.dtype))
    else:
        f_out = z
    return f_out, LayerTrace(f_in, s, s_hat, inv_std, mu, var, mask, f_out)


def pointwise_backward(d_out, spec, params, trace):
    """Analytic gradients of one layer; returns (d_in, {name: grad})."""
    d = d_out
    if spec.has_relu:
        d = d * trace.mask
    grads = {}
    if spec.has_bn:
        grads["gamma"] = _colstat(d * trace.s_hat, np.sum)
        grads["beta"] = _colstat(d, np.sum)
        ds_hat = d * params.gamma
        # biased-variance batch-statistics chain rule
        d = trace.inv_std * (ds_hat - _colstat(ds_hat, np.mean)
                             - trace.s_hat * _colstat(ds_hat * trace.s_hat, np.mean))
    grads["W"] = matmul(trace.f_in.T, d)
    grads["b"] = _colstat(d, np.sum)
    d_in = matmul(d, params.W.T)
    return d_in, grads


# ---------------------------------------------------------------------------
# pooling, concat, classifier math

def global_max_pool(f):
    """Column-wise max over the rows (points) plus the winning row index
    per column (lowest index on ties) for gradient routing."""
    f = np.asarray(f)
    if f.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {f.shape}")
    if len(f) == 0:
        raise ValueError("cannot pool an empty point set")
    return f.max(axis=0), f.argmax(axis=0)


def concat_local_global(local_feats, global_feat, local_width=None,
                        global_width=None):
    """Append the pooled global vector to every per-point feature row."""
    local_feats = np.asarray(local_feats)
    global_feat = np.asarray(global_feat)
    if local_feats.ndim != 2 or global_feat.ndim != 1:
        raise ShapeError(f"expected (N,k) and (m,), got {local_feats.shape} "
                         f"and {global_feat.shape}")
    if local_width is not None and local_feats.shape[1] != local_width:
        raise ShapeError(f"local features width {local_feats.shape[1]}, "
                         f"expected {local_width}")
    if global_width is not None and global_feat.shape[0] != global_width:
        raise ShapeError(f"global feature width {global_feat.shape[0]}, "
                         f"expected {global_width}")
    rep = np.broadcast_to(global_feat, (len(local_feats), len(global_feat)))
    return np.concatenate([local_feats, rep], axis=1)


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
    argmax_segments: np.ndarray   # (S, G) winning absolute row per column
    logits: np.ndarray
    q: np.ndarray                 # (N, C) class probabilities

    @property
    def g(self):
        """Pooled global feature; a vector for a single-block forward."""
        return self.g_segments[0] if len(self.segments) == 1 else self.g_segments

    @property
    def argmax_rows(self):
        return (self.argmax_segments[0] if len(self.segments) == 1
                else self.argmax_segments)

    @property
    def local_feats(self):
        return self.encoder_traces[LOCAL_LAYER].f_out

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
    whole mini-batch) while pooling and the local/global concatenation
    stay per block. The default is one block. Output probabilities have
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
        f, tr = pointwise_forward(f, spec, lp, mode, params.momentum)
        enc_traces.append(tr)
    g_seg = np.empty((len(segments), f.shape[1]), dtype=f.dtype)
    am_seg = np.empty((len(segments), f.shape[1]), dtype=np.int64)
    offset = 0
    for s, rows in enumerate(segments):
        part = f[offset:offset + rows]
        g_seg[s] = part.max(axis=0)
        am_seg[s] = part.argmax(axis=0) + offset
        offset += rows
    local = enc_traces[LOCAL_LAYER].f_out
    rep = np.repeat(g_seg, segments, axis=0)
    f = np.concatenate([local, rep], axis=1)
    head_traces = []
    for spec, lp in zip(params.head_specs, params.head):
        f, tr = pointwise_forward(f, spec, lp, mode, params.momentum)
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
    local_w = params.encoder_specs[LOCAL_LAYER].out_width
    d_local = d[:, :local_w]
    offsets = np.concatenate([[0], np.cumsum(trace.segments)[:-1]])
    dg_seg = np.add.reduceat(d[:, local_w:].astype(np.float64), offsets,
                             axis=0).astype(d.dtype)
    f5 = trace.pooled_input
    d = np.zeros_like(f5)
    cols = np.arange(f5.shape[1])
    for s in range(len(trace.segments)):
        d[trace.argmax_segments[s], cols] += dg_seg[s]
    for i in reversed(range(len(params.encoder))):
        if i == LOCAL_LAYER:
            d = d + d_local
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
                        list(params.head_specs), params.momentum)
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


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(path, params):
    tensors = [("meta.momentum", np.array([[params.momentum]], dtype=np.float32))]
    tensors += list(iter_tensors(params, learnable_only=False))
    n_layers = len(params.encoder) + len(params.head)
    return _container.write_container_file(path, n_layers, tensors)


def load_checkpoint(path):
    """Rebuild NetworkParams from a checkpoint.

    Layer specs are inferred: widths from the weight shapes, has_bn from
    the presence of BN tensors, and has_relu == has_bn (every normalized
    layer is ReLU-activated; the final linear layer is neither).
    """
    n_layers, tensors = _container.read_container_file(path)
    # stored as float32; round so 0.1 comes back as 0.1
    momentum = float(f"{tensors.pop('meta.momentum', np.array([[BN_MOMENTUM]]))[0, 0]:.7g}")
    groups = {}
    for name, arr in tensors.items():
        layer_name, attr = name.split(".")
        groups.setdefault(layer_name, {})[attr] = arr
    if len(groups) != n_layers:
        raise _container.ContainerError(
            f"checkpoint declares {n_layers} layers but holds {len(groups)}")

    def build(prefix):
        specs, layers = [], []
        for i in range(sum(1 for k in groups if k.startswith(prefix)
                           and k[len(prefix):].isdigit())):
            t = groups[f"{prefix}{i}"]
            W = t["W"]
            b = t["b"].reshape(-1)
            has_bn = "gamma" in t
            specs.append(LayerSpec(W.shape[0], W.shape[1], has_bn, has_bn))
            layers.append(LayerParams(
                W, b,
                t["gamma"].reshape(-1) if has_bn else None,
                t["beta"].reshape(-1) if has_bn else None,
                t["running_mean"].reshape(-1) if has_bn else None,
                t["running_var"].reshape(-1) if has_bn else None))
        return specs, layers

    enc_specs, enc = build("enc")
    head_specs, head = build("head")
    if not enc or not head:
        raise _container.ContainerError("checkpoint is missing layer tensors")
    return NetworkParams(enc, head, enc_specs, head_specs, momentum)
