"""1D fully-convolutional point network: shared per-point linear layers
with batch normalization and ReLU, a global max-pool over the points, a
small classifier head on each point's local feature and its block's
global feature, softmax and cross-entropy. Forward and backward are both
implemented here by hand, on numpy's matrix product behind `matmul`.

The first head layer reads the concatenation `[local_i, g]` of a point's
local feature and its block's pooled feature, but that (N, local + G)
array is never built: with W split into W_l and W_g, its pre-activation
is `local_i·W_l + (g·W_g + b)`, and the global term is computed once per
block (PointNet's segmentation head, Qi et al., arXiv 1612.00593).

Weights are trainable or, for eval forwards only, prepared: one step
(`_prepare_layer`) folds a layer's eval-mode batch norm, one affine map
per column, into its W and b and widens W exactly to float64.
`fold_batch_norm` prepares a network in place, `eval_weights` a copy
once per call, and an eval-mode `pointwise_forward` an unprepared layer
on a copy.

Shapes follow the per-block convention: the "batch" dimension of every
layer is the N points of one block, so batch normalization standardizes
over points. All math runs in the dtype of the inputs/parameters
(float32 in production, float64 for gradient checking); reductions
accumulate in float64 either way. The operand dtypes pick each matrix
product (`matmul`): a train step multiplies float32 by float32 (BLAS),
where a run only has to repeat itself, and every eval product reads a
prepared float64 W, so a row's output does not depend on which rows
share its forward (see the README's notes on numerics). So `forward`
walks row panels and max-pools as it goes: an eval forward's panels hold
at most EXACT_PANEL_ROWS rows, so it never holds the pooled layer's
(N, G) output or a float64 product of more than one panel, and its bits
are a whole-array forward's. A train forward is the walker's one-panel
case, since its batch statistics read every row.

Every layer adds its bias and applies batch norm and ReLU in place on
its product, never into the caller's inputs or weights, and a train
trace holds only what backward reads. Backward hands each layer step
(`pointwise_backward`) a gradient it owns (q's copy, a matmul product, the
routed pool gradient), which the step gates, runs through batch norm's
chain rule and scales in place; the chain rule's products with s_hat
run in row panels of at most EXACT_PANEL_ROWS rows, each column summed
in float64 row by row. So a train step holds its trace plus about one
layer's gradient. Each elementwise operation, its operand order and
every float64 reduction are those of the out-of-place formulas, so the
results are bitwise theirs. The train-mode pool finds
each column's winning row by comparing row panels with the column max:
the first hit is argmax's, and a column holding a NaN falls back to
argmax, which returns its first NaN.

A layer step runs on two threads, the caller's and one helper thread per
process: `pointwise_backward` forms the weight gradient (f_in.T·d, and
g.T·d_seg for a per-block input) on the helper while it forms the input
gradient (d·W.T) itself, and returns once both are done. A deep train
batch-norm layer (`_split_at`: the default network's enc4) runs its
batch norm on both threads too. Its product and every column statistic
(the batch mean and variance, inv_std and the running statistics;
backward's sums for gamma, beta, b and the chain rule) run as two column
halves, and the pooled layer's column max and winners follow the same
halves; the elementwise steps (deviation, square, scaling, gamma/beta,
ReLU gate; backward's gate, chain rule and scaling by inv_std) run as
two row halves, since numpy runs an operation on a column half's view
one row at a time, at about half the speed of a contiguous block. Each
statistic reduces along the rows of its own column and each elementwise
step acts on one element, and BLAS gives a column half of a float32
product the bits of the same columns of the whole product once the half
makes enough multiply-adds to take the same blocked path, so the halves
write the whole step's bits into the arrays it always held. The input
gradient is not split: halving its sum over columns would move bits. An
eval forward asked to (`helper=True`, validation's) runs its row panels
two at a time and folds the encoder panels into each block's max in
panel order. Every product keeps its operands, and nothing is summed
across the threads, so no bit depends on the helper; BLAS threads are
the caller's to pin, as before. The helper is started on first use, and
again in a forked child, which inherits no thread; a step run on the
helper itself runs its halves one after the other, since its one thread
cannot wait for itself. Its jobs run in a copy of the caller's
contextvars, so a tracer's spans keep their parents, and an error on
either thread leaves the call once both have finished. A train step
holds no more than before, since a layer's two gradients were both held
when its step returned and the halves write into one array; an eval
forward on the helper holds two panels at a time, about 17 MB of
allocations for 1024 rows of the default architecture against 9 MB.
Prediction never uses the helper: its `threads` pool runs the chunks.
"""

import contextvars
import copy
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import container as _container
from .io import ShapeError

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LOG_CLAMP = 1e-12
POOL_PANEL = 64           # rows per equality scan for the pool's winners
EXACT_PANEL_ROWS = 256    # most rows per panel of an eval forward and of
                          # batch norm's backward products; >= 4
LOCAL_LAYER = 1           # encoder layer whose output is head0's local input
SPLIT_MIN_INNER = 512     # a train batch-norm layer this deep and this wide
SPLIT_MIN_WIDTH = 2048    # runs on both threads (see _split_at)
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
    """ShapeError naming the first layer's W whose rows are not the width
    the layers before it give; head0 reads LOCAL_LAYER's and the last
    encoder layer's outputs."""
    concat = encoder_specs[LOCAL_LAYER].out_width + encoder_specs[-1].out_width
    for prefix, specs, width in (("enc", encoder_specs, None),
                                 ("head", head_specs, concat)):
        for i, spec in enumerate(specs):
            if width is not None and spec.in_width != width:
                raise ShapeError(f"'{prefix}{i}.W' has {spec.in_width} rows, "
                                 f"but the layers before it give {width}")
            width = spec.out_width


# ---------------------------------------------------------------------------
# matrix product

def _as_2d(a, name):
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _row_panels(m, size):
    """(start, stop) of the ceil(m / size) near-equal row panels covering
    m rows. With size >= 4 none has one row unless m is 1."""
    n = -(-m // size)
    return [(i * m // n, (i + 1) * m // n) for i in range(n)]


def matmul(a, b, out=None):
    """Matrix product whose operand dtypes pick its form; an empty inner
    dimension yields zeros. `out`, for operands of one dtype only, is an
    array (a column slice, say) the product is written into.

    Operands of one dtype give `a @ b`: float32 BLAS in a train step and
    its backward, about twice as fast as accumulating in float64 and as
    repeatable from run to run for the same shapes, though a row's bits
    may change with the number of rows. Mixed dtypes are multiplied in
    float64, and the result is rounded once to float32 when `a` is
    float32. A prepared layer's W is float32 weights widened exactly to
    float64, so a float32 input against it gives the exact product of the
    float32 operands: each output row is the same bits whichever rows
    share the call.
    """
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    if a.dtype == b.dtype:
        return np.matmul(a, b, out=out)
    if out is not None:
        raise TypeError("matmul writes into out only for operands of one dtype")
    prod = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return prod.astype(np.float32) if a.dtype == np.float32 else prod


# ---------------------------------------------------------------------------
# the helper thread

_helper = None                  # the process's one helper, started on first use
_helper_lock = threading.Lock()
_on_helper = threading.local()  # .flag is set on the helper's own thread


def _forget_helper():
    # a forked child inherits the executor but not its thread
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _mark_helper():
    _on_helper.flag = True


def _beside(job, here):
    """(job(), here()): job runs on the helper thread, in a copy of this
    thread's contextvars, while here runs on this one. Either's exception
    is raised here, and only once both have finished. On the helper
    itself both run here, one after the other: a job that waited for
    the helper's one thread would wait for itself."""
    global _helper
    if getattr(_on_helper, "flag", False):
        return job(), here()
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="pointlabel-helper",
                                         initializer=_mark_helper)
        future = _helper.submit(contextvars.copy_context().run, job)
    try:
        mine = here()
    except BaseException:
        wait([future])
        raise
    return future.result(), mine


def _in_pairs(fn, items):
    """fn of each item, yielded in order; every second item runs on the
    helper thread beside the one before it."""
    for i in range(0, len(items) - 1, 2):
        second, first = _beside(lambda: fn(items[i + 1]), lambda: fn(items[i]))
        yield first
        yield second
    if len(items) % 2:
        yield fn(items[-1])


# ---------------------------------------------------------------------------
# single shared-weight layer

@dataclass
class LayerTrace:
    """What backward reads of one train-mode layer."""
    f_in: np.ndarray                 # per-row input (the local part if g is set)
    s_hat: np.ndarray | None         # normalized, pre gamma/beta
    inv_std: np.ndarray | None
    mask: np.ndarray | None          # ReLU gate (pre-activation > 0)
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


def _prepared(spec, params):
    return not spec.has_bn and params.W.dtype == np.float64


def _prepare_layer(spec, params):
    """Prepare one layer for eval forwards, in place; returns its spec.
    Eval-mode batch norm of s = x·W + b becomes the layer's own weights
    (Jacob et al., arXiv 1712.05877, section 3.2): W·diag(k), rounded once
    into W, and (b - mean)·k + beta formed in float64, k = gamma/sqrt(var
    + eps). Then W is widened exactly to float64; b keeps its dtype."""
    if spec.has_bn:
        k = params.gamma / np.sqrt(params.running_var.astype(np.float64) + BN_EPS)
        np.multiply(params.W, k, out=params.W, casting="unsafe")
        params.b = ((params.b - params.running_mean.astype(np.float64)) * k
                    + params.beta).astype(params.b.dtype)
        params.gamma = params.beta = params.running_mean = params.running_var = None
        spec = LayerSpec(spec.in_width, spec.out_width, has_bn=False,
                         has_relu=spec.has_relu)
    params.W = params.W.astype(np.float64, copy=False)
    return spec


def pointwise_forward(f_in, spec, params, mode, g=None, segments=None):
    """Shared linear map over the rows, then BN and ReLU as configured.

    With `g` (S, G), row i's input is `[f_in_i, g_s]`, g_s being the row
    of its block (`segments` lists the rows per block): the first rows of
    W act on f_in and the last G on g, whose term g·W_g + b is computed
    once per block and repeated over that block's rows.

    Train mode normalizes with the batch statistics of the N input rows
    (biased variance, eps under the square root), advances the running
    statistics in place at momentum BN_MOMENTUM and returns the trace
    that backward reads. Eval mode reads a prepared layer, preparing an
    unprepared one on a copy (`_prepare_layer`), and returns no trace.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    f_in = np.asarray(f_in)
    local_w = spec.in_width - (0 if g is None else g.shape[1])
    if f_in.ndim != 2 or f_in.shape[1] != local_w:
        raise ShapeError(f"layer expects (N,{local_w}), got {f_in.shape}")
    if mode == "eval" and not _prepared(spec, params):
        params = copy.deepcopy(params)
        spec = _prepare_layer(spec, params)
    # every product is made here, so elementwise steps write into it;
    # nothing is written into f_in, g or params but the running
    # statistics, and s_hat and mask stay as the trace records them
    W = params.W
    shift = params.b
    if g is not None:
        if (segments is None or len(segments) != len(g)
                or sum(segments) != len(f_in)):
            raise ShapeError(f"segments {segments} do not match {len(g)} "
                             f"global rows and {len(f_in)} local rows")
        shift = matmul(g, W[local_w:]) + params.b   # (S, out), per block
    if spec.has_bn:
        return _batch_norm_forward(f_in, W[:local_w], shift, spec, params,
                                   g, segments)
    s = matmul(f_in, W[:local_w])
    s += shift if g is None else np.repeat(shift, segments, axis=0)
    mask = None
    if spec.has_relu:
        # only backward reads the gate; a NaN pre-activation stays NaN
        if mode == "train":
            mask = s > 0
        np.maximum(s, np.asarray(0, dtype=s.dtype), out=s)
    return s, (LayerTrace(f_in, None, None, mask, g, segments)
               if mode == "train" else None)


def _split_at(inner, width, dtype):
    """First column of the second half of a train layer `width` wide
    whose product is `inner` deep, or 0 when it runs whole. A float32
    layer at least SPLIT_MIN_INNER deep and SPLIT_MIN_WIDTH wide splits:
    halving its product saves more than the two threads' steps cost, and
    each half of a product of N >= 2 rows makes at least 2^20
    multiply-adds, where BLAS takes the same blocked path for the halves
    as for the whole (OpenBLAS runs products of at most 10^6 on kernels
    of their own). float64 products, the gradient checks' shadow, may
    round a column half differently."""
    return (width // 2 if dtype == np.float32 and inner >= SPLIT_MIN_INNER
            and width >= SPLIT_MIN_WIDTH else 0)


def _in_halves(step, cut):
    """step(slice(None)), or, given a cut, step of [0, cut) here and of
    [cut, ...) on the helper at once (`_beside`)."""
    if cut:
        _beside(lambda: step(slice(cut, None)), lambda: step(slice(0, cut)))
    else:
        step(slice(None))


def _batch_norm_forward(f_in, W, shift, spec, params, g, segments):
    """Train-mode pointwise_forward of a batch-norm layer, on W's rows
    that f_in meets and the bias, or each block's global term, `shift`.

    A layer that `_split_at` splits runs each step on both threads: the
    product and each column's statistics in column halves, the
    elementwise steps in row halves, which are contiguous (numpy runs an
    operation on a column half one row at a time, at about half the
    speed). Every half writes into the one product s (normalized in
    place: the trace's s_hat), squares z (then the output) and gate."""
    n = len(f_in)
    if n < 2:
        raise ValueError("batch norm in train mode needs N >= 2 points")
    # float32 only when f_in and W both are: matmul writes into out only
    # for operands of one dtype
    cut = _split_at(W.shape[0], spec.out_width, np.result_type(f_in, W))
    s = (np.empty((n, spec.out_width), dtype=W.dtype) if cut
         else matmul(f_in, W))
    z = np.empty_like(s)
    mask = np.empty(s.shape, dtype=bool) if spec.has_relu else None
    mu, var, inv_std = (np.empty(spec.out_width, dtype=s.dtype)
                        for _ in range(3))
    eps = np.asarray(BN_EPS, dtype=s.dtype)
    m = params.running_mean.dtype.type(BN_MOMENTUM)

    def means(c):
        s_c = s[:, c]
        if cut:
            matmul(f_in, W[:, c], out=s_c)
        s_c += shift[c] if g is None else np.repeat(shift[:, c], segments,
                                                     axis=0)
        mu[c] = _colstat(s_c, np.mean)

    def squares(r):
        s[r] -= mu                          # deviations, scaled below
        np.multiply(s[r], s[r], out=z[r])   # squares, then gamma·s_hat

    def variances(c):
        var[c] = _colstat(z[:, c], np.mean)
        inv_std[c] = 1.0 / np.sqrt(var[c] + eps)
        for stat, batch in ((params.running_mean, mu),
                            (params.running_var, var)):
            running = stat[c]
            running += m * (batch[c].astype(stat.dtype) - running)

    def outputs(r):
        s[r] *= inv_std
        np.multiply(params.gamma, s[r], out=z[r])
        z[r] += params.beta
        if mask is not None:
            np.greater(z[r], 0, out=mask[r])
            np.maximum(z[r], np.asarray(0, dtype=z.dtype), out=z[r])

    rows = n // 2 if cut else 0
    for step, at in ((means, cut), (squares, rows), (variances, cut),
                     (outputs, rows)):
        _in_halves(step, at)
    return z, LayerTrace(f_in, s, inv_std, mask, g, segments)


def _column_dots(a, b):
    """Column sums of `a * b` (rounded in a's dtype), accumulated in
    float64 row by row, without the (N, out) product: each panel of at
    most EXACT_PANEL_ROWS products follows the running sums in one
    float64 buffer, so the bits are `np.sum(a * b, axis=0,
    dtype=np.float64)`'s. numpy sums a single column pairwise, so one is
    summed whole."""
    if a.shape[1] == 1:
        return np.sum(a * b, axis=0, dtype=np.float64)
    sums = np.zeros(a.shape[1])
    buf = np.empty((min(len(a), EXACT_PANEL_ROWS) + 1, a.shape[1]))
    for start, stop in _row_panels(len(a), EXACT_PANEL_ROWS):
        rows = buf[:stop - start + 1]
        rows[0] = sums
        np.multiply(a[start:stop], b[start:stop], out=rows[1:], dtype=a.dtype)
        np.sum(rows, axis=0, out=sums)
    return sums


def _batch_norm_backward(d, params, trace, cut):
    """A batch-norm layer's gate, chain rule and scaling by inv_std, in
    place on d; returns the gradients of gamma, beta and b. Given a
    `_split_at` cut, each step runs on both threads as the forward's
    do: column sums in column halves, elementwise steps in row halves."""
    n, width = d.shape
    s_hat = trace.s_hat
    grads = {name: np.empty(width, dtype=d.dtype)
             for name in ("gamma", "beta", "b")}
    mean_ds, mean_ds_s = np.empty((2, width), dtype=d.dtype)
    rows = n // 2 if cut else 0
    # the two row halves' buffers together hold one whole step's
    panel = EXACT_PANEL_ROWS // 2 if cut else EXACT_PANEL_ROWS

    def gate(r):
        d[r] *= trace.mask[r]

    def scale_sums(c):
        grads["gamma"][c] = _column_dots(d[:, c], s_hat[:, c])
        grads["beta"][c] = _colstat(d[:, c], np.sum)

    def scale(r):
        d[r] *= params.gamma                # ds_hat

    # biased-variance batch-statistics chain rule, evaluated as
    # inv_std * ((ds_hat - mean(ds_hat)) - s_hat * mean(ds_hat * s_hat))
    def chain_means(c):
        mean_ds[c] = _colstat(d[:, c], np.mean)
        mean_ds_s[c] = _column_dots(d[:, c], s_hat[:, c]) / n

    def chain(r):
        ds_hat, s_hat_r = d[r], s_hat[r]
        ds_hat -= mean_ds
        tmp = np.empty((min(len(ds_hat), panel), width), d.dtype)
        for start, stop in _row_panels(len(ds_hat), panel):
            part = ds_hat[start:stop]
            part -= np.multiply(s_hat_r[start:stop], mean_ds_s,
                                out=tmp[:stop - start])
        ds_hat *= trace.inv_std

    def bias_sums(c):
        grads["b"][c] = _colstat(d[:, c], np.sum)

    steps = [(gate, rows)] if trace.mask is not None else []
    steps += [(scale_sums, cut), (scale, rows), (chain_means, cut),
              (chain, rows), (bias_sums, cut)]
    for step, at in steps:
        _in_halves(step, at)
    return grads


def pointwise_backward(d, spec, params, trace):
    """Analytic gradients of one layer; returns (d_in, {name: grad}).

    For a layer with a per-block input g, d_in is the pair (gradient into
    f_in, gradient into g); both, and W's g rows, come from the
    per-block sums of the pre-activation gradient. The caller hands d
    over: the ReLU gate, the batch-norm chain rule and the scaling by
    inv_std overwrite it, and the chain rule's products with s_hat run in
    row panels, so neither gate nor batch norm allocates an (N, out)
    array beside d. params and the trace are only read.
    """
    if spec.has_bn:
        grads = _batch_norm_backward(d, params, trace, _split_at(
            trace.f_in.shape[1], d.shape[1], d.dtype))
    else:
        if spec.has_relu:
            d *= trace.mask
        grads = {"b": _colstat(d, np.sum)}
    if trace.g is None:
        grads["W"], d_in = _beside(lambda: matmul(trace.f_in.T, d),
                                   lambda: matmul(d, params.W.T))
        return d_in, grads
    local_w = trace.f_in.shape[1]
    d_seg = np.add.reduceat(d.astype(np.float64), _offsets(trace.segments),
                            axis=0).astype(d.dtype)
    grads["W"], d_in = _beside(
        lambda: np.vstack([matmul(trace.f_in.T, d), matmul(trace.g.T, d_seg)]),
        lambda: (matmul(d, params.W[:local_w].T),
                 matmul(d_seg, params.W[local_w:].T)))
    return d_in, grads


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
    encoder_traces: list | None   # per layer; None in eval mode
    head_traces: list | None      # per layer; None in eval mode
    g_segments: np.ndarray        # (S, G) pooled feature per block
    argmax_segments: np.ndarray | None  # (S, G) winning absolute row per
                                        # column; None in eval mode
    q: np.ndarray                 # (N, C) class probabilities


def _check_segments(segments, n):
    if segments is None:
        return (n,)
    segments = tuple(int(s) for s in segments)
    if any(s < 1 for s in segments) or sum(segments) != n:
        raise ValueError(f"segments {segments} do not partition {n} rows")
    return segments


def _panel_segments(ends, start, stop):
    """First block and rows per block of the row panel [start, stop),
    given each block's end row."""
    first = int(np.searchsorted(ends, start, side="right"))
    last = int(np.searchsorted(ends, stop, side="left"))
    cuts = np.minimum(ends[first:last + 1], stop)
    return first, np.diff(cuts, prepend=start)


def _train_pool(f, begins, ends, inner):
    """Each block's column max of the pooled layer's output f and its
    winning rows, in the column halves the layer ran in (`_split_at`;
    `inner` is the layer's input width)."""
    g_seg = np.empty((len(begins), f.shape[1]), dtype=f.dtype)
    am_seg = np.empty(g_seg.shape, dtype=np.int64)

    def columns(c):
        for s, (begin, end) in enumerate(zip(begins, ends)):
            block = f[begin:end, c]
            block.max(axis=0, out=g_seg[s, c])
            am_seg[s, c] = _pool_winners(block, g_seg[s, c]) + begin

    _in_halves(columns, _split_at(inner, f.shape[1], f.dtype))
    return g_seg, am_seg


def forward(x, params, mode="eval", segments=None, helper=False):
    """Run points through both stages; returns the trace.

    `segments` lists the per-block row counts when several blocks are
    stacked into one call: batch statistics then cover all rows (the
    whole mini-batch) while pooling and the global term of the first head
    layer stay per block. The default is one block. Output probabilities
    have one row per input row for any N >= 1 (train mode needs N >= 2
    for the batch statistics), and permuting a block's input rows
    permutes its output rows identically.

    Pass 1 runs the encoder on each row panel, keeps its LOCAL_LAYER rows
    and folds its last-layer rows into each block's running column max.
    Pass 2 runs the head on each panel against those pooled features;
    the logits are softmaxed once. Train mode runs one panel and alone
    records the pool's winning rows and every layer's trace, which
    backward reads. Eval mode reads the weights eval_weights prepares, in
    near-equal panels of at most EXACT_PANEL_ROWS rows (`_row_panels`);
    every eval layer is row-wise and max is exact, so no bit depends on
    the panels, and its trace holds q and the pooled features only. With
    `helper`, every second eval panel of each pass runs on the helper
    thread beside the one before it.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"input must be (N,M), got {x.shape}")
    if x.shape[1] != params.encoder_specs[0].in_width:
        raise ShapeError(f"input width {x.shape[1]}, network expects "
                         f"{params.encoder_specs[0].in_width}")
    n = len(x)
    if n == 0:
        raise ValueError("empty point set")
    segments = _check_segments(segments, n)
    train = mode == "train"
    if train:
        panels = [(0, n)]
    else:
        params = eval_weights(params)
        panels = _row_panels(n, EXACT_PANEL_ROWS)
    walk = _in_pairs if helper else map
    enc_traces, head_traces, local_panels = [], [], []
    ends = np.cumsum(segments)
    begins = _offsets(segments).tolist()

    def encode(panel):
        f, traces = x[panel[0]:panel[1]], []
        for i, (spec, lp) in enumerate(zip(params.encoder_specs,
                                           params.encoder)):
            f, tr = pointwise_forward(f, spec, lp, mode)
            traces.append(tr)
            if i == LOCAL_LAYER:
                local = f
        return local, f, traces

    g_seg = am_seg = None
    for (start, stop), (local, f, traces) in zip(panels, walk(encode, panels)):
        enc_traces += traces
        local_panels.append(local)
        if train:
            g_seg, am_seg = _train_pool(f, begins, ends.tolist(),
                                        params.encoder_specs[-1].in_width)
            continue
        if g_seg is None:
            g_seg = np.empty((len(segments), f.shape[1]), dtype=f.dtype)
        first, parts = _panel_segments(ends, start, stop)
        at = 0
        for s, rows in enumerate(parts.tolist(), first):
            block = f[at:at + rows]
            if begins[s] >= start:
                block.max(axis=0, out=g_seg[s])
            else:
                np.maximum(g_seg[s], block.max(axis=0), out=g_seg[s])
            at += rows

    def head(i):
        first, parts = _panel_segments(ends, *panels[i])
        # g_seg itself when one panel holds every block: the trace shares it
        g = (g_seg if len(parts) == len(g_seg)
             else g_seg[first:first + len(parts)])
        f, tr = pointwise_forward(local_panels[i], params.head_specs[0],
                                  params.head[0], mode, g=g,
                                  segments=tuple(parts.tolist()))
        traces = [tr]
        for spec, lp in zip(params.head_specs[1:], params.head[1:]):
            f, tr = pointwise_forward(f, spec, lp, mode)
            traces.append(tr)
        return f, traces

    logits = None
    for (start, stop), (f, traces) in zip(panels,
                                          walk(head, range(len(panels)))):
        head_traces += traces
        if logits is None:
            logits = np.empty((n, f.shape[1]), dtype=f.dtype)
        logits[start:stop] = f
    return ForwardTrace(mode, enc_traces if train else None,
                        head_traces if train else None, g_seg, am_seg,
                        softmax_rows(logits))


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

    # every d below is backward's own (q's copy, a matmul product, the
    # routed pool gradient), so each layer step writes into it
    grads = {}
    for i in reversed(range(len(params.head))):
        d, g = pointwise_backward(d, params.head_specs[i], params.head[i],
                                  trace.head_traces[i])
        for k, v in g.items():
            grads[f"head{i}.{k}"] = v
    d_local, dg_seg = d
    d = np.zeros((n, trace.g_segments.shape[1]), dtype=trace.g_segments.dtype)
    # each block's winners lie in its own rows, so no index repeats
    d[trace.argmax_segments, np.arange(d.shape[1])] += dg_seg
    for i in reversed(range(len(params.encoder))):
        if i == LOCAL_LAYER:
            d += d_local
        d, g = pointwise_backward(d, params.encoder_specs[i],
                                  params.encoder[i], trace.encoder_traces[i])
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


def fold_batch_norm(params):
    """Prepare params for eval-mode forwards, in place; returns params.

    Each layer is prepared by `_prepare_layer`, the step an eval-mode
    pointwise_forward takes on an unprepared layer: batch norm folded
    into W and b, and W widened exactly to float64, so every product of
    every panel and worker reads the one W that gives the float32
    weights' exact product. Folded layers become has_bn=False and keep
    their ReLU; preparing again changes nothing. W is replaced one layer
    at a time, so a network that nothing else holds never has all of its
    float32 and float64 weights at once. The result is for eval-mode
    forwards only: train mode would not normalize, and save_checkpoint
    refuses it.
    """
    for specs, layers in ((params.encoder_specs, params.encoder),
                          (params.head_specs, params.head)):
        for i, (spec, lp) in enumerate(zip(specs, layers)):
            specs[i] = _prepare_layer(spec, lp)
    return params


def eval_weights(params):
    """The weights every eval forward of a call runs on: params itself
    when it is prepared already (no batch norm, every W float64), else
    `fold_batch_norm` of a copy, leaving params and its arrays as they
    were."""
    if all(_prepared(spec, lp) for spec, lp in params.layers()):
        return params
    return fold_batch_norm(copy.deepcopy(params))


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
    _container.write_container_file(path, n_layers, tensors)


def load_checkpoint(path):
    """Rebuild NetworkParams from a checkpoint.

    Layer specs are inferred: widths from the weight shapes, has_bn from
    the presence of BN tensors, and has_relu == has_bn (every normalized
    layer is ReLU-activated; the final linear layer is neither). A missing
    layer or tensor, a tensor name that is not <layer>.<tensor>, a
    tensor holding a NaN or an infinity, a vector not as wide as its W,
    or a W whose rows do not chain to the layers before it raises
    ContainerError naming the first such tensor; `meta.momentum` is
    ignored.
    """
    n_layers, tensors = _container.read_container_file(path)
    tensors.pop("meta.momentum", None)
    groups = {}
    for name, arr in tensors.items():
        parts = name.split(".")
        if len(parts) != 2 or not all(parts):
            raise _container.ContainerError(
                f"checkpoint tensor {name!r} is not named <layer>.<tensor>")
        finite = np.isfinite(arr)
        if not finite.all():
            raise _container.ContainerError(
                f"checkpoint tensor {name!r} holds a non-finite value "
                f"({arr[~finite][0]})")
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
            narrow = [n for n in names[1:] if t[n].shape != (1, W.shape[1])]
            if narrow:
                raise _container.ContainerError(
                    f"checkpoint tensor '{layer}.{narrow[0]}' has shape "
                    f"{t[narrow[0]].shape}, but {layer}.W has {W.shape[1]} columns")
            specs.append(LayerSpec(W.shape[0], W.shape[1], has_bn, has_bn))
            layers.append(LayerParams(W, *[t[n].reshape(-1) for n in names[1:]]))
        return specs, layers

    enc_specs, enc = build("enc")
    head_specs, head = build("head")
    if len(enc) <= LOCAL_LAYER or not head:
        raise _container.ContainerError("checkpoint is missing layer tensors")
    try:
        _check_chain(enc_specs, head_specs)
    except ShapeError as e:
        raise _container.ContainerError(f"checkpoint tensor {e}") from None
    return NetworkParams(enc, head, enc_specs, head_specs)
