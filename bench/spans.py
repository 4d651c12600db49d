"""In-memory span tracer that wraps pointlabel's module attributes.

The pipeline looks its collaborators up at call time (`network.forward`,
`blk.sample_block`, `pio.load_points`, ...), so replacing those module
attributes with timing wrappers records a span around every call without
touching the package. Each span has a name, start, end, parent span, run
id, thread and a few exact counts taken from the call's arguments and
result. Spans stay in memory; the caller writes them out when the run
ends.

The parent of a span is the span open in the calling context. The
predict thread pool is swapped for one that runs every job in a copy of
the submitting context, so a block forwarded on a worker thread still
has the span of `infer.predict_scale` (named `infer.scale<N>`) on the
main thread as its parent.
"""

import contextlib
import contextvars
import inspect
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class ContextThreadPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose jobs run in a copy of the submitter's
    contextvars, so span parents follow the work onto worker threads."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._patched = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, parent, name, t0, t1, self.run_id,
                                   threading.get_ident(), attrs))

    def wrap(self, module, attr, name, counts=None):
        """Replace module.attr by a wrapper recording a span per call.

        name is a string or a function of the bound call arguments;
        counts(arguments, result) returns exact counts to attach.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            if counts is not None or callable(name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            label = name(bound) if callable(name) else name
            with tracer.span(label) as attrs:
                result = fn(*args, **kwargs)
                if counts is not None:
                    attrs.update(counts(bound, result))
            return result

        wrapper.__wrapped__ = fn
        self.replace(module, attr, wrapper)

    def replace(self, module, attr, value):
        """Set module.attr until unwrap_all restores the original."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unwrap_all(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# the pointlabel call sites

def layer_names(network):
    """{(in_width, out_width): layer name} for the default architecture."""
    enc, head = network.default_architecture()
    names = {}
    for prefix, specs in (("enc", enc), ("head", head)):
        for i, spec in enumerate(specs):
            names[(spec.in_width, spec.out_width)] = f"{prefix}{i}"
    return names


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def instrument(tracer):
    """Wrap every traced call site of the pointlabel modules."""
    from pointlabel import blocks, cli, infer, io, network, training
    layers = layer_names(network)

    def layer(prefix):
        def label(a):
            spec = a["spec"]
            key = (spec.in_width, spec.out_width)
            return f"network.{layers.get(key, 'x'.join(map(str, key)))}.{prefix}"
        return label

    def matmul_counts(a, out):
        m, k = a["a"].shape
        n = a["b"].shape[1]
        return {"flop": 2 * m * k * n,
                "bytes": a["a"].nbytes + a["b"].nbytes + out.nbytes}

    def sample_counts(a, block):
        rows = len(block.parent_idx)
        return {"rows": rows,
                "duplicates": rows - len(np.unique(block.parent_idx))}

    def field_counts(a, result):
        covered = a["field"].covered
        return {"points": int(len(covered)),
                "nn_filled": int((~covered).sum())}

    def store_counts(a, result):
        return {"bytes": os.path.getsize(os.path.join(a["out_dir"], "blocks.bin"))}

    w = tracer.wrap
    for cmd in COMMANDS:
        w(cli, f"cmd_{cmd}", f"cli.{cmd}")
    w(cli, "write_manifest", "cli.write_manifest")
    w(cli, "write_block_store", "container.write_block_store", store_counts)
    w(cli, "read_block_store", "container.read_block_store")
    w(io, "load_points", "io.load_points", lambda a, r: _file_bytes(a["path"]))
    w(io, "save_points", "io.save_points", lambda a, r: _file_bytes(a["path"]))
    w(io, "read_ppm_image", "io.read_rasters")
    w(io, "read_ascii_grid", "io.read_rasters")
    w(blocks, "attribute_spectral", "blocks.attribute_spectral")
    w(blocks, "normalize_height", "blocks.normalize_height")
    w(blocks, "tile_blocks", "blocks.tile_blocks",
      lambda a, r: {"footprints": len(r)})
    w(blocks, "sample_block", "blocks.sample_block", sample_counts)
    w(blocks, "build_blocks", "blocks.build_blocks")
    w(network, "forward", lambda a: f"network.forward.{a['mode']}",
      lambda a, r: {"rows": len(r.q)})
    w(network, "backward", "network.backward")
    w(network, "pointwise_forward", layer("fwd"))
    w(network, "pointwise_backward", layer("bwd"))
    w(network, "matmul", "linalg.matmul", matmul_counts)
    w(network, "save_checkpoint", "container.save_checkpoint")
    w(network, "load_checkpoint", "container.load_checkpoint")
    w(training, "fit", "training.fit")
    w(training, "adam_step", "training.adam_step")
    w(training, "evaluate_blocks", "training.evaluate_blocks")
    w(infer, "predict_scale", lambda a: f"infer.scale{a['scale_id']}")
    w(infer, "average_scales", "infer.average_scales")
    w(infer, "interpolate_labels", "infer.interpolate_labels", field_counts)
    tracer.replace(infer, "ThreadPoolExecutor", ContextThreadPool)


# ---------------------------------------------------------------------------
# per-layer metrics of one iteration

LAYERS = ("enc0", "enc1", "enc2", "enc3", "enc4", "head0", "head1", "head2")
COMMANDS = ("preprocess", "train", "predict", "evaluate")
SCALES = 3

PER_LAYER = (
    [("network.forward.eval_s", "s"), ("network.forward.train_s", "s"),
     ("network.backward_s", "s")]
    + [(f"network.{layer}.{kind}", unit) for layer in LAYERS
       for kind, unit in (("fwd_s", "s"), ("bwd_s", "s"),
                          ("gflop", "GFLOP"), ("mbytes", "MB"))]
    + [("network.rows_forwarded", "count"),
       ("linalg.matmul_s", "s"), ("linalg.matmul_calls", "count"),
       ("linalg.matmul_gflop", "GFLOP"), ("linalg.matmul_mbytes", "MB"),
       ("linalg.matmul_gflop_per_s", "GFLOP/s"),
       ("blocks.attribute_spectral_s", "s"), ("blocks.normalize_height_s", "s"),
       ("blocks.tile_blocks_s", "s"), ("blocks.sample_block_s", "s"),
       ("blocks.build_blocks_s", "s"), ("blocks.footprints", "count"),
       ("blocks.rows_sampled", "count"), ("blocks.duplicate_rows", "count"),
       ("blocks.duplicate_row_ratio", "ratio"),
       ("io.load_points_s", "s"), ("io.save_points_s", "s"),
       ("io.read_rasters_s", "s"), ("io.points_text_bytes", "bytes"),
       ("container.write_block_store_s", "s"), ("container.store_bytes", "bytes"),
       ("container.read_block_store_s", "s"),
       ("container.save_checkpoint_s", "s"), ("container.load_checkpoint_s", "s"),
       ("training.fit_s", "s"), ("training.adam_step_s", "s"),
       ("training.evaluate_blocks_s", "s"), ("training.steps", "count"),
       ("training.rows_trained", "count")]
    + [(f"infer.scale{i}_s", "s") for i in range(SCALES)]
    + [("infer.predict_scale.self_s", "s"), ("infer.average_scales_s", "s"),
       ("infer.interpolate_labels_s", "s"), ("infer.nn_filled_points", "count"),
       ("infer.coverage_ratio", "ratio"), ("infer.block_forward_ms.p50", "ms"),
       ("infer.block_forward_ms.p90", "ms"), ("infer.block_forwards", "count")]
    + [(f"cli.{cmd}_s", "s") for cmd in COMMANDS]
    + [("cli.write_manifest_s", "s"), ("trace.overhead_ratio", "ratio")]
)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(span, children):
    """Duration minus the part of it that its child spans cover."""
    return span.duration - _covered([(c.start, c.end) for c in children],
                                    span.start, span.end)


def iteration_metrics(spans):
    """Per-layer metrics from the spans of one iteration, counting only
    work inside a pointlabel command (the benchmark's own checks also
    call into the package). Returns (metrics, block forward times in ms);
    the forward times are pooled across iterations by the caller."""
    by_id = {s.id: s for s in spans}
    cmd_names = {f"cli.{c}" for c in COMMANDS}

    def root(s):
        while s.parent in by_id:
            s = by_id[s.parent]
        return s

    spans = [s for s in spans if root(s).name in cmd_names]
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    children = defaultdict(list)
    for s in spans:
        seconds[s.name] += s.duration
        calls[s.name] += 1
        for k, v in s.attrs.items():
            counts[s.name, k] += v
        children[s.parent].append(s)

    m = {"network.forward.eval_s": seconds["network.forward.eval"],
         "network.forward.train_s": seconds["network.forward.train"],
         "network.backward_s": seconds["network.backward"]}
    layer_flop = defaultdict(int)
    layer_bytes = defaultdict(int)
    for s in spans:
        if s.name == "linalg.matmul" and s.parent in by_id:
            layer = by_id[s.parent].name.split(".")[1]
            layer_flop[layer] += s.attrs["flop"]
            layer_bytes[layer] += s.attrs["bytes"]
    for layer in LAYERS:
        m[f"network.{layer}.fwd_s"] = seconds[f"network.{layer}.fwd"]
        m[f"network.{layer}.bwd_s"] = seconds[f"network.{layer}.bwd"]
        m[f"network.{layer}.gflop"] = layer_flop[layer] / 1e9
        m[f"network.{layer}.mbytes"] = layer_bytes[layer] / 1e6
    m["network.rows_forwarded"] = (counts["network.forward.eval", "rows"]
                                   + counts["network.forward.train", "rows"])

    mm_s = seconds["linalg.matmul"]
    mm_gflop = counts["linalg.matmul", "flop"] / 1e9
    m.update({"linalg.matmul_s": mm_s, "linalg.matmul_calls": calls["linalg.matmul"],
              "linalg.matmul_gflop": mm_gflop,
              "linalg.matmul_mbytes": counts["linalg.matmul", "bytes"] / 1e6,
              "linalg.matmul_gflop_per_s": mm_gflop / mm_s if mm_s else 0.0})

    for name in ("attribute_spectral", "normalize_height", "tile_blocks",
                 "sample_block", "build_blocks"):
        m[f"blocks.{name}_s"] = seconds[f"blocks.{name}"]
    rows = counts["blocks.sample_block", "rows"]
    dup = counts["blocks.sample_block", "duplicates"]
    m.update({"blocks.footprints": counts["blocks.tile_blocks", "footprints"],
              "blocks.rows_sampled": rows, "blocks.duplicate_rows": dup,
              "blocks.duplicate_row_ratio": dup / rows if rows else 0.0})

    m.update({"io.load_points_s": seconds["io.load_points"],
              "io.save_points_s": seconds["io.save_points"],
              "io.read_rasters_s": seconds["io.read_rasters"],
              "io.points_text_bytes": (counts["io.load_points", "bytes"]
                                       + counts["io.save_points", "bytes"])})

    for name in ("write_block_store", "read_block_store", "save_checkpoint",
                 "load_checkpoint"):
        m[f"container.{name}_s"] = seconds[f"container.{name}"]
    m["container.store_bytes"] = counts["container.write_block_store", "bytes"]

    m.update({"training.fit_s": seconds["training.fit"],
              "training.adam_step_s": seconds["training.adam_step"],
              "training.evaluate_blocks_s": seconds["training.evaluate_blocks"],
              "training.steps": calls["training.adam_step"],
              "training.rows_trained": counts["network.forward.train", "rows"]})

    scale_spans = [s for s in spans if s.name.startswith("infer.scale")]
    for i in range(SCALES):
        m[f"infer.scale{i}_s"] = seconds[f"infer.scale{i}"]
    m["infer.predict_scale.self_s"] = sum(
        (self_time(s, children[s.id]) for s in scale_spans), 0.0)
    points = counts["infer.interpolate_labels", "points"]
    filled = counts["infer.interpolate_labels", "nn_filled"]
    m.update({"infer.average_scales_s": seconds["infer.average_scales"],
              "infer.interpolate_labels_s": seconds["infer.interpolate_labels"],
              "infer.nn_filled_points": filled,
              "infer.coverage_ratio": 1.0 - filled / points if points else 0.0})
    scale_ids = {s.id for s in scale_spans}
    forwards_ms = [s.duration * 1e3 for s in spans
                   if s.name == "network.forward.eval" and s.parent in scale_ids]

    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = seconds[f"cli.{cmd}"]
    m["cli.write_manifest_s"] = seconds["cli.write_manifest"]
    return m, forwards_ms


def summarize(per_iteration, forwards_ms, overhead_ratio):
    """Median of each per-iteration metric, plus the pooled block forward
    percentiles and the tracing overhead."""
    out = {name: statistics.median(m[name] for m in per_iteration)
           for name in per_iteration[0]}
    if len(forwards_ms) >= 2:
        q = statistics.quantiles(forwards_ms, n=10, method="inclusive")
        p50, p90 = statistics.median(forwards_ms), q[8]
    else:
        p50 = p90 = forwards_ms[0] if forwards_ms else 0.0
    out.update({"infer.block_forward_ms.p50": p50,
                "infer.block_forward_ms.p90": p90,
                "infer.block_forwards": len(forwards_ms),
                "trace.overhead_ratio": overhead_ratio})
    return out
