"""The names the benchmark's tracer pins in pointlabel.

bench/spans.py replaces pointlabel module attributes with timing
wrappers, and some span names and counts read the wrapped call's bound
arguments. A function renamed or a parameter renamed away makes a traced
benchmark run fail; this finds the same in process, without running a
workload. Span parents follow the contextvars of the calling thread, so
the products a layer step hands to the network's helper thread must run
in a copy of the step's context to be counted."""

import concurrent.futures
import contextlib
import importlib.util
import inspect
import threading
from pathlib import Path
from unittest import mock

import numpy as np

from pointlabel import cli, infer, io, network

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# the parameters the span names and counts read, per wrapped function
READS = [
    (infer, "predict_scale", {"scale_id"}),
    (infer, "interpolate_labels", {"field"}),
    (cli, "write_block_store", {"out_dir"}),
    (io, "load_points", {"path"}),
    (io, "save_points", {"path"}),
    (network, "pointwise_forward", {"spec"}),
    (network, "pointwise_backward", {"spec"}),
    (network, "matmul", {"a", "b"}),
    (network, "forward", {"mode"}),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_keep_the_parameters_spans_read():
    spans = load_spans()
    tracer = spans.Tracer("t")
    spans.instrument(tracer)
    try:
        wrappers = [(module, attr, getattr(module, attr), names)
                    for module, attr, names in READS]
    finally:
        tracer.unwrap_all()
    for module, attr, wrapper, names in wrappers:
        fn = wrapper.__wrapped__
        assert getattr(module, attr) is fn, f"{attr} left wrapped"
        missing = names - inspect.signature(fn).parameters.keys()
        assert not missing, f"{module.__name__}.{attr} lacks {sorted(missing)}"
    assert infer.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor


def traced_train_step(spans, serial):
    """Spans of one default-network train step, run under the command
    span `cli.train` as in a traced benchmark run; `serial` runs the
    helper thread's products on the calling thread."""
    params = network.init_params(*network.default_architecture(),
                                 np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 9)).astype(np.float32)
    labels = rng.integers(0, 9, 40)
    tracer = spans.Tracer("t")
    spans.instrument(tracer)
    try:
        with mock.patch.object(network, "_beside",
                               lambda job, here: (job(), here())) \
                if serial else contextlib.nullcontext():
            with tracer.span("cli.train"):
                trace = network.forward(x, params, "train", segments=(15, 25))
                network.backward(trace, labels, params)
    finally:
        tracer.unwrap_all()
    return tracer.spans


def test_helper_products_stay_under_their_layer_span():
    # the helper runs each job in a copy of the submitter's context, so
    # a weight-gradient product's span is a child of its layer's bwd span,
    # and the second column half of a split layer's product (enc4's:
    # network._split_at) a child of its layer's fwd span
    spans = load_spans()
    got = traced_train_step(spans, serial=False)
    want = traced_train_step(spans, serial=True)
    by_id = {s.id: s for s in got}
    here = threading.get_ident()
    on_helper = [s for s in got if s.thread != here]
    assert on_helper and {s.name for s in on_helper} == {"linalg.matmul"}
    layers = {by_id[s.parent].name for s in on_helper}
    assert layers == ({f"network.{layer}.bwd" for layer in spans.LAYERS}
                      | {"network.enc4.fwd"})
    got_m, _ = spans.iteration_metrics(got)
    want_m, _ = spans.iteration_metrics(want)
    names = ["linalg.matmul_calls", "linalg.matmul_gflop"] + [
        f"network.{layer}.gflop" for layer in spans.LAYERS]
    assert want_m["linalg.matmul_calls"] > 0
    assert {n: got_m[n] for n in names} == {n: want_m[n] for n in names}
