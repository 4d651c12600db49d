"""The names the benchmark's tracer pins in pointlabel.

bench/spans.py replaces pointlabel module attributes with timing
wrappers, and some span names and counts read the wrapped call's bound
arguments. A function renamed or a parameter renamed away makes a traced
benchmark run fail; this finds the same in process, without running a
workload."""

import concurrent.futures
import importlib.util
import inspect
from pathlib import Path

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
