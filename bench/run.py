"""pointlabel benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script sets up the workload's
inputs from --seed (in a child process, three times, timing each), then
runs the workload's pointlabel command in process back to back for
--seconds, checking every output. With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it runs the same
loop untraced and then traced, and reports the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. Raw results (environment, checks, iterations, spans) go to
.bench_work/results/. --smoke shrinks every input so that all four
workloads run in seconds (for the benchmark's own test).
"""

import os

# pin the BLAS/OpenMP pools before numpy is imported anywhere
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse                      # noqa: E402
import ctypes                        # noqa: E402
import json                          # noqa: E402
import platform                      # noqa: E402
import resource                      # noqa: E402
import shutil                        # noqa: E402
import statistics                    # noqa: E402
import subprocess                    # noqa: E402
import sys                           # noqa: E402
import time                          # noqa: E402
import traceback                     # noqa: E402
from dataclasses import asdict       # noqa: E402
from pathlib import Path             # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("predict-dense", "predict-als", "train", "preprocess")
SETUP_REPEATS = 3
# A shared virtual machine can drift by 15-30% in speed within minutes,
# for numpy and Python alike (seen on a 2-vCPU Xeon VM). The run therefore
# times a fixed probe kernel around every set-up and iteration, and
# reports times and rates scaled to a machine on which the probe takes
# PROBE_REF_S (factor: median probe time / PROBE_REF_S).
PROBE_REF_S = 0.02
# glibc mallopt parameter; see main()
M_ARENA_MAX = -8
SETUP_TIMEOUT_S = 150

E2E = (("setup_s", "s"), ("items_per_s", "items/s"), ("accuracy", "ratio"),
       ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))

# the names the workloads' own figures go by in the printed summary
SUMMARY_NAMES = {
    "predict-dense": ("predict_points_per_s", "points/s", "overall_accuracy"),
    "predict-als": ("predict_points_per_s", "points/s", "overall_accuracy"),
    "train": ("train_rows_per_s", "rows/s", "train_acc"),
    "preprocess": ("preprocess_points_per_s", "points/s", "stored_label_share"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; every metric still reported")
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Ledger:
    """Attempted and failed commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name, passed, detail=""):
        self.attempted += 1
        if not passed:
            self.failed.append(f"{name} {detail}".strip())
            print(f"check failed: {name} {detail}", file=sys.stderr)


def environment(args):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# set-up

def setup_child(args):
    import numpy as np
    import workloads
    d = Path(args.setup_into)
    d.mkdir(parents=True)
    workloads.WORKLOADS[args.workload].setup(d, np.random.default_rng(args.seed),
                                             args.smoke)
    return 0


def run_setups(args, work, ledger, probes):
    """Set up SETUP_REPEATS times in child processes; returns (the first
    set-up's directory, wall seconds of each)."""
    from workloads import digest
    times, dirs = [], []
    for k in range(SETUP_REPEATS):
        probes.append(probe_seconds())
        d = work / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-into", str(d)] + (["--smoke"] if args.smoke else [])
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        dirs.append(d)
    probes.append(probe_seconds())

    def files(d):
        # run manifests carry timings; everything else must repeat
        return sorted(p for p in d.rglob("*")
                      if p.is_file() and p.name != "run_manifest.txt")

    first = [p.relative_to(dirs[0]) for p in files(dirs[0])]
    ref = digest(files(dirs[0]))
    for d in dirs[1:]:
        same = ([p.relative_to(d) for p in files(d)] == first
                and digest(files(d)) == ref)
        ledger.add("set-up reproduces its inputs", same, str(d.name))
    return dirs[0], times


# ---------------------------------------------------------------------------
# the measured loop

def measure(wl, inputs, out, args, ledger, state, probes, tracer=None):
    """Run iterations back to back for args.seconds (at least one) after
    a warm-up. Returns the outcomes and, when traced, per-iteration
    metrics and the block forward times."""
    import spans
    from workloads import digest
    outcomes, per_iteration, forwards_ms = [], [], []
    deadline = time.perf_counter() + args.seconds
    warm_up = state["reference"] is None
    while True:
        first_span = len(tracer.spans) if tracer else 0
        probes.append(probe_seconds())
        try:
            outcome, artifacts = wl.iterate(inputs, out, args.smoke)
        except Exception:           # a broken command must not stop the run
            traceback.print_exc()
            ledger.add("iteration completes", False)
            outcome = None
        if outcome is not None:
            for name, passed, detail in outcome.checks:
                ledger.add(name, passed, detail)
            if warm_up:
                # imports, first-touch pages and pool start-up happen in
                # the first iteration only; it is checked, not timed
                warm_up = False
                deadline = time.perf_counter() + args.seconds
            elif all(passed for _, passed, _ in outcome.checks):
                outcomes.append(outcome)
            d = digest(artifacts)
            if state["reference"] is None:
                state["reference"] = d
            else:
                ledger.add("artifacts identical to the first iteration's",
                           d == state["reference"])
            if tracer:
                m, fw = spans.iteration_metrics(tracer.spans[first_span:])
                per_iteration.append(m)
                forwards_ms += fw
        if time.perf_counter() >= deadline:
            probes.append(probe_seconds())
            return outcomes, per_iteration, forwards_ms


def probe_seconds():
    """Median of three timings of a fixed kernel (float64 matmuls and a
    Python loop, the two kinds of work the pipeline does): a gauge of
    how fast this shared machine runs at the moment."""
    import numpy as np
    a = np.full((256, 1024), 0.5)
    b = np.full((1024, 512), 0.25)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(4):
            a @ b
        x = 0
        for j in range(60000):
            x += j
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(outcomes, setup_times, probes, ledger, peak_rss_mb, accuracy):
    """The end-to-end metrics; wall figures are kept under wall_* keys.
    accuracy, when not None, replaces the iterations' own."""
    speed = statistics.median(probes) / PROBE_REF_S
    wall_setup = statistics.median(setup_times)
    wall_rate = statistics.median(o.items / o.seconds for o in outcomes)
    return {
        "setup_s": wall_setup / speed,
        "items_per_s": wall_rate * speed,
        "accuracy": (statistics.median(o.accuracy for o in outcomes)
                     if accuracy is None else accuracy),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - len(ledger.failed) / ledger.attempted,
        "wall_setup_s": wall_setup,
        "wall_items_per_s": wall_rate,
    }


def print_summary(args, values, ledger):
    """The workload's figures under the names its command's users know."""
    rate_name, rate_unit, acc_name = SUMMARY_NAMES[args.workload]
    rows = [("setup_s", values["setup_s"], "s (probe-scaled)"),
            ("setup_s_wall", values["wall_setup_s"], "s"),
            (rate_name, values["items_per_s"], rate_unit + " (probe-scaled)"),
            (rate_name + "_wall", values["wall_items_per_s"], rate_unit),
            (acc_name, values["accuracy"], "ratio"),
            ("peak_rss_mb", values["peak_rss_mb"], "MB"),
            ("failed_ratio", len(ledger.failed) / ledger.attempted,
             f"ratio ({len(ledger.failed)}/{ledger.attempted})")]
    for name, value, unit in rows:
        print(f"{args.workload:14s} {name:24s} {value:14.6g} {unit}")


def run(args):
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".bench_work" / run_id
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    env = environment(args)
    probes = []
    try:
        inputs, setup_times = run_setups(args, work, ledger, probes)
        out = work / "out"
        out.mkdir()
        state = {"reference": None}
        outcomes, _, _ = measure(wl, inputs, out, args, ledger, state, probes)
        # before the final checks, whose memory is not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {"env": env, "setup_s": setup_times, "probe_s": probes}
        if args.trace:
            tracer = spans.Tracer(run_id)
            spans.instrument(tracer)
            try:
                traced, per_iteration, forwards_ms = measure(
                    wl, inputs, out, args, ledger, state, [], tracer)
            finally:
                tracer.unwrap_all()
        checks, accuracy = wl.final_checks(inputs, out, args.smoke)
        for name, passed, detail in checks:
            ledger.add(name, passed, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not outcomes or (args.trace and not traced):
        print("error: no iteration passed its checks", file=sys.stderr)
        return 1

    if args.trace:
        overhead = (statistics.median(o.seconds for o in traced)
                    / statistics.median(o.seconds for o in outcomes))
        values = spans.summarize(per_iteration, forwards_ms, overhead)
        units = dict(spans.PER_LAYER)
        record["per_iteration"] = per_iteration
        record["spans"] = [asdict(s) for s in tracer.spans]
    else:
        values = end_to_end(outcomes, setup_times, probes, ledger, peak_rss_mb,
                            accuracy)
        units = dict(E2E)
        print_summary(args, values, ledger)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record.update({"iterations": [asdict(o) for o in outcomes],
                   "failed_checks": ledger.failed, "metrics": metrics})
    (results / f"{run_id}.json").write_text(json.dumps(record), encoding="utf-8")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": not ledger.failed, "attempted": ledger.attempted,
                      "failed": len(ledger.failed), "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pointlabel" / "__init__.py").is_file():
        print(f"error: no pointlabel sources at {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One malloc arena for all threads: with one arena per pool thread, the
    # peak RSS of a threaded predict depends on which thread frees first.
    ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    if args.setup_into:
        return setup_child(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
