"""The zipstrata benchmark: one closed-loop client, three workloads.

    python3 zsbench/run.py --workload strata-warm --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists):

* ``strata-warm``: a long-lived service. After a warm-up that runs every
  pool table and point-query word once, windows of Zipf-weighted
  ``run_case`` tables and ``ord_for_word`` point queries.
* ``strata-cold``: command-line users. Each window is a sweep over the cold
  pool through ``cli.main(... --format json)`` in a fresh interpreter.
* ``oracle-check``: verification traffic. Polynomial oracle orders against
  the word formulas and against closed forms.

Every operation's output is checked against the committed references in
``reference/`` and against the stratum invariants. With ``--trace 0`` the run
measures for ``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed amount of work untraced, under
``tracer.Tracer`` and untraced again, and reports the per-layer metrics.
Times are scaled to the reference speed of ``speed.py``. ``--mutate`` makes
every expectation wrong on purpose, so the run must report failures. The
last line of standard output is the JSON result; the exit code is 0 when
every operation passed its checks, 1 otherwise, and 2 when the run cannot
start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Dict, List, Tuple

import workloads
from speed import SpeedMeter
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("strata-warm", "strata-cold", "oracle-check")

# Setup samples per run; the median is reported. strata-warm repeats its
# warm-up each time, so it takes fewer.
SETUP_REPEATS = {"strata-warm": 3, "strata-cold": 9, "oracle-check": 9}

# Windows that ``--trace 1`` runs untraced, traced and untraced again: a fixed
# amount of work, so call counts repeat exactly for a given seed.
TRACE_WINDOWS = {"strata-warm": 2, "strata-cold": 1, "oracle-check": 4}

CHILD_TIMEOUT_S = 150

LAYERS = ("cases", "weyl", "vanishing", "fzip", "reps", "rootsys", "oracle", "cli")

CALL_METRICS = {
    "cases.run_case.calls": "cases.run_case",
    "weyl.min_in_double_coset.calls": "weyl.WeylGroup.min_in_double_coset",
    "weyl.reduced_word.calls": "weyl.WeylGroup.reduced_word",
    "weyl.min_coset_reps.calls": "weyl.WeylGroup.min_coset_reps",
    "weyl.length.calls": "weyl.WeylGroup.length",
    "vanishing.condition_closed.calls": "vanishing.condition_closed",
    "vanishing.ord_for_word.calls": "vanishing.ord_for_word",
    "fzip.build_standard.calls": "fzip.build_standard",
    "rootsys.reflect.calls": "rootsys.reflect",
    "rootsys.pairing.calls": "rootsys.pairing",
    "oracle.gl_cell_order.calls": "oracle.gl_cell_order",
    "oracle.mat_mul.calls": "oracle.mat_mul",
    "oracle.poly_mul.calls": "oracle.SparsePoly.__mul__",
    "oracle.determinant.calls": "oracle.determinant",
}


# -- library and windows ----------------------------------------------------


def import_library() -> types.SimpleNamespace:
    modules = {name: importlib.import_module(name) for name in workloads.MODULES}
    return types.SimpleNamespace(
        **{name.rsplit(".", 1)[-1]: module for name, module in modules.items()}
    )


def window_ops(workload: str, seed: int, index: int, refs) -> List[tuple]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "strata-warm":
        return workloads.warm_window(rng, refs)
    if workload == "strata-cold":
        return workloads.cold_window(rng)
    return workloads.oracle_window(rng, refs)


def run_window(ops, run_op, tracer=None) -> Tuple[List[float], List[float], List[str]]:
    """Run operations back to back with calibration points between them;
    return the latencies at the reference speed, the raw latencies and the
    failure descriptions."""
    meter = SpeedMeter()
    raw: List[float] = []
    marks: List[int] = []
    errors: List[str] = []
    for op in ops:
        marks.append(meter.mark())
        if tracer is not None:
            tracer.op_id += 1
        latency, error = run_op(op)
        raw.append(latency)
        if error:
            errors.append(error)
    meter.finish()
    return [lat * meter.scale(m) for lat, m in zip(raw, marks)], raw, errors


def setup(workload: str, refs, mutate: bool):
    """Import the library and run the workload's warm-up. Return the setup
    time at the reference speed, the raw setup time, the library, the
    warm-up failures and the number of warm-up operations."""
    warm_up = workloads.warm_up_ops(refs) if workload == "strata-warm" else []
    meter = SpeedMeter()
    mark = meter.mark()
    start = time.perf_counter()
    lib = import_library()
    raw = time.perf_counter() - start
    meter.finish()
    scaled = raw * meter.scale(mark)
    run_op = lambda op: workloads.execute(op, lib, refs, mutate)  # noqa: E731
    warm_scaled, warm_raw, errors = run_window(warm_up, run_op)
    return scaled + sum(warm_scaled), raw + sum(warm_raw), lib, errors, len(warm_up)


def op_scales(scaled: List[float], raw: List[float]) -> Dict[int, float]:
    """Operation id (1, 2, ... in the order run) to its speed factor."""
    return {op_id: s / r for op_id, (s, r) in enumerate(zip(scaled, raw), start=1)}


def layer_metrics(tracer: Tracer, scales: Dict[int, float]) -> Dict[str, float]:
    calls = tracer.calls()
    self_s = tracer.layer_self_seconds(scales)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1000
    for metric, span in CALL_METRICS.items():
        if span not in calls:
            print(f"warning: no traced function {span}", file=sys.stderr)
        metrics[metric] = calls.get(span, 0)
    closedness = calls.get("vanishing.condition_closed", 0)
    hit_ratio = 0.0
    if closedness and "vanishing.root_sequence" in calls:
        misses = tracer.child_parents("vanishing.root_sequence", "vanishing.condition_closed")
        hit_ratio = (closedness - misses) / closedness
    metrics["vanishing.closedness_hit_ratio"] = hit_ratio
    return metrics


# -- child processes --------------------------------------------------------


def spawn(kind: str, args: argparse.Namespace, window: int = 0, trace: int = 0) -> dict:
    """Run this script as a child in a fresh interpreter and return the JSON
    object on its last output line."""
    argv = [sys.executable, str(HERE / "run.py"), "--child", kind,
            "--workload", args.workload, "--seed", str(args.seed),
            "--window", str(window), "--trace", str(trace)]
    if args.mutate:
        argv.append("--mutate")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"child {kind} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def child_main(args: argparse.Namespace, refs) -> int:
    scaled, raw, lib, errors, attempted = setup(args.workload, refs, args.mutate)
    out = {"setup_s": scaled, "setup_raw_s": raw, "errors": errors, "attempted": attempted}
    if args.child == "sweep":
        ops = window_ops(args.workload, args.seed, args.window, refs)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        run_op = lambda op: workloads.run_cli_op(op, lib.cli, refs, args.mutate)  # noqa: E731
        out["latencies"], out["raw"], window_errors = run_window(ops, run_op, tracer)
        out["errors"] = errors + window_errors
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_metrics(tracer, op_scales(out["latencies"], out["raw"]))
            out["spans"] = tracer.span_count
            tracer.write(trace_path(args))
    print(json.dumps(out))
    return 0


def trace_path(args: argparse.Namespace) -> Path:
    return TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.csv"


# -- the two kinds of run ---------------------------------------------------


def measure_setup(args: argparse.Namespace, refs, in_process: bool):
    """Setup samples: fresh-interpreter children plus, when the workload runs
    in this process, this process's own setup, which it then keeps using."""
    scaled: List[float] = []
    raw: List[float] = []
    errors: List[str] = []
    attempted = 0
    for _ in range(SETUP_REPEATS[args.workload] - in_process):
        out = spawn("setup", args)
        scaled.append(out["setup_s"])
        raw.append(out["setup_raw_s"])
        errors.extend(out["errors"])
        attempted += out["attempted"]
    lib = None
    if in_process:
        own, own_raw, lib, own_errors, own_attempted = setup(args.workload, refs, args.mutate)
        scaled.append(own)
        raw.append(own_raw)
        errors.extend(own_errors)
        attempted += own_attempted
    return scaled, raw, lib, errors, attempted


def window_stats(windows: List[List[float]]) -> Tuple[float, float, float]:
    """Operations per second, median latency and tail latency in seconds,
    each the median over windows. The tail of a window of n operations is
    the latency with ten operations beyond it, percentile 100 (n - 10) / n.
    Medians over windows keep a burst of contention in a few windows from
    moving the result."""
    return (
        statistics.median(len(lat) / sum(lat) for lat in windows),
        statistics.median(statistics.median(lat) for lat in windows),
        statistics.median(sorted(lat)[-11] for lat in windows),
    )


def report(header: str, metrics: Dict[str, Tuple[float, str, str]],
           attempted: int, errors: List[str]) -> Tuple[dict, int, int]:
    failed = len(errors)
    print(header)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed_frac {failed / attempted if attempted else 0.0:.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    for error in errors[:5]:
        print(f"failure: {error}")
    return ({name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
            attempted, failed)


def timed_run(args: argparse.Namespace, refs) -> Tuple[dict, int, int]:
    in_process = args.workload != "strata-cold"
    setup_scaled, setup_raw, lib, errors, attempted = measure_setup(args, refs, in_process)
    scaled: List[List[float]] = []
    raw: List[List[float]] = []
    phase_start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - phase_start < args.seconds:
        if in_process:
            ops = window_ops(args.workload, args.seed, index, refs)
            run_op = lambda op: workloads.execute(op, lib, refs, args.mutate)  # noqa: E731
            window, window_raw, window_errors = run_window(ops, run_op)
        else:
            try:
                out = spawn("sweep", args, window=index)
                window, window_raw, window_errors = out["latencies"], out["raw"], out["errors"]
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
                window, window_raw = [], []
                window_errors = [str(err)] * len(workloads.COLD_POOL)
        if window:
            scaled.append(window)
            raw.append(window_raw)
        attempted += max(len(window), len(window_errors))
        errors.extend(window_errors)
        index += 1
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if not scaled:
        return report(f"workload {args.workload}: no window completed", {},
                      attempted, errors)
    size = len(scaled[0])
    ops_per_s, p50, tail = window_stats(scaled)
    raw_ops, raw_p50, raw_tail = window_stats(raw)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s", f"  (raw {raw_ops:.6g})"),
        "op_p50_ms": (p50 * 1000, "ms", f"  (raw {raw_p50 * 1000:.6g})"),
        "op_tail_ms": (tail * 1000, "ms",
                       f"  (raw {raw_tail * 1000:.6g}; p{100 * (size - 10) / size:.1f} of "
                       f"each window of {size} ops, median over {len(scaled)} windows, "
                       f"{sum(map(len, scaled))} samples)"),
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"  (raw {statistics.median(setup_raw):.6g}; median of "
                    f"{len(setup_scaled)} setups)"),
        "peak_rss_mb": (usage / 1024, "MB", ""),
    }
    header = (f"workload {args.workload}  seed {args.seed}  {len(scaled)} windows  "
              f"times at the reference speed of speed.py")
    return report(header, metrics, attempted, errors)


def traced_run(args: argparse.Namespace, refs) -> Tuple[dict, int, int]:
    """A fixed amount of work run untraced, traced, and untraced again; the
    overhead compares the traced pass with the mean of the untraced ones."""
    windows = range(TRACE_WINDOWS[args.workload])
    if args.workload == "strata-cold":
        passes = [spawn("sweep", args, window=0, trace=t) for t in (0, 1, 0)]
        layers, spans = passes[1]["layers"], passes[1]["spans"]
        errors = [err for out in passes for err in out["errors"]]
        attempted = sum(out["attempted"] + len(out["latencies"]) for out in passes)
        totals = [sum(out["latencies"]) for out in passes]
    else:
        _, _, lib, errors, attempted = setup(args.workload, refs, args.mutate)
        run_op = lambda op: workloads.execute(op, lib, refs, args.mutate)  # noqa: E731
        batches = [window_ops(args.workload, args.seed, k, refs) for k in windows]
        tracer = Tracer()
        totals = []
        for active in (None, tracer, None):
            if active is not None:
                active.install()
            scaled: List[float] = []
            raw: List[float] = []
            for ops in batches:
                latencies, raw_latencies, window_errors = run_window(ops, run_op, active)
                scaled += latencies
                raw += raw_latencies
                errors.extend(window_errors)
            if active is not None:
                active.uninstall()
                scales = op_scales(scaled, raw)
            attempted += len(scaled)
            totals.append(sum(scaled))
        layers, spans = layer_metrics(tracer, scales), tracer.span_count
        tracer.write(trace_path(args))
    plain_s = (totals[0] + totals[2]) / 2
    traced_s = totals[1]
    layers["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    units = {"self_ms": "ms", "calls": "count"}
    metrics = {
        name: (value, units.get(name.rsplit(".", 1)[-1], "ratio"), "")
        for name, value in layers.items()
    }
    header = (f"workload {args.workload}  seed {args.seed}  traced windows {len(windows)}  "
              f"spans {spans} written to {trace_path(args).relative_to(ROOT)}")
    return report(header, metrics, attempted, errors)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mutate", action="store_true",
                        help="negative control: make every expectation wrong")
    parser.add_argument("--child", choices=("setup", "sweep"), help=argparse.SUPPRESS)
    parser.add_argument("--window", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zipstrata" / "__init__.py").is_file():
        print(f"zsbench: no zipstrata sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = workloads.load_references()
    if args.child:
        return child_main(args, refs)
    if args.trace:
        metrics, attempted, failed = traced_run(args, refs)
    else:
        metrics, attempted, failed = timed_run(args, refs)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
