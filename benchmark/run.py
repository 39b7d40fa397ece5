"""Run one qelicit benchmark workload and print its metrics as JSON.

    python3 benchmark/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  With ``--trace 0`` the workload runs rounds of timed, checked
operations for ``--seconds`` seconds and reports the end-to-end metrics.
With ``--trace 1`` it runs one warm-up round, then a fixed number of
rounds untraced, then one set-up and the same rounds traced, and reports
per-layer metrics from the spans, plus the tracing overhead (traced minus
untraced time of the same operations).
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402  (imported before the library, so set-up excludes it)

from calibration import Clock  # noqa: E402
from tracing import LAYERS, SETUP_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
MIN_ROUNDS = 3  # so that every op of a round is timed at least three times


def listed(kind: str) -> list:
    """(name, unit) of each metric that BENCHMARK.json lists under ``kind``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def import_library():
    """Import qelicit afresh from this checkout's src/ and return the package."""
    for name in [n for n in sys.modules if n == "qelicit" or n.startswith("qelicit.")]:
        del sys.modules[name]
    q = importlib.import_module("qelicit")
    for layer in LAYERS:
        importlib.import_module(f"qelicit.{layer}")
    src = (ROOT / "src").resolve()
    if src not in Path(q.__file__).resolve().parents:
        raise ImportError(f"qelicit was imported from {q.__file__}, not from {src}")
    return q


def set_up(workload, seed: int):
    """Import and build the workload's objects several times; median time."""
    clock = Clock(every=0.0)
    for _ in range(SETUP_REPEATS):
        clock.before()
        t0 = perf_counter()
        q = import_library()
        workload.setup(q, seed)
        clock.record(perf_counter() - t0)
    return q, statistics.median(clock.scaled())


def median(x) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted
    mean of the order statistics (weights by the midpoint rule).

    Op times cluster by op kind, and the middle order statistic jumps
    between clusters from run to run; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    t = (np.arange(len(x)) + 0.5) / len(x)
    logw = (len(x) - 1) / 2 * (np.log(t) + np.log1p(-t))
    w = np.exp(logw - logw.max())
    return float(w @ x / w.sum())


class Tally:
    """Runs ops, counts failures, and times each op that returns on its ``Clock``."""

    def __init__(self):
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0

    @property
    def times(self) -> list:
        return [wall for _, wall in self.clock.intervals]

    def run(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            self.clock.before()
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception:
                self.fail(op, "raised:\n" + traceback.format_exc())
                continue
            self.clock.record(perf_counter() - t0)
            try:
                reason = op.check(out)
            except Exception:
                reason = "output could not be checked:\n" + traceback.format_exc()
            if reason is not None:
                self.fail(op, reason)

    def fail(self, op, reason: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op.name}: {reason}", file=sys.stderr)


def run_untraced(workload, q, seed: int, seconds: float) -> Tally:
    """Run the rounds that fill ``seconds`` on the reference machine, and at least three.

    The count is fixed by ``seconds`` alone, so every run, on either side
    of a change, does the same rounds whatever the machine's load; a run
    that takes more than four times as long stops after its current round.
    """
    tally = Tally()
    rounds = max(MIN_ROUNDS, round(seconds / workload.round_seconds))
    t0 = perf_counter()
    for index in range(rounds):
        tally.run(workload.round(q, seed, index))
        if perf_counter() - t0 > 4 * seconds:
            print(f"stopped after {index + 1} of {rounds} rounds", file=sys.stderr)
            break
    return tally


def run_traced(workload, q, seed: int, out_dir: Path):
    """Run ``trace_rounds`` rounds untraced, then set up and run them again traced.

    One untimed round first warms the process, so that the overhead
    compares warm runs.  The set-up metrics come from the traced set-up,
    every other metric from the traced rounds.
    """
    warm, plain, traced = Tally(), Tally(), Tally()
    warm.run(workload.round(q, seed, 0))
    for index in range(workload.trace_rounds):
        plain.run(workload.round(q, seed, index))
    tracer = Tracer()
    tracer.install()
    workload.setup(q, seed)
    at_setup = tracer.layer_metrics()
    tracer.reset()
    for index in range(workload.trace_rounds):
        traced.run(workload.round(q, seed, index))
    tracer.write(out_dir / f"trace-{workload.name}-{seed}.npz")
    metrics = tracer.layer_metrics()
    metrics.update({name: at_setup[name] for name in SETUP_METRICS})
    metrics["trace.ops"] = traced.attempted
    metrics["trace.overhead_s"] = sum(traced.clock.scaled()) - sum(plain.clock.scaled())
    return (warm, plain, traced), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("QELICIT_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](str(out_dir))
    q, setup_s = set_up(workload, args.seed)

    if args.trace:
        tallies, layer = run_traced(workload, q, args.seed, out_dir)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in listed("per_layer")}
    else:
        tally = run_untraced(workload, q, args.seed, args.seconds)
        tallies = (tally,)
        scaled = tally.clock.scaled()
        if not scaled:
            print("no operation returned", file=sys.stderr)
            return 1
        print(f"wall: {len(tally.times) / sum(tally.times):.6g} ops/s, p50 "
              f"{statistics.median(tally.times) * 1e3:.6g} ms; machine slowdown "
              f"{tally.clock.slowdown():.3f}", file=sys.stderr)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(scaled) / sum(scaled),
            "call_p50_ms": median(scaled) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in listed("end_to_end")}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
