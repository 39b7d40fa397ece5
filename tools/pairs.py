"""Run the benchmark on two source trees in alternating pairs and write a BENCH file.

    python3 tools/pairs.py <parent-tree> <change-tree> --out BENCH_N.json

For each workload of BENCHMARK.json, its ``command`` runs with
``--workload W --seed S --seconds <run_seconds>`` from the root of each
tree, one run at a time, in 10 pairs at seeds 101-110; the parent runs
first on odd pairs.  Then one ``--trace 1`` run per side at seed 1 gives
the per-layer counts.  Both trees must hold the same BENCHMARK.json and
benchmark/ files, which this script only reads.

Per end-to-end metric the output holds each side's run values, median and
quartiles, the ratio of the medians (change / parent), the pairs the
change wins (ties count for neither side) and whether the change's median
is within the metric's bound.  One row per workload and metric is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

PAIRS = 10
FIRST_SEED = 101
TRACE_SEED = 1


def benchmark_files(tree: Path) -> dict:
    """The bytes of BENCHMARK.json and of every source file under benchmark/, by relative path."""
    under = sorted(f for f in (tree / "benchmark").rglob("*") if f.is_file() and "__pycache__" not in f.parts)
    files = [tree / "BENCHMARK.json", *under]
    return {str(f.relative_to(tree)): f.read_bytes() for f in files}


def run(tree: Path, command: list, *args) -> dict:
    """One benchmark run from the root of ``tree``: the result object of its last output line."""
    out = subprocess.run([*command, *map(str, args)], cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} {args} in {tree} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "values": values}


def compare(metric: dict, parent: list, change: list) -> dict:
    """One end-to-end metric over the pairs, judged by its direction and bound."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = summary(parent), summary(change)
    ratio = c["median"] / p["median"]
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "ratio": ratio,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "within_bound": bool(sign * (ratio - 1.0) >= -metric["bound"]),
    }


def gain(m: dict) -> bool:
    """At least nine tenths of the pairs won, and the medians apart by more than the parent's quartile spread."""
    sign = 1.0 if m["better"] == "higher" else -1.0
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    won = 10 * m["change_wins"] >= 9 * len(m["parent"]["values"])
    return won and sign * (m["change"]["median"] - m["parent"]["median"]) > spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if benchmark_files(trees["parent"]) != benchmark_files(trees["change"]):
        print("the two trees hold different benchmarks", file=sys.stderr)
        return 2
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]

    workloads, traced = {}, {}
    for w in spec["workloads"]:
        name = w["name"]
        results = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")  # parent first on odd pairs
            for side in order:
                results[side].append(run(trees[side], command, "--workload", name, "--seed", FIRST_SEED + i,
                                         "--seconds", seconds))
        trace = {side: run(trees[side], command, "--workload", name, "--seed", TRACE_SEED, "--seconds", seconds,
                           "--trace", 1) for side in ("parent", "change")}
        traced[name] = {side: {k: v["value"] for k, v in r["metrics"].items()} for side, r in trace.items()}
        every = [*results["parent"], *results["change"], *trace.values()]
        workloads[name] = {
            "pairs": PAIRS,
            "failed": {side: [r["failed"] for r in rs] for side, rs in results.items()},
            "attempted": {side: [r["attempted"] for r in rs] for side, rs in results.items()},
            "correct": all(r["correct"] and r["failed"] == 0 for r in every),
            "metrics": {
                m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in results[side]]
                                        for side in ("parent", "change")))
                for m in spec["end_to_end"]
            },
        }
        for metric, m in workloads[name]["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"{name:14s} {metric:13s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                  f"change {c['median']:.4g}  x{m['ratio']:.3f}  wins {m['change_wins']}/{PAIRS}  "
                  f"within bound {m['within_bound']}  gain {gain(m)}  correct {workloads[name]['correct']}",
                  flush=True)

    out = {
        "what": f"alternating parent/change pairs of `{' '.join(command)} --workload W --seed S --seconds "
                f"{seconds}`, one run at a time; pair i uses seed {FIRST_SEED - 1} + i (i = 1..{PAIRS}) on both "
                f"sides, and the side that runs first alternates (parent first on odd i); then one `--trace 1` "
                f"run per side at seed {TRACE_SEED}. Times are in reference-machine units (benchmark/calibration.py).",
        "machine": {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__},
        "workloads": workloads,
        f"traced_seed_{TRACE_SEED}": traced,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
