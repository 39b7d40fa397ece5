"""Measure reference figures: each workload over seeds 1-10, with their spread.

    python3 benchmark/reference.py

Runs the command of ``BENCHMARK.json`` once per (workload, seed), one run
at a time, and writes ``benchmark/reference.json``: for every end-to-end
metric its median, quartiles and spread (interquartile range as a share
of the median, the figure each metric's bound is compared with), and one
traced run per workload for its per-layer figures.  Run it from the root
of a checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": len(SEEDS), "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(spec, workload, seed, 0) for seed in SEEDS]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
            "per_layer": {k: v["value"] for k, v in run_once(spec, workload, 1, 1)["metrics"].items()},
        }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (above a third of its bound)"
            print(f"{workload:14s} {name:13s} median {s['median']:.6g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
    (ROOT / "benchmark" / "reference.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
