"""Time the scalar-path layers of two source trees in alternating batches and write a table.

    python3 tools/layers.py <parent-tree> <change-tree> --out layers.json

One worker process per tree imports ``qelicit`` from that tree's ``src``
and builds the same inputs.  The layers, each at n = 3 and 16, are
``as_density``, ``spectral_decompose``, ``apply_measurement`` with
``canonical_complete(n)``, ``expected_score`` of every registry score
(a full-rank report against a full-rank belief), ``von_neumann_entropy``,
``relative_entropy`` and ``make_score`` of every registry score; then
``canonical_complete(16)`` and, at n = 3, a 20-probe
``find_level_set_witness`` of every registry property with an evaluator;
then the public ``spectral_score(brier_rule())`` and
``fixed_measurement_score(brier_rule(), canonical_complete(3))``, which
check their rule at every construction; ``MarketState.maker_loss`` at
n = 2, 4 and 8 after three seeded trades; ``replay_verify`` of trial
2,400 of stream 0 of a 10,000-trial, seed-3 run of ``fixed:brier``,
``ml:s2`` and ``ml:s5`` at d = 2 and 16; ``apply_measurement`` with
``canonical_complete(8)``; and one ``verify-large``-shaped
``run_verify(name, [16], 160, 3)`` (160 truthfulness trials, 40 of each
other check) of ``spectral:log``, ``fixed:brier`` and ``ml:s5``; at
n = 3, ``log_spectral().measure(r)`` and ``score_coefficient(log_spectral(),
r)``, which build one eigenbasis POVM each; and a ``verify-small``-shaped
``run_verify("ml:s5", [2, 3, 4], 160, 3)``.  Last, ``hs_inner`` at n = 3;
``run_verify("binary-brier", [16], 160, 3)`` and ``run_verify("ml:s4",
[2, 3, 4], 160, 3)``, of the ``verify-large`` and ``verify-small`` shapes;
and ``reconstruct(probs(rho))`` on ``tomographic_map(canonical_complete(3))``.
Then the optimizers at the ``elicit`` shape, each at n = 2, 3 and 4 with
50 restarts on a seeded full-rank state: ``optimize_top_eigenvector``,
``optimize_abstain`` of ``abstain_score(0.5, n)``,
``optimize_weighted_basis`` with weights [2, 1] on 2 columns and
``optimize_eigen_pair`` with k = 2.
For each layer both workers run batches of the
same number of calls in turn, the side that goes first alternating, so a
slower or faster spell of the machine falls on both sides alike.  A
layer's row holds each side's per-call time over its batches (median and
quartiles, in us), the ratio of the medians (change / parent) and the
batches the change wins.  Each layer's output is hashed once per tree,
bit for bit, and a row whose outputs differ between the trees is flagged;
a made score is hashed as its expected score on the layer's pair, since
its repr holds function addresses, and a witness or a replay as its JSON.  The workers
run with one BLAS thread, as the benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BATCHES = 31
BATCH_SECONDS = 0.02  # the parent's batch length, which sets each layer's calls per batch


def layers() -> tuple:
    """The calls to time, by name, each a function of no arguments on seeded inputs, and the views of their outputs.

    A view maps a call's output to what is hashed; a call without one is hashed as it is.
    """
    import qelicit as q
    from qelicit.registry import PROPERTY_REGISTRY, SCORE_REGISTRY, make_property, make_score, replay_verify, run_verify

    calls, views = {}, {}
    for n in (3, 16):
        rho, sigma = q.random_density(n, rng=n), q.random_density(n, rng=n + 1)
        mu = q.canonical_complete(n)
        calls[f"as_density n={n}"] = lambda rho=rho: q.as_density(rho)
        calls[f"spectral_decompose n={n}"] = lambda rho=rho: q.spectral_decompose(rho)
        calls[f"apply_measurement canonical_complete n={n}"] = lambda mu=mu, rho=rho: q.apply_measurement(mu, rho)
        for name in sorted(SCORE_REGISTRY):
            S = make_score(name, n)
            calls[f"expected_score {name} n={n}"] = lambda S=S, rho=rho, sigma=sigma: q.expected_score(S, sigma, rho)
        calls[f"von_neumann_entropy n={n}"] = lambda rho=rho: q.von_neumann_entropy(rho)
        calls[f"relative_entropy n={n}"] = lambda rho=rho, sigma=sigma: q.relative_entropy(rho, sigma)
        for name in sorted(SCORE_REGISTRY):
            calls[f"make_score {name} n={n}"] = lambda name=name, n=n: make_score(name, n)
            views[f"make_score {name} n={n}"] = lambda S, rho=rho, sigma=sigma: q.expected_score(S, sigma, rho)
    calls["canonical_complete n=16"] = lambda: q.canonical_complete(16)
    views["canonical_complete n=16"] = lambda mu: mu.elements
    for name in sorted(p for p, entry in PROPERTY_REGISTRY.items() if entry["property"]):
        prop = make_property(name, 3)
        calls[f"find_level_set_witness {name} n=3 probes=20"] = lambda prop=prop: q.find_level_set_witness(prop, 3, 20, 5)
        views[f"find_level_set_witness {name} n=3 probes=20"] = lambda w: w and json.dumps(w.to_json())
    rho, sigma = q.random_density(3, rng=3), q.random_density(3, rng=4)
    calls["spectral_score brier"] = lambda: q.spectral_score(q.brier_rule())
    calls["fixed_measurement_score brier canonical_complete n=3"] = \
        lambda: q.fixed_measurement_score(q.brier_rule(), q.canonical_complete(3))
    for name in ("spectral_score brier", "fixed_measurement_score brier canonical_complete n=3"):
        views[name] = lambda S, rho=rho, sigma=sigma: q.expected_score(S, sigma, rho)
    for n in (2, 4, 8):
        g = np.random.default_rng(n)
        market = q.MarketState(n)
        for _ in range(3):
            market.trade(2.0 * q.random_hermitian(n, rng=g))
        calls[f"MarketState.maker_loss n={n}"] = lambda market=market, truth=q.random_density(n, rng=g): \
            market.maker_loss(truth)
    for name in ("fixed:brier", "ml:s2", "ml:s5"):
        for d in (2, 16):
            layer = f"replay_verify {name} d={d} trial=2400"
            calls[layer] = lambda name=name, d=d: replay_verify(name, [d], 10000, 3, 0, 2400)
            views[layer] = lambda r: json.dumps(r, sort_keys=True)
    mu, rho = q.canonical_complete(8), q.random_density(8, rng=8)
    calls["apply_measurement canonical_complete n=8"] = lambda: q.apply_measurement(mu, rho)
    for name in ("spectral:log", "fixed:brier", "ml:s5"):
        layer = f"run_verify {name} d=16 trials=160"
        calls[layer] = lambda name=name: run_verify(name, [16], 160, 3)
        views[layer] = lambda r: json.dumps(r, sort_keys=True)
    S, r = q.log_spectral(), q.random_density(3, rng=3)
    calls["log_spectral measure n=3"] = lambda: S.measure(r)
    views["log_spectral measure n=3"] = lambda mu: mu.elements
    calls["score_coefficient log_spectral n=3"] = lambda: q.score_coefficient(S, r)
    views["score_coefficient log_spectral n=3"] = lambda E: (E.finite_part, E.infinite_part)
    calls["run_verify ml:s5 d=2,3,4 trials=160"] = lambda: run_verify("ml:s5", [2, 3, 4], 160, 3)
    views["run_verify ml:s5 d=2,3,4 trials=160"] = lambda r: json.dumps(r, sort_keys=True)
    a, b = q.random_density(3, rng=3), q.random_density(3, rng=4)
    calls["hs_inner n=3"] = lambda: q.hs_inner(a, b)
    for layer, args in (("run_verify binary-brier d=16 trials=160", ("binary-brier", [16])),
                        ("run_verify ml:s4 d=2,3,4 trials=160", ("ml:s4", [2, 3, 4]))):
        calls[layer] = lambda args=args: run_verify(*args, 160, 3)
        views[layer] = lambda r: json.dumps(r, sort_keys=True)
    tmap = q.tomographic_map(q.canonical_complete(3))
    calls["tomographic_map canonical_complete n=3 reconstruct(probs(rho))"] = lambda: tmap.reconstruct(tmap.probs(a))
    for n in (2, 3, 4):  # the closures above read rho, S and the rest when called, so these take their own names
        state, P = q.random_density(n, rng=30 + n), q.properties
        for layer, f in ((f"optimize_top_eigenvector n={n}", lambda x=state: P.optimize_top_eigenvector(x, 50, 7)),
                         (f"optimize_abstain n={n}",
                          lambda x=state, A=q.abstain_score(0.5, n): P.optimize_abstain(A, x, 50, 7)),
                         (f"optimize_weighted_basis [2, 1] n={n}",
                          lambda x=state: P.optimize_weighted_basis(x, [2.0, 1.0], 2, 50, 7)),
                         (f"optimize_eigen_pair k=2 n={n}", lambda x=state: P.optimize_eigen_pair(x, 2, 50, 7))):
            calls[f"{layer} restarts=50"] = f
    return calls, views


def exact(x) -> bytes:
    # an output written out in full: an array as its dtype, shape and bytes, a tuple item by item, else its repr
    if isinstance(x, np.ndarray):
        return f"{x.dtype.str}{x.shape}".encode() + x.tobytes()
    if isinstance(x, tuple):
        return b"(" + b",".join(map(exact, x)) + b")"
    return repr(x).encode()


def worker() -> None:
    """Serve one tree: print each layer's output hash, then time {"layer", "calls"} requests read from stdin."""
    calls, views = layers()
    outputs = {name: views.get(name, lambda x: x)(f()) for name, f in calls.items()}
    print(json.dumps({name: hashlib.sha256(exact(x)).hexdigest() for name, x in outputs.items()}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        f, k = calls[request["layer"]], request["calls"]
        start = time.perf_counter()
        for _ in range(k):
            f()
        print(json.dumps(time.perf_counter() - start), flush=True)


class Side:
    """A worker process for one tree."""

    def __init__(self, tree: Path):
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        env.pop("QELICIT_THREADS", None)
        self.proc = subprocess.Popen([sys.executable, __file__, "--worker"], cwd=tree, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.hashes = json.loads(self.proc.stdout.readline())

    def time(self, layer: str, calls: int) -> float:
        self.proc.stdin.write(json.dumps({"layer": layer, "calls": calls}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def summary(us: list) -> dict:
    q1, median, q3 = np.percentile(us, [25, 50, 75])
    return {"median_us": float(median), "q1_us": float(q1), "q3_us": float(q3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker()
        return 0
    if args.parent is None or args.change is None or args.out is None:
        parser.error("give the parent tree, the change tree and --out")
    sides = {"parent": Side(args.parent.resolve()), "change": Side(args.change.resolve())}
    rows = {}
    try:
        for layer in sides["parent"].hashes:
            calls = max(1, round(BATCH_SECONDS * 20 / sides["parent"].time(layer, 20)))
            us = {"parent": [], "change": []}
            for b in range(BATCHES):
                for side in ("parent", "change") if b % 2 == 0 else ("change", "parent"):
                    us[side].append(1e6 * sides[side].time(layer, calls) / calls)
            p, c = summary(us["parent"]), summary(us["change"])
            rows[layer] = {
                "calls_per_batch": calls,
                "parent": p,
                "change": c,
                "ratio": c["median_us"] / p["median_us"],
                "change_wins": sum(b < a for a, b in zip(us["parent"], us["change"])),
                "same_output": sides["parent"].hashes[layer] == sides["change"].hashes.get(layer),
            }
            r = rows[layer]
            print(f"{layer:48s} parent {p['median_us']:9.1f} [{p['q1_us']:.1f}, {p['q3_us']:.1f}]  "
                  f"change {c['median_us']:9.1f} [{c['q1_us']:.1f}, {c['q3_us']:.1f}]  x{r['ratio']:.3f}  "
                  f"wins {r['change_wins']}/{BATCHES}{'' if r['same_output'] else '  OUTPUT DIFFERS'}", flush=True)
    finally:
        for side in sides.values():
            side.close()
    out = {
        "what": f"per-call time of each layer in {BATCHES} alternating batches per side (the side that runs "
                f"first alternates), one worker process per tree with one BLAS thread; a batch holds the calls "
                f"the parent makes in about {BATCH_SECONDS * 1e3:.0f} ms; us per call, median and quartiles "
                f"over the batches",
        "machine": {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__},
        "differing_outputs": [layer for layer, r in rows.items() if not r["same_output"]],
        "rows": rows,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
