"""Command-line harness: verification suites, worked examples, simulators.

Subcommands: verify, paper-examples, measure, market-sim, witness.  This
module only parses arguments, reads and writes files and formats output:
``registry.run_verify`` and ``registry.run_witness`` run the checks and
compare the verdicts, and ``linalg.read_wire`` reads the measurement and
market-scenario wire JSON.  Exit codes: 0 when every observed verdict
matches its expectation, 1 on a verdict mismatch, 2 on usage or IO
errors, a non-finite number in a JSON report among them.  Output is one
line of sorted-key JSON, deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .linalg import _count, as_density, density_from_json, frob_dist, hermitian_part, hs_inner, matrix_to_json, read_wire
from .markets import MarketState, bundle_expected_payoff
from .measurement import (
    Measurement,
    apply_measurement,
    canonical_complete,
    hadamard_pvm,
    sample_outcomes,
    standard_pvm,
)
from .properties import level_set_witness
from .registry import make_property, replay_verify, run_verify, run_witness
from .scores import binary_brier, expected_score, ml_scores

__all__ = ["main", "example_mixture_state", "paper_example_rows", "run_verify"]


def example_mixture_state() -> np.ndarray:
    """The worked-example qubit: 1/3 of a plus-state and 2/3 of |1><1|."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    one = np.array([0.0, 1.0])
    return hermitian_part(np.outer(plus, plus.conj()) / 3.0 + 2.0 * np.outer(one, one.conj()) / 3.0)


def paper_example_rows() -> list:
    """Golden rows reproducing the worked examples; all must pass on a clean build."""
    rho = example_mixture_state()
    rows = []  # (name, expected, observed, pass)
    for name, mu, want in (
        ("standard", standard_pvm(2), [1.0 / 6.0, 5.0 / 6.0]),
        ("hadamard", hadamard_pvm(), [2.0 / 3.0, 1.0 / 3.0]),
    ):
        p = apply_measurement(mu, rho)
        rows.append((f"{name}-basis-probabilities", want, p.tolist(), np.abs(p - want).max() <= 1e-12))

    # two states with the same spectrum whose mixture has another one
    rho1 = np.diag([0.25, 0.75]).astype(complex)
    rho2 = np.diag([0.75, 0.25]).astype(complex)
    for name, prop, both, mix in (
        ("eigenvalue", "eigenvalues", [0.75, 0.25], [0.5, 0.5]),
        ("max-eigenvalue", "max-eigenvalue", 0.75, 0.5),
    ):
        w = level_set_witness(make_property(prop, 2), rho1, rho2)
        rows.append((
            f"{name}-level-set-counterexample",
            {"value_both": both, "value_mix": mix},
            {"value_1": np.asarray(w.value_1).tolist(), "value_mix": np.asarray(w.value_mix).tolist()},
            w.is_counterexample,
        ))

    S = binary_brier()
    rep = np.diag([0.3, 0.7]).astype(complex)
    val = expected_score(S, rep, rho)
    closed = 2.0 * hs_inner(rep, rho) - hs_inner(rep, rep)
    divergence = expected_score(S, rho, rho) - val
    rows.append((
        "binary-brier-expected-form",
        {"closed_form": closed, "divergence": frob_dist(rho, rep) ** 2},
        {"expected_score": val, "divergence": divergence},
        abs(val - closed) <= 1e-10 and abs(divergence - frob_dist(rho, rep) ** 2) <= 1e-10,
    ))

    # reporting the pure lie beats the truthful belief under s3, s4 and s5
    ml = ml_scores()
    belief = np.diag([0.6, 0.4]).astype(complex)
    lie = np.diag([1.0, 0.0]).astype(complex)
    for name, key, f, atol in (
        ("trace-score", "s3", float, 1e-12),
        ("s4-log", "s4", np.log, 1e-10),
        ("s5-log", "s5", np.log, 1e-10),
    ):
        want = {"truthful": float(f(0.52)), "lie": float(f(0.6))}
        got = {"truthful": expected_score(ml[key], belief, belief), "lie": expected_score(ml[key], lie, belief)}
        ok = all(abs(got[k] - want[k]) <= atol for k in want) and got["lie"] > got["truthful"]
        rows.append((f"{name}-counterexample", want, got, ok))
    return [{"name": n, "expected": e, "observed": o, "pass": bool(ok)} for n, e, o, ok in rows]


def _dump(obj, out: str | None, csv_rows: list | None = None) -> int | None:
    """Write a CSV table for a .csv --out, else a report as one line of sorted-key, strict JSON.

    The JSON goes to ``out`` or stdout, the same bytes either way.  It is
    compact because json's C encoder writes only that; pretty-printing runs
    the pure-Python encoder, at about half of a large verify run.  A
    non-finite float is a ValueError and writes nothing.  Returns the
    number of JSON bytes written.
    """
    if out and out.endswith(".csv") and csv_rows is not None:
        import csv

        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            if csv_rows:
                writer.writerow(csv_rows[0].keys())
                writer.writerows(row.values() for row in csv_rows)
        return None
    text = json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return len(text)  # ensure_ascii: one byte per character


def _parse_dims(raw: str) -> list:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--dims must be comma-separated integers, got {raw!r}") from None


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _json_only(args) -> None:
    # verify and witness write no CSV table: refuse a .csv --out before running
    if args.out and args.out.endswith(".csv"):
        raise ValueError(f"{args.command} writes JSON only, not CSV: --out {args.out!r}")


def _cmd_verify(args) -> int:
    _json_only(args)
    if args.replay is not None:
        return _replay(args)
    report = run_verify(
        args.score, _parse_dims(args.dims), args.trials, args.seed,
        profile=sys.stderr if args.profile else None,
    )
    start = time.perf_counter()
    size = _dump(report, args.out)
    if args.profile:
        print(f"profile {args.score} report: {size} bytes encoded and written in "
              f"{time.perf_counter() - start:.4f} s", file=sys.stderr)
    return 0 if report["as_expected"] else 1


def _replay(args) -> int:
    # one violation of the verify run the other arguments name, in full; a --replay that is not two
    # integers, out of range or no violation is a ValueError naming it
    dims = _parse_dims(args.dims)
    try:
        stream, trial = (int(x) for x in args.replay.split(":"))
    except ValueError:
        raise ValueError(f"--replay must be STREAM:TRIAL, two integers, got {args.replay!r}") from None
    try:
        replay = replay_verify(args.score, dims, args.trials, args.seed, stream, trial)
    except ValueError as exc:
        raise ValueError(f"--replay {args.replay}: {exc}") from None
    if not replay["kind"]:
        raise ValueError(f"--replay {args.replay}: trial {trial} of stream {stream} ({replay['check']}) "
                         f"is not a violation, gap {replay['gap']}")
    _dump(replay, args.out)
    return 0


def _cmd_paper_examples(args) -> int:
    rows = paper_example_rows()
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  {'PASS' if r['pass'] else 'FAIL'}")
    report = {"rows": rows, "all_pass": all(r["pass"] for r in rows)}
    if args.out:
        table = [{"name": r["name"], "pass": r["pass"]} for r in rows]
        _dump(report, args.out, csv_rows=table)
    return 0 if report["all_pass"] else 1


def _named_basis(name: str, dim: int) -> Measurement:
    if name == "standard":
        return standard_pvm(dim)
    if name == "hadamard":
        if dim != 2:
            raise ValueError("the hadamard basis is only defined for dimension 2")
        return hadamard_pvm()
    if name == "canonical":
        return canonical_complete(dim)
    raise ValueError(f"unknown basis {name!r}; use standard, hadamard, or canonical")


def _cmd_measure(args) -> int:
    # the counts first, before any file is read; verify and witness refuse theirs in the registry
    _count(args.trials, "trials", 0)
    _count(args.seed, "seed", 0)
    rho = density_from_json(_load_json(args.state))
    if args.povm:
        mu = Measurement.from_json(_load_json(args.povm))
    else:
        mu = _named_basis(args.basis, rho.shape[0])
    draws = sample_outcomes(mu, rho, args.trials, rng=np.random.default_rng(args.seed))
    counts = np.bincount(draws, minlength=len(mu))
    probs = apply_measurement(mu, rho)
    report = {
        "dim": rho.shape[0],
        "samples": args.trials,
        "seed": args.seed,
        "probs": probs.tolist(),
        "counts": counts.tolist(),
    }
    table = [{"outcome": y, "count": int(c), "prob": float(p)} for y, (c, p) in enumerate(zip(counts, probs))]
    _dump(report, args.out, csv_rows=table)
    return 0


def _cmd_market(args) -> int:
    scenario = _load_json(args.scenario)
    dim, trades, truth = read_wire(scenario, "scenario", "trades", "truth")
    truth = as_density(truth)
    if scenario.get("cost", "lmsr") != "lmsr":
        raise ValueError(f"scenario cost must be 'lmsr', the only market maker, got {scenario['cost']!r}")
    market = MarketState(dim)
    ledger = []
    for i, R in enumerate(trades):
        charged = market.trade(R)
        ledger.append({
            "trade": i,
            "cost": charged,
            "expected_payoff": bundle_expected_payoff(R, truth),
            "price_after": matrix_to_json(market.price()),
        })
    report = {
        "dim": dim,
        "ledger": ledger,
        "total_cost": sum(row["cost"] for row in ledger),
        "total_expected_payoff": sum(row["expected_payoff"] for row in ledger),
        "maker_loss": market.maker_loss(truth),
        "loss_bound": float(np.log(dim)),
    }
    table = [{key: row[key] for key in ("trade", "cost", "expected_payoff")} for row in ledger]
    _dump(report, args.out, csv_rows=table)
    return 0


def _cmd_witness(args) -> int:
    _json_only(args)
    report = run_witness(args.property, _parse_dims(args.dims), args.trials, args.seed)
    _dump(report, args.out)
    return 0 if report["as_expected"] else 1


@functools.cache  # one parser per process: building one costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qelicit",
        description="Verification harness for truthful quantum-state scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run checks for a named score against its expected verdicts")
    p.add_argument("--score", required=True, help="registry name, e.g. spectral:log")
    p.add_argument("--dims", default="2,3", help="comma-separated dimensions")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here (JSON only, not .csv)")
    p.add_argument("--profile", action="store_true",
                   help="print each check's trials, seconds, draw/score/encode split and violations, then the "
                        "report's bytes and write seconds, on stderr")
    p.add_argument("--replay", default=None, metavar="STREAM:TRIAL",
                   help="print that violation of the run the other options name in full (its states, unitary or "
                        "weight, kind and gap) instead of the report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("paper-examples", help="reproduce the worked examples and print pass/fail")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_paper_examples)

    p = sub.add_parser("measure", help="sample measurement outcomes from a state file")
    p.add_argument("--state", required=True, help="matrix JSON file")
    p.add_argument("--povm", default=None, help="measurement JSON file")
    p.add_argument("--basis", default="standard", help="standard | hadamard | canonical")
    p.add_argument("--trials", type=int, default=10000, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("market-sim", help="run a cost-function market scenario file")
    p.add_argument("--scenario", required=True, help="JSON scenario file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_market)

    p = sub.add_parser("witness", help="search for a level-set counterexample of a property")
    p.add_argument("--property", required=True, help="registry name, e.g. entropy")
    p.add_argument("--dims", default="2", help="the one dimension to probe")
    p.add_argument("--trials", type=int, default=100, help="number of probes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here (JSON only, not .csv)")
    p.set_defaults(func=_cmd_witness)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        # a KeyError's text is the repr of its message; an OSError's first arg is its errno
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
