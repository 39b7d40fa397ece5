"""Command-line harness: verification suites, worked examples, simulators.

Subcommands: verify, paper-examples, measure, market-sim, witness.
Exit codes: 0 when every observed verdict matches its expectation, 1 on a
verdict mismatch, 2 on usage or IO errors.  Output is deterministic JSON
for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .linalg import (
    density_from_json,
    frob_dist,
    hermitian_part,
    hs_inner,
    matrix_from_json,
    matrix_to_json,
)
from .markets import MarketState, bundle_expected_payoff
from .measurement import (
    Measurement,
    apply_measurement,
    canonical_complete,
    hadamard_pvm,
    sample_outcomes,
    standard_pvm,
)
from .properties import find_level_set_witness, level_set_witness
from .registry import PROPERTY_REGISTRY, SCORE_REGISTRY, make_property
from .reports import json_safe
from .scores import (
    expected_score,
    binary_brier,
    implementability_check,
    ml_scores,
    truthfulness_check,
    unitary_invariance_check,
)

__all__ = ["main", "example_mixture_state", "paper_example_rows", "run_verify"]


def example_mixture_state() -> np.ndarray:
    """The worked-example qubit: 1/3 of a plus-state and 2/3 of |1><1|."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    one = np.array([0.0, 1.0])
    return hermitian_part(
        np.outer(plus, plus.conj()) / 3.0 + 2.0 * np.outer(one, one.conj()) / 3.0
    )


def _row(name, expected, observed, ok) -> dict:
    return {
        "name": name,
        "expected": expected,
        "observed": observed,
        "pass": bool(ok),
    }


def paper_example_rows(tol: float = 1e-12) -> list:
    """Golden rows reproducing the worked examples; all must pass on a clean build."""
    rows = []
    rho = example_mixture_state()

    p_std = apply_measurement(standard_pvm(2), rho)
    rows.append(
        _row(
            "standard-basis-probabilities",
            [1.0 / 6.0, 5.0 / 6.0],
            p_std.tolist(),
            np.abs(p_std - [1.0 / 6.0, 5.0 / 6.0]).max() <= tol,
        )
    )

    p_had = apply_measurement(hadamard_pvm(), rho)
    rows.append(
        _row(
            "hadamard-basis-probabilities",
            [2.0 / 3.0, 1.0 / 3.0],
            p_had.tolist(),
            np.abs(p_had - [2.0 / 3.0, 1.0 / 3.0]).max() <= tol,
        )
    )

    rho1 = np.diag([0.25, 0.75]).astype(complex)
    rho2 = np.diag([0.75, 0.25]).astype(complex)
    witness = level_set_witness(make_property("eigenvalues", 2), rho1, rho2, t=0.5)
    rows.append(
        _row(
            "eigenvalue-level-set-counterexample",
            {"value_both": [0.75, 0.25], "value_mix": [0.5, 0.5]},
            {
                "value_1": np.asarray(witness.value_1).tolist(),
                "value_mix": np.asarray(witness.value_mix).tolist(),
            },
            witness.is_counterexample,
        )
    )
    witness_top = level_set_witness(make_property("max-eigenvalue", 2), rho1, rho2, t=0.5)
    rows.append(
        _row(
            "max-eigenvalue-level-set-counterexample",
            {"value_both": 0.75, "value_mix": 0.5},
            {"value_1": float(witness_top.value_1), "value_mix": float(witness_top.value_mix)},
            witness_top.is_counterexample,
        )
    )

    S = binary_brier()
    rep = np.diag([0.3, 0.7]).astype(complex)
    val = expected_score(S, rep, rho)
    closed = 2.0 * hs_inner(rep, rho) - hs_inner(rep, rep)
    divergence = expected_score(S, rho, rho) - val
    rows.append(
        _row(
            "binary-brier-expected-form",
            {"closed_form": closed, "divergence": frob_dist(rho, rep) ** 2},
            {"expected_score": val, "divergence": divergence},
            abs(val - closed) <= 1e-10
            and abs(divergence - frob_dist(rho, rep) ** 2) <= 1e-10,
        )
    )

    ml = ml_scores()
    belief = np.diag([0.6, 0.4]).astype(complex)
    lie = np.diag([1.0, 0.0]).astype(complex)
    s3_truth = expected_score(ml["s3"], belief, belief)
    s3_lie = expected_score(ml["s3"], lie, belief)
    rows.append(
        _row(
            "trace-score-counterexample",
            {"truthful": 0.52, "lie": 0.6},
            {"truthful": s3_truth, "lie": s3_lie},
            abs(s3_truth - 0.52) <= 1e-12 and abs(s3_lie - 0.6) <= 1e-12 and s3_lie > s3_truth,
        )
    )
    for key in ("s4", "s5"):
        truth_v = expected_score(ml[key], belief, belief)
        lie_v = expected_score(ml[key], lie, belief)
        rows.append(
            _row(
                f"{key}-log-counterexample",
                {"truthful": float(np.log(0.52)), "lie": float(np.log(0.6))},
                {"truthful": truth_v, "lie": lie_v},
                abs(truth_v - np.log(0.52)) <= 1e-10
                and abs(lie_v - np.log(0.6)) <= 1e-10
                and lie_v > truth_v,
            )
        )
    return rows


_TOL_KEYS = ("margin", "strict_distance", "equiv_tol")


def _check_dims(dims) -> list:
    dims = list(dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"every dimension must be at least 2 (checks are vacuous below), got {dims}")
    return dims


def run_verify(score_name: str, dims, trials: int, seed: int, tol: dict | None = None) -> dict:
    """Run all checks for one registry score and compare with its expectations.

    Fixed-measurement scores are dimension-specific, so each dimension
    gets its own instance.  The trials are split as evenly as they go,
    the first ``trials % len(dims)`` dimensions taking one more, so the
    per-dimension truthfulness trials add up to ``trials``.
    """
    entry = SCORE_REGISTRY.get(score_name)
    if entry is None:
        known = ", ".join(sorted(SCORE_REGISTRY))
        raise KeyError(f"unknown score {score_name!r}; known scores: {known}")
    dims = _check_dims(dims)
    if trials < len(dims):
        raise ValueError(f"trials must be at least the number of dimensions ({len(dims)}), got {trials}")
    tol = tol or {}
    unknown = sorted(set(tol) - set(_TOL_KEYS))
    if unknown:
        raise ValueError(f"unknown tolerance {unknown[0]!r}; known tolerances: {', '.join(_TOL_KEYS)}")
    for key, val in tol.items():
        if not (np.isfinite(val) and val >= 0):
            raise ValueError(f"tolerance {key} must be finite and non-negative, got {val!r}")
    margin = float(tol.get("margin", 1e-9))
    distinct = float(tol.get("strict_distance", 1e-6))
    equiv = float(tol.get("equiv_tol", 1e-8))

    base, extra = divmod(trials, len(dims))
    children = np.random.SeedSequence(seed).spawn(3 * len(dims))
    sub_reports = []
    gains = ties = ui_fails = impl_fails = 0
    for i, dim in enumerate(dims):
        S = entry.make(dim)
        per_dim = base + (i < extra)
        truth = truthfulness_check(
            S, per_dim, dims=(dim,), rng=np.random.default_rng(children[3 * i]),
            mode="strict", margin=margin, distinct_tol=distinct,
        )
        ui = unitary_invariance_check(
            S, max(1, per_dim // 4), dims=(dim,),
            rng=np.random.default_rng(children[3 * i + 1]), tol=equiv,
        )
        impl = implementability_check(
            S, max(1, per_dim // 4), dims=(dim,),
            rng=np.random.default_rng(children[3 * i + 2]), tol=equiv,
        )
        gains += truth.kind_counts.get("gain", 0) + truth.kind_counts.get("irregular", 0)
        ties += truth.kind_counts.get("tie", 0)
        ui_fails += ui.n_violations
        impl_fails += impl.n_violations
        sub_reports.append(
            {"dim": dim, "truthfulness": truth.to_json(), "unitary_invariance": ui.to_json(), "implementability": impl.to_json()}
        )

    observed = {
        "truthful": gains == 0,
        "strictly_truthful": gains == 0 and ties == 0,
        "implementable": impl_fails == 0,
        "unitary_invariant": ui_fails == 0,
    }
    expected = {
        "truthful": entry.truthful,
        "strictly_truthful": entry.strictly_truthful,
        "implementable": entry.implementable,
        "unitary_invariant": entry.unitary_invariant,
    }
    return {
        "score": score_name,
        "dims": dims,
        "trials": trials,
        "seed": seed,
        "expected": expected,
        "observed": observed,
        "as_expected": observed == expected,
        "reports": sub_reports,
    }


def _write_csv(rows: list, out: str) -> None:
    import csv

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(row.values())


def _dump(obj, out: str | None, csv_rows: list | None = None) -> None:
    """Write a JSON report, or a flat CSV table when --out ends in .csv."""
    if out and out.endswith(".csv") and csv_rows is not None:
        _write_csv(csv_rows, out)
        return
    text = json.dumps(json_safe(obj), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_dims(raw: str) -> list:
    dims = [int(tok) for tok in raw.split(",") if tok.strip()]
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid dims {raw!r}")
    return dims


def _parse_tol(raw: str | None) -> dict:
    if not raw:
        return {}
    out = {}
    for piece in raw.split(","):
        if not piece.strip():
            continue
        key, _, val = piece.partition("=")
        if not val:
            raise ValueError(f"bad tolerance override {piece!r}, expected key=value")
        out[key.strip()] = float(val)
    return out


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cmd_verify(args) -> int:
    report = run_verify(
        args.score, _parse_dims(args.dims), args.trials, args.seed, _parse_tol(args.tol_overrides)
    )
    _dump(report, args.out)
    return 0 if report["as_expected"] else 1


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
    rho = density_from_json(_load_json(args.state))
    if args.povm:
        mu = Measurement.from_json(_load_json(args.povm))
    else:
        mu = _named_basis(args.basis, rho.shape[0])
    if mu.dim != rho.shape[0]:
        raise ValueError(f"dimension mismatch: state {rho.shape[0]}, measurement {mu.dim}")
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
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
    table = [
        {"outcome": y, "count": int(c), "prob": float(p)}
        for y, (c, p) in enumerate(zip(counts, probs))
    ]
    _dump(report, args.out, csv_rows=table)
    return 0


def _cmd_market(args) -> int:
    scenario = _load_json(args.scenario)
    try:
        dim = int(scenario["dim"])
        cost = scenario.get("cost", "lmsr")
        trades = [matrix_from_json(t) for t in scenario.get("trades", [])]
        truth = density_from_json(scenario["truth"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scenario: {exc}") from exc
    market = MarketState(dim, cost=cost)
    ledger = []
    for i, R in enumerate(trades):
        charged = market.trade(R)
        ledger.append(
            {
                "trade": i,
                "cost": charged,
                "expected_payoff": bundle_expected_payoff(R, truth),
                "price_after": matrix_to_json(market.price()),
            }
        )
    report = {
        "dim": dim,
        "cost": cost,
        "ledger": ledger,
        "total_cost": sum(row["cost"] for row in ledger),
        "total_expected_payoff": sum(row["expected_payoff"] for row in ledger),
        "maker_loss": market.maker_loss(truth),
        "loss_bound": float(np.log(dim)),
    }
    table = [
        {"trade": row["trade"], "cost": row["cost"], "expected_payoff": row["expected_payoff"]}
        for row in ledger
    ]
    _dump(report, args.out, csv_rows=table)
    return 0


def _cmd_witness(args) -> int:
    dims = _check_dims(_parse_dims(args.dims))
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    prop = make_property(args.property, dims[0])
    found = find_level_set_witness(
        prop, dims[0], probes=args.trials, rng=np.random.default_rng(args.seed)
    )
    elicitable = PROPERTY_REGISTRY[args.property]["elicitable"]
    report = {
        "property": args.property,
        "dim": dims[0],
        "probes": args.trials,
        "seed": args.seed,
        "expected_elicitable": elicitable,
        "witness": found.to_json() if found else None,
    }
    _dump(report, args.out)
    # a counterexample is expected exactly when the property is not elicitable
    return 0 if (found is None) == elicitable else 1


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
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--tol-overrides", default=None, help="margin=..,strict_distance=..,equiv_tol=..")
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
    p.add_argument("--dims", default="2", help="dimension to probe (first entry used)")
    p.add_argument("--trials", type=int, default=100, help="number of probes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_witness)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
