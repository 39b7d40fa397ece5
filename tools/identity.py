"""Print one sha256 per seeded output, so two source trees can be compared.

Run it once per tree and diff the listings:

    PYTHONPATH=<tree>/src python3 tools/identity.py > <tree>.txt
    diff a.txt b.txt

Each line is ``<label> <sha256>``.  The outputs are the registry verdict
reports, the classical properness and permutation checks, the expected
scores of every registry score, the dimension-mismatch messages, the
exit code and stdout of the ``paper-examples``, ``verify`` and
``witness`` subcommands (a JSON stdout as its parsed content, re-encoded
with sorted keys), the extended inner products of ``matrix_log``
and of every registry ``QuantumScore``'s coefficient, three zero-mass
edge cases of ``ext_inner``, what the four property optimizers return
at one state for seeds 0-2, the von Neumann and relative entropies of
the seeded states (``+inf`` where sigma's support misses rho's), every
registry ``QuantumScore``'s measurement elements and payoff vector at
each seeded state, and ``spectral_decompose`` of states with exact
eigenvalue ties, alone and in a stack.  A value is hashed through its
``repr`` (floats round-trip exactly, arrays are written as lists), a
raised error through its type and message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np

import qelicit as q
from qelicit.classical import is_permutation_invariant
from qelicit.cli import main
from qelicit.properties import optimize_abstain, optimize_eigen_pair, optimize_top_eigenvector, optimize_weighted_basis
from qelicit.registry import SCORE_REGISTRY, make_score, run_verify


def emit(label: str, text: str) -> None:
    print(label, hashlib.sha256(text.encode()).hexdigest())


def outcome(f, *args) -> str:
    # repr of f(*args), or the type and message of what it raised
    try:
        return repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - the message is the output
        return f"{type(exc).__name__}: {exc}"


def verify_reports() -> None:
    for name in sorted(SCORE_REGISTRY):
        for seed in (0, 7):
            emit(f"run_verify {name} seed={seed}", json.dumps(run_verify(name, [2, 3, 4], 400, seed), sort_keys=True))


def classical_checks() -> None:
    rules = {"brier": q.brier_rule(), "log": q.log_rule(), "linear": q.linear_rule()}
    for name, rule in rules.items():
        for n in (2, 3, 4):
            for mode in ("weak", "strict"):
                emit(f"properness {name} n={n} {mode}", json.dumps(q.properness_check(rule, 300, n, rng=11, mode=mode).to_json(), sort_keys=True))
    weighted = q.ClassicalScoringRule(lambda p: np.arange(p.shape[-1]) * p, name="weighted")
    for name, rule in {**rules, "weighted": weighted}.items():
        for n in (2, 3, 4):
            emit(f"permutation {name} n={n}", repr([is_permutation_invariant(rule, n, rng=s) for s in range(4)]))


def seeded_states(n: int) -> list:
    # one state of each rank 1..n
    return [q.random_density(n, rank=r, rng=10 * n + r) for r in range(1, n + 1)]


def expected_scores() -> None:
    for name in sorted(SCORE_REGISTRY):
        for n in (2, 3, 4):
            S = make_score(name, n)
            states = seeded_states(n)
            values = [outcome(q.expected_score, S, a, b) for a in states for b in states]
            emit(f"expected_score {name} n={n}", "\n".join(values))


def mismatch_messages() -> None:
    rho2, rho3 = q.random_density(2, rng=1), q.random_density(3, rng=2)
    fixed = q.fixed_measurement_score(q.brier_rule(), q.standard_pvm(2))
    per_report = q.projective_expression(q.binary_brier())
    cases = {
        "stacked": (make_score("spectral:log", 2).expected, rho2, rho3),
        "per-report": (per_report.expected, rho2, rho3),
        "fixed-report": (fixed.expected, rho3, rho2),
        "fixed-state": (fixed.expected, rho2, rho3),
        "closure": (make_score("ml:s4", 2).expected, rho2, rho3),
        "apply_measurement": (q.apply_measurement, q.standard_pvm(2), rho3),
    }
    for label, (f, *args) in cases.items():
        emit(f"mismatch {label}", outcome(f, *args))


def cli_stdout() -> None:
    runs = [
        ["paper-examples"],
        ["verify", "--score", "spectral:log", "--dims", "2,3", "--trials", "400", "--seed", "1"],
        ["verify", "--score", "fixed:brier", "--dims", "2,4", "--trials", "400", "--seed", "3"],
        ["verify", "--score", "ml:s5", "--dims", "3", "--trials", "400", "--seed", "1"],
        ["witness", "--property", "entropy", "--dims", "3", "--trials", "100", "--seed", "2"],
        ["witness", "--property", "expectation", "--dims", "2", "--trials", "50", "--seed", "0"],
        ["witness", "--property", "max-eigenvalue", "--dims", "2", "--trials", "50", "--seed", "4"],
    ]
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if argv[0] == "paper-examples":  # a text table, hashed as printed
            emit(argv[0], f"{code}\n{out.getvalue()}")
        else:  # a JSON report, hashed by content so that its whitespace does not count
            emit(" ".join(argv[:3]), f"{code}\n{json.dumps(json.loads(out.getvalue()), sort_keys=True)}")


def extended_inner_products() -> None:
    for n in (2, 3, 4):
        states = seeded_states(n)
        values = [outcome(q.ext_inner, E, b) for E in map(q.matrix_log, states) for b in states]
        emit(f"ext_inner matrix_log n={n}", "\n".join(values))
    for name in sorted(SCORE_REGISTRY):
        for n in (2, 3, 4):
            S = make_score(name, n)
            if not isinstance(S, q.QuantumScore):
                continue
            states = seeded_states(n)
            # a report the score refuses (ml:s2's rank-deficient ones) lists the refusal
            values = [outcome(lambda a, b: q.ext_inner(q.score_coefficient(S, a), b), a, b) for a in states for b in states]
            emit(f"ext_inner score_coefficient {name} n={n}", "\n".join(values))


def zero_mass_edges() -> None:
    J = np.ones((3, 3))
    log_10 = q.matrix_log(np.diag([1.0, 0.0]))
    cases = {
        "range of 2e-11 J": (q.ExtendedHermitian(np.zeros((3, 3)), 2e-11 * J), J / 3),
        "mass 5e-11 on the kernel": (log_10, np.diag([1 - 5e-11, 5e-11])),
        "mass -5e-11 on the kernel": (log_10, np.diag([1 + 5e-11, -5e-11])),
    }
    for label, args in cases.items():
        emit(f"ext_inner edge {label}", outcome(q.ext_inner, *args))


def entropies() -> None:
    for n in (2, 3, 4):
        states = seeded_states(n)
        emit(f"von_neumann_entropy n={n}", "\n".join(outcome(q.von_neumann_entropy, a) for a in states))
        emit(f"relative_entropy n={n}", "\n".join(outcome(q.relative_entropy, a, b) for a in states for b in states))


def payoffs() -> None:
    def listing(S, a):
        return S.measure(a).elements.tolist(), S.payoff(a)[1].tolist()

    for name in sorted(SCORE_REGISTRY):
        for n in (2, 3, 4):
            S = make_score(name, n)
            if isinstance(S, q.QuantumScore):
                emit(f"payoff {name} n={n}", "\n".join(outcome(listing, S, a) for a in seeded_states(n)))


def tied_decompositions() -> None:
    cases = {
        "maximally mixed n=3": np.eye(3) / 3,
        "diag(0.5, 0.25, 0.25)": np.diag([0.5, 0.25, 0.25]),
        "diag(0.25, 0.5, 0.25)": np.diag([0.25, 0.5, 0.25]),
        "diag(1, 0, 0, 0)": np.diag([1.0, 0.0, 0.0, 0.0]),
        "diag(1, -1, 1)": np.diag([1.0, -1.0, 1.0]),
        "stack of tied and untied": np.stack([np.eye(3) / 3, np.diag([0.5, 0.25, 0.25]), *seeded_states(3)]),
    }
    for label, A in cases.items():
        emit(f"spectral_decompose {label}", outcome(lambda A: [x.tolist() for x in q.spectral_decompose(A)], A))


def listed(result) -> tuple:
    # an optimizer's (report, value), the report as a list so its entries round-trip (an abstain report is None)
    report, value = result
    return np.asarray(report).tolist(), value


def optimizers() -> None:
    rho = q.random_density(3, rng=5)  # top eigenvalue 0.667: abstaining at 0.7 wins
    calls = {
        "top_eigenvector": lambda g: optimize_top_eigenvector(rho, rng=g),
        "weighted_basis": lambda g: optimize_weighted_basis(rho, [2.0, 1.0], 2, rng=g),
        "eigen_pair": lambda g: optimize_eigen_pair(rho, 2, rng=g),
        "abstain": lambda g: optimize_abstain(q.abstain_score(0.7, 3), rho, rng=g),
    }
    for name, f in calls.items():
        values = [outcome(lambda g: listed(f(g)), g) for g in range(3)]
        emit(f"optimize {name}", "\n".join(values))


if __name__ == "__main__":
    verify_reports()
    classical_checks()
    expected_scores()
    mismatch_messages()
    cli_stdout()
    extended_inner_products()
    zero_mass_edges()
    optimizers()
    entropies()
    payoffs()
    tied_decompositions()
