"""Print one sha256 per seeded output, so two source trees can be compared.

Run it once per tree and diff the listings:

    PYTHONPATH=<tree>/src python3 tools/identity.py > <tree>.txt
    diff a.txt b.txt

Each line is ``<label> <sha256>``.  The outputs are the registry verdict
reports, the classical properness checks (each strict report, and the
weak verdict it holds: no gain and no irregular trial, with its counts
less the ties), the permutation checks, the expected scores of every
registry score, the dimension-mismatch messages, the exit code and
stdout of the ``paper-examples``, ``verify`` and ``witness``
subcommands (a JSON stdout as its parsed content, re-encoded with
sorted keys), the extended inner products of ``matrix_log``
and of every registry ``QuantumScore``'s coefficient, three zero-mass
edge cases of ``ext_inner``, what the four property optimizers return
at one state for seeds 0-2, the von Neumann and relative entropies of
the seeded states (``+inf`` where sigma's support misses rho's), every
registry ``QuantumScore``'s measurement elements and payoff vector at
each seeded state, ``spectral_decompose`` of states with exact
eigenvalue ties, alone and in a stack, what every entry point that
takes a count or a dimension makes of 2.5, ``True``, ``"3"``, the
integer just below its floor and ``np.int64`` of a valid value, the
weight vectors that the frame scores refuse (empty, all zero, a sign out
of place), whose column counts come from their weights, and the
tomographic reduction: completeness, the map's matrix and pseudoinverse,
and its ``reconstruct``, ``adjoint`` and ``pinv_adjoint`` of seeded
inputs for ``canonical_complete(1..4)``, ``standard_pvm(3)`` and a POVM
whose coordinates are rank-deficient only at 1e-9, then the payoff of
binary Brier re-expressed over ``canonical_complete(2)``.  Last come
the market maker and the options around it: the exit code and stdout of
``market-sim`` for one seeded scenario whose ``cost`` is ``"lmsr"``,
absent and ``"quadratic"``, and of ``verify`` for ``ml:s2`` without and
with ``--tol-overrides``, an option that is gone (an argparse refusal is
listed by its exit code); ``lmsr_cost``, ``maker_loss`` and
``conjugacy_gap`` of share matrices traded in seeded bundles (twice a
``random_hermitian``) at n = 2, 4 and 8; and the JSON of ``run_verify``
and ``run_witness`` given a numpy integer seed.  Then keywords that are
gone, each listed as the error its call raises: the tolerance keywords
of the checks, of ``ext_dot`` and of ``approx_equal`` (one call per
keyword, passing its old default value) and the ``margin`` of two checks
that a larger margin once failed with ties between distinct reports;
then ``ext_dot`` of a weight of 1e-13 on -inf.  Then the knobs that
became constants, listed as refusals too: one call per optimizer
``iters``, ``level_set_witness``'s ``t`` and
``is_permutation_invariant``'s ``trials`` at its old default, one
``ScoreReport`` per counter passed at its empty value, and three calls
whose value once switched a check off (``trials=0`` on a rule that
weights the outcomes, ``t=0`` and ``t=1`` on two states with the same
spectrum, ``iters=0`` on ``diag(0.6, 0.3, 0.1)``); what five entry
points that need a measurement make of ``ml:s4`` and ``ml:s5``; the exit
code, stdout and stderr of ``verify``, ``witness`` and ``measure`` with
``--seed -1`` and of ``witness --dims 3,7``; and the lookup of
``optimize_with_value``, a name that is gone.  Last, four optimizer
calls that the column order of the ascent directions decides: the eigen
pair at two close eigenvalues (0.512, 0.444) and at k = n = 8, the
weighted basis at k = n = 8 with weights 8..1 and its largest deviation
from orthonormality, and the weighted basis with weights (1, -1), whose
directions are the weights themselves.  Then ``find_level_set_witness``
for every registry property with an evaluator at n = 2, 3 and 4, with
1, 20 and 130 probes in turn on one generator per seed (seeds 0-4), each
search listed with that generator's next draw.  Then what each entry
point that validates a matrix makes of a 0x0 one, and ``herm_coords``
and ``spectral_decompose`` of an empty stack of 3x3 matrices.  Last,
``hs_inner`` and ``frob_dist`` of a 0x0 matrix, a 2x3 array, a NaN entry
and two shapes, ``hs_inner`` of the non-Hermitian [[0.5, 0.3], [0, 0.5]]
with I, and the exit code and stdout of ``market-sim`` for one trade of
scale 1e5 projected off the truth at n = 4.  Last, the registry verdict
reports again with their unitary-invariance and implementability
violations stripped of ``rho`` and ``rho_prime`` (also at dims 8, 16,
160 trials and seed 3), and the first stored violation of each of those
two checks for ``fixed:brier``, ``ml:s4`` and ``ml:s5`` at d = 2 and 16
(160 trials, seed 3): its trial, kind, gap and first two states (belief
and report; the two beliefs), from ``registry.replay_verify`` where the
tree has it, else as the violation stored them.  Then, where the tree has
``replay_verify``, whole replays of trials past the fourth 64-trial
block: each verify stream of ``fixed:brier``, ``ml:s2`` and ``ml:s5`` at
d = 2 and 16 (10,000 trials, seed 3) at trials 300 and 2,400, and the
``ml:s2`` trials of ``tests/test_stacked.py``'s ``SPARE``, whose report
at d = 2 is redrawn from its spare row (2,400 trials), at d = 2 and 16.
Last, ``expected_stack`` of ``ml:s4`` and ``ml:s5`` at d = 2, 4 and 16,
on 16 reports whose ranks cycle through 1..d, against one belief stack,
three belief stacks and the report stack itself.  Last,
``optimize_top_eigenvector`` and ``optimize_abstain`` (alpha 0.5) of
``random_density(n, rng=n)`` at n = 2, 3, 4 and 8, one row per seed 0-4.
Last, ``optimize_weighted_basis`` with weights (2, 1), (1, -1) and 3..1
and ``optimize_eigen_pair`` with k = 2 and 3 of ``random_density(n,
rng=n)`` at n = 2, 4 and 8, one row per seed 0-4, each call whose
columns fit in n.
Last, the first stored violation, with the violation count, of
``equivalence_check`` of ``spectral:log`` against ``spectral:brier``
(40 trials at d = 2, rng 1) and of ``subgradient_inequality_check`` of
tr r² with the wrong-signed selection -2r (40 trials at d = 2 and 3,
rng 1), the two storing checks the rows above do not list.
Last, the boundaries of the validators a good value passes with one
test: ``clean_probs`` of a clipped entry, of an entry just below
-PROB_CLIP, of totals at 1 +- 1e-10 and just outside, of NaN, +-inf, a
+inf beside two 1e308 entries and an empty vector; ``as_density``,
``as_hermitian`` and ``spectral_decompose`` of a matrix with a NaN, with
+inf on the diagonal (in the real and in the imaginary part), with +inf
and -inf in a symmetric pair, and with asymmetry at ``HERM_TOL`` and
just above it; then ``expected_classical`` and ``shannon_entropy`` with a
zero or clipped weight against -inf, and ``ext_dot`` with a negative
weight against -inf, alone, beside a +inf value, and with NaN weights
beside a +inf value or a second shape.
Last, the refusals of a rule of one's own by the constructions that
check it, each built twice in a row: ``spectral_score`` of the
position-weighted rule ``np.arange(p.shape[-1]) * p``, and
``spectral_score`` and ``fixed_measurement_score`` of a rule that reduces
over the whole stack, ``2 * p - np.sum(p * p)``.
Last, the public ``spectral_score`` and ``fixed_measurement_score``
(over ``canonical_complete(3)``) of the library's brier, log and log-det
rules, each built twice and listed by its expected score on one seeded
pair; ``make_score`` of every registry score at n = 1, listed by its
expected score at the 1x1 state; ``level_set_witness`` of a
phase-direction property (the unit spectrum times a phase read off
rho[0, 1]) on 20 seeded pairs (rho, U rho U*) at n = 3; and
``expected_classical`` of a rule that pays NaN.
Last, one call per keyword that is gone, each listed as its value or
the error it raises: ``QuantumScore`` given both a ``payoff`` paying
[0, 1] and a ``stack`` paying [1, 0] on ``standard_pvm(2)``, its
expected score of diag(0.3, 0.7) under diag(0.9, 0.1);
``spectral_score`` of brier and ``score_from_convex`` of tr r^2, each
given a ``name``, by their name and expected score on one seeded pair;
``as_density`` and ``as_unitary`` of the 2x2 identity (halved for the
state) given a ``name``; then ``rule(p, y)`` of the rule that pays NaN.
Last, what the tomographic map of ``canonical_complete(2)`` makes of a
3x3 matrix (``probs``, ``pinv_adjoint``, alone and in a stack), of three
outcome values (``adjoint``, ``reconstruct``, alone and in a stack), of
a bare number and of four outcome values holding NaN, +inf or -inf; and
the type of ``MarketState(np.int64(2)).dim`` with its JSON.
A value is hashed through
its ``repr`` (floats round-trip exactly, arrays are written as lists), a
raised error through its type and message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

import qelicit as q
from qelicit.classical import PROB_CLIP, from_convex, is_permutation_invariant
from qelicit import properties, registry
from qelicit.cli import main
from qelicit.extended import range_projector
from qelicit.linalg import HERM_TOL, matrix_to_json
from qelicit.measurement import herm_coords
from qelicit.properties import (
    find_level_set_witness,
    level_set_witness,
    optimize_abstain,
    optimize_eigen_pair,
    optimize_top_eigenvector,
    optimize_weighted_basis,
)
from qelicit.registry import PROPERTY_REGISTRY, SCORE_REGISTRY, make_property, make_score, run_verify, run_witness


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


def weak_listing(report) -> str:
    # the weak verdict a strict report holds (no gain and no irregular trial), its counts without the ties and its max_gap
    counts = {kind: c for kind, c in report.kind_counts.items() if kind != "tie"}
    weak = {"passed": not (counts.get("gain") or counts.get("irregular")), "kind_counts": counts,
            "max_gap": report.to_json()["max_gap"]}
    return json.dumps(weak, sort_keys=True)


def classical_checks() -> None:
    rules = {"brier": q.brier_rule(), "log": q.log_rule(), "linear": q.linear_rule()}
    for name, rule in rules.items():
        for n in (2, 3, 4):
            report = q.properness_check(rule, 300, n, rng=11)
            emit(f"properness {name} n={n} weak", weak_listing(report))
            emit(f"properness {name} n={n} strict", json.dumps(report.to_json(), sort_keys=True))
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


def payoff_listing(S, a) -> tuple:
    return S.measure(a).elements.tolist(), S.payoff(a)[1].tolist()


def payoffs() -> None:
    for name in sorted(SCORE_REGISTRY):
        for n in (2, 3, 4):
            S = make_score(name, n)
            if isinstance(S, q.QuantumScore):
                emit(f"payoff {name} n={n}", "\n".join(outcome(payoff_listing, S, a) for a in seeded_states(n)))


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


def tomography() -> None:
    eps = 1e-9  # coordinate singular values (1, 1, 3.8e-10, 2.9e-10) relative to the largest
    povms = {f"canonical_complete({n})": q.canonical_complete(n) for n in (1, 2, 3, 4)}
    povms["standard_pvm(3)"] = q.standard_pvm(3)
    povms["eps=1e-9 mix"] = q.Measurement([*(1 - eps) * q.standard_pvm(2).elements, *eps * q.canonical_complete(2).elements])
    for label, mu in povms.items():
        tmap, n, m = q.tomographic_map(mu), mu.dim, len(mu)
        g = np.random.default_rng(m)
        states = seeded_states(n)
        emit(f"tomographic_map {label}",
             repr((q.is_tomographically_complete(mu), tmap.matrix.tolist(), tmap.pinv.tolist())))
        emit(f"reconstruct {label}", "\n".join(
            outcome(lambda p: tmap.reconstruct(p).tolist(), p) for p in [*map(tmap.probs, states), g.standard_normal(m)]))
        vs = g.standard_normal((3, m))
        emit(f"adjoint {label}", "\n".join(outcome(lambda v: tmap.adjoint(v).tolist(), v) for v in [*vs, vs]))
        emit(f"pinv_adjoint {label}", "\n".join(
            outcome(lambda X: tmap.pinv_adjoint(X).tolist(), X) for X in [*states, q.random_hermitian(n, rng=g)]))
    S = q.fixed_meas_expression(q.binary_brier(), q.canonical_complete(2))
    emit("payoff fixed_meas_expression(binary_brier, canonical_complete(2))",
         "\n".join(outcome(payoff_listing, S, a) for a in seeded_states(2)))


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


def count_arguments() -> None:
    # one line per entry point and count argument: (call of the count, its floor, a valid value)
    rho, rho2 = q.random_density(3, rng=5), q.random_density(2, rng=4)
    S, brier = make_score("spectral:log", 2), q.brier_rule()
    frame = q.random_unitary(3, rng=6)
    wager = q.WageringRound([q.random_density(2, rng=s) for s in (1, 2)],
                            q.fixed_measurement_score(brier, q.standard_pvm(2)), q.random_density(2, rng=3))

    def report(check, *args):
        return lambda x: check(*args, x, dims=(2,), rng=0).to_json()

    rows = {
        "truthfulness_check trials": (report(q.truthfulness_check, S), 0, 8),
        "equivalence_check trials": (report(q.equivalence_check, S, S), 0, 8),
        "unitary_invariance_check trials": (report(q.unitary_invariance_check, S), 0, 8),
        "implementability_check trials": (report(q.implementability_check, S), 0, 8),
        "subgradient_inequality_check trials": (
            report(q.subgradient_inequality_check, lambda r: float(np.trace(r @ r).real), lambda r: 2.0 * r), 0, 8),
        "properness_check trials": (lambda x: q.properness_check(brier, x, 3, rng=0).to_json(), 0, 8),
        "properness_check dim": (lambda x: q.properness_check(brier, 8, x, rng=0).to_json(), 2, 3),
        "is_permutation_invariant dim": (lambda x: is_permutation_invariant(brier, x, rng=0), 1, 3),
        "is_permutation_invariant trials": (lambda x: is_permutation_invariant(brier, 3, x, rng=0), 0, 8),
        "from_convex dim": (
            lambda x: from_convex(lambda p: p @ p, lambda p: 2.0 * p, x).values(np.full(3, 1 / 3)).tolist(), 1, 3),
        "run_verify trials": (lambda x: run_verify("fixed:brier", [2], x, 0), 1, 8),
        "run_witness trials": (lambda x: run_witness("entropy", [3], x, 0), 1, 5),
        "find_level_set_witness probes": (
            lambda x: find_level_set_witness(make_property("entropy", 3), 3, probes=x, rng=0).to_json(), 1, 5),
        "find_level_set_witness dim": (
            lambda x: find_level_set_witness(make_property("entropy", 3), x, probes=5, rng=0).to_json(), 2, 3),
        "optimize_top_eigenvector restarts": (lambda x: listed(optimize_top_eigenvector(rho, restarts=x, rng=0)), 1, 3),
        "optimize_top_eigenvector iters": (lambda x: listed(optimize_top_eigenvector(rho, iters=x, rng=0)), 0, 5),
        "optimize_weighted_basis cols": (lambda x: listed(optimize_weighted_basis(rho, [2.0, 1.0], x, rng=0)), 1, 2),
        "optimize_eigen_pair k": (lambda x: listed(optimize_eigen_pair(rho, x, rng=0)), 1, 2),
        "eigen_pair_score k": (lambda x: q.eigen_pair_score(x).expected(q.random_density(3, rank=2, rng=7), rho), 1, 2),
        "abstain_score dim": (lambda x: q.abstain_score(0.7, x).expected(None, rho), 1, 3),
        "MarketState dim": (lambda x: q.MarketState(x).price().tolist(), 1, 3),
        "wagering_payoffs outcome": (lambda x: q.wagering_payoffs(wager, "realized", outcome=x).tolist(), 0, 1),
        "canonical_complete n": (lambda x: q.canonical_complete(x).elements.tolist(), 1, 2),
        "standard_pvm n": (lambda x: q.standard_pvm(x).elements.tolist(), 1, 2),
        "random_density n": (lambda x: q.random_density(x, rng=0).tolist(), 1, 3),
        "random_density rank": (lambda x: q.random_density(3, rank=x, rng=0).tolist(), 1, 2),
        "random_unitary n": (lambda x: q.random_unitary(x, rng=0).tolist(), 1, 3),
        "random_pure n": (lambda x: q.random_pure(x, rng=0).tolist(), 1, 3),
        "random_hermitian n": (lambda x: q.random_hermitian(x, rng=0).tolist(), 1, 3),
        "sample_outcomes size": (lambda x: q.sample_outcomes(q.standard_pvm(3), rho, x, rng=0).tolist(), 0, 5),
        "make_score spectral:log dim": (lambda x: q.expected_score(make_score("spectral:log", x), rho2, rho2), 1, 2),
        "make_score fixed:brier dim": (lambda x: q.expected_score(make_score("fixed:brier", x), rho2, rho2), 1, 2),
        "make_property entropy dim": (lambda x: make_property("entropy", x).eval(rho2), 1, 2),
    }
    for label, (call, floor, valid) in rows.items():
        values = [outcome(call, x) for x in (2.5, True, "3", floor - 1, np.int64(valid))]
        emit(f"count {label}", "\n".join(values))


def frame_weights() -> None:
    # weight vectors that the frame scores refuse, whose column counts are read off their weights
    cases = {
        "empty": ([], []),
        "all zero": ([0.0, 0.0], [0.0, 0.0, 0.0]),
        "sign out of place": ([2.0, -1.0], [-1.0, 0.0, 1.0]),
    }
    for label, (top_k, top_bottom) in cases.items():
        emit(f"frame weights {label}",
             f"{outcome(q.top_k_eigenvector_score, top_k)}\n{outcome(q.top_bottom_score, top_bottom)}")


def cli_run(argv, stderr: bool = False) -> str:
    # exit code and stdout of one CLI run, then its stderr if asked; argparse refuses an unknown option by SystemExit
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    listing = f"{code}\n{json.dumps(json.loads(text), sort_keys=True) if text else ''}"
    return f"{listing}\n{err.getvalue()}" if stderr else listing


def markets() -> None:
    g = np.random.default_rng(13)
    doc = {"dim": 2, "trades": [matrix_to_json(q.random_hermitian(2, rng=g)) for _ in range(3)],
           "truth": matrix_to_json(q.random_density(2, rng=g))}
    with tempfile.TemporaryDirectory() as tmp:
        for label, extra in (("lmsr", {"cost": "lmsr"}), ("no cost", {}), ("quadratic", {"cost": "quadratic"})):
            path = Path(tmp, "scenario.json")
            path.write_text(json.dumps({**doc, **extra}))
            emit(f"market-sim {label}", cli_run(["market-sim", "--scenario", str(path)]))
    verify = ["verify", "--score", "ml:s2", "--dims", "2,3", "--trials", "1000", "--seed", "1"]
    emit("verify ml:s2 seed=1", cli_run(verify))
    emit("verify ml:s2 seed=1 --tol-overrides equiv_tol=1e-6", cli_run([*verify, "--tol-overrides", "equiv_tol=1e-6"]))
    for n in (2, 4, 8):
        g = np.random.default_rng(n)
        market = q.MarketState(n)
        for _ in range(3):
            market.trade(2.0 * q.random_hermitian(n, rng=g))
        truth = q.random_density(n, rng=g)
        emit(f"market n={n}", repr((q.lmsr_cost(market.shares), market.maker_loss(truth), market.conjugacy_gap())))
    emit("run_verify seed np.int64(0)",
         outcome(lambda: json.dumps(run_verify("fixed:brier", [2], 8, np.int64(0)), sort_keys=True)))
    emit("run_witness seed np.int64(0)",
         outcome(lambda: json.dumps(run_witness("entropy", [3], 5, np.int64(0)), sort_keys=True)))


def tolerance_keywords() -> None:
    S, brier = make_score("spectral:log", 2), q.brier_rule()
    mu = q.standard_pvm(2)

    def report(check, *args, **keyword):
        return lambda: check(*args, 8, dims=(2,), rng=0, **keyword).to_json()

    def properness(**keyword):
        return lambda: q.properness_check(brier, 8, 3, rng=0, **keyword).to_json()

    F, dF = (lambda r: float(np.trace(r @ r).real)), (lambda r: 2.0 * r)
    rows = {
        "truthfulness_check margin": report(q.truthfulness_check, S, margin=1e-9),
        "truthfulness_check distinct_tol": report(q.truthfulness_check, S, distinct_tol=1e-6),
        "properness_check margin": properness(margin=1e-9),
        "properness_check distinct_tol": properness(distinct_tol=1e-6),
        "equivalence_check tol": report(q.equivalence_check, S, S, tol=1e-8),
        "unitary_invariance_check tol": report(q.unitary_invariance_check, S, tol=1e-8),
        "implementability_check tol": report(q.implementability_check, S, tol=1e-8),
        "subgradient_inequality_check margin": report(q.subgradient_inequality_check, F, dF, margin=1e-9),
        "ext_dot zero_tol": lambda: q.ext_dot([0.5, 0.5], [1.0, q.NEG_INF], zero_tol=1e-12),
        "approx_equal tol": lambda: mu.approx_equal(mu, tol=1e-9),
    }
    for label, call in rows.items():
        emit(f"keyword {label}", outcome(call))
    # strictly proper scores that a margin above the samplers' near-tie band fails with ties
    emit("properness_check brier n=3 trials=20000 margin=1e-5", outcome(
        lambda: q.properness_check(brier, 20000, 3, rng=0, margin=1e-5).to_json()))
    emit("truthfulness_check projective-brier trials=8000 margin=1e-6", outcome(
        lambda: q.truthfulness_check(make_score("projective-brier", 2), 8000, dims=(2, 3), rng=0, margin=1e-6).to_json()))
    emit("ext_dot weight 1e-13 on -inf", outcome(q.ext_dot, [1e-13, 1.0], [q.NEG_INF, 3.0]))


def fixed_knobs() -> None:
    rho, brier = q.random_density(3, rng=5), q.brier_rule()
    weighted = q.ClassicalScoringRule(lambda p: np.arange(p.shape[-1]) * p, name="weighted")
    eigenvalues = make_property("eigenvalues", 2)
    same_spectrum = (np.diag([0.25, 0.75]).astype(complex), np.diag([0.75, 0.25]).astype(complex))
    rows = {
        "optimize_top_eigenvector iters=200": lambda: listed(optimize_top_eigenvector(rho, iters=200, rng=0)),
        "optimize_weighted_basis iters=300": lambda: listed(
            optimize_weighted_basis(rho, [2.0, 1.0], 2, iters=300, rng=0)),
        "optimize_eigen_pair iters=300": lambda: listed(optimize_eigen_pair(rho, 2, iters=300, rng=0)),
        "level_set_witness t=0.5": lambda: level_set_witness(eigenvalues, *same_spectrum, t=0.5).to_json(),
        "is_permutation_invariant trials=32": lambda: is_permutation_invariant(brier, 3, trials=32, rng=0),
        # values that switch a check off
        "is_permutation_invariant weighted trials=0": lambda: is_permutation_invariant(weighted, 3, trials=0, rng=0),
        "level_set_witness t=0": lambda: level_set_witness(eigenvalues, *same_spectrum, t=0).to_json(),
        "level_set_witness t=1": lambda: level_set_witness(eigenvalues, *same_spectrum, t=1).to_json(),
        "optimize_top_eigenvector diag(0.6, 0.3, 0.1) iters=0": lambda: listed(
            optimize_top_eigenvector(np.diag([0.6, 0.3, 0.1]), iters=0, rng=0)),
    }
    for counter, empty in (("violations", []), ("n_violations", 0), ("max_gap", float("-inf")),
                           ("kind_counts", {}), ("timing", {})):
        rows[f"ScoreReport {counter}"] = lambda c=counter, e=empty: q.ScoreReport("s", "strict", 8, (2,), **{c: e}).to_json()
    for label, call in rows.items():
        emit(f"knob {label}", outcome(call))


def measurement_free_scores() -> None:
    rho2 = q.random_density(2, rng=1)
    reports = [q.random_density(2, rng=s) for s in (2, 3)]
    F, dF = (lambda a: a * a), (lambda a: 2.0 * a)
    for name in ("ml:s4", "ml:s5"):
        S = make_score(name, 2)
        calls = {
            "score_coefficient": lambda: q.score_coefficient(S, rho2),
            "projective_expression": lambda: q.projective_expression(S).expected(rho2, rho2),
            "fixed_meas_expression": lambda: q.fixed_meas_expression(S, q.canonical_complete(2)).expected(rho2, rho2),
            "with_value": lambda: q.with_value(S, F, dF).expected((0.5, rho2), rho2),
            "wagering_payoffs": lambda: q.wagering_payoffs(q.WageringRound(reports, S, rho2)).tolist(),
        }
        for label, call in calls.items():
            emit(f"no measurement {label} {name}", outcome(call))


def cli_refusals() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp, "state.json")
        state.write_text(json.dumps(matrix_to_json(q.random_density(2, rng=1))))
        runs = {
            "verify --seed -1": ["verify", "--score", "fixed:brier", "--dims", "2", "--trials", "8", "--seed", "-1"],
            "witness --seed -1": ["witness", "--property", "entropy", "--dims", "3", "--trials", "5", "--seed", "-1"],
            "measure --seed -1": ["measure", "--state", str(state), "--trials", "5", "--seed", "-1"],
            "witness --dims 3,7": ["witness", "--property", "entropy", "--dims", "3,7", "--trials", "5", "--seed", "0"],
        }
        for label, argv in runs.items():
            emit(f"cli {label}", cli_run(argv, stderr=True))
    emit("optimize_with_value", outcome(lambda: properties.optimize_with_value(np.eye(2)[0], 0.5)))


def ordered_ascent() -> None:
    rho8, w8 = q.random_density(8, rng=77), np.arange(8, 0, -1.0)

    def frame_and_deviation():
        X, value = optimize_weighted_basis(rho8, w8, 8, rng=0)
        return listed((X, value)), float(np.abs(X.conj().T @ X - np.eye(8)).max())

    rows = {
        "eigen_pair random_density(4, rng=103) k=2 rng=3": lambda: listed(
            optimize_eigen_pair(q.random_density(4, rng=103), 2, rng=3)),
        "eigen_pair random_density(8, rng=77) k=8 rng=0": lambda: listed(optimize_eigen_pair(rho8, 8, rng=0)),
        "weighted_basis random_density(8, rng=77) weights 8..1 rng=0": frame_and_deviation,
        "weighted_basis random_density(8, rng=1138) weights (1, -1) rng=2": lambda: listed(
            optimize_weighted_basis(q.random_density(8, rng=1138), [1, -1], 2, rng=2)),
    }
    for label, call in rows.items():
        emit(f"optimize {label}", outcome(call))


def witness_json(w):
    return None if w is None else w.to_json()


def level_set_searches() -> None:
    # one generator per seed runs the three searches in turn, so each starts where the last left it
    names = sorted(name for name, entry in PROPERTY_REGISTRY.items() if entry["property"] is not None)
    for name in names:
        for n in (2, 3, 4):
            prop, lines = make_property(name, n), []
            for seed in range(5):
                g = np.random.default_rng(seed)
                for probes in (1, 20, 130):
                    found = outcome(lambda: json.dumps(witness_json(find_level_set_witness(prop, n, probes, g)), sort_keys=True))
                    lines.append(f"seed={seed} probes={probes} {found} next {g.standard_normal()!r}")
            emit(f"find_level_set_witness {name} n={n}", "\n".join(lines))


def empty_matrices() -> None:
    # a 0x0 matrix given to each entry point that validates one, then an empty stack of 3x3 matrices
    E = np.zeros((0, 0))
    calls = {
        "as_hermitian": lambda: q.as_hermitian(E).tolist(),
        "as_unitary": lambda: q.as_unitary(E).tolist(),
        "eigenvalues_desc": lambda: q.eigenvalues_desc(E).tolist(),
        "spectral_decompose": lambda: [x.tolist() for x in q.spectral_decompose(E)],
        "matrix_to_json": lambda: matrix_to_json(E),
        "herm_coords": lambda: herm_coords(E).tolist(),
        "Measurement": lambda: q.Measurement([E]).elements.tolist(),
        "basis_pvm": lambda: q.basis_pvm(E).elements.tolist(),
        "range_projector": lambda: range_projector(E).tolist(),
        "ExtendedHermitian": lambda: q.ExtendedHermitian(E, E).finite_part.tolist(),
        "ExtendedHermitian.wrap": lambda: q.ExtendedHermitian.wrap(E).finite_part.tolist(),
        "canonicalize_extended": lambda: q.canonicalize_extended([(E, 1.0)]).finite_part.tolist(),
        "lmsr_cost": lambda: q.lmsr_cost(E),
        "market_price_state": lambda: q.market_price_state(E).tolist(),
        "bundle_cost": lambda: q.bundle_cost(E, E),
    }
    for label, call in calls.items():
        emit(f"0x0 {label}", outcome(call))
    stack = np.zeros((0, 3, 3))
    emit("empty stack herm_coords", outcome(lambda: herm_coords(stack).shape))
    emit("empty stack spectral_decompose", outcome(lambda: [(x.shape, x.dtype.str) for x in q.spectral_decompose(stack)]))


def pairings() -> None:
    # edge inputs of the two pairings, then a valid market scenario whose payoff is a large cancellation
    I2 = np.eye(2)
    cases = {
        "0x0": (np.zeros((0, 0)), np.zeros((0, 0))),
        "2x3": (np.ones((2, 3)), np.ones((2, 3))),
        "NaN entry": (np.array([[1.0, np.nan], [np.nan, 1.0]]), I2),
        "two shapes": (I2, np.eye(3)),
    }
    for label, args in cases.items():
        emit(f"hs_inner {label}", outcome(q.hs_inner, *args))
        emit(f"frob_dist {label}", outcome(q.frob_dist, *args))
    emit("hs_inner non-Hermitian with I", outcome(q.hs_inner, np.array([[0.5, 0.3], [0.0, 0.5]]), I2))
    g = np.random.default_rng(0)
    truth = q.random_density(4, rng=g)
    R = 1e5 * q.random_hermitian(4, rng=g)
    R = q.hermitian_part(R - (np.vdot(truth, R).real / np.vdot(truth, truth).real) * truth)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scenario.json")
        path.write_text(json.dumps({"dim": 4, "trades": [matrix_to_json(R)], "truth": matrix_to_json(truth)}))
        emit("market-sim trade 1e5 off the truth", cli_run(["market-sim", "--scenario", str(path)]))


def stripped(report) -> dict:
    # a run_verify report less its unitary-invariance and implementability violations' rho and rho_prime
    for sub in report["reports"]:
        for key in ("unitary_invariance", "implementability"):
            sub[key]["violations"] = [{k: x for k, x in v.items() if k not in ("rho", "rho_prime")}
                                      for v in sub[key]["violations"]]
    return report


def stripped_verify_reports() -> None:
    for name in sorted(SCORE_REGISTRY):
        for dims, trials, seed in (([2, 3, 4], 400, 0), ([2, 3, 4], 400, 7), ([8, 16], 160, 3)):
            emit(f"run_verify {name} dims={dims} seed={seed} stripped",
                 json.dumps(stripped(run_verify(name, dims, trials, seed)), sort_keys=True))


def replayed_violations() -> None:
    # the first stored violation of the two checks that store no states, by replay where the tree has one
    replay = getattr(registry, "replay_verify", None)
    for name in ("fixed:brier", "ml:s4", "ml:s5"):
        for d in (2, 16):
            sub = run_verify(name, [d], 160, 3)["reports"][0]
            for stream, key, first_two in ((1, "unitary_invariance", ("rho", "rho_prime")),
                                           (2, "implementability", ("rho_1", "rho_2"))):
                found = sub[key]["violations"][:1]
                if found and replay is not None:
                    r = replay(name, [d], 160, 3, stream, found[0]["trial"])
                    found = [{"trial": r["trial"], "kind": r["kind"], "gap": r["gap"],
                              "rho": r[first_two[0]], "rho_prime": r[first_two[1]]}]
                emit(f"replay {name} d={d} {key}", json.dumps(found, sort_keys=True))


def replayed_trials() -> None:
    # whole replays of trials in late blocks, and of trials whose report reads its spare row
    replay = getattr(registry, "replay_verify", None)
    if replay is None:
        return
    for name in ("fixed:brier", "ml:s2", "ml:s5"):
        for d in (2, 16):
            for stream in range(3):
                for trial in (300, 2400):
                    emit(f"replay_verify {name} d={d} stream={stream} trial={trial}",
                         json.dumps(replay(name, [d], 10000, 3, stream, trial), sort_keys=True))
    for stream, (seed, trial) in enumerate(((12, 578), (5, 266), (1, 462))):  # SPARE, in stream order
        for d in (2, 16):
            emit(f"replay_verify ml:s2 d={d} stream={stream} seed={seed} trial={trial}",
                 json.dumps(replay("ml:s2", [d], 2400, seed, stream, trial), sort_keys=True))


def stacked_closures() -> None:
    # the one stacked call of each measurement-free score, on stacks whose ranks cycle through 1..d
    for d in (2, 4, 16):
        g = np.random.default_rng(d)
        R, B1, B2, B3 = (np.array([q.random_density(d, rank=1 + k % d, rng=g) for k in range(16)]) for _ in range(4))
        for name in ("ml:s4", "ml:s5"):
            S = make_score(name, d)
            for label, beliefs in (("one", (B1,)), ("three", (B1, B2, B3)), ("self", (R,))):
                emit(f"expected_stack {name} d={d} {label}",
                     outcome(lambda: [a.tolist() for a in S.expected_stack(R, *beliefs)]))


def top_eigenvector_calls() -> None:
    # the top-eigenvector ascent and the abstain score that reads it, at four dimensions and five seeds
    for n in (2, 3, 4, 8):
        rho, S = q.random_density(n, rng=n), q.abstain_score(0.5, n)
        for seed in range(5):
            emit(f"optimize top_eigenvector n={n} rng={seed}",
                 outcome(lambda: listed(optimize_top_eigenvector(rho, rng=seed))))
            emit(f"optimize abstain n={n} rng={seed}", outcome(lambda: listed(optimize_abstain(S, rho, rng=seed))))


def k_column_calls() -> None:
    # both k-column ascents, with falling, signed and three-column weights, at three dimensions and five seeds
    for n in (2, 4, 8):
        rho = q.random_density(n, rng=n)
        for w in ((2.0, 1.0), (1.0, -1.0), (3.0, 2.0, 1.0)):
            for seed in range(5):
                if len(w) <= n:
                    emit(f"optimize weighted_basis {list(w)} n={n} rng={seed}",
                         outcome(lambda: listed(optimize_weighted_basis(rho, list(w), len(w), rng=seed))))
        for k in (2, 3):
            for seed in range(5):
                if k <= n:
                    emit(f"optimize eigen_pair k={k} n={n} rng={seed}",
                         outcome(lambda: listed(optimize_eigen_pair(rho, k, rng=seed))))


def stored_parts() -> None:
    # the parts that equivalence and subgradient violations store, with their counts
    for label, report in (
        ("equivalence spectral:log == spectral:brier d=2",
         q.equivalence_check(make_score("spectral:log", 2), make_score("spectral:brier", 2), 40, dims=(2,), rng=1)),
        ("subgradient tr r^2 with -2r dims=(2, 3)",
         q.subgradient_inequality_check(lambda r: q.hs_inner(r, r), lambda r: -2 * r, 40, dims=(2, 3), rng=1)),
    ):
        emit(f"first violation {label}",
             json.dumps([report.n_violations, report.to_json()["violations"][0]], sort_keys=True))


def validator_boundaries() -> None:
    # values on either side of each test that accepts a good value at once, and faults in each order
    clip, below = PROB_CLIP, np.nextafter(-PROB_CLIP, -1.0)
    vectors = {"[1 + clip, -clip]": [1.0 + clip, -clip], "[1 + 2 clip, just below -clip]": [1.0 + 2.0 * clip, below]}
    for sign in (1.0, -1.0):
        t = 1.0 + sign * 1e-10  # the last total within 1e-10 of 1 on this side, then the next one out
        while abs(t - 1.0) > 1e-10:
            t = np.nextafter(t, 1.0)
        vectors[f"total 1 {sign:+.0f}e-10"] = [0.5, t - 0.5]
        vectors[f"total just past 1 {sign:+.0f}e-10"] = [0.5, np.nextafter(t, sign * 2.0) - 0.5]
    vectors |= {
        "NaN": [np.nan, 1.0],
        "+inf": [np.inf, 0.0],
        "-inf": [-np.inf, 1.0],
        "+inf beside 1e308": [1e308, 1e308, np.inf],
        "empty": [],
    }
    for label, p in vectors.items():
        emit(f"clean_probs {label}", outcome(lambda: q.clean_probs(p).tolist()))
    tol = HERM_TOL
    matrices = {
        "NaN": [[np.nan, 0.0], [0.0, 1.0]],
        "+inf on the diagonal": [[np.inf, 0.0], [0.0, 1.0]],
        "imaginary +inf on the diagonal": [[0.5 + 1j * np.inf, 0.0], [0.0, 0.5]],
        "+inf symmetric pair": [[0.5, np.inf], [np.inf, 0.5]],
        "-inf symmetric pair": [[0.5, -np.inf], [-np.inf, 0.5]],
        "asymmetry HERM_TOL": [[0.5, tol], [0.0, 0.5]],
        "asymmetry just above HERM_TOL": [[0.5, np.nextafter(tol, 1.0)], [0.0, 0.5]],
    }
    for label, M in matrices.items():
        M = np.array(M, dtype=np.complex128)
        emit(f"as_density {label}", outcome(lambda: q.as_density(M).tolist()))
        emit(f"as_hermitian {label}", outcome(lambda: q.as_hermitian(M).tolist()))
        emit(f"spectral_decompose {label}", outcome(lambda: [x.tolist() for x in q.spectral_decompose(M)]))
    log = q.log_rule()
    emit("expected_classical zero weight on -inf", outcome(q.expected_classical, log, [1.0, 0.0], [1.0, 0.0]))
    emit("expected_classical clipped weight on -inf",
         outcome(q.expected_classical, log, [1.0, 0.0], [1.0 + clip, -clip]))
    emit("shannon_entropy clipped weight", outcome(q.shannon_entropy, [1.0 + clip, -clip]))
    cases = {
        "negative weight on -inf": ([1.5, -0.5], [0.0, q.NEG_INF]),
        "negative weight on -inf beside +inf": ([1.5, -0.5, 0.0], [0.0, q.NEG_INF, np.inf]),
        "NaN weight beside +inf": ([np.nan, 1.0], [np.inf, 0.0]),
        "NaN weight and a second shape": ([np.nan, 1.0], [0.0, 0.0, 0.0]),
    }
    for label, args in cases.items():
        emit(f"ext_dot {label}", outcome(q.ext_dot, *args))


def rule_refusals() -> None:
    # a rule of one's own is checked at every construction, so the second build is refused as the first
    weighted = q.ClassicalScoringRule(lambda p: np.arange(p.shape[-1]) * p, name="weighted")
    whole = q.ClassicalScoringRule(lambda p: 2.0 * p - np.sum(p * p), name="whole-array")
    builds = {
        "spectral_score weighted": lambda: q.spectral_score(weighted),
        "spectral_score whole-array": lambda: q.spectral_score(whole),
        "fixed_measurement_score whole-array": lambda: q.fixed_measurement_score(whole, q.canonical_complete(2)),
    }
    for label, build in builds.items():
        for k in (1, 2):
            emit(f"{label} build {k}", outcome(build))


def library_rule_builds() -> None:
    # the library's rules through the public constructors, then every registry score at n = 1
    from qelicit.scores import _LOG_DET

    rho, sigma = q.random_density(3, rng=31), q.random_density(3, rng=32)
    for rule in (q.brier_rule(), q.log_rule(), _LOG_DET):
        builds = {"spectral_score": lambda: q.spectral_score(rule),
                  "fixed_measurement_score": lambda: q.fixed_measurement_score(rule, q.canonical_complete(3))}
        for label, build in builds.items():
            for k in (1, 2):
                emit(f"{label} {rule.name} build {k}", outcome(lambda: q.expected_score(build(), sigma, rho)))
    for name in sorted(SCORE_REGISTRY):
        emit(f"make_score {name} n=1", outcome(lambda: q.expected_score(make_score(name, 1), np.eye(1), np.eye(1))))


def phase_direction_witnesses() -> None:
    # pairs whose values agree up to phase and whose midpoints differ
    def phase_direction(rho):
        lam = q.eigenvalues_desc(rho)
        return lam / np.linalg.norm(lam) * np.exp(1j * np.angle(rho[0, 1] + 1e-3))

    prop = q.QuantumProperty(phase_direction, "phase-direction")
    rho1, rho2 = properties._probe_block(np.random.default_rng(45), 20, 3)
    for i in range(20):
        emit(f"level_set_witness phase-direction pair {i}",
             outcome(lambda: json.dumps(witness_json(level_set_witness(prop, rho1[i], rho2[i])), sort_keys=True)))


def nan_rule() -> None:
    root = q.ClassicalScoringRule(lambda p: np.sqrt(np.asarray(p) - 0.5), name="root")
    with np.errstate(invalid="ignore"):
        emit("expected_classical NaN rule", outcome(q.expected_classical, root, [0.2, 0.8], [0.5, 0.5]))


def removed_keywords() -> None:
    mu = q.standard_pvm(2)
    both = {"payoff": lambda r: (mu, np.array([0.0, 1.0])), "stack": lambda R: (mu, np.tile([1.0, 0.0], (len(R), 1)))}
    emit("QuantumScore payoff and stack",
         outcome(lambda: q.QuantumScore(name="both", **both).expected(np.diag([0.3, 0.7]), np.diag([0.9, 0.1]))))
    rho, sigma = q.random_density(3, rng=41), q.random_density(3, rng=42)
    builds = {"spectral_score": lambda: q.spectral_score(q.brier_rule(), name="mine"),
              "score_from_convex": lambda: q.score_from_convex(lambda r: q.hs_inner(r, r), lambda r: 2.0 * r, name="mine")}
    for label, build in builds.items():
        emit(f"{label} name", outcome(lambda: (build().name, q.expected_score(build(), sigma, rho))))
    emit("as_density name", outcome(lambda: q.as_density(np.eye(2) / 2, name="rho").tolist()))
    emit("as_unitary name", outcome(lambda: q.as_unitary(np.eye(2), name="U").tolist()))
    root = q.ClassicalScoringRule(lambda p: np.sqrt(np.asarray(p) - 0.5), name="root")
    with np.errstate(invalid="ignore"):
        emit("rule(p, y) NaN rule", outcome(root, [0.2, 0.8], 0))


def tomographic_refusals() -> None:
    # inputs of the wrong dimension, length or kind, and non-finite outcome values, then a numpy integer dim
    t = q.tomographic_map(q.canonical_complete(2))
    three, values = np.eye(3), [1.0, 2.0, 3.0]
    calls = {
        "probs 3x3": lambda: t.probs(three),
        "pinv_adjoint 3x3": lambda: t.pinv_adjoint(three),
        "pinv_adjoint stack of 3x3": lambda: t.pinv_adjoint(np.stack([three, three])),
        "adjoint 3 values": lambda: t.adjoint(values),
        "adjoint stack of 3 values": lambda: t.adjoint([values, values]),
        "reconstruct 3 values": lambda: t.reconstruct(values),
        "adjoint a number": lambda: t.adjoint(1.0),
        "reconstruct a number": lambda: t.reconstruct(1.0),
    }
    for bad in (np.nan, np.inf, -np.inf):
        v = [bad, 0.0, 0.0, 1.0]
        calls[f"reconstruct {bad}"] = lambda v=v: t.reconstruct(v)
        calls[f"adjoint {bad}"] = lambda v=v: t.adjoint(v)
        calls[f"adjoint stack with {bad}"] = lambda v=v: t.adjoint([[0.25] * 4, v])
    for label, call in calls.items():
        with np.errstate(all="ignore"):
            emit(f"tomographic_map canonical_complete(2) {label}", outcome(lambda: call().tolist()))
    emit("MarketState np.int64(2) dim",
         outcome(lambda: (type(q.MarketState(np.int64(2)).dim).__name__, json.dumps({"dim": q.MarketState(np.int64(2)).dim}))))


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
    count_arguments()
    frame_weights()
    tomography()
    markets()
    tolerance_keywords()
    fixed_knobs()
    measurement_free_scores()
    cli_refusals()
    ordered_ascent()
    level_set_searches()
    empty_matrices()
    pairings()
    stripped_verify_reports()
    replayed_violations()
    replayed_trials()
    stacked_closures()
    top_eigenvector_calls()
    k_column_calls()
    stored_parts()
    validator_boundaries()
    rule_refusals()
    library_rule_builds()
    phase_direction_witnesses()
    nan_rule()
    removed_keywords()
    tomographic_refusals()
