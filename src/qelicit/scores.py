"""Quantum scores: report-dependent measurements plus payoff functions.

A quantum score pairs a scoring function s(report, outcome) with a
measurement function mapping each reported state to a POVM; the expected
score under belief rho is the outcome-probability-weighted payoff, which
is always (extended) linear in rho.  This module provides the standard
constructions (fixed-measurement reductions, the binary and projective
Brier scores, spectral scores, the machine-learning loss family), the
entropy functions they induce, expressiveness transforms between score
classes, and sampled checks for truthfulness, equivalence, unitary
invariance, and physical implementability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import (
    DISTINCT_TOL,
    ClassicalScoringRule,
    _bregman_rule,
    _check_convex,
    brier_rule,
    is_permutation_invariant,
    log_rule,
)
from .extended import (
    EXT_WEIGHT_TOL,
    NEG_INF,
    ExtendedHermitian,
    _collapse,
    ext_dot,
    ext_inner,
    matrix_log,
)
from .linalg import (
    ZERO_EIG_REL,
    as_density,
    frob_dist,
    hermitian_part,
    hs_inner,
    matrix_to_json,
    random_density,
    random_unitary,
    spectral_decompose,
)
from .linalg import _fix_phases
from .measurement import (
    Measurement,
    _basis_pvm,
    _outcome_probs,
    apply_measurement,
    herm_coords,
    is_tomographically_complete,
    tomographic_map,
)
from .reports import ScoreReport, _classify, run_trials

__all__ = [
    "TRUTH_MARGIN",
    "DISTINCT_TOL",
    "EQUIV_TOL",
    "QuantumScore",
    "ExpectedScoreFn",
    "expected_score",
    "score_coefficient",
    "fixed_measurement_score",
    "fixed_meas_from_convex",
    "binary_brier",
    "projective_brier",
    "spectral_score",
    "log_spectral",
    "log_det_score",
    "trace_score",
    "log_trace_score",
    "log_trace_exp_score",
    "ml_scores",
    "von_neumann_entropy",
    "relative_entropy",
    "score_from_convex",
    "truthfulness_check",
    "equivalence_check",
    "unitary_invariance_check",
    "implementability_check",
    "subgradient_inequality_check",
    "fixed_meas_expression",
    "projective_expression",
]

TRUTH_MARGIN = 1e-9   # expected-score gain above this flags a truthfulness violation
EQUIV_TOL = 1e-8      # expected-score difference allowed between equivalent scores
FULL_RANK_TOL = 1e-8  # smallest eigenvalue for "full rank" report domains


@dataclass(frozen=True)
class QuantumScore:
    """A score for reports: a report-dependent POVM, one payoff per outcome.

    ``payoff(report)`` returns ``(mu, s)``: the POVM ``mu`` to measure on
    the true state, and the payoff vector ``s`` with one entry per outcome
    of ``mu``, in R u {-inf}.  The expected score under belief rho is then
    sum_y <mu_y, rho> s_y, which ``expected(report, rho)`` computes;
    ``measure(report)`` and ``score(report, y)`` read one part of the
    payoff.  Reports are states here; the property scores take vectors,
    frames, pairs or ABSTAIN.  ``domain``, when present, restricts the
    valid reports and beliefs (used by sampled checks).
    """

    payoff: Callable[[np.ndarray], tuple[Measurement, np.ndarray]]
    name: str = ""
    domain: Callable[[np.ndarray], bool] | None = None

    def measure(self, report) -> Measurement:
        return self.payoff(report)[0]

    def score(self, report, y: int) -> float:
        return float(self.payoff(report)[1][int(y)])

    def expected(self, report, rho) -> float:
        """Expected payoff of ``report`` under belief ``rho``, from one ``payoff``."""
        mu, values = self.payoff(report)
        return _pair(apply_measurement(mu, rho), values)


def _pair(probs, values) -> float:
    # sum_y p_y values_y under extended arithmetic: zero-mass outcomes
    # never contribute, even against -inf payoffs
    return ext_dot(probs, values, zero_tol=EXT_WEIGHT_TOL)


@dataclass(frozen=True)
class ExpectedScoreFn:
    """An expected-score closure with no measurement realization.

    Used for score-like functionals that are not extended-linear in the
    true state and therefore cannot be implemented by any measurement;
    only their expected values ``expected(report, rho)`` are defined, and
    the closure validates its own inputs.
    """

    expected: Callable[[np.ndarray, np.ndarray], float]
    name: str = ""
    domain: Callable[[np.ndarray], bool] | None = None


def expected_score(S, rho_prime, rho) -> float:
    """Expected payoff of reporting ``rho_prime`` under belief ``rho``.

    ``S.expected(rho_prime, rho)``: for a ``QuantumScore``, the outcome
    distribution of its report's measurement on rho paired with the
    payoff vector; for an ``ExpectedScoreFn``, its closure.
    """
    return S.expected(rho_prime, rho)


def score_coefficient(S: QuantumScore, rho_prime) -> ExtendedHermitian:
    """The extended Hermitian E with <E, rho> equal to the expected score.

    Collapses sum_y mu(report)_y * s(report, y); the -inf score values
    populate the infinite part.
    """
    mu, values = S.payoff(rho_prime)
    return _collapse(mu.elements, values)


# ---------------------------------------------------------------------------
# constructions


def fixed_measurement_score(rule: ClassicalScoringRule, mu: Measurement) -> QuantumScore:
    """Score the induced outcome distribution with a classical rule.

    The measurement is the same for every report; the report enters only
    through its outcome distribution.  Strictly truthful exactly when the
    rule is strictly proper and the measurement tomographically complete.
    """

    def payoff(rho_p):
        return mu, rule.values(apply_measurement(mu, rho_p))

    return QuantumScore(payoff, name=f"fixed:{rule.name}")


def fixed_meas_from_convex(f, df, mu: Measurement, rng=None, check_samples: int = 32) -> QuantumScore:
    """Truthful fixed-measurement score from a convex f on outcome distributions.

    The fixed measurement of the Bregman rule of f: s(report, y) =
    f(p) + <df(p), 1_y - p> at p = the report's outcome distribution.
    The sampled self-check of ``from_convex`` (subgradient inequality and
    midpoint convexity) runs at construction on reachable distributions.
    """

    def draw(g):
        return (_outcome_probs(mu, random_density(mu.dim, rng=g)),
                _outcome_probs(mu, random_density(mu.dim, rng=g)))

    _check_convex(f, df, draw, rng, check_samples)
    return fixed_measurement_score(_bregman_rule(f, df, "convex"), mu)


def binary_brier() -> QuantumScore:
    """Brier score realized with the two-outcome measurement {I - report, report}."""

    def payoff(rho_p):
        rho_p = as_density(rho_p)
        purity = hs_inner(rho_p, rho_p)
        return _overlap_measurement(rho_p), np.array([-purity, 2.0 - purity])

    return QuantumScore(payoff, name="binary-brier")


def _overlap_measurement(rho_p) -> Measurement:
    # {I - report, report}: outcome 1 fires with probability <report, rho>
    return Measurement._unchecked(np.stack([np.eye(rho_p.shape[0]) - rho_p, rho_p]))


def projective_brier() -> QuantumScore:
    """Brier score measured in the report's own eigenbasis: the spectral Brier score."""
    return spectral_score(brier_rule(), name="projective-brier", check=False)


def spectral_score(rule: ClassicalScoringRule, name: str = "", check: bool = True) -> QuantumScore:
    """Measure in the report's eigenbasis, scoring eigenvalues classically.

    The rule must be permutation-invariant (eigenbases carry no outcome
    labels of their own); this is spot-checked at construction.
    """
    if check:
        for d in (2, 3):
            if not is_permutation_invariant(rule, d, rng=12345):
                raise ValueError(f"rule {rule.name!r} is not permutation-invariant")

    def payoff(rho_p):
        dec = spectral_decompose(as_density(rho_p))
        return _basis_pvm(dec.eigenvectors), rule.values(dec.eigenvalues)

    return QuantumScore(payoff, name=name or f"spectral:{rule.name}")


def log_spectral() -> QuantumScore:
    """Spectral log score; its expected self-score is von Neumann entropy negated."""
    return spectral_score(log_rule(), name="spectral:log", check=False)


def _full_rank(rho) -> bool:
    return float(np.linalg.eigvalsh(as_density(rho))[0]) > FULL_RANK_TOL


def log_det_score() -> QuantumScore:
    """Log-determinant score, restricted to full-rank reports.

    The spectral score of the Bregman rule of the convex -sum(log p):
    payoff n - sum(log lambda) - 1/lambda_y in the report's eigenbasis.
    """

    def values(lam):
        if float(lam.min()) <= FULL_RANK_TOL:
            raise ValueError("log-det score requires a full-rank report")
        return len(lam) - np.sum(np.log(lam)) - 1.0 / lam

    spectral = spectral_score(ClassicalScoringRule(values, name="log-det"), check=False)
    return QuantumScore(spectral.payoff, name="ml:s2", domain=_full_rank)


def trace_score() -> QuantumScore:
    """Overlap payoff <report, rho> via {I - report, report}; not truthful."""

    def payoff(rho_p):
        return _overlap_measurement(as_density(rho_p)), np.array([0.0, 1.0])

    return QuantumScore(payoff, name="ml:s3")


def log_trace_score() -> ExpectedScoreFn:
    """log <report, rho>.  Not extended-linear in rho, hence not implementable."""

    def expected(rho_p, rho):
        v = hs_inner(as_density(rho_p), as_density(rho))
        if v <= EXT_WEIGHT_TOL:
            return NEG_INF
        return float(np.log(v))

    return ExpectedScoreFn(expected, name="ml:s4")


def log_trace_exp_score() -> ExpectedScoreFn:
    """log Tr exp(log report + log rho).  Not implementable.

    On rank-deficient inputs the logs are compressed onto the
    intersection of the supports (directions where either log is -inf
    contribute exp(-inf) = 0), which reproduces the commuting case
    exactly.
    """

    def expected(rho_p, rho):
        Ep, Er = matrix_log(rho_p), matrix_log(rho)
        K = Ep.infinite_part + Er.infinite_part
        w, V = np.linalg.eigh(hermitian_part(K))
        Q = V[:, w <= 1e-10]
        if Q.shape[1] == 0:
            return NEG_INF
        M = hermitian_part(Q.conj().T @ (Ep.finite_part + Er.finite_part) @ Q)
        ev = np.linalg.eigvalsh(M)
        top = float(ev.max())
        return top + float(np.log(np.sum(np.exp(ev - top))))

    return ExpectedScoreFn(expected, name="ml:s5")


def ml_scores() -> dict:
    """The machine-learning loss family; only s1 and s2 are truthful.

    s4 and s5 are exposed as expected-score closures only: their values
    are not extended-linear in the true state, so no measurement
    realizes them.
    """
    s1 = spectral_score(log_rule(), name="ml:s1", check=False)
    return {
        "s1": s1,
        "s2": log_det_score(),
        "s3": trace_score(),
        "s4": log_trace_score(),
        "s5": log_trace_exp_score(),
    }


def score_from_convex(F, dF, name: str = "from-convex", domain=None) -> QuantumScore:
    """Truthful projective score realizing a convex expected-self-score F.

    ``dF`` maps a report to a subgradient (plain Hermitian or extended);
    the coefficient matrix dF(r) + (F(r) - <dF(r), r>) I is spectrally
    decomposed into a projective measurement with eigenvalue payoffs.
    """

    def payoff(rho_p):
        rho_p = as_density(rho_p)
        d = dF(rho_p)
        if not isinstance(d, ExtendedHermitian):
            d = ExtendedHermitian.wrap(d)
        anchor = ext_inner(d, rho_p)
        if anchor == NEG_INF:
            raise ValueError("subgradient selection is -inf at its own base point")
        return _projective(d.add_scalar(float(F(rho_p)) - anchor))

    return QuantumScore(payoff, name=name, domain=domain)


# ---------------------------------------------------------------------------
# entropies


def von_neumann_entropy(rho) -> float:
    """H(rho) = -<log rho, rho>; zero eigenvalues contribute nothing."""
    return -ext_inner(matrix_log(rho), rho)


def relative_entropy(rho, sigma) -> float:
    """<log rho - log sigma, rho>, the divergence of the spectral log score.

    Nonnegative, zero only at rho == sigma, and +inf when rho puts mass
    outside sigma's support (the cross term <log sigma, rho> is -inf).
    """
    rho = as_density(rho)
    cross = ext_inner(matrix_log(sigma), rho)
    if cross == NEG_INF:
        return float("inf")
    return -von_neumann_entropy(rho) - cross


# ---------------------------------------------------------------------------
# expressiveness transforms


def _ext_eigh(E: ExtendedHermitian):
    # Joint eigensystem of an extended Hermitian: finite eigenvalues on
    # the infinite part's kernel (descending), -inf on its range.
    if E.is_finite():
        dec = spectral_decompose(E.finite_part)
        return np.asarray(dec.eigenvalues, dtype=np.float64), dec.eigenvectors
    B = E.infinite_part
    w, V = np.linalg.eigh(B)
    tol = ZERO_EIG_REL * max(float(np.trace(B).real), 1.0)
    inf_dirs = V[:, w > tol]
    Q = V[:, w <= tol]
    M = hermitian_part(Q.conj().T @ E.finite_part @ Q)
    wA, W = np.linalg.eigh(M)
    order = np.argsort(-wA, kind="stable")
    U = np.concatenate([Q @ W[:, order], inf_dirs], axis=1)
    vals = np.concatenate([wA[order], np.full(inf_dirs.shape[1], NEG_INF)])
    return vals, _fix_phases(U)


def _projective(E: ExtendedHermitian):
    # Eigenbasis measurement of E paired with its eigenvalues as payoffs.
    vals, U = _ext_eigh(E)
    return _basis_pvm(U), vals


def fixed_meas_expression(S: QuantumScore, mu: Measurement) -> QuantumScore:
    """Re-express a finite score over a fixed complete measurement.

    Solves sum_y alpha_y mu_y = coefficient(S, report) for the payoff
    vector alpha; exact because the elements span the Hermitian space.
    Raises if the measurement is incomplete or the score takes -inf.
    """
    if not is_tomographically_complete(mu):
        raise ValueError("fixed-measurement expression needs a tomographically complete POVM")
    tmap = tomographic_map(mu)

    def payoff(rho_p):
        E = score_coefficient(S, rho_p)
        if not E.is_finite():
            raise ValueError(f"score {S.name!r} takes -inf values; not expressible")
        return mu, tmap.pinv.T @ herm_coords(E.finite_part)

    return QuantumScore(payoff, name=f"fixed-expr[{S.name}]")


def projective_expression(S: QuantumScore) -> QuantumScore:
    """Equivalent projective score: eigenbasis measurement, eigenvalue payoffs."""

    def payoff(rho_p):
        return _projective(score_coefficient(S, rho_p))

    return QuantumScore(payoff, name=f"projective[{S.name}]", domain=S.domain)


# ---------------------------------------------------------------------------
# sampled checks


def _in_domain(S, rho) -> bool:
    return S.domain is None or S.domain(rho)


def _sample_state(S, dim, g):
    rank = int(g.integers(1, dim + 1))
    rho = random_density(dim, rank=rank, rng=g)
    if not _in_domain(S, rho):
        # blend toward maximally mixed until inside (full-rank domains)
        eye = np.eye(dim) / dim
        rho = hermitian_part(0.99 * random_density(dim, rng=g) + 0.01 * eye)
    return rho


def _adversarial_report(S, rho, strategy, g):
    dim = rho.shape[0]
    if strategy == 0:
        return _sample_state(S, dim, g)
    dec = spectral_decompose(rho)
    if strategy == 1:  # permute eigenvalues in the belief's own basis
        lam = dec.eigenvalues[g.permutation(dim)]
        V = dec.eigenvectors
        rep = hermitian_part((V * lam) @ V.conj().T)
    elif strategy == 2:  # all mass on one eigenvector (top half the time)
        j = 0 if g.random() < 0.5 else int(g.integers(dim))
        x = dec.eigenvectors[:, j : j + 1]
        rep = hermitian_part(x @ x.conj().T)
    else:  # spectrum-preserving rotation
        U = random_unitary(dim, rng=g)
        rep = hermitian_part(U @ rho @ U.conj().T)
    if not _in_domain(S, rep):
        eye = np.eye(dim) / dim
        rep = hermitian_part(0.99 * rep + 0.01 * eye)
    # reports in (DISTINCT_TOL, ~sqrt(margin)] are distinct by distance yet
    # tie within margin for quadratic scores; sample clear of that window
    if DISTINCT_TOL < frob_dist(rho, rep) < 1e-4:
        return _sample_state(S, dim, g)
    return rep


def _encode_states(rho, rho_prime) -> dict:
    return {"rho": matrix_to_json(rho), "rho_prime": matrix_to_json(rho_prime)}


def _belief_and_report(S, dims, i, g):
    # trial i: a belief at dims[i % len(dims)] against the (i % 4)-th adversary
    rho = _sample_state(S, dims[i % len(dims)], g)
    return rho, _adversarial_report(S, rho, i % 4, g)


def _compare(kind, a, b, tol, x, y):
    # |a - b| in R u {-inf} (0 when both are -inf, inf when one is), flagged above tol
    if a == NEG_INF or b == NEG_INF:
        gap = 0.0 if a == b else float("inf")
    else:
        gap = abs(a - b)
    return gap, [(kind, gap, x, y)] if gap > tol else []


def _belief_scorer(S, report):
    # rho -> S(report; rho) for the exactly Hermitian states a check draws:
    # a QuantumScore's payoff is evaluated (and its report validated) once,
    # and the beliefs, built by the library, go unchecked to the contraction
    if not isinstance(S, QuantumScore):
        return lambda rho: S.expected(report, rho)
    mu, values = S.payoff(report)
    return lambda rho: _pair(_outcome_probs(mu, rho), values)


def truthfulness_check(
    S,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
    mode: str = "strict",
    margin: float = TRUTH_MARGIN,
    distinct_tol: float = DISTINCT_TOL,
) -> ScoreReport:
    """Probe S(report; belief) <= S(belief; belief) by sampling.

    Beliefs mix full-rank and rank-deficient states; reports cycle
    through random states and targeted adversaries (eigenvalue
    permutations, single-eigenvector mass, spectrum-preserving
    rotations).  Weak mode flags gains above ``margin``; strict mode
    additionally flags ties between distinct states.
    """
    if mode not in ("weak", "strict"):
        raise ValueError(f"mode must be 'weak' or 'strict', got {mode!r}")
    dims = tuple(dims)
    report = ScoreReport(getattr(S, "name", "score"), mode, trials, dims)

    def trial(i, g):
        rho, rep = _belief_and_report(S, dims, i, g)
        return _classify(
            _belief_scorer(S, rho)(rho),
            lambda: _belief_scorer(S, rep)(rho),
            lambda: frob_dist(rho, rep) > distinct_tol,
            margin, mode == "strict", rho, rep,
        )

    return run_trials(report, trial, _encode_states, rng)


def equivalence_check(
    S1,
    S2,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
    tol: float = EQUIV_TOL,
) -> ScoreReport:
    """Compare expected scores pointwise; -inf must match -inf."""
    dims = tuple(dims)
    name = f"{getattr(S1, 'name', 'S1')} == {getattr(S2, 'name', 'S2')}"
    report = ScoreReport(name, "equivalence", trials, dims)

    def trial(i, g):
        rho, rep = _belief_and_report(S1, dims, i, g)
        if not (_in_domain(S2, rho) and _in_domain(S2, rep)):
            return 0.0, []
        a = _belief_scorer(S1, rep)(rho)
        b = _belief_scorer(S2, rep)(rho)
        return _compare("mismatch", a, b, tol, rho, rep)

    return run_trials(report, trial, _encode_states, rng)


def unitary_invariance_check(
    S,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
    tol: float = EQUIV_TOL,
) -> ScoreReport:
    """Flag |S(r; rho) - S(U r U*; U rho U*)| above tolerance."""
    dims = tuple(dims)
    report = ScoreReport(getattr(S, "name", "score"), "unitary-invariance", trials, dims)

    def trial(i, g):
        rho, rep = _belief_and_report(S, dims, i, g)
        U = random_unitary(rho.shape[0], rng=g)
        a = _belief_scorer(S, rep)(rho)
        rotated = _belief_scorer(S, hermitian_part(U @ rep @ U.conj().T))
        b = rotated(hermitian_part(U @ rho @ U.conj().T))
        return _compare("variance", a, b, tol, rho, rep)

    return run_trials(report, trial, _encode_states, rng)


def implementability_check(
    S,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
    tol: float = EQUIV_TOL,
) -> ScoreReport:
    """Extended linearity of expected score in the true state.

    A score is physically implementable iff rho -> S(report; rho) is
    extended-linear; mixtures are compared against mixed expected
    values under the extended arithmetic.
    """
    dims = tuple(dims)
    report = ScoreReport(getattr(S, "name", "score"), "implementability", trials, dims)

    def trial(i, g):
        dim = dims[i % len(dims)]
        rho1 = _sample_state(S, dim, g)
        rho2 = _sample_state(S, dim, g)
        rep = _adversarial_report(S, rho1, i % 4, g)
        t = float(g.random())
        score = _belief_scorer(S, rep)
        lhs = score(hermitian_part(t * rho1 + (1.0 - t) * rho2))
        rhs = ext_dot([t, 1.0 - t], [score(rho1), score(rho2)], zero_tol=EXT_WEIGHT_TOL)
        return _compare("nonlinear", lhs, rhs, tol, rho1, rho2)

    return run_trials(report, trial, _encode_states, rng)


def subgradient_inequality_check(
    F,
    dF,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
    margin: float = TRUTH_MARGIN,
) -> ScoreReport:
    """Check F(rho) >= F(r) + <dF(r), rho - r> on sampled state pairs.

    ``dF`` may return plain Hermitian matrices or extended ones; a -inf
    lower bound passes trivially, and a selection whose infinite part
    overlaps negatively with the direction is itself flagged.
    """
    dims = tuple(dims)
    report = ScoreReport("subgradient", "inequality", trials, dims)

    def trial(i, g):
        dim = dims[i % len(dims)]
        rho = random_density(dim, rank=int(g.integers(1, dim + 1)), rng=g)
        base = random_density(dim, rank=int(g.integers(1, dim + 1)), rng=g)
        d = dF(base)
        if not isinstance(d, ExtendedHermitian):
            d = ExtendedHermitian.wrap(d)
        try:
            pairing = ext_inner(d, hermitian_part(rho - base))
        except ValueError:
            return float("inf"), [("invalid-selection", float("inf"), rho, base)]
        if pairing == NEG_INF:
            return NEG_INF, []
        gap = (float(F(base)) + pairing) - float(F(rho))
        if gap > margin:
            return gap, [("violated", gap, rho, base)]
        return gap, []

    return run_trials(report, trial, _encode_states, rng)
