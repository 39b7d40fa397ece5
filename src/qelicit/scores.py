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

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .classical import (
    DISTINCT_TOL,
    PROPERNESS_MARGIN,
    ClassicalScoringRule,
    _bregman_rule,
    _check_convex,
    _near_tie,
    _require_row_wise,
    _rule_values,
    brier_rule,
    is_permutation_invariant,
    log_rule,
)
from .extended import (
    NEG_INF,
    ExtendedHermitian,
    _collapse,
    _ext_gap,
    _ext_log,
    _ext_pair,
    _log_parts,
    _range_split,
    ext_dot,
    ext_inner,
)
from .linalg import (
    as_complex_matrix,
    as_density,
    hermitian_part,
    random_density,
)
from .linalg import _complex_gaussian, _decompose, _decomposed_densities, _densities, _log_sum_exp, _unitaries
from .linalg import _drawn, _eigh
from .measurement import (
    Measurement,
    _basis_pvm,
    _Bases,
    _measured_rows,
    _same_dim,
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

TRUTH_MARGIN = PROPERNESS_MARGIN  # expected-score gain above this flags a truthfulness violation
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
    frames, pairs or ABSTAIN.  ``domain``, when present, maps an
    (N, n, n) stack of states to the mask of those that are valid reports
    and beliefs (used by sampled checks).

    A score is stacked one report at a time, unless its ``payoff`` is one
    the library builds (``_Stacked``), which pays a whole stack at once.
    ``dataclasses.replace`` keeps or drops that with the payoff it keeps.
    """

    payoff: Callable[[np.ndarray], tuple[Measurement, np.ndarray]]
    name: str = ""
    domain: Callable[[np.ndarray], np.ndarray] | None = None

    def measure(self, report) -> Measurement:
        return self.payoff(report)[0]

    def score(self, report, y: int) -> float:
        return float(self.payoff(report)[1][int(y)])

    def expected(self, report, rho) -> float:
        """Expected payoff of ``report`` under belief ``rho``, from one payoff evaluation."""
        if isinstance(self.payoff, _Stacked):
            dim, outcomes, values = self.payoff._validated(report)
        else:
            outcomes, values = _per_report(self.payoff, [report])
            dim = outcomes._at(0).dim
        rho = as_density(rho)
        _same_dim(rho.shape[0], dim)
        return float(_pair(outcomes, values, rho[None])[0])

    def expected_stack(self, reports, *beliefs) -> list:
        """S(reports[k]; b[k]) for each aligned stack b of unchecked states, from one payoff per report."""
        outcomes, values = self._stacked(reports)
        return [_pair(outcomes, values, b) for b in beliefs]

    def _stacked(self, reports):
        # stacked measurement and (N, m) payoffs of validated reports
        if isinstance(self.payoff, _Stacked):
            return self.payoff.stack(reports)
        return _per_report(self.payoff, reports)


class _Stacked:
    """The payoff of a score the library builds from ``stack``, which pays a stack of reports at once.

    ``stack`` maps an (N, n, n) stack of states the library built (not
    checked) to the stacked measurement (a shared POVM, or the reports'
    bases; never an (N, m, n, n) array, it answers ``_probs(states)`` and
    ``_at(k)``) and the (N, m) payoffs; a call pays one report, validated,
    as its N = 1 call.  A spectral score's ``spectral`` is its map
    (lambda, V) -> payoff after ``_decompose``, so a report is PSD-tested
    from that (lambda, V).
    """

    __slots__ = ("stack", "spectral")

    def __init__(self, stack, spectral=None):
        self.stack, self.spectral = stack, spectral

    def __call__(self, report):
        _, outcomes, values = self._validated(report)
        return outcomes._at(0), values[0]

    def _validated(self, report):
        # the dimension, stacked measurement and (1, m) payoffs of one report, validated
        if self.spectral is None:
            reports = as_density(report)[None]
            return reports.shape[-1], *self.stack(reports)
        states, dec = _decomposed_densities(report)
        return states.shape[-1], *self.spectral(dec)


class _PerReport:
    """The measurements of a stack of reports, one per report, as a list."""

    __slots__ = ("mus",)

    def __init__(self, mus):
        self.mus = mus

    def _probs(self, states: np.ndarray) -> np.ndarray:
        return np.array([mu._probs(rho[None])[0] for mu, rho in zip(self.mus, states)])

    def _at(self, k: int) -> Measurement:
        return self.mus[k]


def _per_report(payoff, reports):
    # the stacked form of a per-report payoff: one call per report
    mus, values = zip(*map(payoff, reports))
    return _PerReport(mus), np.array(values, dtype=np.float64)


def _pair(outcomes, values, states) -> np.ndarray:
    # sum_y p_ky values_ky for each report k against state k, under extended
    # arithmetic: zero-mass outcomes never contribute, even against -inf payoffs;
    # the distributions are cleaned by _measured_rows, so only the values are checked
    return _ext_pair(outcomes._probs(states), values)


def _hs_rows(A, B) -> np.ndarray:
    # Re <A_k, B_k> for two (N, n, n) stacks: the real and imaginary parts
    # of each matrix side by side, dotted
    a = np.ascontiguousarray(A).reshape(len(A), -1).view(np.float64)
    b = np.ascontiguousarray(B).reshape(len(B), -1).view(np.float64)
    return np.einsum("ki,ki->k", a, b)


@dataclass(frozen=True)
class ExpectedScoreFn:
    """An expected-score closure with no measurement realization.

    Used for score-like functionals that are not extended-linear in the
    true state and therefore cannot be implemented by any measurement;
    only their expected values are defined.  The closure is its
    ``expected_stack(reports, *beliefs)``, the stacked contract of both
    score shapes: one (N,) array per aligned (N, n, n) belief stack, of
    states the library built (not checked); ``expected`` is its N = 1 call on validated states.
    """

    expected_stack: Callable[..., list]
    name: str = ""

    def expected(self, report, rho) -> float:
        report, rho = as_density(report), as_density(rho)
        if report.shape != rho.shape:
            raise ValueError(f"dimension mismatch: report {report.shape[0]}, state {rho.shape[0]}")
        return float(_expected_stack(self, report[None], rho[None])[0][0])


def _expected_stack(S, reports, *beliefs) -> list:
    """S.expected_stack(reports, *beliefs); a closure's result other than one (N,) array per belief stack is refused."""
    out = S.expected_stack(reports, *beliefs)
    if isinstance(S, ExpectedScoreFn):
        shapes = [np.shape(a) for a in out] if isinstance(out, (list, tuple)) else np.shape(out)
        if shapes != [(len(reports),)] * len(beliefs):
            raise ValueError(f"score {S.name!r}: expected_stack must return one ({len(reports)},) array per belief "
                             f"stack, {len(beliefs)} here, but returned {type(out).__name__} of shape(s) {shapes}")
    return out


def _measured(S):
    # S, refused by name when it is an ExpectedScoreFn, which no measurement realizes
    if isinstance(S, ExpectedScoreFn):
        raise ValueError(f"score {S.name!r} has no measurement: only its expected values are defined")
    return S


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
    populate the infinite part.  An ``ExpectedScoreFn`` is refused.
    """
    mu, values = _measured(S).payoff(rho_prime)
    return ExtendedHermitian._unchecked(*_collapse(mu.elements, values))


# ---------------------------------------------------------------------------
# constructions


def fixed_measurement_score(rule: ClassicalScoringRule, mu: Measurement) -> QuantumScore:
    """Score the induced outcome distribution with a classical rule.

    The measurement is the same for every report; the report enters only
    through its outcome distribution.  Strictly truthful exactly when the
    rule is strictly proper and the measurement tomographically complete.
    The rule must pay each row of a stack as it pays that row alone; this
    is checked on a two-row stack at every construction.
    """
    _require_row_wise(rule, len(mu))
    return _fixed_score(rule, mu)


def _fixed_score(rule: ClassicalScoringRule, mu: Measurement) -> QuantumScore:
    # fixed_measurement_score of a rule known to pay row-wise, built without the check
    def stack(reports):
        return mu, _rule_values(rule, mu._probs(reports))

    return QuantumScore(_Stacked(stack), name=f"fixed:{rule.name}")


def fixed_meas_from_convex(f, df, mu: Measurement) -> QuantumScore:
    """Truthful fixed-measurement score from a convex f on outcome distributions.

    The fixed measurement of the Bregman rule of f: s(report, y) =
    f(p) + <df(p), 1_y - p> at p = the report's outcome distribution.
    The sampled self-check of ``from_convex`` (subgradient inequality and
    midpoint convexity) runs at construction on 32 pairs of reachable
    distributions.
    """

    def draw(g):
        return tuple(mu._probs(random_density(mu.dim, rng=g)[None])[0] for _ in range(2))

    _check_convex(f, df, draw, 32)
    return fixed_measurement_score(_bregman_rule(f, df, "convex"), mu)


class _Overlaps:
    """The measurements {I - r_k, r_k} of a stack of reports r, kept as the reports.

    Outcome 1 fires with probability <r_k, rho>.
    """

    __slots__ = ("reports",)

    def __init__(self, reports: np.ndarray):
        self.reports = reports

    def _probs(self, states: np.ndarray) -> np.ndarray:
        hit = _hs_rows(self.reports, states)
        trace = np.trace(states, axis1=-2, axis2=-1).real
        return _measured_rows(np.stack([trace - hit, hit], axis=-1), states.shape[-1])

    def _at(self, k: int) -> Measurement:
        return _overlap_measurement(self.reports[k])


def binary_brier() -> QuantumScore:
    """Brier score realized with the two-outcome measurement {I - report, report}."""

    def stack(reports):
        purity = _hs_rows(reports, reports)
        return _Overlaps(reports), np.stack([-purity, 2.0 - purity], axis=-1)

    return QuantumScore(_Stacked(stack), name="binary-brier")


def _overlap_measurement(rho_p) -> Measurement:
    # {I - report, report}: outcome 1 fires with probability <report, rho>
    return Measurement._unchecked(np.stack([np.eye(rho_p.shape[0]) - rho_p, rho_p]))


def projective_brier() -> QuantumScore:
    """Brier score measured in the report's own eigenbasis: the spectral Brier score."""
    return _spectral_score(brier_rule(), "projective-brier")


def spectral_score(rule: ClassicalScoringRule) -> QuantumScore:
    """Measure in the report's eigenbasis, scoring eigenvalues classically; named ``spectral:{rule.name}``.

    The rule must pay each row of a stack as it pays that row alone and
    be permutation-invariant, since eigenbases carry no outcome labels of
    their own; ``is_permutation_invariant`` checks both on stacks at
    n = 2 and 3, at every construction.
    """
    for d in (2, 3):
        if not is_permutation_invariant(rule, d, rng=12345):
            raise ValueError(f"rule {rule.name!r} is not permutation-invariant")
    return _spectral_score(rule, f"spectral:{rule.name}")


def _spectral_score(rule: ClassicalScoringRule, name: str) -> QuantumScore:
    # spectral_score of a rule known to be row-wise and permutation-invariant, built without the check
    spectral = partial(_spectral_payoff, rule)
    return QuantumScore(_Stacked(lambda reports: spectral(_decompose(reports)), spectral), name=name)


def _spectral_payoff(rule: ClassicalScoringRule, dec) -> tuple:
    # the eigenbasis measurement of decomposed reports (lambda, V) and the rule's payoffs on lambda
    lam, V = dec
    return _Bases(V), _rule_values(rule, lam)


def log_spectral() -> QuantumScore:
    """Spectral log score; its expected self-score is von Neumann entropy negated."""
    return _spectral_score(log_rule(), "spectral:log")


def _full_rank(states) -> np.ndarray:
    # the states of an (N, n, n) stack whose smallest eigenvalue exceeds FULL_RANK_TOL
    return np.linalg.eigvalsh(states)[:, 0] > FULL_RANK_TOL


def _log_det_values(lam):
    # the log-det rule's payoffs n - sum(log lambda) - 1/lambda_y, on full-rank spectra only
    if (lam.min(axis=-1) <= FULL_RANK_TOL).any():
        raise ValueError("log-det score requires a full-rank report")
    return lam.shape[-1] - np.sum(np.log(lam), axis=-1, keepdims=True) - 1.0 / lam


_LOG_DET = ClassicalScoringRule(_log_det_values, name="log-det")


def log_det_score() -> QuantumScore:
    """Log-determinant score, restricted to full-rank reports.

    The spectral score of the Bregman rule of the convex -sum(log p):
    payoff n - sum(log lambda) - 1/lambda_y in the report's eigenbasis.
    """
    return replace(_spectral_score(_LOG_DET, "ml:s2"), domain=_full_rank)


def trace_score() -> QuantumScore:
    """Overlap payoff <report, rho> via {I - report, report}; not truthful."""

    def stack(reports):
        return _Overlaps(reports), np.tile([0.0, 1.0], (len(reports), 1))

    return QuantumScore(_Stacked(stack), name="ml:s3")


def log_trace_score() -> ExpectedScoreFn:
    """log <report, rho>.  Not extended-linear in rho, hence not implementable."""

    def expected_stack(reports, *beliefs):
        return [log_rule().values(_hs_rows(reports, b)) for b in beliefs]

    return ExpectedScoreFn(expected_stack, name="ml:s4")


def log_trace_exp_score() -> ExpectedScoreFn:
    """log Tr exp(log report + log rho).  Not implementable.

    On rank-deficient inputs the logs are compressed onto the
    intersection of the supports (directions where either log is -inf
    contribute exp(-inf) = 0), which reproduces the commuting case
    exactly.  Pairs whose intersection has the same dimension share one
    eigenvalue solve.  A call decomposes each stack it is given once; the
    stack of reports paired with itself pays log Tr r^2 from its eigenvalues.
    """

    def expected_stack(reports, *beliefs):
        out, parts = np.full((len(beliefs), len(reports)), NEG_INF), None
        for i, b in enumerate(beliefs):
            if b is reports:  # log sum lambda^2 over the support, the eigenvalues whose log is finite
                out[i] = _log_sum_exp(2.0 * _ext_log(_eigh(reports)[0]))
                continue
            if parts is None:
                parts = _log_parts(*_decompose(reports))
            (A_r, B_r), (A_b, B_b) = parts, _log_parts(*_decompose(b))
            # the kernel of B_r + B_b: eigh sorts ascending, so its first columns
            V, on = _range_split(hermitian_part(B_r + B_b))
            common = (~on).sum(axis=-1)
            for c in set(common.tolist()) - {0}:
                k = np.flatnonzero(common == c)
                Q = V[k, :, :c]
                out[i, k] = _log_sum_exp(np.linalg.eigvalsh(hermitian_part(Q.conj().swapaxes(-1, -2) @ (A_r[k] + A_b[k]) @ Q)))
        return list(out)

    return ExpectedScoreFn(expected_stack, name="ml:s5")


def ml_scores() -> dict:
    """The machine-learning loss family; only s1 and s2 are truthful.

    s4 and s5 are exposed as expected-score closures only: their values
    are not extended-linear in the true state, so no measurement
    realizes them.
    """
    return {
        "s1": _spectral_score(log_rule(), "ml:s1"),
        "s2": log_det_score(),
        "s3": trace_score(),
        "s4": log_trace_score(),
        "s5": log_trace_exp_score(),
    }


def score_from_convex(F, dF) -> QuantumScore:
    """Truthful projective score realizing a convex expected-self-score F.

    ``dF`` maps a report to a subgradient (plain Hermitian or extended);
    the coefficient matrix dF(r) + (F(r) - <dF(r), r>) I is spectrally
    decomposed into a projective measurement with eigenvalue payoffs.
    """

    def payoff(rho_p):
        rho_p = as_density(rho_p)
        d = ExtendedHermitian.wrap(dF(rho_p))
        anchor = ext_inner(d, rho_p)
        if anchor == NEG_INF:
            raise ValueError("subgradient selection is -inf at its own base point")
        return _projective(d.add_scalar(float(F(rho_p)) - anchor))

    return QuantumScore(payoff, name="from-convex")


# ---------------------------------------------------------------------------
# entropies, each read off S, the spectral log score, paid as _spectral_payoff(log_rule(), ...)


def von_neumann_entropy(rho) -> float:
    """H(rho) = -S(rho; rho) = -<log rho, rho>; zero eigenvalues contribute nothing."""
    states, dec = _decomposed_densities(rho)
    return 0.0 - float(_pair(*_spectral_payoff(log_rule(), dec), states)[0])


def relative_entropy(rho, sigma) -> float:
    """S(rho; rho) - S(sigma; rho) = <log rho - log sigma, rho>, the divergence of S.

    Nonnegative, zero only at rho == sigma, and +inf when rho puts mass
    outside sigma's support (S(sigma; rho) is -inf).  Each state is
    validated once, and both scores come from one stacked decomposition and payoff.
    """
    rho, sigma = as_complex_matrix(rho, "state"), as_complex_matrix(sigma, "state")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape[0]}, sigma {sigma.shape[0]}")
    states, dec = _decomposed_densities(rho, sigma)
    scores = _pair(*_spectral_payoff(log_rule(), dec), states[[0, 0]])
    return float(scores[0] - scores[1])


# ---------------------------------------------------------------------------
# expressiveness transforms


def _projective(E: ExtendedHermitian):
    # Eigenbasis measurement of E paired with its eigenvalues as payoffs: the
    # finite ones on the infinite part's kernel (descending), -inf on its range
    V, inf = _range_split(E.infinite_part)
    Q = V[:, ~inf]
    vals, W = np.empty(0), Q.T @ Q  # an E that is -inf everywhere has no finite part
    if Q.size:
        vals, W = _decompose(hermitian_part(Q.conj().T @ E.finite_part @ Q))
    U = np.concatenate([Q @ W, V[:, inf]], axis=1)
    return _basis_pvm(U), np.append(vals, np.full(inf.sum(), NEG_INF))


def fixed_meas_expression(S: QuantumScore, mu: Measurement) -> QuantumScore:
    """Re-express a finite score over a fixed complete measurement.

    Solves sum_y alpha_y mu_y = coefficient(S, report) for the payoff
    vector alpha; exact because the elements span the Hermitian space.
    Raises on an ``ExpectedScoreFn``, an incomplete measurement or a score that takes -inf.
    """
    _measured(S)
    tmap = tomographic_map(mu)
    if tmap.rank != mu.dim**2:
        raise ValueError("fixed-measurement expression needs a tomographically complete POVM")

    def payoff(rho_p):
        E = score_coefficient(S, rho_p)
        if not E.is_finite():
            raise ValueError(f"score {S.name!r} takes -inf values; not expressible")
        return mu, tmap.pinv_adjoint(E.finite_part)

    return QuantumScore(payoff, name=f"fixed-expr[{S.name}]")


def projective_expression(S: QuantumScore) -> QuantumScore:
    """Equivalent projective score: eigenbasis measurement, eigenvalue payoffs.  An ``ExpectedScoreFn`` is refused."""

    def payoff(rho_p):
        return _projective(score_coefficient(S, rho_p))

    return QuantumScore(payoff, name=f"projective[{S.name}]", domain=_measured(S).domain)


# ---------------------------------------------------------------------------
# sampled checks


def _in_domain(S, states) -> np.ndarray:
    # mask of the states of an (N, n, n) stack inside S's domain (S None has none)
    if getattr(S, "domain", None) is None or not len(states):
        return np.ones(len(states), dtype=bool)
    mask = np.asarray(S.domain(states), dtype=bool)
    if mask.shape != (len(states),):
        raise ValueError(
            f"domain of {S.name!r} must map an (N, n, n) stack to an (N,) mask: "
            f"{mask.shape} for {states.shape}"
        )
    return mask


def _blend(states):
    # 99% of each state, 1% of the maximally mixed state: inside full-rank domains
    dim = states.shape[-1]
    return hermitian_part(0.99 * states + 0.01 * (np.eye(dim) / dim))


def _rows(k, g, dim, m):
    # m rows of k states at dimension dim, drawn from g in this order: the states'
    # ranks, their dim x dim complex Gaussians (a state reads the first rank columns,
    # a rotation all of them), then dim + 3 uniforms for the adversaries and weights
    return g.integers(1, dim + 1, (m, k)), _complex_gaussian((m, k, dim, dim), g), g.random((m, dim + 3))


def _states(S, ranks, G):
    # each row's state: G with the columns from rank on zeroed, normalized; outside
    # S's domain, the blended state of all of G, full rank and drawn as a fresh one
    rhos = _densities(G * (np.arange(G.shape[-1]) < ranks[:, None])[:, None, :])
    outside = ~_in_domain(S, rhos)
    if outside.any():
        rhos[outside] = _blend(_densities(G[outside]))
    return rhos


def _adversarial_reports(S, rhos, trials, ranks, G, u, spare):
    # trial trials[k] reports against belief rhos[k] with adversary trials[k] % 4,
    # reading the state (ranks[k], G[k]) or the rotation G[k] and the uniforms
    # u[k] of its row; each adversary builds its reports in one stack, drawn
    dim = rhos.shape[-1]
    strategy = np.asarray(trials) % 4
    reps = np.empty_like(rhos)
    fresh, rotated = strategy == 0, strategy == 3
    reps[fresh] = _states(S, ranks[fresh], G[fresh])
    spectral = np.flatnonzero((strategy == 1) | (strategy == 2))
    if spectral.size:  # in the belief's own basis, eigenvalues in ascending order:
        lam, V = _eigh(rhos, spectral)
        # permute the eigenvalues, or put all mass on one eigenvector (the top one half the time)
        perm = np.argsort(u[spectral, :dim], axis=1)
        one = np.where(u[spectral, dim] < 0.5, dim - 1, (u[spectral, dim + 1] * dim).astype(np.intp))
        lam = np.where(strategy[spectral, None] == 1, np.take_along_axis(lam, perm, axis=1),
                       np.arange(dim) == one[:, None])
        reps[spectral] = hermitian_part((V * lam[:, None, :]) @ V.conj().swapaxes(-1, -2))
    if rotated.any():  # spectrum-preserving rotation
        U = _unitaries(G[rotated])
        reps[rotated] = hermitian_part(U @ rhos[rotated] @ U.conj().swapaxes(-1, -2))
    outside = ~_in_domain(S, reps)
    reps[outside] = _blend(reps[outside])
    near = _near_tie(_distance(rhos, reps))
    if near.any():  # the first state of the spare row
        ranks, G, _ = spare()
        reps[near] = _states(S, ranks[near, 0], G[near, 0])
    return _drawn(reps)


def _distance(A, B) -> np.ndarray:
    # Frobenius distance between the matrices of two stacks
    return np.linalg.norm(A - B, axis=(-2, -1))


def _beliefs_and_reports(S, dim, trials, rows, spare):
    # each trial's belief (state 0 of its row), then its adversary's report (state 1), each stack drawn
    ranks, G, u = rows
    rhos = _drawn(_states(S, ranks[:, 0], G[:, 0]))
    return rhos, _adversarial_reports(S, rhos, trials, ranks[:, 1], G[:, 1], u, spare)


def _compare(kind, a, b):
    # (kinds, values) of |a - b| in R u {-inf}, each flagged as ``kind`` above EQUIV_TOL
    gaps = _ext_gap(a, b)
    return np.where(gaps > EQUIV_TOL, kind, ""), gaps


def truthfulness_check(
    S,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
) -> ScoreReport:
    """Probe S(report; belief) <= S(belief; belief) by sampling.

    Beliefs mix full-rank and rank-deficient states; reports cycle
    through random states and targeted adversaries (eigenvalue
    permutations, single-eigenvector mass, spectrum-preserving
    rotations).  Flags gains above TRUTH_MARGIN and ties within it between
    states farther apart than DISTINCT_TOL: ``passed`` is strict
    truthfulness and ``weakly_passed`` truthfulness.  ``S`` is a
    ``QuantumScore`` or an ``ExpectedScoreFn``; trials are scored in stacks.
    A violation stores its belief and report, its whole trial, as ``rho``
    and ``rho_prime``.
    """
    return run_trials(_truthfulness(S), trials, dims, rng)


def _truthfulness(S) -> dict:
    # the description of truthfulness_check of S that reports.run_trials reads
    def score(drawn):
        rhos, reps = drawn
        (truthful,), (other,) = _expected_stack(S, rhos, rhos), _expected_stack(S, reps, rhos)
        return _classify(truthful, other, _distance(rhos, reps) > DISTINCT_TOL)

    return {"name": S.name, "mode": "strict", "rows": partial(_rows, 2), "draw": partial(_beliefs_and_reports, S),
            "score": score, "parts": ("rho", "rho_prime"), "store": True}


def equivalence_check(
    S1,
    S2,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
) -> ScoreReport:
    """Compare expected scores pointwise, flagging gaps above EQUIV_TOL; -inf must match -inf."""
    def score(drawn):
        rhos, reps = drawn
        # trials outside S2's domain are skipped with gap 0
        kinds, gaps = np.full(len(rhos), "", dtype=object), np.zeros(len(rhos))
        keep = np.flatnonzero(_in_domain(S2, rhos) & _in_domain(S2, reps))
        if keep.size:
            (a,), (b,) = (_expected_stack(S, reps[keep], rhos[keep]) for S in (S1, S2))
            kinds[keep], gaps[keep] = _compare("mismatch", a, b)
        return kinds, gaps

    return run_trials({"name": f"{S1.name} == {S2.name}", "mode": "equivalence", "rows": partial(_rows, 2),
                       "draw": partial(_beliefs_and_reports, S1), "score": score, "parts": ("rho", "rho_prime"),
                       "store": True}, trials, dims, rng)


def unitary_invariance_check(
    S,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
) -> ScoreReport:
    """Flag |S(r; rho) - S(U r U*; U rho U*)| above EQUIV_TOL.

    A violation stores no states: its belief, report and U replay from
    the seed (``registry.replay_verify`` for a ``verify`` run).
    """
    return run_trials(_unitary_invariance(S), trials, dims, rng)


def _unitary_invariance(S) -> dict:
    # the description of unitary_invariance_check of S
    def draw(dim, trials, rows, spare):
        return *_beliefs_and_reports(S, dim, trials, rows, spare), _unitaries(rows[1][:, 2])

    def score(drawn):
        rhos, reps, U = drawn
        Uh = U.conj().swapaxes(-1, -2)
        (a,) = _expected_stack(S, reps, rhos)
        (b,) = _expected_stack(S, hermitian_part(U @ reps @ Uh), hermitian_part(U @ rhos @ Uh))
        return _compare("variance", a, b)

    return {"name": S.name, "mode": "unitary-invariance", "rows": partial(_rows, 3), "draw": draw,
            "score": score, "parts": ("rho", "rho_prime", "unitary"), "store": False}


def implementability_check(
    S,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
) -> ScoreReport:
    """Extended linearity of expected score in the true state.

    A score is physically implementable iff rho -> S(report; rho) is
    extended-linear; mixtures are compared against mixed expected
    values under the extended arithmetic, within EQUIV_TOL.  A violation
    stores no states: its two beliefs, report and weight replay from the
    seed (``registry.replay_verify`` for a ``verify`` run).
    """
    return run_trials(_implementability(S), trials, dims, rng)


def _implementability(S) -> dict:
    # the description of implementability_check of S
    def draw(dim, trials, rows, spare):
        # the report (state 1 of the row) against the beliefs, states 0 and 2
        ranks, G, u = rows
        rho1, rho2 = (_drawn(_states(S, ranks[:, j], G[:, j])) for j in (0, 2))
        return rho1, rho2, _adversarial_reports(S, rho1, trials, ranks[:, 1], G[:, 1], u, spare), u[:, -1]

    def score(drawn):
        rho1, rho2, reps, t = drawn
        w = t[:, None, None]
        e1, e2, mixed = _expected_stack(S, reps, rho1, rho2, hermitian_part(w * rho1 + (1.0 - w) * rho2))
        weights = np.stack([t, 1.0 - t], axis=-1)
        linear = ext_dot(weights, np.stack([e1, e2], axis=-1))
        return _compare("nonlinear", mixed, linear)

    return {"name": S.name, "mode": "implementability", "rows": partial(_rows, 3), "draw": draw,
            "score": score, "parts": ("rho_1", "rho_2", "rho_prime", "t"), "store": False}


def subgradient_inequality_check(
    F,
    dF,
    trials: int,
    dims=(2, 3, 4),
    rng=None,
) -> ScoreReport:
    """Check F(rho) >= F(r) + <dF(r), rho - r> - TRUTH_MARGIN on sampled state pairs, half with rho near r.

    ``dF`` may return plain Hermitian matrices or extended ones; a -inf
    lower bound passes trivially, and a selection whose infinite part
    overlaps negatively with the direction is itself flagged.
    """
    def draw(dim, trials, rows, spare):
        # states 0 and 1 of the row, sigma and the base; rho is sigma, or in half the
        # rows (by the last uniform, so in every dimension) 0.99 base + 0.01 sigma, so
        # near the base that a wrong selection's first-order error beats the curvature
        ranks, G, u = rows
        sigma, base = (_states(None, ranks[:, j], G[:, j]) for j in (0, 1))
        return np.where((u[:, -1] < 0.5)[:, None, None], 0.99 * base + 0.01 * sigma, sigma), base

    def score(drawn):
        gaps, invalid = np.empty(len(drawn[0])), np.zeros(len(drawn[0]), dtype=bool)
        for j, (rho, base) in enumerate(zip(*drawn)):
            d = ExtendedHermitian.wrap(dF(base))
            try:
                pairing = ext_inner(d, hermitian_part(rho - base))
            except ValueError:
                gaps[j], invalid[j] = np.inf, True
                continue
            gaps[j] = NEG_INF if pairing == NEG_INF else (float(F(base)) + pairing) - float(F(rho))
        return np.select([invalid, gaps > TRUTH_MARGIN], ["invalid-selection", "violated"], ""), gaps

    return run_trials({"name": "subgradient", "mode": "inequality", "rows": partial(_rows, 2), "draw": draw,
                       "score": score, "parts": ("rho", "rho_prime"), "store": True}, trials, dims, rng)
