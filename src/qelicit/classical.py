"""Classical proper scoring rules over finite outcome spaces.

Rules score a reported distribution against a realized outcome and may
take the value -inf (never +inf).  The convex-function construction
turns any convex expected-score function plus a subgradient selection
into a proper rule, and ``properness_check`` probes properness and
strictness by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .extended import EXT_WEIGHT_TOL, NEG_INF, _ext_gap, _ext_log, _ext_pair, ext_dot
from .linalg import _count
from .reports import PROPERNESS_MARGIN, ScoreReport, _classify, run_trials

__all__ = [
    "PROB_CLIP",
    "PROB_ZERO_TOL",
    "PROPERNESS_MARGIN",
    "DISTINCT_TOL",
    "clean_probs",
    "ClassicalScoringRule",
    "brier_rule",
    "log_rule",
    "linear_rule",
    "from_convex",
    "expected_classical",
    "properness_check",
    "is_permutation_invariant",
    "shannon_entropy",
]

PROB_CLIP = 1e-12        # negative entries in [-PROB_CLIP, 0) are clipped to 0
PROB_ZERO_TOL = EXT_WEIGHT_TOL  # probabilities at or below this count as zero
DISTINCT_TOL = 1e-6      # reports farther apart than this count as distinct


def _near_tie(d) -> np.ndarray:
    # reports in (DISTINCT_TOL, 1e-4) are distinct by distance yet, for quadratic scores,
    # tie within PROPERNESS_MARGIN (up to sqrt(1e-9)); samplers redraw them
    return (DISTINCT_TOL < d) & (d < 1e-4)


def clean_probs(p) -> np.ndarray:
    """Validate a probability vector, absorbing measurement float noise.

    Entries in [-PROB_CLIP, 0) are clipped to zero and the vector is
    renormalized; anything more negative, or a total off 1 by more than
    1e-10, is an error.
    """
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"probability vector must be 1-d, got shape {q.shape}")
    return _clean_rows(q[None])[0]


def _clean_rows(P, clip: float = PROB_CLIP, tol: float = 1e-10) -> np.ndarray:
    # clean_probs of each row of an (N, m) array, entries in [-clip, 0) clipped and totals within tol of 1.
    # Every entry of a good stack lies in [-clip, 1 + tol], and no NaN or inf does: one test of the
    # smallest and largest entry stands for the finiteness and clip checks, which run only when it
    # fails, to name the fault.
    if not (P.min(initial=0.0) >= -clip and P.max(initial=0.0) <= 1.0 + tol):
        if not np.isfinite(P).all():
            raise ValueError("probability vector has non-finite entries")
        if (P < -clip).any():
            raise ValueError(f"probability {P.min():.3e} is negative beyond the clip tolerance")
    q = np.maximum(P, 0.0)
    total = q.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > tol
    if off.any():
        raise ValueError(f"probabilities sum to {float(total[np.argmax(off), 0])!r}, expected 1")
    return q / total


@dataclass(frozen=True)
class ClassicalScoringRule:
    """Scoring rule s(report distribution, outcome index) -> R u {-inf}.

    ``values(p)`` returns the whole payoff vector (s(p, 0), ..., s(p, m-1))
    for a report p over m outcomes, with -inf allowed and +inf never.  It
    works along the last axis: on an (N, m) stack of reports it returns
    the (N, m) payoffs, row by row.  ``rule(p, y)`` is ``values(p)[y]``.
    """

    values: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, p, y: int) -> float:
        return float(_rule_values(self, np.asarray(p, dtype=np.float64))[int(y)])


def _brier_values(p):
    return 2.0 * p - np.vecdot(p, p)[..., None]


# the library's rules are frozen, so every caller shares one of each
_BRIER = ClassicalScoringRule(_brier_values, name="brier")
_LOG = ClassicalScoringRule(_ext_log, name="log")


def brier_rule() -> ClassicalScoringRule:
    """Quadratic score s(p, y) = 2 p_y - ||p||^2; finite everywhere.  Every call returns the same rule."""
    return _BRIER


def log_rule() -> ClassicalScoringRule:
    """Logarithmic score s(p, y) = log p_y, -inf at mass at or below PROB_ZERO_TOL.  Every call returns the same rule."""
    return _LOG


def linear_rule() -> ClassicalScoringRule:
    """s(p, y) = p_y.  Improper: the expected score is maximized at a vertex."""

    def values(p):
        return np.array(p, dtype=np.float64)

    return ClassicalScoringRule(values, name="linear")


def _bregman_rule(G, dG, name: str) -> ClassicalScoringRule:
    """Rule paying G(p) + <dG(p), 1_y - p> for every outcome y, -inf where dG(p)_y is.

    dG(p) is an (extended) subgradient at p; its -inf entries may only
    sit where p has zero mass, else the oracle is invalid and the rule
    raises.  G and dG take one distribution, so a stack is paid row by row.
    """

    def one(p):
        g, d = float(G(p)), np.asarray(dG(p), dtype=np.float64)
        pairing = ext_dot(p, d)
        if pairing == NEG_INF:
            raise ValueError("dG has -inf mass where p is positive; invalid oracle")
        out = np.full(len(d), NEG_INF)
        fin = d > NEG_INF
        out[fin] = g + d[fin] - pairing
        return out

    def values(p):
        return np.array([one(q) for q in p.reshape(-1, p.shape[-1])]).reshape(p.shape)

    return ClassicalScoringRule(values, name=name)


def _check_convex(G, dG, draw, samples: int) -> None:
    """Raise unless G is convex with subgradient dG on ``samples`` pairs (p, q) = draw(g).

    Tests the subgradient inequality G(q) >= G(p) + <dG(p), q - p> and
    midpoint convexity; g is seeded with 2024, so a check draws the same
    pairs at every construction.
    """
    g = np.random.default_rng(2024)
    for _ in range(samples):
        p, q = draw(g)
        gp, gq = float(G(p)), float(G(q))
        pairing = ext_dot(q - p, np.asarray(dG(p), dtype=np.float64))
        if gq < gp + pairing - PROPERNESS_MARGIN:
            raise ValueError("subgradient inequality violated; G not convex or dG wrong")
        if float(G(0.5 * (p + q))) > 0.5 * (gp + gq) + PROPERNESS_MARGIN:
            raise ValueError("midpoint convexity violated; G is not convex")


def from_convex(G, dG, dim: int) -> ClassicalScoringRule:
    """Proper scoring rule s(p, y) = G(p) + <dG(p), 1_y - p>.

    G must be convex on the simplex and dG a consistent (extended)
    subgradient oracle: dG(p) entries live in R u {-inf}, with -inf only
    where p_y = 0.  A sampled self-check of the subgradient inequality
    and midpoint convexity on 64 Dirichlet pairs runs at construction and
    raises on violation.
    """
    ones = np.ones(_count(dim, "dim", 1))
    _check_convex(G, dG, lambda g: (g.dirichlet(ones), g.dirichlet(ones)), 64)
    return _bregman_rule(G, dG, "from_convex")


def _rule_values(rule: ClassicalScoringRule, P: np.ndarray) -> np.ndarray:
    # the rule's payoffs for each row of P, one per outcome; a rule that pays NaN is refused
    values = np.asarray(rule.values(P), dtype=np.float64)
    if values.shape != P.shape:
        raise ValueError(f"rule {rule.name!r} must pay along the last axis: {values.shape} for {P.shape}")
    if np.isnan(values).any():
        raise ValueError(f"rule {rule.name!r} pays NaN")
    return values


def _require_row_wise(rule: ClassicalScoringRule, m: int) -> None:
    # A rule must pay each row of a stack as it pays that row alone: one that
    # reduces over the whole array is right for one report and wrong for a block.
    P = np.random.default_rng(12345).dirichlet(np.ones(m), size=2)
    rows = _rule_values(rule, P)
    alone = np.stack([_rule_values(rule, p) for p in P])
    if (_ext_gap(rows, alone) > 1e-12).any():
        raise ValueError(f"rule {rule.name!r} must pay each row of a stack as it pays that row alone")


def expected_classical(rule: ClassicalScoringRule, q, p) -> float:
    """Expected score of report q under belief p, in R u {-inf}; a rule that pays NaN is refused."""
    return _ext_pair(clean_probs(p), _rule_values(rule, np.asarray(q, dtype=np.float64)))


def _rows(g, dim, m):
    # m rows at dimension dim, drawn from g in this order: two distributions
    # (the belief, then a fresh report), then dim + 2 uniforms for the adversaries
    return g.dirichlet(np.ones(dim), (m, 2)), g.random((m, dim + 2))


def _sample_reports(p, trials, fresh, u, spare):
    # trial trials[k] reports against belief p[k] with adversary trials[k] % 4,
    # reading the fresh report fresh[k] and the uniforms u[k] of its row
    dim = p.shape[-1]
    strategy = np.asarray(trials)[:, None] % 4
    vertex = np.eye(dim)[(u[:, dim] * dim).astype(np.intp)]
    lam = 0.9 * u[:, dim + 1:]
    # a vertex (exposes rules maximized at a corner), a relabeling of the
    # belief, the belief blended toward a vertex, or the fresh report
    relabeled = np.take_along_axis(p, np.argsort(u[:, :dim], axis=1), axis=1)
    blended = lam * p + (1.0 - lam) * vertex
    q = np.select([strategy == 1, strategy == 2, strategy == 3], [vertex, relabeled, blended], fresh)
    near = _near_tie(np.linalg.norm(p - q, axis=1)) & (strategy[:, 0] != 1)
    if near.any():  # the fresh report of the spare row
        q[near] = spare()[0][near, 1]
    return q


def properness_check(
    rule: ClassicalScoringRule,
    trials: int,
    dim: int,
    rng=None,
) -> ScoreReport:
    """Sample (belief, report) pairs and flag properness failures.

    Flags a truthful expected score that is not finite as ``irregular``,
    gains above PROPERNESS_MARGIN, and ties within it between reports
    farther apart than DISTINCT_TOL: ``passed`` is strict properness and
    ``weakly_passed`` properness.  Each side of a block of trials is paid
    in one call, so the rule must pay each row of a stack as it pays that
    row alone.
    """
    _require_row_wise(rule, _count(dim, "dim", 2))

    def draw(dim, trials, rows, spare):
        D, u = rows
        return D[:, 0], _sample_reports(D[:, 0], trials, D[:, 1], u, spare)

    def score(drawn):
        # each block's beliefs cleaned once; the rule pays each side in one call
        beliefs, reports = drawn
        P = _clean_rows(beliefs)
        truthful, other = (_ext_pair(P, _rule_values(rule, Q)) for Q in (beliefs, reports))
        distinct = np.linalg.norm(beliefs - reports, axis=1) > DISTINCT_TOL
        return _classify(truthful, other, distinct)

    return run_trials({"name": rule.name or "rule", "mode": "strict", "rows": _rows, "draw": draw, "score": score,
                       "parts": ("belief", "report"), "store": True}, trials, (dim,), rng)


def is_permutation_invariant(rule: ClassicalScoringRule, dim: int, rng=None) -> bool:
    """Check s(p, y) == s(p relabeled, y relabeled) for all y on 32 random samples.

    The samples are paid as one (32, dim) stack, then relabeled and paid
    again, so the rule must pay each row as it pays that row alone.
    """
    _require_row_wise(rule, _count(dim, "dim", 1))
    rng = np.random.default_rng(rng)
    P = rng.dirichlet(np.ones(dim), 32)
    perm = np.argsort(rng.random((32, dim)), axis=-1)
    a = _rule_values(rule, P)
    b = _rule_values(rule, np.take_along_axis(P, perm, -1))
    b = np.take_along_axis(b, np.argsort(perm, axis=-1), -1)
    return not (_ext_gap(a, b) > 1e-10).any()


def shannon_entropy(p) -> float:
    """H(p) = -<p, log p>, the log rule's self-score negated; mass at or below 1e-12 contributes nothing."""
    q = clean_probs(p)
    return 0.0 - _ext_pair(q, log_rule().values(q))
