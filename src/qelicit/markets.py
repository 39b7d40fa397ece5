"""Multi-agent payoffs: wagering, scoring-rule markets, and a cost-function maker.

Wagering pays each agent their score minus the average of the others',
so payoffs always sum to zero.  The cost-function market maker keeps a
Hermitian share matrix Q; the log-sum-exp of its eigenvalues plays the
role the classical LMSR cost plays for probability vectors, with the
softmax-of-eigenvalues state as the instantaneous price.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical import shannon_entropy
from .extended import NEG_INF
from .linalg import _count, _hs, _log_sum_exp, as_density, as_hermitian, hermitian_part
from .measurement import sample_outcome
from .scores import QuantumScore, _measured, _pair, expected_score

__all__ = [
    "WageringRound",
    "wagering_payoffs",
    "trader_payoff",
    "lmsr_cost",
    "market_price_state",
    "bundle_cost",
    "bundle_expected_payoff",
    "MarketState",
]


@dataclass(frozen=True)
class WageringRound:
    """Simultaneous reports scored against one truth.

    The score must use the same measurement for every report: one
    physical measurement settles all agents.  An ``ExpectedScoreFn``, which has none, is refused.
    """

    reports: list
    score: QuantumScore
    truth: np.ndarray

    def __post_init__(self):
        _measured(self.score)
        if len(self.reports) < 2:
            raise ValueError("wagering needs at least two agents")
        object.__setattr__(self, "reports", [as_density(r) for r in self.reports])
        object.__setattr__(self, "truth", as_density(self.truth))
        shapes = sorted({r.shape for r in self.reports} | {self.truth.shape})
        if len(shapes) > 1:
            raise ValueError(f"reports and truth must share one dimension, got shapes {shapes}")


def wagering_payoffs(round_: WageringRound, mode: str = "expected", rng=None, outcome=None) -> np.ndarray:
    """Payoff_i = score_i - mean of the other agents' scores.

    ``expected`` mode scores against the truth state; ``realized`` mode
    draws one shared outcome from the common measurement (or uses the
    given ``outcome``, an integer index into its outcomes) and reads each
    report's payoff for it.  Every report is paid once, in one stacked
    call.  Payoffs sum to zero by construction.
    """
    truth, m = round_.truth, len(round_.reports)
    outcomes, values = round_.score._stacked(np.stack(round_.reports))
    mu = outcomes._at(0)
    for k in range(1, m):
        if not mu.approx_equal(outcomes._at(k)):
            raise ValueError(
                f"report {k} induces a different measurement; wagering requires a fixed one"
            )
    if mode == "expected":
        scores = _pair(outcomes, values, np.broadcast_to(truth, (m,) + truth.shape))
    elif mode == "realized":
        if outcome is None:
            outcome = sample_outcome(mu, truth, rng=rng)
        scores = values[:, _count(outcome, "outcome", 0, len(mu) - 1)]
    else:
        raise ValueError(f"mode must be 'expected' or 'realized', got {mode!r}")
    if not np.isfinite(scores).all():
        raise ValueError("wagering needs finite scores for all reports")
    total = scores.sum()
    return scores - (total - scores) / (m - 1)


def trader_payoff(S, rho_prev, rho_new, truth) -> float:
    """Market-trade payoff: score of the new state minus the old one.

    Telescopes over a trade sequence.  Raises when the previous position
    scores -inf (the difference would be +inf or indeterminate).
    """
    new = expected_score(S, rho_new, truth)
    prev = expected_score(S, rho_prev, truth)
    if prev == NEG_INF:
        raise ValueError("previous position scores -inf; payoff undefined")
    return new - prev


def lmsr_cost(Q) -> float:
    """log sum exp of the eigenvalues, stabilized by max subtraction."""
    return float(_log_sum_exp(np.linalg.eigvalsh(as_hermitian(Q))))


def market_price_state(Q) -> np.ndarray:
    """Gradient of the cost: exp(Q) / Tr exp(Q), always a density matrix."""
    return _price(*np.linalg.eigh(as_hermitian(Q)))[0]


def _price(w, V) -> tuple:
    # market_price_state of Q from its eigh (w ascending, V), and the price's eigenvalues, softmax(w)
    e = np.exp(w - float(w[-1]))
    rho = hermitian_part((V * e) @ V.conj().T)
    return rho / float(np.trace(rho).real), e / e.sum()


def bundle_cost(Q, R) -> float:
    """Price of buying bundle R at share state Q; R must have Q's shape."""
    Q, R = as_hermitian(Q, "share matrix"), as_hermitian(R, "bundle")
    if R.shape != Q.shape:
        raise ValueError(f"bundle has shape {R.shape}, but the share matrix has shape {Q.shape}")
    return lmsr_cost(Q + R) - lmsr_cost(Q)


def bundle_expected_payoff(R, rho) -> float:
    """A bundle pays its overlap with the realized state."""
    return _hs(as_hermitian(R), as_density(rho))


@dataclass
class MarketState:
    """Cost-function market maker over Hermitian share bundles.

    Trades mutate the share matrix through ``trade`` only; reads are safe
    between trades.  Worst-case maker loss from Q = 0 is log(dim), the
    entropy of the uniform price.
    """

    dim: int
    shares: np.ndarray = field(init=False)
    history: list = field(init=False, default_factory=list)

    def __post_init__(self):
        self.dim = _count(self.dim, "dim", 1)
        self.shares = np.zeros((self.dim, self.dim), dtype=np.complex128)

    def trade(self, R) -> float:
        """Execute a bundle purchase; returns the cost charged."""
        R = as_hermitian(R, "bundle")
        price = bundle_cost(self.shares, R)
        self.shares = hermitian_part(self.shares + R)
        self.history.append({"bundle": R, "cost": price})
        return price

    def price(self) -> np.ndarray:
        return market_price_state(self.shares)

    def maker_loss(self, truth) -> float:
        """Payout owed minus cash collected, given the realized state.

        Equals <Q, rho> - F(Q) + F(0); bounded by log(dim) because the
        cost function dominates <Q, rho> + entropy(rho).
        """
        truth = as_density(truth)
        return (
            _hs(self.shares, truth)
            - lmsr_cost(self.shares)
            + float(np.log(self.dim))
        )

    def conjugacy_gap(self) -> float:
        """Residual of cost(Q) = <Q, price> + entropy(price); zero at optimum.

        The cost, the price and its entropy, the Shannon entropy of its
        eigenvalues, come from one eigendecomposition of Q.
        """
        w, V = np.linalg.eigh(self.shares)
        rho, p = _price(w, V)
        return abs(float(_log_sum_exp(w)) - _hs(self.shares, rho) - shannon_entropy(p))
