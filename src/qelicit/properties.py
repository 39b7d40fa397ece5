"""Eliciting summary statistics of quantum states.

Expectation values and eigenvector families are elicitable; eigenvalues,
entropies, and norms are not, because their level sets fail to be
convex.  This module provides the elicitable scores (with numeric
optimizers used to verify their maximizers), level-set counterexample
witnesses for the non-elicitable statistics, and the translation of
properties and identification functions across a tomographically
complete measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .linalg import (
    PSD_TOL,
    as_density,
    as_hermitian,
    hermitian_part,
    random_density,
    random_unitary,
    spectral_decompose,
)
from .measurement import Measurement, TomographicMap, apply_measurement, basis_pvm
from .scores import QuantumScore

__all__ = [
    "ORTHO_TOL",
    "QuantumProperty",
    "IdentificationFunction",
    "expectation_property",
    "top_eigenvector_score",
    "top_k_eigenvector_score",
    "top_bottom_score",
    "eigen_pair_score",
    "with_value",
    "ABSTAIN",
    "abstain_score",
    "WitnessResult",
    "level_set_witness",
    "find_level_set_witness",
    "induced_classical_property",
    "classical_to_quantum_identification",
    "quantum_to_classical_identification",
    "optimize_top_eigenvector",
    "optimize_weighted_basis",
    "optimize_eigen_pair",
    "optimize_with_value",
    "optimize_abstain",
]

ORTHO_TOL = 1e-8     # allowed deviation from orthonormality before rejection
REPORT_TOL = 1e-8    # reports closer than this count as the same value
DIFFER_TOL = 1e-6    # property values farther than this count as different

ABSTAIN = None  # the abstain report


@dataclass(frozen=True)
class QuantumProperty:
    """A statistic of density matrices, possibly set-valued.

    ``eval`` returns a canonical representative (sorted eigenvalues,
    phase-fixed vectors); for set-valued properties ``membership`` tests
    whether a report is a correct value for a state.
    """

    eval: Callable[[np.ndarray], Any]
    name: str = ""
    set_valued: bool = False
    membership: Callable[[np.ndarray, Any], bool] | None = None


@dataclass(frozen=True)
class IdentificationFunction:
    """Linear constraints vanishing exactly on a property's level sets."""

    matrices: Callable[[Any], list]
    name: str = ""


def _as_unit_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > ORTHO_TOL:
        raise ValueError(f"report must be a unit vector, got norm {norm!r}")
    return x / norm


def _as_orthonormal(X, cols: int | None = None) -> np.ndarray:
    """Validate near-orthonormal columns and re-orthonormalize (polar)."""
    X = np.asarray(X, dtype=np.complex128)
    if X.ndim != 2:
        raise ValueError(f"report must be a matrix of column vectors, got shape {X.shape}")
    if cols is not None and X.shape[1] != cols:
        raise ValueError(f"expected {cols} report vectors, got {X.shape[1]}")
    gram = X.conj().T @ X
    dev = float(np.abs(gram - np.eye(X.shape[1])).max())
    if dev > ORTHO_TOL:
        raise ValueError(f"report vectors are not orthonormal: deviation {dev:.3e}")
    w, V = np.linalg.eigh(hermitian_part(gram))
    return X @ ((V / np.sqrt(w)) @ V.conj().T)


def _complete_basis(X) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of X's columns."""
    n, j = X.shape
    if j == n:
        return np.zeros((n, 0), dtype=np.complex128)
    U = np.linalg.svd(X, full_matrices=True)[0]
    return U[:, j:]


def _projectors(cols: np.ndarray) -> list:
    return [
        hermitian_part(cols[:, i : i + 1] @ cols[:, i : i + 1].conj().T)
        for i in range(cols.shape[1])
    ]


# ---------------------------------------------------------------------------
# elicitable properties and their scores: each score is a QuantumScore over
# its own report space, its payoff giving the POVM and one payoff per outcome


def expectation_property(z, mu: Measurement):
    """Expected value of the random variable (z, mu): an elicitable linear map.

    z assigns each outcome a real value (or vector); the property is
    Gamma(rho) = sum_y z_y <mu_y, rho> = <sum_y z_y mu_y, rho>.  Returns
    the property together with a quadratic mean-eliciting score over the
    fixed measurement.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != len(mu):
        raise ValueError(f"need one value per outcome: {z.shape[0]} vs {len(mu)}")

    def evaluate(rho):
        p = apply_measurement(mu, rho)
        return p @ z

    prop = QuantumProperty(evaluate, name="expectation")

    def payoff(r):
        r = np.asarray(r, dtype=np.float64)
        return mu, 2.0 * np.dot(z, r) - np.dot(r, r)

    return prop, QuantumScore(payoff, name="expectation")


def top_eigenvector_score() -> QuantumScore:
    """Elicits a top eigenvector: expected score <x x*, rho>."""

    def payoff(x):
        x = _as_unit_vector(x)
        proj = hermitian_part(np.outer(x, x.conj()))
        return Measurement([np.eye(len(x)) - proj, proj], validate=False), np.array([0.0, 1.0])

    return QuantumScore(payoff, name="eigvec-top")


def top_k_eigenvector_score(k: int, v) -> QuantumScore:
    """Elicits k orthonormal top eigenvectors with strictly decreasing payoffs.

    Reports are n x k column matrices; the expected score is
    <sum_i v_i x_i x_i*, rho>, maximized exactly at top-k eigenvector
    tuples because sorted-spectrum pairing is the only way to reach the
    eigenvalue upper bound.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (k,) or not (np.all(v > 0) and np.all(np.diff(v) < 0)):
        raise ValueError("weights must be strictly decreasing and positive")

    def payoff(X):
        X = _as_orthonormal(X, cols=k)
        projs = _projectors(X)
        rest = np.eye(X.shape[0], dtype=np.complex128) - sum(projs)
        return Measurement(projs + [rest], validate=False), np.append(v, 0.0)

    return QuantumScore(payoff, name="eigvec-topk")


def top_bottom_score(k: int, m: int, v) -> QuantumScore:
    """Elicits the k top and m bottom eigenvectors simultaneously.

    The weight vector v has length n: k strictly decreasing positive
    entries, then zeros, then m strictly decreasing negative entries.
    Reports supply k + m orthonormal columns (top block first); the
    middle of the basis is completed arbitrarily and carries zero weight,
    so the expected score does not depend on the completion.
    """
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if k < 0 or m < 0 or k + m > n:
        raise ValueError(f"invalid counts k={k}, m={m} for {n} weights")
    top, mid, bot = v[:k], v[k : n - m], v[n - m :]
    if k and not (np.all(top > 0) and np.all(np.diff(top) < 0)):
        raise ValueError("top weights must be strictly decreasing and positive")
    if np.any(mid != 0):
        raise ValueError("middle weights must be exactly zero")
    if m and not (np.all(bot < 0) and np.all(np.diff(bot) < 0)):
        raise ValueError("bottom weights must be strictly decreasing and negative")

    def payoff(X):
        X = _as_orthonormal(X, cols=k + m)
        if X.shape[0] != n:
            raise ValueError(f"report vectors have dimension {X.shape[0]}, expected {n}")
        fill = _complete_basis(X)
        cols = np.concatenate([X[:, :k], fill, X[:, k:]], axis=1)
        return Measurement(_projectors(cols), validate=False), v.copy()

    return QuantumScore(payoff, name="eigvec-top-bottom")


def eigen_pair_score(k: int) -> QuantumScore:
    """Elicits the top-k eigenvalues together with matching eigenvectors.

    The report is a PSD matrix of rank at most k; measurement is its full
    eigenbasis and the payoff 2 a_y - <a, a> is a Brier score on the
    report's spectrum, uniquely maximized at the rank-k truncation of the
    true state when the spectral gap at k is positive.  A rank-k report
    carries 2nk - k^2 real parameters, far fewer than the n^2 - 1 of a
    full state when k is small.
    """

    def payoff(A):
        dec = spectral_decompose(as_hermitian(A))
        lam = dec.eigenvalues
        if float(lam[-1]) < -PSD_TOL:
            raise ValueError(f"report is not PSD: min eigenvalue {lam[-1]:.3e}")
        if k < len(lam) and float(lam[k]) > 1e-8:
            raise ValueError(f"report rank exceeds {k}: eigenvalue {lam[k]:.3e} at index {k}")
        alpha = np.clip(lam, 0.0, None)
        return basis_pvm(dec.eigenvectors), 2.0 * alpha - alpha @ alpha

    return QuantumScore(payoff, name="eig-pair")


def with_value(base: QuantumScore, G, dG) -> QuantumScore:
    """Augment a score so the optimal expected value is itself elicited.

    Reports become pairs (alpha, r); the payoff G(alpha) +
    dG(alpha) (s(r, y) - alpha) is maximized by the base-optimal r with
    alpha equal to its expected score, provided G is strictly convex
    increasing with positive subgradients.
    """

    def payoff(report):
        alpha, r = report
        slope = float(dG(alpha))
        if slope <= 0:
            raise ValueError(f"dG must be positive, got {slope!r} at alpha={alpha!r}")
        mu, s = base.payoff(r)
        return mu, float(G(alpha)) + slope * (np.asarray(s, dtype=np.float64) - float(alpha))

    return QuantumScore(payoff, name=f"value+{base.name}")


def abstain_score(alpha: float, dim: int) -> QuantumScore:
    """Eigenvector elicitation with an opt-out paying a flat ``alpha``.

    Reporting ABSTAIN earns alpha regardless of outcome; reporting a unit
    vector earns 1 exactly when the projective outcome fires.  Abstaining
    is optimal iff the top eigenvalue is below alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    inner = top_eigenvector_score()
    flat = Measurement([np.eye(dim, dtype=np.complex128)], validate=False)

    def payoff(r):
        if r is ABSTAIN:
            return flat, np.array([float(alpha)])
        return inner.payoff(r)

    return QuantumScore(payoff, name="abstain")


# ---------------------------------------------------------------------------
# level sets


def _value_dist(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        # unit-vector reports: compare up to phase
        overlap = abs(np.vdot(np.ravel(a), np.ravel(b)))
        return float(np.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class WitnessResult:
    property_name: str
    is_counterexample: bool
    t: float
    value_1: Any
    value_2: Any
    value_mix: Any
    rho_1: np.ndarray
    rho_2: np.ndarray

    def to_json(self) -> dict:
        from .linalg import matrix_to_json

        def val(v):
            arr = np.asarray(v)
            return arr.tolist() if arr.ndim else float(arr)

        return {
            "property": self.property_name,
            "verdict": "counterexample" if self.is_counterexample else "consistent",
            "t": self.t,
            "reports": {
                "value_1": val(self.value_1),
                "value_2": val(self.value_2),
                "value_mix": val(self.value_mix),
            },
            "rho1": matrix_to_json(self.rho_1),
            "rho2": matrix_to_json(self.rho_2),
        }


def level_set_witness(prop: QuantumProperty, rho1, rho2, t: float = 0.5) -> WitnessResult:
    """Test one candidate witness of non-convex level sets.

    A counterexample has the property agreeing on rho1 and rho2 (within
    REPORT_TOL) but taking a different value (beyond DIFFER_TOL) on
    their t-mixture.  Any such witness proves the property cannot be
    elicited.
    """
    rho1 = as_density(rho1)
    rho2 = as_density(rho2)
    mix = hermitian_part(t * rho1 + (1.0 - t) * rho2)
    r1 = prop.eval(rho1)
    r2 = prop.eval(rho2)
    rm = prop.eval(mix)
    equal = _value_dist(r1, r2) <= REPORT_TOL
    differs = _value_dist(rm, r1) > DIFFER_TOL
    return WitnessResult(prop.name, bool(equal and differs), float(t), r1, r2, rm, rho1, rho2)


def find_level_set_witness(
    prop: QuantumProperty, dim: int, probes: int = 100, rng=None
) -> WitnessResult | None:
    """Search random mixture probes for a level-set counterexample.

    Pairs are built by conjugating a random state with a random unitary,
    which preserves every spectral statistic exactly; the midpoint
    mixture then typically moves the value.  Returns the first
    counterexample or None.
    """
    rng = np.random.default_rng(rng)
    for _ in range(probes):
        rho1 = random_density(dim, rng=rng)
        U = random_unitary(dim, rng=rng)
        rho2 = hermitian_part(U @ rho1 @ U.conj().T)
        w = level_set_witness(prop, rho1, rho2, t=0.5)
        if w.is_counterexample:
            return w
    return None


# ---------------------------------------------------------------------------
# translation across a tomographically complete measurement


def induced_classical_property(prop: QuantumProperty, tmap: TomographicMap) -> QuantumProperty:
    """The property lifted to outcome distributions via the pseudoinverse.

    Evaluating at p reconstructs the unique state mapping to p and
    applies the property; p outside the reachable set (the reconstruction
    is not a valid state) is an error.
    """

    def evaluate(p):
        M = tmap.reconstruct(p)
        return prop.eval(as_density(M, name="reconstructed state"))

    return QuantumProperty(
        evaluate,
        name=f"{prop.name}-on-outcomes",
        set_valued=prop.set_valued,
    )


def classical_to_quantum_identification(v, tmap: TomographicMap) -> IdentificationFunction:
    """Pull an outcome-space identification back to states: V(r)_i = adjoint(v(r)_i)."""

    def matrices(r):
        rows = np.atleast_2d(np.asarray(v(r), dtype=np.float64))
        return [tmap.adjoint(row) for row in rows]

    return IdentificationFunction(matrices, name="from-classical")


def quantum_to_classical_identification(V, tmap: TomographicMap) -> Callable:
    """Push a state-space identification to outcomes: v(r)_i = pinv-adjoint(V(r)_i)."""

    def vectors(r):
        return np.stack([tmap.pinv_adjoint(M) for M in V(r)])

    return vectors


# ---------------------------------------------------------------------------
# numeric optimizers (independent of the spectral oracle)


def _orthonormalize_plain(X) -> np.ndarray:
    """Polar retraction of a stack of frames (R, n, k) onto the Stiefel manifold."""
    w, V = np.linalg.eigh(hermitian_part(X.conj().swapaxes(-1, -2) @ X))
    w = np.clip(w, 1e-14, None)
    return X @ ((V / np.sqrt(w)[:, None, :]) @ V.conj().swapaxes(-1, -2))


def _ascend(X0, grad, value, iters: int, step: float = 0.5, max_step: float = 64.0):
    """Monotone ascent of every restart in the stack X0 (R, n, k) at once.

    grad maps frames (m, n, k) to ascent directions of the same shape and
    value maps them to (m,).  Each restart keeps its own step, which
    doubles on success (near-degenerate spectra need the large steps to
    converge past linear-rate stalls) and halves on failure.  Every pass
    tries one step for each live restart; a restart retires when its
    step falls below 1e-12 or after ``iters`` accepted steps.
    """
    X, best = X0.copy(), value(X0)
    s = np.full(len(X), step)
    taken = np.zeros(len(X), dtype=int)
    G = grad(X)
    live = np.arange(len(X) if iters > 0 else 0)
    while live.size:
        Xn = _orthonormalize_plain(X[live] + s[live, None, None] * G[live])
        vn = value(Xn)
        up = vn > best[live] + 1e-15
        won, lost = live[up], live[~up]
        X[won], best[won] = Xn[up], vn[up]
        s[won] = np.minimum(s[won] * 2.0, max_step)
        taken[won] += 1
        s[lost] *= 0.5
        live = live[np.where(up, taken[live] < iters, s[live] >= 1e-12)]
        if won.size:
            G[won] = grad(X[won])
    return X, best


def _random_stiefel(R, n, k, g):
    """R random orthonormal frames (n, k), drawn as one block from g."""
    Z = g.standard_normal((R, 2, n, k))
    return np.linalg.qr(Z[:, 0] + 1j * Z[:, 1])[0]


def _starts(rho, restarts, k, name, rng):
    """Validate an optimizer's arguments and draw its starting frames."""
    rho = as_density(rho)
    n = rho.shape[0]
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts!r}")
    if not 1 <= k <= n:
        raise ValueError(f"{name} must be between 1 and the dimension {n}, got {k!r}")
    return rho, _random_stiefel(restarts, n, k, np.random.default_rng(rng))


def _rayleigh(rho, X) -> np.ndarray:
    """Rayleigh quotients <x_j, rho x_j> of every column of a frame stack: (m, k)."""
    return np.einsum("rij,ik,rkj->rj", X.conj(), rho, X).real


def optimize_top_eigenvector(rho, restarts: int = 50, iters: int = 200, rng=None):
    """Projected gradient ascent of <x, rho x> over the unit sphere."""
    rho, X0 = _starts(rho, restarts, 1, "k", rng)
    X, v = _ascend(X0, grad=lambda X: rho @ X, value=lambda X: _rayleigh(rho, X)[:, 0], iters=iters)
    i = int(np.argmax(v))
    return X[i, :, 0], float(v[i])


def optimize_weighted_basis(rho, weights, cols: int, restarts: int = 50, iters: int = 300, rng=None):
    """Ascent of sum_i w_i <x_i, rho x_i> over orthonormal column tuples.

    Used for the top-k score (all weights positive) and the top+bottom
    score (signed weights on the reported columns).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (cols,):
        raise ValueError(f"weights must have one entry per column (cols={cols}), got shape {w.shape}")
    rho, X0 = _starts(rho, restarts, cols, "cols", rng)
    X, v = _ascend(
        X0, grad=lambda X: rho @ X * w, value=lambda X: np.sum(w * _rayleigh(rho, X), axis=1), iters=iters
    )
    i = int(np.argmax(v))
    return X[i], float(v[i])


def optimize_eigen_pair(rho, k: int, restarts: int = 50, iters: int = 300, rng=None):
    """Ascent for the eigen-pair score: maximize sum_i <x_i, rho x_i>^2.

    The optimal payoff weight for each reported vector is its own
    Rayleigh quotient, so the report collapses to the orthonormal frame;
    returns the assembled PSD report and its expected score.
    """
    rho, X0 = _starts(rho, restarts, k, "k", rng)

    def value(X):
        b = _rayleigh(rho, X)
        return np.sum(b * b, axis=1)

    X, v = _ascend(X0, grad=lambda X: rho @ X * _rayleigh(rho, X)[:, None, :], value=value, iters=iters)
    i = int(np.argmax(v))
    beta = _rayleigh(rho, X[i : i + 1])[0]
    A = hermitian_part((X[i] * beta) @ X[i].conj().T)
    return A, float(v[i])


def optimize_with_value(base_report, base_value):
    """Optimal augmented report: attach the achieved expected score."""
    return (float(base_value), base_report)


def optimize_abstain(score: QuantumScore, rho, restarts: int = 50, rng=None):
    """Best report for the abstain score: compare opting out with the best vector."""
    x, v = optimize_top_eigenvector(rho, restarts=restarts, rng=rng)
    flat = score.expected(ABSTAIN, rho)
    if flat > v:
        return ABSTAIN, flat
    return x, v
