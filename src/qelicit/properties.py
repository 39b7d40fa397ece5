"""Eliciting summary statistics of quantum states.

Expectation values and eigenvector families are elicitable; eigenvalues,
entropies, and norms are not, because their level sets fail to be
convex.  This module provides the elicitable scores (with numeric
optimizers used to verify their maximizers), level-set counterexample
witnesses for the non-elicitable statistics.  Properties and
identification functions move across a tomographically complete
measurement through ``measurement.TomographicMap``'s maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .linalg import (
    _count,
    _densities,
    _require_psd,
    _unitaries,
    as_density,
    hermitian_part,
    matrix_to_json,
    spectral_decompose,
)
from .measurement import Measurement, _basis_pvm, apply_measurement
from .scores import FULL_RANK_TOL, QuantumScore, _measured, _overlap_measurement

__all__ = [
    "ORTHO_TOL",
    "QuantumProperty",
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
    "optimize_top_eigenvector",
    "optimize_weighted_basis",
    "optimize_eigen_pair",
    "optimize_abstain",
]

ORTHO_TOL = 1e-8     # allowed deviation from orthonormality before rejection
REPORT_TOL = 1e-8    # reports closer than this count as the same value
DIFFER_TOL = 1e-6    # property values farther than this count as different
_SCREEN_TOL = 1e-6   # a stacked search judges exactly only the pairs within this screening distance
CERT_TOL = 1e-13     # an optimizer call stops once its best restart is proven this close to the optimum
_TOP_SCALE = 128.0   # the top eigenvector's direction is this times rho^16 / tr rho^16 (optimize_top_eigenvector)
_START_SQUARINGS, _START_STEPS = 3, 3  # k-column starts take 3 steps X <- qr(P X), P = rho^8 / tr rho^8
_BLOCK = 64          # level-set probes drawn at once, so a long search holds one block of states

ABSTAIN = None  # the abstain report


@dataclass(frozen=True)
class QuantumProperty:
    """A statistic of density matrices.

    ``eval`` returns a canonical representative (sorted eigenvalues,
    phase-fixed vectors).  ``_stack``, if set, maps a stack (N, n, n) of
    valid, exactly Hermitian states the library built to a sequence of
    their N values of one shape, each equal bit for bit to what ``eval``
    returns for that state alone; a level-set search then screens a block
    of probes with two calls of it.
    """

    eval: Callable[[np.ndarray], Any]
    name: str = ""
    _stack: Callable[[np.ndarray], Any] | None = None


def _as_unit_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > ORTHO_TOL:
        raise ValueError(f"report must be a unit vector, got norm {norm!r}")
    return x / norm


def _as_orthonormal(X, cols: int) -> np.ndarray:
    """Validate ``cols`` near-orthonormal columns and re-orthonormalize (polar)."""
    X = np.asarray(X, dtype=np.complex128)
    if X.ndim != 2:
        raise ValueError(f"report must be a matrix of column vectors, got shape {X.shape}")
    if X.shape[1] != cols:
        raise ValueError(f"expected {cols} report vectors, got {X.shape[1]}")
    gram = X.conj().T @ X
    dev = float(np.abs(gram - np.eye(X.shape[1])).max())
    if dev > ORTHO_TOL:
        raise ValueError(f"report vectors are not orthonormal: deviation {dev:.3e}")
    return _orthonormalize_plain(X[None])[0]


def _finite_weights(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"weights must be finite, got {v.tolist()!r}")
    return v


def _frame_payoff(X, weights):
    """Projectors onto the columns of an orthonormal frame X paying ``weights``, then the rest paying 0."""
    projs = np.einsum("ik,jk->kij", X, X.conj())
    rest = np.eye(X.shape[0]) - projs.sum(axis=0)
    return Measurement._unchecked(np.concatenate([projs, rest[None]])), np.append(weights, 0.0)


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

    def stack(rhos):
        return [p @ z for p in mu._probs(rhos)]  # one product per row, as evaluate forms it

    prop = QuantumProperty(evaluate, name="expectation", _stack=stack)

    def payoff(r):
        r = np.asarray(r, dtype=np.float64)
        return mu, 2.0 * np.dot(z, r) - np.dot(r, r)

    return prop, QuantumScore(payoff, name="expectation")


def top_eigenvector_score() -> QuantumScore:
    """Elicits a top eigenvector: expected score <x x*, rho>."""

    def payoff(x):
        x = _as_unit_vector(x)
        return _overlap_measurement(hermitian_part(np.outer(x, x.conj()))), np.array([0.0, 1.0])

    return QuantumScore(payoff, name="eigvec-top")


def top_k_eigenvector_score(v) -> QuantumScore:
    """Elicits k = len(v) orthonormal top eigenvectors with finite, strictly decreasing payoffs v.

    Reports are n x k column matrices; the expected score is
    <sum_i v_i x_i x_i*, rho>, maximized exactly at top-k eigenvector
    tuples because sorted-spectrum pairing is the only way to reach the
    eigenvalue upper bound.
    """
    v = _finite_weights(v)
    if v.ndim != 1 or not v.size or not (np.all(v > 0) and np.all(np.diff(v) < 0)):
        raise ValueError(f"weights must be a non-empty vector, strictly decreasing and positive, got {v.tolist()!r}")

    def payoff(X):
        return _frame_payoff(_as_orthonormal(X, len(v)), v)

    return QuantumScore(payoff, name="eigvec-topk")


def top_bottom_score(v) -> QuantumScore:
    """Elicits the k top and m bottom eigenvectors simultaneously.

    The weight vector v has length n: k strictly decreasing positive
    entries, then zeros, then m strictly decreasing negative entries, all
    finite, so k and m are the numbers of its positive and negative
    weights, and k + m must be at least 1.  Reports supply k + m orthonormal columns
    (top block first).  The measurement projects onto each column, paying
    its weight, and onto the rest of the space, paying the middle's zero,
    so it has k + m + 1 outcomes and no completion of the basis is chosen.
    """
    v = _finite_weights(v)
    n, k, m = v.size, int(np.sum(v > 0)), int(np.sum(v < 0))
    if v.ndim != 1 or not k + m:
        raise ValueError(f"weights must be a vector with a nonzero entry, got {v.tolist()!r}")
    top, mid, bot = v[:k], v[k : n - m], v[n - m :]
    if not (np.all(top > 0) and np.all(np.diff(top) < 0)):
        raise ValueError("top weights must be strictly decreasing and positive")
    if np.any(mid != 0):
        raise ValueError("middle weights must be exactly zero")
    if not (np.all(bot < 0) and np.all(np.diff(bot) < 0)):
        raise ValueError("bottom weights must be strictly decreasing and negative")

    def payoff(X):
        X = _as_orthonormal(X, k + m)
        if X.shape[0] != n:
            raise ValueError(f"report vectors have dimension {X.shape[0]}, expected {n}")
        return _frame_payoff(X, np.concatenate([top, bot]))

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
    _count(k, "k", 1)

    def payoff(A):
        dec = spectral_decompose(A)
        lam = dec.eigenvalues
        _require_psd(lam, "report", lam[-1])
        if k < len(lam) and float(lam[k]) > FULL_RANK_TOL:
            raise ValueError(f"report rank exceeds {k}: eigenvalue {lam[k]:.3e} at index {k}")
        alpha = np.clip(lam, 0.0, None)
        return _basis_pvm(dec.eigenvectors), 2.0 * alpha - alpha @ alpha

    return QuantumScore(payoff, name="eig-pair")


def with_value(base: QuantumScore, G, dG) -> QuantumScore:
    """Augment a score so the optimal expected value is itself elicited.

    Reports become pairs (alpha, r); the payoff G(alpha) +
    dG(alpha) (s(r, y) - alpha) is maximized by the base-optimal r with
    alpha equal to its expected score, provided G is strictly convex
    increasing with positive subgradients.  An ``ExpectedScoreFn`` base is refused.
    """
    _measured(base)

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
    _count(dim, "dim", 1)
    inner = top_eigenvector_score()
    flat = Measurement._unchecked(np.eye(dim, dtype=np.complex128)[None])

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
        # complex values compare up to phase: |a - e^{i phi} b| at the best phase, that of <b, a>; exact at
        # a == b, where the unit-vector form sqrt(2 - 2|<a, b>|) reads a rounding of 1e-16 as up to 6e-8
        overlap = np.vdot(b, a)
        if overlap != 0:
            b = b * (overlap / abs(overlap))
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
        def val(v):
            # a complex value as its parts, as the matrix wire format writes them
            arr = np.asarray(v)
            if np.iscomplexobj(arr):
                return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
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


def level_set_witness(prop: QuantumProperty, rho1, rho2) -> WitnessResult:
    """Test one candidate witness of non-convex level sets.

    A counterexample has the property agreeing on rho1 and rho2 (within
    REPORT_TOL) but taking a different value (beyond DIFFER_TOL) on
    their midpoint (rho1 + rho2) / 2.  Any such witness proves the
    property cannot be elicited.
    """
    rho1 = as_density(rho1)
    rho2 = as_density(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: rho1 {rho1.shape[0]}, rho2 {rho2.shape[0]}")
    r1, r2 = prop.eval(rho1), prop.eval(rho2)
    return _witness(prop, rho1, rho2, r1, r2, _value_dist(r1, r2) <= REPORT_TOL)


def _witness(prop, rho1, rho2, r1, r2, equal: bool):
    """level_set_witness of two valid states of one shape, given their values r1 and r2 and whether they agree."""
    rm = prop.eval(hermitian_part(0.5 * (rho1 + rho2)))
    return WitnessResult(prop.name, bool(equal and _value_dist(rm, r1) > DIFFER_TOL), 0.5, r1, r2, rm, rho1, rho2)


def find_level_set_witness(
    prop: QuantumProperty, dim: int, probes: int = 100, rng=None
) -> WitnessResult | None:
    """Search random mixture probes for a level-set counterexample.

    Pairs are built by conjugating a random state with a random unitary,
    which preserves every spectral statistic exactly; the midpoint
    mixture then typically moves the value.  Returns the first
    counterexample or None.  ``probes`` below 1 or ``dim`` below 2 is
    refused, since the search would test nothing.  A property with
    ``_stack`` has its probes drawn in blocks of up to _BLOCK and
    evaluated by two stacked calls per block; any other property draws
    and evaluates one probe at a time.  Only a pair whose values agree
    within REPORT_TOL has its midpoint evaluated, by ``_witness``; a
    block's pairs are first screened together by ``_screen``.
    Either way the draws, the witness and where the generator is left are
    those of the probe-at-a-time search.
    """
    _count(probes, "probes", 1)
    _count(dim, "dim", 2)
    g = np.random.default_rng(rng)
    block = 1 if prop._stack is None else _BLOCK  # judged one by one, a probe is drawn only when it is judged
    values = prop._stack or (lambda rhos: [prop.eval(rho) for rho in rhos])
    for start in range(0, probes, block):
        state = g.bit_generator.state
        rho1, rho2 = _probe_block(g, min(block, probes - start), dim)
        v1, v2 = values(rho1), values(rho2)
        for i in range(len(rho1)) if prop._stack is None else _screen(v1, v2):
            r1, r2 = v1[i], v2[i]
            if _value_dist(r1, r2) > REPORT_TOL:  # no counterexample whatever the midpoint's value
                continue
            w = _witness(prop, rho1[i], rho2[i], r1, r2, True)
            if w.is_counterexample:
                if i + 1 < len(rho1):  # redraw only the probes used, leaving g where a probe-at-a-time search does
                    g.bit_generator.state = state
                    g.standard_normal((i + 1, 4, dim, dim))
                return w
    return None


def _screen(v1, v2) -> np.ndarray:
    """The indices, in order, of the pairs of two value stacks that may agree within REPORT_TOL.

    One vectorized squared distance per pair, of the distance that
    ``_value_dist`` measures: 2 - 2|<a, b>|, which is |a - e^{i phi} b|^2
    at the best phase for the unit vectors that are the only complex
    values a stacked property gives, and Euclidean otherwise.  The complex
    form rounds to about 1e-16 near an equal pair, the square of a distance
    near 1e-8, so it passes pairs within _SCREEN_TOL, far wider than
    REPORT_TOL: a superset of the pairs ``_value_dist`` lets agree.  A NaN
    distance, which ``_value_dist``'s test also lets through, passes too.
    """
    a, b = (np.asarray(v).reshape(len(v), -1) for v in (v1, v2))
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        d2 = 2.0 - 2.0 * np.abs(np.sum(a.conj() * b, axis=1))
    else:
        d2 = np.sum((a - b) ** 2, axis=1)
    return np.flatnonzero(~(d2 > _SCREEN_TOL**2))


def _probe_block(g, b: int, dim: int):
    """b probes (rho1, rho2), each (b, dim, dim), from one draw of g.

    They are bit for bit the states of b rounds of ``random_density(dim,
    rng=g)``, ``random_unitary(dim, rng=g)`` and rho2 = U rho1 U*.
    """
    Z = g.standard_normal((b, 4, dim, dim))
    G = np.empty((b, 2, dim, dim), dtype=np.complex128)
    G.real, G.imag = Z[:, 0::2], Z[:, 1::2]
    rho1, U = _densities(G[:, 0]), _unitaries(G[:, 1])
    return rho1, hermitian_part(U @ rho1 @ U.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# numeric optimizers (independent of the spectral oracle)


def _orthonormalize_plain(X) -> np.ndarray:
    """Polar retraction X (X*X)^(-1/2) of a stack of frames (R, n, k) onto the Stiefel manifold.

    One column is X / |X|.  For two columns with Gram matrix M = [[a, b],
    [b*, d]], M^(-1/2) = adj(M + sI) / (s t) with s = sqrt(det M) and
    t = sqrt(a + d + 2s), so X adj(M + sI) is two scaled column sums.
    Wider frames, and a two-column stack in which any frame's smaller Gram
    eigenvalue is at or below 1e-12, take U V* from a batched SVD X = U S V*,
    which is orthonormal to rounding whatever the column scales and their
    order (the ascent scales columns by up to 256^7) and completes a
    rank-deficient frame to an orthonormal one.  A single column's squared
    norm is clipped at 1e-14.
    """
    k = X.shape[-1]
    sq = np.einsum("rij,rij->rj", X.conj(), X).real  # squared column norms
    if k == 1:
        return X / np.sqrt(np.maximum(sq, 1e-14))[:, None, :]
    if k == 2:
        (x, y), (a, d) = X.transpose(2, 0, 1), sq.T
        b = np.einsum("ri,ri->r", x.conj(), y)
        # det M from y's residual off x, |a y - b x|^2 = a det M: a d - |b|^2
        # cancels to an error of about eps a d on near-dependent columns
        q = a[:, None] * y - b[:, None] * x
        a_det = np.einsum("ri,ri->r", q.conj(), q).real
        if np.all(a_det > 1e-12 * a * ((a + d) / 2 + np.hypot((a - d) / 2, abs(b)))):
            s = np.sqrt(a_det / a)
            st = (s * np.sqrt(a + d + 2.0 * s))[:, None]
            return np.stack(
                [(x * (d + s)[:, None] - y * b.conj()[:, None]) / st, (y * (a + s)[:, None] - x * b[:, None]) / st],
                axis=-1,
            )
    U, _, Vh = np.linalg.svd(X, full_matrices=False)
    return U @ Vh


def _shortfall_bound(rho, X, w=None) -> float:
    """An upper bound on how far the frame X (n, k) is below the optimum, read from X alone.

    With Theta = X* rho X, R = rho X - X Theta and C rho compressed to the
    complement of X's span, lambda_max(C) <= min(|C|_F, tr rho - tr Theta),
    C being PSD, where |C|_F^2 = |rho|_F^2 - 2 |rho X|_F^2 + |Theta|_F^2.  If
    delta = mu_k(Theta) - lambda_max(C) - |R|_2 > 0, each of the top k
    eigenvalues of rho is within e = |R|_2^2 / delta of Theta's eigenvalue
    mu_i of the same rank (the quadratic residual bound: Mathias, SIMAX
    1998; Parlett, The Symmetric Eigenvalue Problem, 1998).  The bound is
    then w (mu + e) - w diag(Theta) for weights w falling and non-negative,
    and sum (mu_i + e)^2 - sum Theta_ii^2, the eigen pair's, for ``w``
    None; if delta <= 0 it is inf.  It adds 16 machine epsilons times its
    first term for the rounding of its own evaluation.  At k = n, R and C
    vanish and the bound is the within-span shortfall against rho's own
    spectrum.
    """
    RX = rho @ X
    theta = X.conj().T @ RX  # eigvalsh reads its lower triangle
    R = RX - X @ theta
    RR = R.conj().T @ R
    if X.shape[1] == 1:  # a 1 x 1 matrix's eigenvalue is its real entry, bit for bit as eigvalsh returns it
        mu, rr = theta.real[0], RR.real[0]
    else:  # Theta's spectrum and |R|_2^2, in one call
        mu, rr = np.linalg.eigvalsh(np.array([theta, RR]))
    mu, r2, b = mu[::-1], max(rr[-1], 0.0), theta.diagonal().real
    c_fro2 = np.vdot(rho, rho).real - 2.0 * np.vdot(RX, RX).real + mu @ mu
    c_max = min(np.sqrt(max(c_fro2, 0.0)), max(rho.trace().real - b.sum(), 0.0))
    delta = mu[-1] - c_max - np.sqrt(r2)
    if not delta > 0:
        return float("inf")
    top = mu + r2 / delta
    reach = top @ top if w is None else w @ top  # the optimum is at most this
    return float(reach - (b @ b if w is None else w @ b) + 16 * np.finfo(float).eps * reach)  # and its rounding


def _ascend(X0, f, iters: int, cert=None):
    """Monotone ascent of every restart in the stack X0 (R, n, k) at once.

    f maps frames (m, n, k) to their values (m,) and ascent directions
    (m, n, k), both from one evaluation, so an accepted step's direction
    is the one its value came with.  Each restart keeps its own step, from
    0.5, which doubles on success up to 64 (near-degenerate spectra need
    the large steps to converge past linear-rate stalls) and halves on
    failure.  A step is accepted when it gains more than ``margin``.
    Every pass tries one step for each live restart; a restart retires
    after ``iters`` accepted steps, when its step falls below 1e-12, or
    after two failed steps in a row that each moved its value by at most
    ``margin``: it has converged to rounding.  One such failure is not
    enough, since a step can overshoot to a point of equal value while a
    shorter one still gains.  The live restarts are kept as compact
    arrays; a retiring restart writes its frame and value back once.

    ``cert``, if given, maps one frame (n, k) to a bound on its shortfall
    from the optimum.  It is read for the live restart with the highest
    value on a pass where it took a step that gained at most 1e-9 or failed
    a flat step from its start, as an optimal start does; once it is at
    most CERT_TOL, the live restarts write back and the call returns.
    """
    margin = 1e-15
    X = X0.copy()
    best, G = f(X)
    idx = np.arange(len(X))  # each live restart's row in X and best
    Xl, vl, s = X, best, np.full(len(X), 0.5)
    taken = np.zeros(len(X), dtype=int)
    flat = np.zeros(len(X), dtype=int)  # failed steps in a row that moved the value by at most margin
    while idx.size:
        Xn = _orthonormalize_plain(Xl + s[:, None, None] * G)
        vn, Gn = f(Xn)
        up = vn > vl + margin
        near = up & (vn - vl <= 1e-9)  # accepted steps that gained at most 1e-9
        flat = np.where(~up & (np.abs(vn - vl) <= margin), flat + 1, 0)
        up3 = up[:, None, None]
        Xl, G = np.where(up3, Xn, Xl), np.where(up3, Gn, G)
        vl, s = np.where(up, vn, vl), np.where(up, np.minimum(s * 2.0, 64.0), s * 0.5)
        j = int(np.argmax(vl))
        if cert is not None and (near[j] or flat[j] and not taken[j]) and cert(Xl[j]) <= CERT_TOL:
            X[idx], best[idx] = Xl, vl
            return X, best
        taken = taken + up
        keep = np.where(up, taken < iters, (s >= 1e-12) & (flat < 2))
        if not keep.all():
            gone = ~keep
            X[idx[gone]], best[idx[gone]] = Xl[gone], vl[gone]
            idx, Xl, vl, G, s, taken, flat = (a[keep] for a in (idx, Xl, vl, G, s, taken, flat))
    return X, best


def _random_stiefel(R, n, k, g):
    """R random orthonormal frames (n, k), drawn as one block from g: one column normalized, a wider frame QR-factored."""
    Z = g.standard_normal((R, 2, n, k))
    Z = Z[:, 0] + 1j * Z[:, 1]
    return _orthonormalize_plain(Z) if k == 1 else np.linalg.qr(Z)[0]


def _ordered_scales(w):
    """Column scales c of the ascent direction rho X diag(c) for weights w.

    A positive weight is multiplied by base^r, r its rank among the m
    positive weights (the smallest has rank 0; on a tie the earlier column
    ranks higher); any other weight is kept.  The base is 256 for m <= 8
    and 256^(7 / (m - 1)) beyond, so the scales never span more than
    256^7, the spread of the widest frames measured (k = 8): with more,
    the smallest columns sink below rounding next to the largest, and
    256^(m-1) itself overflows from m = 129.  Each c_i has the sign of
    w_i, and c is ordered as w, so the direction pairs with the gradient
    non-negatively off the frame's span (sum_i w_i c_i |(I - XX*) rho x_i|^2)
    and within it (sum_(i<j) |x_i* rho x_j|^2 (w_i - w_j)(c_i - c_j)).  As the step
    grows, the polar retraction of X + s rho X diag(c) approaches
    Gram-Schmidt in rank order: each column converges at the
    orthogonal-iteration rate lambda_(i+1) / lambda_i, not at a rate set
    by the weights.
    """
    pos = np.flatnonzero(w > 0)
    order = pos[np.argsort(-w[pos], kind="stable")]  # highest weight first, the earlier column on a tie
    c = w.copy()
    m = len(order)
    base = 256.0 ** min(1.0, 7 / max(m - 1, 1))  # 256, or less past eight positive weights: a span of 256^7
    c[order] *= base ** np.arange(m - 1, -1, -1)
    return c


def _starts(rho, restarts, k, name, rng):
    """Validate an optimizer's arguments and draw its starting frames."""
    rho = as_density(rho)
    n = rho.shape[0]
    _count(restarts, "restarts", 1)
    _count(k, name, 1, n)
    return rho, _random_stiefel(restarts, n, k, np.random.default_rng(rng))


def _powered(rho, squarings: int):
    """rho^(2^squarings) / its trace, made by squaring rho, each square divided by its trace."""
    for _ in range(squarings):
        rho = rho @ rho
        rho = rho / rho.trace().real
    return rho


def _subspace_steps(rho, X):
    """A frame stack (R, n, k) after _START_STEPS steps X <- qr(P X) of subspace iteration, P = rho^8 / tr rho^8."""
    P = _powered(rho, _START_SQUARINGS)
    for _ in range(_START_STEPS):
        X = np.linalg.qr(P @ X)[0]
    return X


def _rayleigh(rho, X):
    """Rayleigh quotients <x_j, rho x_j> of a frame stack's columns (m, k), with rho X from the same product."""
    RX = rho @ X
    return np.einsum("rij,rij->rj", X.conj(), RX).real, RX


def optimize_top_eigenvector(rho, restarts: int = 50, rng=None):
    """Ascent of <x, rho x> over the unit sphere along P x, P = c rho^16, at most 200 accepted steps per restart.

    The value of a step is read from rho, its direction from P, made by
    four squarings of rho, each divided by its trace (rho^16 / tr rho^16),
    and scaled by c = _TOP_SCALE.  For PSD rho every step gains, whatever
    its size s: with rho = sum_i lambda_i u_i u_i* and p_i the eigenvalues
    of P, the Rayleigh quotient of (I + sP)x is the mean of the lambda_i
    weighted by |<u_i, x>|^2 (1 + s p_i)^2.  That factor does not fall as
    lambda_i rises, so the mean is at least <x, rho x>, the mean weighted
    by |<u_i, x>|^2 alone (Chebyshev's sum inequality).  This is power
    iteration on P inside the ascent: its error falls by about
    (lambda_2 / lambda_1)^16 a pass, against lambda_2 / lambda_1 along
    rho x.  The scale makes the first step of 0.5 a power step already:
    P's top eigenvalue is at least 1 / n, so 0.5 c / n outweighs the 1 of
    I + sP for every n below 64.  No step decomposes rho.  The call stops
    once its best restart is certified within CERT_TOL of lambda_1
    (``_shortfall_bound``).
    """
    rho, X0 = _starts(rho, restarts, 1, "k", rng)
    P = _TOP_SCALE * _powered(rho, 4)

    def f(X):
        return _rayleigh(rho, X)[0][:, 0], P @ X

    X, v = _ascend(X0, f, 200, lambda X: _shortfall_bound(rho, X, np.ones(1)))
    i = int(np.argmax(v))
    return X[i, :, 0], float(v[i])


def optimize_weighted_basis(rho, weights, cols: int, restarts: int = 50, rng=None):
    """Ascent of sum_i w_i <x_i, rho x_i> over orthonormal column tuples, at most 300 accepted steps per restart.

    Used for the top-k score (all weights positive) and the top+bottom
    score (signed weights on the reported columns).  Column i ascends along
    rho x_i times ``_ordered_scales(weights)[i]``; the ascent runs on the
    columns in falling order of these scales, the order in which the SVD
    retraction keeps the small columns most accurate, and returns them in
    the order of the weights.  Weights all non-negative start from the
    frames after ``_subspace_steps`` in that order and stop the call once
    its best restart is certified within CERT_TOL of the optimum
    (``_shortfall_bound``); signed weights keep the random starts, uncertified.
    """
    rho, X0 = _starts(rho, restarts, cols, "cols", rng)
    w = _finite_weights(weights)
    if w.shape != (cols,):
        raise ValueError(f"weights must have one entry per column (cols={cols}), got shape {w.shape}")

    c = _ordered_scales(w)
    p = np.argsort(-c, kind="stable")  # the identity for weights that do not rise
    wp, cp = w[p], c[p]

    def f(X):
        b, RX = _rayleigh(rho, X)
        return b @ wp, RX * cp

    X0, cert = X0[:, :, p], None
    if np.all(w >= 0):  # wp falls; signed weights keep their random starts
        X0, cert = _subspace_steps(rho, X0), lambda X: _shortfall_bound(rho, X, wp)
    X, v = _ascend(X0, f, 300, cert)
    i = int(np.argmax(v))
    return X[i][:, np.argsort(p)], float(v[i])


def optimize_eigen_pair(rho, k: int, restarts: int = 50, rng=None):
    """Ascent for the eigen-pair score: maximize sum_i <x_i, rho x_i>^2, at most 300 accepted steps per restart.

    The optimal payoff weight for each reported vector is its own
    Rayleigh quotient, so the report collapses to the orthonormal frame;
    returns the assembled PSD report and its expected score.  The columns
    ascend as the weighted basis's do with weights all 1, on every pass
    in the order of their Rayleigh quotients b: the gradient's factors are
    the b_i, so the scales must stand in b's order, which can change
    during the ascent, or the direction would descend within the span.
    Each start takes the steps of ``_subspace_steps``, then its columns
    are sorted by falling b, so that the scales mostly fall from the first
    column to the last, the order in which the SVD retraction keeps the
    small columns most accurate.  The call stops once its best restart is
    certified within CERT_TOL of sum_(i<=k) lambda_i^2 (``_shortfall_bound``).
    """
    rho, X0 = _starts(rho, restarts, k, "k", rng)
    X0 = _subspace_steps(rho, X0)
    X0 = np.take_along_axis(X0, np.argsort(-_rayleigh(rho, X0)[0], axis=1, kind="stable")[:, None, :], axis=2)
    c = _ordered_scales(np.ones(k))  # falling: 256^(k-1), ..., 1

    def f(X):
        b, RX = _rayleigh(rho, X)
        rank = np.argsort(np.argsort(-b, axis=1, kind="stable"), axis=1)  # 0 for the largest b, the earlier column on a tie
        return np.sum(b * b, axis=1), RX * c[rank][:, None, :]

    X, v = _ascend(X0, f, 300, lambda X: _shortfall_bound(rho, X))
    i = int(np.argmax(v))
    beta = _rayleigh(rho, X[i : i + 1])[0][0]  # the winner's Rayleigh quotients
    A = hermitian_part((X[i] * beta) @ X[i].conj().T)
    return A, float(v[i])


def optimize_abstain(score: QuantumScore, rho, restarts: int = 50, rng=None):
    """Best report for the abstain score: compare opting out with the best vector."""
    x, v = optimize_top_eigenvector(rho, restarts=restarts, rng=rng)
    flat = score.expected(ABSTAIN, rho)
    if flat > v:
        return ABSTAIN, flat
    return x, v
