"""Closed forms and verdicts that the benchmark checks the program against.

Everything here is plain numpy and calls nothing in ``qelicit``, so a
fault in the library cannot hide itself by also corrupting its own
reference.  The thresholds mirror the library's documented conventions
(an eigenvalue or probability at most 1e-12 counts as zero, and
0 * (-inf) = 0), because they are part of what an expected score means.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")
ZERO = 1e-12        # eigenvalue / probability at or below this counts as zero
OVERLAP_ZERO = 1e-10  # kernel mass at or below this counts as no mass
RTOL = 1e-9         # relative agreement required between program and oracle
ATOL = 1e-11        # absolute floor for values near zero
TRUTH_MARGIN = 1e-9  # a gain above this is a truthfulness violation
OPT_TOL = 1e-5      # optimizer values must recover their targets this closely

# The paper's verdict table, kept apart from the library's registry.
# (truthful, strictly truthful, implementable, unitary-invariant)
VERDICTS = {
    "binary-brier": (True, True, True, True),
    "projective-brier": (True, True, True, True),
    "spectral:brier": (True, True, True, True),
    "spectral:log": (True, True, True, True),
    "fixed:brier": (True, True, True, False),
    "fixed:log": (True, True, True, False),
    "ml:s1": (True, True, True, True),
    "ml:s2": (True, True, True, True),
    "ml:s3": (False, False, True, True),
    "ml:s4": (False, False, False, True),
    "ml:s5": (False, False, False, True),
}
VERDICT_KEYS = ("truthful", "strictly_truthful", "implementable", "unitary_invariant")

BRIER_SCORES = ("binary-brier", "projective-brier", "spectral:brier")
LOG_SCORES = ("spectral:log", "ml:s1")


def verdict(name: str) -> dict:
    return dict(zip(VERDICT_KEYS, VERDICTS[name]))


def close(a: float, b: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """Equality within tolerance on R u {-inf, +inf}; infinities must match exactly."""
    if not (np.isfinite(a) and np.isfinite(b)):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# matrices


def herm(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    return (A + A.conj().T) / 2


def inner(A, B) -> float:
    """Tr(A* B), real part."""
    return float(np.vdot(np.asarray(A), np.asarray(B)).real)


def eigh(A):
    """Eigenvalues in descending order and matching eigenvectors."""
    w, V = np.linalg.eigh(herm(A))
    return w[::-1], V[:, ::-1]


def eigvals_desc(A) -> np.ndarray:
    return np.linalg.eigvalsh(herm(A))[::-1]


def log_parts(r):
    """log r on its support, and the projector onto its kernel."""
    w, V = eigh(r)
    pos = w > ZERO
    Vp, Vk = V[:, pos], V[:, ~pos]
    return (Vp * np.log(w[pos])) @ Vp.conj().T, Vk @ Vk.conj().T


def log_inner(r, rho) -> float:
    """<log r, rho>, which is -inf when rho has mass off the support of r."""
    L, K = log_parts(r)
    if inner(K, rho) > OVERLAP_ZERO:
        return NEG_INF
    return inner(L, rho)


def entropy(rho) -> float:
    w = eigvals_desc(rho)
    w = w[w > ZERO]
    return float(-(w @ np.log(w)))


def relative_entropy(rho, sigma) -> float:
    """<log rho - log sigma, rho>; +inf when rho leaves the support of sigma."""
    cross = log_inner(sigma, rho)
    if cross == NEG_INF:
        return float("inf")
    return -entropy(rho) - cross


def logsumexp(w) -> float:
    top = float(np.max(w))
    return top + float(np.log(np.sum(np.exp(w - top))))


def canonical_povm(n: int) -> np.ndarray:
    """The n^2 rank-one elements of the canonical complete POVM, stacked.

    Basis projectors plus the symmetric and phased pair states, made to
    sum to the identity by congruence with T^(-1/2).
    """
    eye = np.eye(n, dtype=np.complex128)
    vecs = [eye[k] for k in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            vecs.append((eye[j] + eye[k]) / np.sqrt(2.0))
            vecs.append((eye[j] + 1j * eye[k]) / np.sqrt(2.0))
    return povm_from_vectors(np.stack(vecs))


def povm_from_vectors(vecs) -> np.ndarray:
    """Elements v v* (one per row), made to sum to I by congruence with T^(-1/2)."""
    raw = np.einsum("yi,yj->yij", vecs, np.conj(vecs))
    w, V = np.linalg.eigh(herm(raw.sum(axis=0)))
    T_isqrt = (V / np.sqrt(w)) @ V.conj().T
    return np.stack([herm(T_isqrt @ A @ T_isqrt) for A in raw])


def outcome_probs(elements, rho) -> np.ndarray:
    """p_y = <mu_y, rho> for stacked elements, without any clipping."""
    return np.einsum("yij,ij->y", np.asarray(elements).conj(), np.asarray(rho)).real


def clip_probs(p) -> np.ndarray:
    q = np.clip(np.asarray(p, dtype=np.float64), 0.0, None)
    return q / q.sum()


# ---------------------------------------------------------------------------
# expected scores


def _fixed_brier(povm, r, rho) -> float:
    q, p = clip_probs(outcome_probs(povm, r)), clip_probs(outcome_probs(povm, rho))
    return float(2.0 * p @ q - q @ q)


def _fixed_log(povm, r, rho) -> float:
    q, p = clip_probs(outcome_probs(povm, r)), clip_probs(outcome_probs(povm, rho))
    zero = q <= ZERO
    if (p[zero] > ZERO).any():
        return NEG_INF
    keep = ~zero & (p > ZERO)
    return float(p[keep] @ np.log(q[keep]))


def _log_det(r, rho) -> float:
    w, V = eigh(r)
    inv = (V / w) @ V.conj().T
    return float(len(w) - np.sum(np.log(w)) - inner(inv, rho))


def _log_trace(r, rho) -> float:
    v = inner(r, rho)
    return NEG_INF if v <= ZERO else float(np.log(v))


def _log_trace_exp(r, rho) -> float:
    # log Tr exp(log r + log rho), taken on the intersection of the supports
    Lr, Kr = log_parts(r)
    Lp, Kp = log_parts(rho)
    w, V = np.linalg.eigh(herm(Kr + Kp))
    Q = V[:, w <= 1e-10]
    if Q.shape[1] == 0:
        return NEG_INF
    return logsumexp(np.linalg.eigvalsh(herm(Q.conj().T @ (Lr + Lp) @ Q)))


def expected(name: str, r, rho, povm=None) -> float:
    """Expected score of report ``r`` under belief ``rho`` for a registry score.

    ``povm`` is the stacked fixed measurement for the ``fixed:*`` scores.
    """
    if name in BRIER_SCORES:
        return 2.0 * inner(r, rho) - inner(r, r)
    if name in LOG_SCORES:
        return log_inner(r, rho)
    if name == "fixed:brier":
        return _fixed_brier(povm, r, rho)
    if name == "fixed:log":
        return _fixed_log(povm, r, rho)
    if name == "ml:s2":
        return _log_det(r, rho)
    if name == "ml:s3":
        return inner(r, rho)
    if name == "ml:s4":
        return _log_trace(r, rho)
    if name == "ml:s5":
        return _log_trace_exp(r, rho)
    raise KeyError(name)


def divergence(name: str, r, rho) -> float | None:
    """Expected loss from reporting r instead of rho, where a closed form is known."""
    if name in BRIER_SCORES:
        return float(np.linalg.norm(herm(rho) - herm(r)) ** 2)
    if name in LOG_SCORES:
        return relative_entropy(rho, r)
    return None


def gain(name: str, r, rho, povm=None) -> float:
    """S(r; rho) - S(rho; rho), the quantity a truthfulness violation records."""
    other = expected(name, r, rho, povm)
    return NEG_INF if other == NEG_INF else other - expected(name, rho, rho, povm)


def ext_inner(finite, infinite, rho) -> float:
    """<A - inf B, rho> for an extended coefficient (A, B)."""
    if inner(infinite, rho) > OVERLAP_ZERO:
        return NEG_INF
    return inner(finite, rho)


# ---------------------------------------------------------------------------
# properties, optimizers and markets


def property_value(name: str, rho, z=None, povm=None):
    """Value of a registry property with a level-set evaluator."""
    w = eigvals_desc(rho)
    if name == "eigenvalues":
        return w
    if name == "max-eigenvalue":
        return float(w[0])
    if name == "entropy":
        return entropy(rho)
    if name == "tsallis2":
        return 1.0 - inner(rho, rho)
    if name == "norm2":
        return float(np.sqrt(inner(rho, rho)))
    if name == "expectation":
        return float(outcome_probs(povm, rho) @ z)
    if name == "eigvec-top":
        return eigh(rho)[1][:, 0]
    raise KeyError(name)


def value_distance(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        # eigenvectors are equal up to phase
        return float(np.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(a.ravel(), b.ravel())))))
    return float(np.linalg.norm(a - b))


def optimizer_targets(rho) -> dict:
    """What each elicitation optimizer must recover, from the spectrum alone."""
    lam = eigvals_desc(rho)
    return {
        "top": float(lam[0]),
        "topk": float(2.0 * lam[0] + lam[1]),
        "pair": float(lam[0] ** 2 + lam[1] ** 2),
    }


def lmsr_cost(Q) -> float:
    return logsumexp(np.linalg.eigvalsh(herm(Q)))


def lmsr_price(Q) -> np.ndarray:
    w, V = np.linalg.eigh(herm(Q))
    e = np.exp(w - w.max())
    return herm((V * (e / e.sum())) @ V.conj().T)
