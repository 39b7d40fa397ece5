"""Extended-real arithmetic and extended Hermitian matrices.

Scores take values in R u {-inf}.  This module implements the arithmetic
conventions for that half-extended line (0 * (-inf) = 0, no +inf ever)
and the matrix counterpart: formal expressions ``A - inf * B`` with B PSD
and A B = 0, which represent linear functionals of Hermitian matrices
that may take the value -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ZERO_EIG_REL,
    _require_psd,
    as_hermitian,
    hermitian_part,
)
from .linalg import _decomposed_densities, _hs

__all__ = [
    "NEG_INF",
    "KERNEL_PRODUCT_TOL",
    "EXT_WEIGHT_TOL",
    "ext_dot",
    "ExtendedHermitian",
    "range_projector",
    "ext_inner",
    "matrix_log",
    "canonicalize_extended",
]

NEG_INF = float("-inf")

KERNEL_PRODUCT_TOL = 1e-8  # max-norm bound on A @ B for a valid pair
EXT_WEIGHT_TOL = 1e-12     # weights at most this in magnitude count as exact 0


def ext_dot(weights, values):
    """Weighted sum of extended values with the 0 * (-inf) = 0 convention.

    Weights with magnitude at or below EXT_WEIGHT_TOL are treated as exact
    zeros, which lets callers pair measurement probabilities carrying float
    noise with -inf score values without manufacturing spurious infinities.
    Works along the last axis: vectors give a float, (N, m) stacks give (N,) sums.
    """
    w = np.asarray(weights, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if w.shape == v.shape:  # _ext_pair names a mismatch, and a +inf value ahead of a negative weight on -inf
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if ((v == NEG_INF) & (w < -EXT_WEIGHT_TOL)).any() and not (v == np.inf).any():
            raise ValueError("negative weight on a -inf value would produce +inf")
    return _ext_pair(w, v)


def _ext_pair(w: np.ndarray, values):
    # ext_dot of finite, non-negative float weights w (``_clean_rows``'s, not checked): only the
    # values, which cleaning does not cover, are checked, for w's shape and for +inf
    v = np.asarray(values, dtype=np.float64)
    if w.shape != v.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {v.shape}")
    if (v == np.inf).any():
        raise ValueError("+inf is not a valid extended score value")
    # weights within EXT_WEIGHT_TOL contribute exact zeros, so 0 * (-inf) never happens
    total = np.multiply(w, v, out=np.zeros(w.shape), where=np.abs(w) > EXT_WEIGHT_TOL).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _ext_gap(a, b) -> np.ndarray:
    # |a - b| over R u {-inf}: 0 where both are -inf, inf where only one is or where either is NaN
    with np.errstate(invalid="ignore"):
        gap = np.where((a == NEG_INF) | (b == NEG_INF), np.where(a == b, 0.0, np.inf), np.abs(a - b))
    return np.where(np.isnan(gap), np.inf, gap)


def _ext_log(p) -> np.ndarray:
    # log p over R u {-inf}: mass or eigenvalues at or below EXT_WEIGHT_TOL are zero, log -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.greater(p, EXT_WEIGHT_TOL), np.log(p), NEG_INF)


def _range_split(B):
    # the eigenvectors of a Hermitian PSD matrix B (or of each of a stack) and the mask of those
    # spanning its range, eigenvalues above ZERO_EIG_REL * max(trace, 1); the kernel is the rest
    if not B.any():  # no range: eigh's identity vectors, without the eigh
        return np.eye(B.shape[-1]) + np.zeros_like(B), np.zeros(B.shape[:-1], dtype=bool)
    w, V = np.linalg.eigh(B)
    return V, w > ZERO_EIG_REL * np.maximum(np.trace(B, axis1=-2, axis2=-1).real, 1.0)[..., None]


def range_projector(B) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD matrix (eigenvalues above ZERO_EIG_REL * max(trace, 1))."""
    V, on = _range_split(as_hermitian(B))
    cols = V[:, on]
    return hermitian_part(cols @ cols.conj().T)


@dataclass(frozen=True)
class ExtendedHermitian:
    """Formal pair ``finite_part - inf * infinite_part``.

    Invariants: both parts Hermitian, the infinite part PSD, and the
    product of the two parts zero (their ranges are orthogonal).
    """

    finite_part: np.ndarray
    infinite_part: np.ndarray

    def __post_init__(self):
        A = as_hermitian(self.finite_part, "finite part")
        B = as_hermitian(self.infinite_part, "infinite part")
        if A.shape != B.shape:
            raise ValueError("finite and infinite parts must share a shape")
        _require_psd(B, "infinite part")
        prod = float(np.abs(A @ B).max())
        if prod > KERNEL_PRODUCT_TOL:
            raise ValueError(f"parts do not annihilate each other: max |AB| = {prod:.3e}")
        object.__setattr__(self, "finite_part", A)
        object.__setattr__(self, "infinite_part", B)

    @classmethod
    def _unchecked(cls, A: np.ndarray, B: np.ndarray) -> "ExtendedHermitian":
        # an extended matrix the library built: A and B exactly Hermitian, B PSD, A B = 0
        E = object.__new__(cls)
        object.__setattr__(E, "finite_part", A)
        object.__setattr__(E, "infinite_part", B)
        return E

    @classmethod
    def wrap(cls, A) -> "ExtendedHermitian":
        """Purely finite extended matrix (infinite part zero); an extended one is returned as it is."""
        if isinstance(A, cls):
            return A
        A = np.asarray(A, dtype=np.complex128)
        return cls(A, np.zeros_like(A))

    @property
    def dim(self) -> int:
        return self.finite_part.shape[0]

    def is_finite(self) -> bool:
        """True when the infinite part has no range: ``range_projector`` of it is zero."""
        return not _range_split(self.infinite_part)[1].any()

    def add_scalar(self, c: float) -> "ExtendedHermitian":
        """Add c * identity, restricted to the finite subspace.

        On the infinite part's range the value stays -inf (adding a
        finite constant to -inf changes nothing), so the identity is
        compressed onto the complement before adding (a zero infinite part
        has no range, so no decomposition); (I - P) B = 0 keeps the parts
        annihilating, so the result is not re-checked.
        """
        if not np.isfinite(c):
            raise ValueError(f"c must be finite, got {c}")
        comp = np.eye(self.dim) - range_projector(self.infinite_part)
        return ExtendedHermitian._unchecked(hermitian_part(self.finite_part + c * comp), self.infinite_part)


def ext_inner(E: ExtendedHermitian, X) -> float:
    """Extended inner product <A - inf B, X> = <A, X> - inf <B, X>.

    Returns -inf when X's mass <P, X> on the range P of B is above
    EXT_WEIGHT_TOL, <A, X> when it is within EXT_WEIGHT_TOL of zero, and
    raises when it is below -EXT_WEIGHT_TOL (impossible for PSD X, so it
    signals inconsistent input).
    """
    X = as_hermitian(X)
    b = _hs(range_projector(E.infinite_part), X)
    if b > EXT_WEIGHT_TOL:
        return NEG_INF
    if b < -EXT_WEIGHT_TOL:
        raise ValueError(
            f"negative overlap {b:.3e} with the infinite part; input not PSD?"
        )
    return _hs(E.finite_part, X)


def matrix_log(rho) -> ExtendedHermitian:
    """Matrix logarithm of a density matrix as an extended Hermitian.

    The finite part carries log(lambda) on the support; the infinite
    part is the projector onto the kernel, where the log is -inf.
    """
    _, (lam, V) = _decomposed_densities(rho)
    A, B = _log_parts(lam, V)
    return ExtendedHermitian._unchecked(A[0], B[0])


def _log_parts(lam, V):
    """Finite and infinite parts of matrix_log for a stack of density matrices, given its ``_decompose``.

    The logs of the eigenvalues ``lam`` (N, n) are ``_ext_log``'s; the
    kernel is where they are -inf, and each part is one stacked product.
    """
    log, Vh = _ext_log(lam), V.conj().swapaxes(-1, -2)
    A = hermitian_part((V * np.where(log > NEG_INF, log, 0.0)[:, None, :]) @ Vh)
    return A, hermitian_part((V * (log == NEG_INF)[:, None, :]) @ Vh)


def _collapse(elements, weights) -> tuple[np.ndarray, np.ndarray]:
    """The parts (A, B) of sum_i weights_i * elements_i for an (m, n, n) stack of PSD matrices.

    Elements with a -inf weight sum into the infinite part B (+inf
    weights are rejected), and the finite part A is compressed to
    (I - P) A (I - P), P the projector onto range(B): A B = 0, and the
    value on states that give B zero mass is unchanged.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.isposinf(w).any():
        raise ValueError("+inf weights are not allowed")
    neg = np.isneginf(w)
    A = hermitian_part(np.tensordot(np.where(neg, 0.0, w), elements, axes=1))
    B = hermitian_part(elements[neg].sum(axis=0))
    if B.any():
        comp = np.eye(len(A)) - range_projector(B)
        A = hermitian_part(comp @ A @ comp)
    return A, B


def canonicalize_extended(pairs) -> ExtendedHermitian:
    """Collapse weighted PSD matrices into one extended Hermitian.

    Given pairs (A_i, alpha_i) with each A_i PSD and alpha_i in
    R u {-inf}, returns E with <E, rho> = sum_i <A_i, rho> * alpha_i for
    every density matrix rho (under the 0 * (-inf) = 0 convention).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (matrix, weight) pair")
    elements = np.stack([as_hermitian(Ai, f"pair {i}") for i, (Ai, _) in enumerate(pairs)])
    _require_psd(elements, "pair")
    A, B = _collapse(elements, [alpha for _, alpha in pairs])
    # built exactly Hermitian, A off range(B): only finiteness is checked, not |AB|, which grows with the weights
    return ExtendedHermitian._unchecked(as_hermitian(A, "finite part"), as_hermitian(B, "infinite part"))
