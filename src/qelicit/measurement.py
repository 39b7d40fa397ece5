"""POVMs, measurement simulation, and tomographic structure.

A measurement is an ordered list of PSD matrices summing to the
identity; applying it to a state produces the outcome distribution
p_y = <mu_y, rho>.  Tomographic completeness (elements spanning the
real space of Hermitian matrices) is what makes that map injective;
``tomographic_map`` exposes the map and its pseudoinverse in a fixed
real coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import PROB_CLIP, _clean_rows
from .linalg import (
    PSD_TOL,
    TRACE_TOL,
    _count,
    _hermitian,
    _measured_once,
    _squares,
    _require_psd,
    as_density,
    as_hermitian,
    as_unitary,
    hermitian_part,
    matrix_to_json,
    read_wire,
)

__all__ = [
    "POVM_SUM_TOL",
    "PVM_TOL",
    "COMPLETENESS_RTOL",
    "Measurement",
    "apply_measurement",
    "sample_outcome",
    "sample_outcomes",
    "basis_pvm",
    "standard_pvm",
    "hadamard_pvm",
    "is_pvm",
    "herm_coords",
    "is_tomographically_complete",
    "canonical_complete",
    "TomographicMap",
    "tomographic_map",
]

POVM_SUM_TOL = 1e-9       # max-norm bound on sum(mu_y) - I
PVM_TOL = 1e-8            # idempotence / orthogonality bound for PVMs
COMPLETENESS_RTOL = 1e-8  # singular values at or below rtol * largest count as zero, for rank and pseudoinverse


def _measured_rows(P, n: int) -> np.ndarray:
    """``_clean_rows`` of an (N, m) stack of outcome distributions of n x n states.

    For a state that ``as_density`` accepts, measured with a POVM that
    ``Measurement`` accepts (or the {I - r, r} of such a state r), each
    probability is at least -2 (TRACE_TOL + n PSD_TOL) and the clipped
    distribution sums to 1 within TRACE_TOL + 2 n POVM_SUM_TOL + m times
    that clip, for any n and m outcomes with n POVM_SUM_TOL + m PSD_TOL
    <= 1.  Both bounds add a plain vector's (PROB_CLIP and 1e-10) for
    rounding.
    """
    clip = PROB_CLIP + 2.0 * (TRACE_TOL + n * PSD_TOL)
    return _clean_rows(P, clip, 1e-10 + TRACE_TOL + 2.0 * n * POVM_SUM_TOL + P.shape[-1] * clip)


class Measurement:
    """POVM: ordered PSD elements over outcomes 0..len-1, summing to I.

    ``elements`` is one read-only ``(m, n, n)`` complex array holding the
    m elements in outcome order; indexing, iteration and ``len`` run over
    its first axis.  Each element is validated and stored as its exactly
    Hermitian part; POVMs the library builds come from ``_unchecked``.
    The first ``_products`` call keeps the elements as the real (n^2, m)
    matrix ``_folded`` of their ``_fold``, which it pairs with states.
    """

    __slots__ = ("elements", "_folded")

    def __init__(self, elements):
        elements = list(elements)
        if not elements:
            raise ValueError("a measurement needs at least one element")
        for i, e in enumerate(elements):
            if np.shape(e) != np.shape(elements[0]):
                raise ValueError(f"element {i} has shape {np.shape(e)}, expected {np.shape(elements[0])}")
        elems = np.stack([as_hermitian(e, f"element {i}") for i, e in enumerate(elements)])
        _require_psd(elems, "element")
        dev = float(np.abs(elems.sum(axis=0) - np.eye(elems.shape[1])).max())
        if dev > POVM_SUM_TOL:
            raise ValueError(f"elements do not sum to identity: max deviation {dev:.3e}")
        elems.flags.writeable = False
        self.elements, self._folded = elems, None

    @classmethod
    def _unchecked(cls, elems: np.ndarray) -> "Measurement":
        # a POVM the library built: a fresh complex (m, n, n) stack of Hermitian PSD elements summing to I
        mu = object.__new__(cls)
        elems = np.ascontiguousarray(elems)
        elems.flags.writeable = False
        mu.elements, mu._folded = elems, None
        return mu

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, y: int) -> np.ndarray:
        return self.elements[y]

    def __iter__(self):
        return iter(self.elements)

    def _probs(self, states: np.ndarray) -> np.ndarray:
        # (N, m) outcome distributions of an (N, n, n) stack of exactly Hermitian states, each
        # measured with this POVM (a drawn stack once, ``_measured_once``)
        return _measured_once(states, self, lambda: _measured_rows(self._products(states), self.dim))

    def _products(self, X: np.ndarray) -> np.ndarray:
        # the (N, m) raw <mu_y, X_k> of an (N, n, n) stack of Hermitian matrices: one product of
        # _fold(X_k) with ``_folded`` per matrix, so a matrix's row does not depend on the stack it is in
        _same_dim(X.shape[-1], self.dim)
        if self._folded is None:
            self._folded = _fold(self.elements).T
        return (_fold(X)[:, None] @ self._folded)[:, 0]

    def _at(self, k: int) -> "Measurement":
        # the POVM of report k of a stack: the same one for every report
        return self

    def approx_equal(self, other: "Measurement") -> bool:
        """True iff the two element stacks share a shape and differ by at most 1e-9 in each entry."""
        if self.elements.shape != other.elements.shape:
            return False
        return float(np.abs(self.elements - other.elements).max()) <= 1e-9

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "elements": [matrix_to_json(e) for e in self.elements],
        }

    @classmethod
    def from_json(cls, obj) -> "Measurement":
        """Load the wire format {"dim": n, "elements": [matrix, ...]}, each element n x n."""
        return cls(read_wire(obj, "measurement", "elements")[1])


def _same_dim(n: int, dim: int) -> None:
    # refuse matrices of dimension n against a measurement of dimension dim
    if n != dim:
        raise ValueError(f"dimension mismatch: state {n}, measurement {dim}")


def _fold(X: np.ndarray) -> np.ndarray:
    # Re X + Im X of Hermitian (..., n, n) matrices (a real stack taken as it is), flattened to n^2: <A, B> =
    # fold(A) . fold(B), as the cross terms pair a symmetric real part with an antisymmetric imaginary
    # part and cancel, and every real n x n matrix is the fold of one Hermitian matrix
    F = X.real + X.imag if X.dtype.kind == "c" else X
    return F.reshape(*X.shape[:-2], X.shape[-1] * X.shape[-1])


def apply_measurement(mu: Measurement, rho) -> np.ndarray:
    """Outcome distribution p_y = <mu_y, rho> of a validated state, cleaned of float noise."""
    return mu._probs(as_density(rho)[None])[0]


def sample_outcome(mu: Measurement, rho, rng=None) -> int:
    """Draw one outcome: the single draw of ``sample_outcomes``."""
    return int(sample_outcomes(mu, rho, 1, rng)[0])


def sample_outcomes(mu: Measurement, rho, size: int, rng=None) -> np.ndarray:
    """Vectorized inverse-CDF sampling of many outcomes at once."""
    cum = np.cumsum(apply_measurement(mu, rho))
    idx = np.searchsorted(cum, np.random.default_rng(rng).random(_count(size, "size", 0)), side="right")
    return np.minimum(idx, len(cum) - 1).astype(np.int64)


def basis_pvm(U) -> Measurement:
    """Rank-1 projective measurement onto the columns of a unitary."""
    return _basis_pvm(as_unitary(U))


def _basis_pvm(U) -> Measurement:
    # rank-1 projectors u_k u_k* onto the columns of a unitary the library built (not checked)
    return Measurement._unchecked(np.einsum("ik,jk->kij", U, U.conj()))


class _Bases:
    """Eigenbasis measurements of a stack of reports, kept as their bases.

    Outcome y of report k projects onto column y of ``bases[k]``, so the
    outcome distribution of a state rho is diag(U* rho U); the (N, n, n, n)
    stack of projectors is never formed.  ``_probs`` takes states of the
    bases' dimension, not checked: ``expected_stack`` refuses any other.
    """

    __slots__ = ("bases",)

    def __init__(self, bases: np.ndarray):
        self.bases = bases

    def _probs(self, states: np.ndarray) -> np.ndarray:
        U = self.bases
        return _measured_rows((U.conj() * (states @ U)).real.sum(axis=-2), U.shape[-1])

    def _at(self, k: int) -> Measurement:
        return _basis_pvm(self.bases[k])


def standard_pvm(n: int) -> Measurement:
    return basis_pvm(np.eye(_count(n, "n", 1)))


def hadamard_pvm() -> Measurement:
    """Qubit measurement in the basis (1, 1)/sqrt(2), (1, -1)/sqrt(2)."""
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return basis_pvm(H)


def is_pvm(mu: Measurement) -> bool:
    """True iff every element is a projector and distinct elements are orthogonal."""
    for i, e in enumerate(mu):
        if float(np.abs(e @ e - e).max()) > PVM_TOL:
            return False
        for j in range(i + 1, len(mu)):
            if float(np.abs(e @ mu[j]).max()) > PVM_TOL:
                return False
    return True


def herm_coords(X) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each of an (..., n, n) stack, in a fixed orthonormal basis.

    The fold basis: the n^2 entries of Re X + Im X in row-major order.
    Entry (j, k) is <B_jk, X> for B_jj = E_jj and, for j != k, B_jk =
    (E_jk + E_kj)/2 + i(E_jk - E_kj)/2.  The map is an isometry onto
    R^(n^2): <X, Y> = coords(X) . coords(Y).
    """
    X = np.asarray(X, dtype=np.complex128)
    return _fold(_hermitian(_squares(X, "matrix"), "matrix"))


def is_tomographically_complete(mu: Measurement) -> bool:
    """True iff the elements span the real space of Hermitian matrices: rank n^2 at COMPLETENESS_RTOL."""
    return tomographic_map(mu).rank == mu.dim**2


def canonical_complete(n: int) -> Measurement:
    """A tomographically complete POVM with exactly n^2 outcomes.

    Builds n^2 rank-1 PSD matrices spanning the Hermitian space (basis
    projectors plus symmetric and phased pair states), then normalizes
    by congruence with T^(-1/2) where T is their sum.  The congruence is
    a linear bijection on Hermitian matrices, so the span is preserved.
    """
    eye = np.eye(_count(n, "n", 1), dtype=np.complex128)
    j, k = np.triu_indices(n, k=1)
    pairs = np.stack([eye[j] + eye[k], eye[j] + 1j * eye[k]], axis=1).reshape(-1, n) / np.sqrt(2.0)
    vecs = np.concatenate([eye, pairs])  # row i: the vector of element i, before normalizing
    w, V = np.linalg.eigh(hermitian_part(vecs.T @ vecs.conj()))  # T includes the basis projectors, so T >= I
    W = vecs @ ((V / np.sqrt(w)) @ V.conj().T).T  # row i: T^(-1/2) vecs[i]
    return Measurement._unchecked(hermitian_part(W[:, :, None] * W.conj()[:, None, :]))


@dataclass(frozen=True)
class TomographicMap:
    """The linear map from states to outcome probabilities, with pseudoinverse.

    ``matrix`` has one row per outcome holding the real coordinates of
    that element; ``pinv`` is its Moore-Penrose pseudoinverse and ``rank``
    its rank, both cut at COMPLETENESS_RTOL, and a complete measurement
    has rank n^2.  So ``pinv @ matrix`` is the identity on Hermitian
    coordinates exactly when the measurement is complete, and then
    ``reconstruct`` inverts ``probs``.  These three maps translate between
    the two settings: a property of states is one of outcome laws through
    ``reconstruct``, an outcome-space identification function v pulls back
    to states as ``adjoint(v)``, and a state-space one V pushes to
    outcomes as ``pinv_adjoint(V)``.
    """

    measurement: Measurement
    matrix: np.ndarray
    pinv: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.measurement.dim

    def probs(self, X) -> np.ndarray:
        """Raw linear image <mu, X> of a Hermitian matrix (no clipping; X need not be a state), as ``_probs`` forms it."""
        return self.measurement._products(as_hermitian(X)[None])[0]

    def reconstruct(self, p) -> np.ndarray:
        """Lift an outcome vector back to a Hermitian matrix via the pseudoinverse."""
        F = (self.pinv @ self._outcomes(p, (1,))).reshape(self.dim, self.dim)
        return (F + F.T) / 2 + 0.5j * (F - F.T)

    def adjoint(self, v) -> np.ndarray:
        """Adjoint map: an outcome-weight vector to sum_y v_y mu_y, or a (k, m) stack of them to k matrices."""
        return hermitian_part(np.tensordot(self._outcomes(v, (1, 2)), self.measurement.elements, axes=1))

    def pinv_adjoint(self, X) -> np.ndarray:
        """Adjoint of the pseudoinverse: a Hermitian matrix, or each of a stack, to an outcome vector."""
        coords = herm_coords(X)
        _same_dim(np.shape(X)[-1], self.dim)
        return coords @ self.pinv

    def _outcomes(self, v, ndims: tuple) -> np.ndarray:
        # v as float64 values of the m outcomes, all finite: one vector (ndims (1,)), or also a (k, m) stack (1, 2)
        v, m = np.asarray(v, dtype=np.float64), len(self.measurement)
        if v.ndim not in ndims or v.shape[-1] != m:
            raise ValueError(f"expected {m} outcome values")
        if not np.isfinite(v).all():
            raise ValueError("outcome values must be finite")
        return v


def tomographic_map(mu: Measurement) -> TomographicMap:
    """The map of ``mu``, with its pseudoinverse and rank from one SVD, cut as ``np.linalg.pinv`` cuts."""
    phi = _fold(mu.elements)
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    large = s > COMPLETENESS_RTOL * s.max()
    inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return TomographicMap(mu, phi, vt.T @ (inv[:, None] * u.T), int(large.sum()))
