"""Complex Hermitian linear-algebra kernel.

Validation helpers, the Hilbert-Schmidt inner product, spectral
decomposition with a deterministic phase convention, random state
generation, and a JSON wire format for complex matrices.

All matrices are plain ``complex128`` numpy arrays.  Functions validate
their inputs on entry and never mutate them; everything returned is safe
to share between threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "HERM_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "UNITARY_TOL",
    "CLUSTER_TOL",
    "ZERO_EIG_REL",
    "as_complex_matrix",
    "as_hermitian",
    "as_density",
    "as_unitary",
    "hermitian_part",
    "hs_inner",
    "frob_dist",
    "SpectralDecomposition",
    "spectral_decompose",
    "eigenvalues_desc",
    "random_density",
    "random_unitary",
    "random_pure",
    "random_hermitian",
    "matrix_to_json",
    "matrix_from_json",
    "density_from_json",
]

# Tolerances shared across the package.  All are absolute unless noted.
HERM_TOL = 1e-10      # Hermitian symmetry, relative to max(1, max entry)
PSD_TOL = 1e-10       # eigenvalue floor for positive semidefiniteness
TRACE_TOL = 1e-10     # |trace - 1| bound for density matrices
UNITARY_TOL = 1e-9    # max-norm bound on U U* - I
CLUSTER_TOL = 1e-9    # eigenvalue gap below which a degenerate cluster is assumed
ZERO_EIG_REL = 1e-12  # eigenvalue == 0 threshold, relative to the trace


def as_complex_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def as_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Validate that M is Hermitian within HERM_TOL and return it."""
    A = as_complex_matrix(M, name)
    scale = max(1.0, float(np.abs(A).max())) if A.size else 1.0
    dev = float(np.abs(A - A.conj().T).max()) if A.size else 0.0
    if dev > HERM_TOL * scale:
        raise ValueError(f"{name} is not Hermitian: max |M - M*| = {dev:.3e}")
    return A


def as_density(M, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within PSD_TOL, trace 1."""
    A = as_hermitian(M, name)
    tr = float(np.trace(A).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace is {tr!r}, expected 1 within {TRACE_TOL}")
    wmin = float(np.linalg.eigvalsh(A)[0])
    if wmin < -PSD_TOL:
        raise ValueError(f"{name} is not PSD: min eigenvalue {wmin:.3e}")
    return A


def as_unitary(M, name: str = "unitary") -> np.ndarray:
    U = as_complex_matrix(M, name)
    dev = float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())
    if dev > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: max |UU* - I| = {dev:.3e}")
    return U


def hermitian_part(M) -> np.ndarray:
    """(M + M*) / 2, used to scrub float asymmetry off products; M may be a stack."""
    A = np.asarray(M, dtype=np.complex128)
    return (A + A.conj().swapaxes(-1, -2)) / 2


def hs_inner(A, B) -> float:
    """Hilbert-Schmidt inner product Tr(A* B), real for Hermitian inputs.

    Computed elementwise as sum(conj(A) * B).  Raises if the imaginary
    residual exceeds the float-noise budget, which indicates that the
    inputs were not actually Hermitian.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    val = np.sum(np.conjugate(A) * B)
    scale = max(1.0, abs(float(val.real)))
    if abs(float(val.imag)) > 1e-12 * scale:
        raise ValueError(
            f"inner product has imaginary residual {val.imag:.3e}; inputs not Hermitian?"
        )
    return float(val.real)


def frob_dist(A, B) -> float:
    """Frobenius distance ||A - B||_F."""
    return float(np.linalg.norm(np.asarray(A) - np.asarray(B)))


class SpectralDecomposition(NamedTuple):
    """Eigenvalues in non-increasing order with a matching orthonormal basis.

    ``eigenvectors[:, i]`` is the unit eigenvector for ``eigenvalues[i]``;
    the columns form a unitary matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return hermitian_part((V * self.eigenvalues) @ V.conj().T)


def _fix_phases(V: np.ndarray) -> np.ndarray:
    # Make each column's largest-magnitude component real and positive so
    # decompositions are deterministic despite the phase freedom.
    idx = np.argmax(np.abs(V), axis=0)
    lead = V[idx, np.arange(V.shape[1])]
    mag = np.abs(lead)
    phases = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return V / phases


def spectral_decompose(A) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues are sorted in non-increasing order (ties keep the
    solver's order); eigenvectors within a near-degenerate cluster
    (gap <= CLUSTER_TOL) are re-orthonormalized together, and every
    eigenvector's phase is fixed deterministically.
    """
    A = as_hermitian(A)
    w, V = np.linalg.eigh(A)
    order = np.argsort(-w, kind="stable")
    w = np.ascontiguousarray(w[order])
    V = np.ascontiguousarray(V[:, order])

    n = len(w)
    start = 0
    for stop in range(1, n + 1):
        if stop == n or w[stop - 1] - w[stop] > CLUSTER_TOL:
            if stop - start > 1:
                Q, _ = np.linalg.qr(V[:, start:stop])
                V[:, start:stop] = Q
            start = stop
    V = _fix_phases(V)
    return SpectralDecomposition(w, V)


def eigenvalues_desc(A) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in non-increasing order."""
    return np.linalg.eigvalsh(as_hermitian(A))[::-1].copy()


def _complex_gaussian(shape, rng) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_density(n: int, rank: int | None = None, rng=None) -> np.ndarray:
    """Random density matrix rho = G G* / Tr(G G*), G complex Gaussian n x rank.

    With rank = n this samples from the Hilbert-Schmidt-type ensemble;
    smaller ranks produce rank-deficient states almost surely.
    """
    rng = np.random.default_rng(rng)
    if rank is None:
        rank = n
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in 1..{n}, got {rank}")
    G = _complex_gaussian((n, rank), rng)
    M = G @ G.conj().T
    return hermitian_part(M / np.trace(M).real)


def random_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-type random unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(rng)
    Q, R = np.linalg.qr(_complex_gaussian((n, n), rng))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_pure(n: int, rng=None) -> np.ndarray:
    """Random unit vector (normalized complex Gaussian)."""
    rng = np.random.default_rng(rng)
    v = _complex_gaussian(n, rng)
    return v / np.linalg.norm(v)


def random_hermitian(n: int, rng=None, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix (GUE-type, entries O(scale))."""
    rng = np.random.default_rng(rng)
    return hermitian_part(scale * _complex_gaussian((n, n), rng))


def matrix_to_json(M) -> dict:
    """Wire format {"dim": n, "re": [[...]], "im": [[...]]}, row-major floats."""
    A = as_complex_matrix(M)
    return {
        "dim": int(A.shape[0]),
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix JSON shape mismatch: dim={dim}, re {re.shape}, im {im.shape}"
        )
    return as_complex_matrix(re + 1j * im)


def density_from_json(obj) -> np.ndarray:
    """Load a matrix from JSON and validate it as a density matrix."""
    return as_density(matrix_from_json(obj))
