"""Complex Hermitian linear-algebra kernel.

Validation helpers, the Hilbert-Schmidt inner product, spectral
decomposition with a deterministic phase convention, random state
generation, and a JSON wire format for complex matrices.

All matrices are plain ``complex128`` numpy arrays, checked once, where
they enter: public functions check their inputs and pass on exactly
Hermitian arrays (``as_hermitian`` returns the Hermitian part of what it
accepts), and values the library builds itself are made exactly
Hermitian with ``hermitian_part`` and not checked again.  No function
mutates its inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "HERM_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "UNITARY_TOL",
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
    "read_wire",
]

# Tolerances shared across the package.  All are absolute unless noted.
HERM_TOL = 1e-10      # Hermitian symmetry, relative to max(1, max entry)
PSD_TOL = 1e-10       # eigenvalue floor for positive semidefiniteness
TRACE_TOL = 1e-10     # |trace - 1| bound for density matrices
UNITARY_TOL = 1e-9    # max-norm bound on U U* - I
ZERO_EIG_REL = 1e-12  # eigenvalue == 0 threshold, relative to the trace


def as_complex_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    return _finite_squares(_matrix(M, name), name)


def _matrix(M, name: str) -> np.ndarray:
    # M as a complex128 array, once it is known to be two-dimensional
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def _squares(A: np.ndarray, name: str) -> np.ndarray:
    # A, a complex128 array (..., n, n), once its matrices are known square and non-empty
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[-1] == 0:
        raise ValueError(f"{name} is empty, got shape {A.shape}")
    return A


def _finite_squares(A: np.ndarray, name: str) -> np.ndarray:
    # A, once its matrices are known square, non-empty and finite
    if not np.isfinite(_squares(A, name)).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def _label(name: str, A, i) -> str:
    # "name" for one matrix, "name i" for matrix i of a stack
    return f"{name} {i}" if A.ndim == 3 else name


def _is_int(x) -> bool:
    # a Python or numpy integer, never a bool
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _count(x, name: str, least: int, most: int | None = None, floor: str | None = None):
    """Return x as a Python int if it is an integer (``_is_int``) in least..most, else raise one ValueError naming it.

    "{name} must be at least {least}" ("an integer of at least" for a
    non-integer), or with an upper bound "{name} must be an integer in
    {least}..{most}", then "got {x!r}".  ``floor`` words the lower bound
    in place of its number.
    """
    if _is_int(x) and least <= x and (most is None or x <= most):
        return int(x)
    if most is not None:
        raise ValueError(f"{name} must be an integer in {least}..{most}, got {x!r}")
    must = "at least" if _is_int(x) else "an integer of at least"
    raise ValueError(f"{name} must be {must} {floor or least}, got {x!r}")


def as_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Validate that M is Hermitian within HERM_TOL; return its Hermitian part.

    An exactly Hermitian input is returned as it is, bit for bit.
    """
    return _hermitian(_squares(_matrix(M, name), name), name)


def _hermitian(A: np.ndarray, name: str) -> np.ndarray:
    # as_hermitian for each matrix of a square (..., n, n) array (``_squares``), each tested
    # against its own scale.  An exactly Hermitian A passes one test, A - A* == 0, which no NaN
    # or inf passes (inf - inf is NaN, computed here without a warning); the finiteness and
    # HERM_TOL tests run only when it fails, to accept the near-Hermitian or name the fault.
    with np.errstate(invalid="ignore"):
        D = A - A.conj().swapaxes(-1, -2)
    if not D.any():
        return A
    _finite_squares(A, name)
    dev = np.abs(D).max(axis=(-2, -1))
    bad = dev > HERM_TOL * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{_label(name, A, i)} is not Hermitian: max |M - M*| = {dev.flat[i]:.3e}")
    return hermitian_part(A)


def _require_psd(A, name: str, wmin=None) -> None:
    """Raise unless A, or each matrix i (named "name i") of a stack A, is PSD within PSD_TOL.

    ``wmin``, if known, is the smallest eigenvalue of A (of each matrix of a stack).
    """
    wmin = np.linalg.eigvalsh(A)[..., 0] if wmin is None else wmin
    bad = wmin < -PSD_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{_label(name, A, i)} is not PSD: min eigenvalue {wmin.flat[i]:.3e}")


def as_density(M) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within PSD_TOL, trace 1; errors name it "state"."""
    A = _unit_trace(M, "state")
    _require_psd(A, "state")
    return A


def _unit_trace(M, name: str) -> np.ndarray:
    # as_density's Hermitian and trace checks
    A = as_hermitian(M, name)
    tr = float(A.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace is {tr!r}, expected 1 within {TRACE_TOL}")
    return A


def _decomposed_densities(*states):
    # as_density of each state, for callers that decompose them anyway: the Hermitian and trace
    # checks state by state, one _decompose of their (k, n, n) stack (one shape), then the PSD
    # test of each from its eigenvalues; returns the stack and its decomposition
    A = np.array([_unit_trace(M, "state") for M in states])
    dec = _decompose(A)
    for k in range(len(A)):
        _require_psd(A[k], "state", dec.eigenvalues[k, -1])
    return A, dec


def as_unitary(M) -> np.ndarray:
    """Validate a unitary: finite, square, U U* = I within UNITARY_TOL; errors name it "unitary"."""
    U = as_complex_matrix(M, "unitary")
    dev = float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())
    if dev > UNITARY_TOL:
        raise ValueError(f"unitary is not unitary: max |UU* - I| = {dev:.3e}")
    return U


def hermitian_part(M) -> np.ndarray:
    """(M + M*) / 2, used to scrub float asymmetry off products; M may be a stack."""
    A = np.asarray(M, dtype=np.complex128)
    return (A + A.conj().swapaxes(-1, -2)) / 2


def hs_inner(A, B) -> float:
    """Hilbert-Schmidt inner product Tr(A* B) of two Hermitian matrices (``as_hermitian``) of one shape."""
    return _hs(as_hermitian(A), as_hermitian(B))


def _hs(A, B) -> float:
    # hs_inner of two Hermitian matrices (not checked), sum(conj(A) * B).real; refused unless their shapes match
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return float(np.sum(np.conjugate(A) * B).real)


def frob_dist(A, B) -> float:
    """Frobenius distance ||A - B||_F of two finite square matrices (``as_complex_matrix``) of one shape."""
    A, B = as_complex_matrix(A), as_complex_matrix(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return float(np.linalg.norm(A - B))


class SpectralDecomposition(NamedTuple):
    """Eigenvalues in non-increasing order with a matching orthonormal basis.

    ``eigenvectors[:, i]`` is the unit eigenvector for ``eigenvalues[i]``;
    the columns form a unitary matrix.  For a stack of matrices both
    fields carry the stack's leading axis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return hermitian_part((V * self.eigenvalues[..., None, :]) @ V.conj().swapaxes(-1, -2))


def _fix_phases(V: np.ndarray) -> np.ndarray:
    # Make each column's largest-magnitude component real and positive so
    # decompositions are deterministic despite the phase freedom.  The
    # columns are unit vectors, so that component is never zero.
    n = V.shape[-1]
    flat = V.reshape(-1, n, n)
    lead = flat[np.arange(len(flat))[:, None], np.argmax(np.abs(flat), axis=-2), np.arange(n)]
    return V / (lead / np.abs(lead)).reshape(V.shape[:-2] + (1, n))


def spectral_decompose(A) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, or of each matrix of a stack (N, n, n).

    Eigenvalues are sorted in non-increasing order (ties keep the
    solver's order), and every eigenvector's phase is fixed
    deterministically.  The solver's eigenvectors are orthonormal
    whatever the eigenvalue gaps, degenerate clusters included.  A stack
    is decomposed with one solver call, and each of its matrices gets
    exactly the result it would get alone.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim not in (2, 3):
        raise ValueError(f"matrix must be square or a stack of square matrices, got shape {A.shape}")
    return _decompose(_hermitian(_squares(A, "matrix"), "matrix"))


def _decompose(A: np.ndarray) -> SpectralDecomposition:
    # spectral_decompose of an exactly Hermitian matrix or stack (not checked): _eigh, then
    # ordered and phase-fixed
    n = A.shape[-1]
    w, V = _eigh(A) if A.ndim == 3 else np.linalg.eigh(A.reshape(-1, n, n))
    if (w[:, 1:] > w[:, :-1]).all():  # ascending with no exact ties: descending is the reverse
        w, V = w[:, ::-1].copy(), V[..., ::-1].copy()  # C-contiguous, as the gather below returns
    else:  # a stable descending sort keeps the solver's order within exact ties
        order = np.argsort(-w, axis=-1, kind="stable")
        w, V = np.take_along_axis(w, order, -1), np.take_along_axis(V, order[:, None, :], -1)
    return SpectralDecomposition(w.reshape(A.shape[:-1]), _fix_phases(V).reshape(A.shape))


class _Drawn(np.ndarray):
    """A read-only (N, n, n) stack of exactly Hermitian states that a sampled check drew (``_drawn``).

    It carries the raw ``np.linalg.eigh`` rows of its states, each solved
    on first need by ``_eigh``, and the outcome distributions of its
    states under the last POVM that measured it (``_measured_once``).  An
    array derived from it carries neither: a view (a slice, a part) is a
    ``_Drawn`` without rows, and what a ufunc or solver makes of it is a
    plain array, so the subclass goes no further than one step.
    """

    _solved = None

    def __array_wrap__(self, array, context=None, return_scalar=False):
        array = np.asarray(array)
        return array[()] if return_scalar else array


def _drawn(states: np.ndarray) -> _Drawn:
    # the stack states as a drawn stack, none of its rows solved yet
    D = np.asarray(states).view(_Drawn)
    D.flags.writeable = False
    D._solved, D._w, D._V = np.zeros(len(D), dtype=bool), np.empty(D.shape[:-1]), np.empty(D.shape, D.dtype)
    D._povm = D._probs = None
    return D


def _eigh(A: np.ndarray, rows=None) -> tuple:
    # np.linalg.eigh of the matrices ``rows`` (an index array; all by default) of an (N, n, n) stack,
    # eigenvalues ascending.  A drawn stack solves only the rows it has not solved before: eigh treats
    # each matrix alone, so a row is bit for bit the same whichever call solved it.  All of a drawn
    # stack's rows are its own arrays, which callers read and never write
    solved = getattr(A, "_solved", None)
    if solved is None:
        return np.linalg.eigh(A if rows is None else A[rows])
    new = np.flatnonzero(~solved) if rows is None else rows[~solved[rows]]
    if new.size == len(A):  # every row at once: the solver's own arrays, not copied
        A._w, A._V = np.linalg.eigh(A)
    elif new.size:
        A._w[new], A._V[new] = np.linalg.eigh(A[new])
    solved[new] = True
    return (A._w, A._V) if rows is None else (A._w[rows], A._V[rows])


def _measured_once(A: np.ndarray, mu, measure) -> np.ndarray:
    # measure(), the outcome distributions of the stack A under the POVM mu; a drawn stack keeps them
    # while mu is the last POVM to measure it, so the checks' scores measure it once per POVM
    if getattr(A, "_solved", None) is None:
        return measure()
    if A._povm is not mu:
        A._povm, A._probs = mu, measure()
    return A._probs


def eigenvalues_desc(A) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in non-increasing order."""
    return np.linalg.eigvalsh(as_hermitian(A))[::-1].copy()


def _log_sum_exp(w: np.ndarray) -> np.ndarray:
    # log sum exp over the last axis of ascending eigenvalues (or a stack of them), less the largest before exp
    top = w[..., -1]
    return top + np.log(np.sum(np.exp(w - top[..., None]), axis=-1))


def _complex_gaussian(shape, rng) -> np.ndarray:
    # real parts, then imaginary parts, each a standard normal draw: the
    # values of rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def random_density(n: int, rank: int | None = None, rng=None) -> np.ndarray:
    """Random density matrix rho = G G* / Tr(G G*), G complex Gaussian n x rank.

    With rank = n this samples from the Hilbert-Schmidt-type ensemble;
    smaller ranks produce rank-deficient states almost surely.
    """
    _count(n, "n", 1)
    rank = n if rank is None else _count(rank, "rank", 1, n)
    rng = np.random.default_rng(rng)
    return _densities(_complex_gaussian((n, rank), rng)[None])[0]


def _densities(G: np.ndarray) -> np.ndarray:
    # G G* / Tr(G G*) for each matrix of a stack G of complex Gaussian draws;
    # each equals what random_density makes of it alone
    M = G @ G.conj().swapaxes(-1, -2)
    return hermitian_part(M / np.trace(M, axis1=-2, axis2=-1).real[:, None, None])


def random_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-type random unitary via QR of a complex Gaussian matrix."""
    _count(n, "n", 1)
    rng = np.random.default_rng(rng)
    return _unitaries(_complex_gaussian((n, n), rng)[None])[0]


def _unitaries(Z: np.ndarray) -> np.ndarray:
    # random_unitary of each matrix of a stack Z of complex Gaussian draws, with one QR call
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[:, None, :]


def random_pure(n: int, rng=None) -> np.ndarray:
    """Random unit vector (normalized complex Gaussian)."""
    _count(n, "n", 1)
    rng = np.random.default_rng(rng)
    v = _complex_gaussian(n, rng)
    return v / np.linalg.norm(v)


def random_hermitian(n: int, rng=None) -> np.ndarray:
    """Random Hermitian matrix (GUE-type, entries O(1))."""
    _count(n, "n", 1)
    rng = np.random.default_rng(rng)
    return hermitian_part(_complex_gaussian((n, n), rng))


def matrix_to_json(M) -> dict:
    """Wire format {"dim": n, "re": [[...]], "im": [[...]]}, row-major floats."""
    A = as_complex_matrix(M)
    return {
        "dim": int(A.shape[0]),
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }


def _wire_dim(raw) -> int:
    # the "dim" of wire JSON: an integer (an integral float too), never a bool
    if isinstance(raw, bool) or not (isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()):
        raise TypeError(f"dim must be an integer, got {raw!r}")
    return int(raw)


def _field(obj: dict, key: str):
    # obj[key] of a wire document, whose absence is named as a missing key
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    return obj[key]


def _wire_numbers(obj: dict, key: str) -> np.ndarray:
    # the rows under ``key``: every row as long as the first, every entry a JSON number (never a
    # bool, string, null or list), so numpy never meets a ragged array; a bare number or a flat
    # list passes here and fails the caller's shape test
    raw = _field(obj, key)
    rows = raw if isinstance(raw, list) else [raw]

    def size(row):
        return f"{len(row)} entries" if isinstance(row, list) else "one number"

    for i, row in enumerate(rows):
        if size(row) != size(rows[0]):
            raise TypeError(f"{key} row {i} has {size(row)}, expected {size(rows[0])}")
        for x in row if isinstance(row, list) else [row]:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise TypeError(f"{key} entry {x!r} is not a number")
    return np.asarray(raw, dtype=np.float64)


def matrix_from_json(obj) -> np.ndarray:
    """Read the wire format of ``matrix_to_json``; an entry must be a JSON number."""
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON must be an object with dim, re, im, got {type(obj).__name__}")
    try:
        dim = _wire_dim(_field(obj, "dim"))
        re = _wire_numbers(obj, "re")
        im = _wire_numbers(obj, "im")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix JSON shape mismatch: dim={dim}, re {re.shape}, im {im.shape}"
        )
    return as_complex_matrix(re + 1j * im)


def density_from_json(obj) -> np.ndarray:
    """Load a matrix from JSON and validate it as a density matrix."""
    return as_density(matrix_from_json(obj))


def read_wire(obj, kind: str, *keys: str) -> tuple:
    """Read a wire document ``obj``: its integer "dim", then the matrices under ``keys``.

    A key ending in "s" ("elements", "trades") holds a JSON list of
    matrices, the i-th named "element i", "trade i", and a missing one is
    empty; any other key ("truth") holds one matrix, named by its key.
    Every matrix must be dim x dim, and its errors begin with its name.
    Returns ``(dim, *values)``, one value per key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} JSON must be an object with dim, {', '.join(keys)}, got {type(obj).__name__}")
    try:
        dim = _wire_dim(_field(obj, "dim"))
        values = [obj.get(key, []) if key.endswith("s") else _field(obj, key) for key in keys]
        for key, value in zip(keys, values):
            if key.endswith("s") and not isinstance(value, list):
                raise TypeError(f"{key} must be a JSON list, got {type(value).__name__}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind}: {exc}") from exc

    def read(label, raw):
        try:
            M = matrix_from_json(raw)
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from exc
        if M.shape[0] != dim:
            raise ValueError(f"{label} has dimension {M.shape[0]}, but the {kind} dim is {dim}")
        return M

    return (dim, *[
        [read(f"{key[:-1]} {i}", m) for i, m in enumerate(value)] if key.endswith("s") else read(key, value)
        for key, value in zip(keys, values)
    ])
