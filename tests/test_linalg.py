import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qelicit as q
from qelicit.classical import is_permutation_invariant
from qelicit.linalg import (
    _decompose,
    _drawn,
    _eigh,
    _fix_phases,
    as_density,
    as_hermitian,
    as_unitary,
    density_from_json,
    eigenvalues_desc,
    frob_dist,
    hs_inner,
    matrix_from_json,
    matrix_to_json,
    random_density,
    random_hermitian,
    random_pure,
    random_unitary,
    read_wire,
    spectral_decompose,
)
from qelicit.measurement import herm_coords
from qelicit.properties import (
    find_level_set_witness,
    optimize_eigen_pair,
    optimize_top_eigenvector,
    optimize_weighted_basis,
)
from qelicit.registry import make_property, make_score, run_verify, run_witness


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            as_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_hermitian([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match=r"^state trace is 2\.0, expected 1 within 1e-10$"):
            as_density(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match=r"^state is not PSD: min eigenvalue -5\.000e-01$"):
            as_density(np.diag([1.5, -0.5]))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match=r"^unitary is not unitary: max \|UU\* - I\| = 3\.000e\+00$"):
            as_unitary(np.diag([1.0, 2.0]))


class TestHsInner:
    def test_identity_vs_density_is_trace(self, rng):
        for n in (2, 3, 5):
            rho = random_density(n, rng=rng)
            assert hs_inner(np.eye(n), rho) == pytest.approx(1.0, abs=1e-12)

    def test_example_state_standard_projector(self, rho_example):
        proj = np.diag([1.0, 0.0]).astype(complex)
        assert hs_inner(proj, rho_example) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_matches_elementwise_sum(self, rng):
        A = random_hermitian(3, rng=rng)
        B = random_hermitian(3, rng=rng)
        direct = np.sum(np.conj(A) * B).real
        assert hs_inner(A, B) == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_inner(np.eye(2), np.eye(3))

    def test_psd_pairs_nonnegative(self, rng):
        for _ in range(200):
            A = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
            B = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
            assert hs_inner(A, B) >= -1e-10

    def test_zero_inner_product_means_zero_product(self, rng):
        # build B on A's kernel: <A, B> ~ 0 and A @ B ~ 0
        for _ in range(50):
            A = random_density(4, rank=2, rng=rng)
            kernel = spectral_decompose(A).eigenvectors[:, 2:]
            G = kernel @ (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            B = G @ G.conj().T
            B = B / np.trace(B).real
            assert abs(hs_inner(A, B)) <= 1e-12 or np.abs(A @ B).max() > 1e-8
            if abs(hs_inner(A, B)) <= 1e-12:
                assert np.abs(A @ B).max() <= 1e-8


class TestTraceInequality:
    def test_upper_bound_and_shared_basis_equality(self, rng):
        # <A, B> <= <lambda(A), lambda(B)>, tight when B reuses A's eigenbasis
        for _ in range(500):
            n = int(rng.integers(2, 7))
            A = random_hermitian(n, rng=rng)
            B = random_hermitian(n, rng=rng)
            bound = eigenvalues_desc(A) @ eigenvalues_desc(B)
            assert hs_inner(A, B) <= bound + 1e-9
            V = spectral_decompose(A).eigenvectors
            lamB = eigenvalues_desc(B)
            shared = (V * lamB) @ V.conj().T
            assert hs_inner(A, shared) == pytest.approx(
                eigenvalues_desc(A) @ lamB, abs=1e-8
            )


class TestSpectralDecompose:
    def test_diagonal_reordering(self):
        dec = spectral_decompose(np.diag([0.25, 0.75]))
        assert np.allclose(dec.eigenvalues, [0.75, 0.25])
        assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [0.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [1.0, 0.0], atol=1e-12)

    def test_example_state_characteristic_roots(self, rho_example):
        # roots of t^2 - t + 1/9, independent of the eigensolver
        disc = np.sqrt(1.0 - 4.0 / 9.0)
        expected = np.array([(1 + disc) / 2, (1 - disc) / 2])
        assert np.allclose(spectral_decompose(rho_example).eigenvalues, expected, atol=1e-12)

    def test_reconstruction(self, rng):
        for n in (2, 4, 6):
            A = random_hermitian(n, rng=rng)
            dec = spectral_decompose(A)
            assert frob_dist(dec.reconstruct(), A) <= 1e-8

    def test_orthonormal_columns(self, rng):
        V = spectral_decompose(random_hermitian(5, rng=rng)).eigenvectors
        assert np.abs(V.conj().T @ V - np.eye(5)).max() <= 1e-9

    def test_eigenvalues_invariant_under_conjugation(self, rng):
        A = random_hermitian(4, rng=rng)
        U = random_unitary(4, rng=rng)
        rotated = U @ A @ U.conj().T
        assert np.allclose(
            eigenvalues_desc(A), eigenvalues_desc((rotated + rotated.conj().T) / 2), atol=1e-8
        )

    def test_phase_convention_is_deterministic(self, rng):
        A = random_hermitian(4, rng=rng)
        V1 = spectral_decompose(A).eigenvectors
        V2 = spectral_decompose(A.copy()).eigenvectors
        assert np.array_equal(V1, V2)
        idx = np.argmax(np.abs(V1), axis=0)
        lead = V1[idx, np.arange(4)]
        assert np.abs(lead.imag).max() <= 1e-12
        assert (lead.real > 0).all()

    def test_degenerate_spectrum_reconstructs(self):
        A = np.diag([0.5, 0.5, 0.0]).astype(complex)
        dec = spectral_decompose(A)
        assert frob_dist(dec.reconstruct(), A) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("kind", ["repeated", "rank-deficient", "near-pair", "maximally-mixed"])
    def test_degenerate_spectra(self, rng, n, kind):
        # the solver's eigenvectors must stay orthonormal and phase-fixed where
        # eigenvalues repeat, vanish, or sit 1e-11 apart
        U = random_unitary(n, rng=rng)
        if kind == "repeated":
            w = rng.choice([-1.5, 0.25, 2.0], size=n - 1)
            w = np.append(w, w[0])
            A = (U * w) @ U.conj().T
        elif kind == "rank-deficient":
            A = random_density(n, rank=max(1, n // 3), rng=rng)
        elif kind == "near-pair":
            w = rng.uniform(-2.0, 2.0, size=n)
            w[1] = w[0] + 1e-11
            A = (U * w) @ U.conj().T
        else:
            A = np.eye(n, dtype=complex) / n
        A = (A + A.conj().T) / 2
        dec = spectral_decompose(A)
        V = dec.eigenvectors
        assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-12
        assert np.abs(dec.reconstruct() - A).max() <= 1e-12
        assert (np.diff(dec.eigenvalues) <= 0).all()
        lead = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
        assert np.abs(lead.imag).max() <= 1e-12
        assert (lead.real > 0).all()
        assert np.array_equal(V, spectral_decompose(A.copy()).eigenvectors)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_matrix_is_named(self, shape):
        with pytest.raises(ValueError, match=r"matrix is empty, got shape \(.*0, 0\)"):
            spectral_decompose(np.zeros(shape))

    def test_an_empty_stack_is_valid(self):
        # no matrices of a valid size: empty results, where a 0x0 matrix is refused
        stack = np.zeros((0, 3, 3))
        assert herm_coords(stack).shape == (0, 9)
        dec = spectral_decompose(stack)
        assert dec.eigenvalues.shape == (0, 3) and dec.eigenvalues.dtype == np.float64
        assert dec.eigenvectors.shape == (0, 3, 3) and dec.eigenvectors.dtype == np.complex128


class TestDrawnStack:
    def _stack(self, n=5):
        g = np.random.default_rng(n)
        return np.array([random_density(n, rank=1 + k % n, rng=g) for k in range(9)])

    def test_a_stack_solved_in_two_parts_equals_one_eigh_call(self):
        A = self._stack()
        D = _drawn(A.copy())
        part, rest = np.array([1, 4, 6]), np.array([0, 2, 3, 5, 7, 8])
        w, V = np.linalg.eigh(A)
        for rows in (part, rest, None):
            got = _eigh(D, rows)
            want = (w, V) if rows is None else (w[rows], V[rows])
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
        assert _decompose(D).eigenvectors.tobytes() == _decompose(A).eigenvectors.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(_eigh(_drawn(A.copy())), (w, V)))  # all at once

    def test_a_drawn_stack_solves_each_row_once(self, monkeypatch):
        D, sizes = _drawn(self._stack()), []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: sizes.append(len(A)) or real(A))
        _eigh(D, np.array([2, 3]))
        _decompose(D)
        _decompose(D)
        assert sizes == [2, 7]

    def test_a_drawn_stack_is_read_only_and_what_derives_from_it_carries_no_rows(self, monkeypatch):
        D = _drawn(self._stack())
        with pytest.raises(ValueError, match="read-only"):
            D[0, 0, 0] = 1.0
        sizes, real = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: sizes.append(len(A)) or real(A))
        _decompose(D)
        for derived in (D[:4], 2.0 * D, D.copy()):
            _decompose(derived)
        assert sizes == [9, 4, 9, 9]


def _stable_descending(A):
    # eigh, a stable descending sort of every row, then the phase fix
    n = A.shape[-1]
    w, V = np.linalg.eigh(A.reshape(-1, n, n))
    order = np.argsort(-w, axis=-1, kind="stable")
    w, V = np.take_along_axis(w, order, -1), np.take_along_axis(V, order[:, None, :], -1)
    return w.reshape(A.shape[:-1]), _fix_phases(V).reshape(A.shape)


class TestDecomposeOrder:
    """Without exact ties _decompose reverses eigh's ascending order; with them it sorts stably."""

    CASES = {
        "full rank": (random_density(4, rng=3), False),
        "rank 2": (random_density(4, rank=2, rng=4), False),
        "maximally mixed": (np.eye(3, dtype=complex) / 3, True),
        "diag(0.5, 0.25, 0.25)": (np.diag([0.5, 0.25, 0.25]).astype(complex), True),
        "diag(1, -1, 1)": (np.diag([1.0, -1.0, 1.0]).astype(complex), True),
        "untied stack": (np.stack([random_density(3, rng=s) for s in range(4)]), False),
        "tied and untied stack": (np.stack([random_density(3, rng=5), np.eye(3) / 3,
                                            np.diag([0.5, 0.25, 0.25]), random_density(3, rank=2, rng=6)]), True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_stable_descending_sort_bit_for_bit(self, case, monkeypatch):
        A, tied = self.CASES[case]
        gathers = []
        real = np.take_along_axis
        monkeypatch.setattr(np, "take_along_axis", lambda *args: gathers.append(1) or real(*args))
        lam, V = _decompose(A)
        monkeypatch.undo()
        want_lam, want_V = _stable_descending(A)
        assert np.array_equal(lam, want_lam)
        assert np.array_equal(V, want_V)
        assert bool(gathers) == tied  # the gather runs only where some row has an exact tie
        assert lam.flags.c_contiguous and V.flags.c_contiguous


class TestRandomStates:
    def test_rank_one_is_pure(self, rng):
        rho = random_density(4, rank=1, rng=rng)
        lam = eigenvalues_desc(rho)
        assert lam[0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(lam[1:]).max() <= 1e-10

    def test_full_rank_has_positive_spectrum(self, rng):
        lam = eigenvalues_desc(random_density(4, rng=rng))
        assert lam[-1] > 0

    def test_requested_rank(self, rng):
        lam = eigenvalues_desc(random_density(5, rank=3, rng=rng))
        assert (lam[:3] > 1e-12).all()
        assert np.abs(lam[3:]).max() <= 1e-12

    def test_rank_bounds(self, rng):
        with pytest.raises(ValueError, match="rank"):
            random_density(3, rank=4, rng=rng)

    def test_seed_42_golden(self):
        rho = random_density(2, rng=42)
        golden = np.array(
            [
                [0.81018984 + 0.0j, -0.07124455 - 0.37093189j],
                [-0.07124455 + 0.37093189j, 0.18981016 + 0.0j],
            ]
        )
        assert np.abs(rho - golden).max() <= 1e-8
        assert np.array_equal(rho, random_density(2, rng=42))

    def test_random_unitary_valid(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            U = random_unitary(n, rng=rng)
            assert np.abs(U @ U.conj().T - np.eye(n)).max() <= 1e-9

    def test_random_pure_unit_and_isometry(self, rng):
        x = random_pure(5, rng=rng)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        U = random_unitary(5, rng=rng)
        assert np.linalg.norm(U @ x) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_trace_inequality_property(seed, n):
    g = np.random.default_rng(seed)
    A = random_hermitian(n, rng=g)
    B = random_hermitian(n, rng=g)
    assert hs_inner(A, B) <= eigenvalues_desc(A) @ eigenvalues_desc(B) + 1e-9


class TestJson:
    def test_round_trip_bit_exact(self, rng):
        import json

        A = random_hermitian(4, rng=rng)
        blob = json.dumps(matrix_to_json(A))
        back = matrix_from_json(json.loads(blob))
        assert np.array_equal(A, back)

    def test_density_validated_on_load(self):
        with pytest.raises(ValueError, match="trace"):
            density_from_json(matrix_to_json(np.eye(2)))

    def test_malformed_json(self):
        bad_dim = {"dim": "x", "re": [[1.0]], "im": [[0.0]]}
        bad_entry = {"dim": 2, "re": [["a", 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        fractional_dim = {"dim": 2.7, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        bool_dim = {"dim": True, "re": [[1.0]], "im": [[0.0]]}
        infinite_dim = {"dim": float("inf"), "re": [[1.0]], "im": [[0.0]]}
        for obj in ({"dim": 2}, bad_dim, bad_entry, fractional_dim, bool_dim, infinite_dim):
            with pytest.raises(ValueError, match="malformed matrix JSON"):
                matrix_from_json(obj)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            matrix_from_json({"dim": 3, "re": [[1.0]], "im": [[0.0]]})

    @pytest.mark.parametrize("key", ["dim", "re", "im"])
    def test_a_missing_key_is_named(self, key):
        doc = {k: v for k, v in matrix_to_json(np.eye(2)).items() if k != key}
        with pytest.raises(ValueError, match=f"^malformed matrix JSON: missing key '{key}'$"):
            matrix_from_json(doc)

    def test_a_missing_single_matrix_key_is_named(self):
        with pytest.raises(ValueError, match="^malformed scenario: missing key 'truth'$"):
            read_wire({"dim": 2, "trades": []}, "scenario", "trades", "truth")


def _report(check, *args):
    return lambda x: check(*args, x, dims=(2,), rng=0).to_json()


_RHO = random_density(3, rng=5)
_RHO2 = random_density(2, rng=4)
_S = make_score("spectral:log", 2)
_WAGER = q.WageringRound([random_density(2, rng=s) for s in (1, 2)],
                         q.fixed_measurement_score(q.brier_rule(), q.standard_pvm(2)), random_density(2, rng=3))

# every entry point that takes a count, a dimension or a root seed: (its call of the count, the
# argument's name, its floor, a valid value); every one is refused by linalg._count
COUNTS = {
    "truthfulness_check trials": (_report(q.truthfulness_check, _S), "trials", 0, 8),
    "equivalence_check trials": (_report(q.equivalence_check, _S, _S), "trials", 0, 8),
    "unitary_invariance_check trials": (_report(q.unitary_invariance_check, _S), "trials", 0, 8),
    "implementability_check trials": (_report(q.implementability_check, _S), "trials", 0, 8),
    "subgradient_inequality_check trials": (
        _report(q.subgradient_inequality_check, lambda r: float(np.trace(r @ r).real), lambda r: 2.0 * r),
        "trials", 0, 8),
    "properness_check trials": (lambda x: q.properness_check(q.brier_rule(), x, 3, rng=0).to_json(), "trials", 0, 8),
    "properness_check dim": (lambda x: q.properness_check(q.brier_rule(), 8, x, rng=0).to_json(), "dim", 2, 3),
    "is_permutation_invariant dim": (lambda x: is_permutation_invariant(q.brier_rule(), x, rng=0), "dim", 1, 3),
    "from_convex dim": (
        lambda x: q.from_convex(lambda p: p @ p, lambda p: 2.0 * p, x).values(np.full(3, 1 / 3)), "dim", 1, 3),
    "run_verify trials": (lambda x: run_verify("fixed:brier", [2], x, 0), "trials", 1, 8),
    "run_witness trials": (lambda x: run_witness("entropy", [3], x, 0), "trials", 1, 5),
    "run_verify seed": (lambda x: run_verify("fixed:brier", [2], 8, x), "seed", 0, 0),
    "run_witness seed": (lambda x: run_witness("entropy", [3], 5, x), "seed", 0, 0),
    "find_level_set_witness probes": (
        lambda x: find_level_set_witness(make_property("entropy", 3), 3, probes=x, rng=0).to_json(), "probes", 1, 5),
    "find_level_set_witness dim": (
        lambda x: find_level_set_witness(make_property("entropy", 3), x, probes=5, rng=0).to_json(), "dim", 2, 3),
    "optimize_top_eigenvector restarts": (lambda x: optimize_top_eigenvector(_RHO, restarts=x, rng=0), "restarts", 1, 3),
    "optimize_weighted_basis cols": (lambda x: optimize_weighted_basis(_RHO, [2.0, 1.0], x, rng=0), "cols", 1, 2),
    "optimize_eigen_pair k": (lambda x: optimize_eigen_pair(_RHO, x, rng=0), "k", 1, 2),
    "eigen_pair_score k": (lambda x: q.eigen_pair_score(x).expected(random_density(3, rank=2, rng=7), _RHO), "k", 1, 2),
    "abstain_score dim": (lambda x: q.abstain_score(0.7, x).expected(None, _RHO), "dim", 1, 3),
    "MarketState dim": (lambda x: q.MarketState(x).price(), "dim", 1, 3),
    "wagering_payoffs outcome": (lambda x: q.wagering_payoffs(_WAGER, "realized", outcome=x), "outcome", 0, 1),
    "canonical_complete n": (lambda x: q.canonical_complete(x).elements, "n", 1, 2),
    "standard_pvm n": (lambda x: q.standard_pvm(x).elements, "n", 1, 2),
    "random_density n": (lambda x: random_density(x, rng=0), "n", 1, 3),
    "random_density rank": (lambda x: random_density(3, rank=x, rng=0), "rank", 1, 2),
    "random_unitary n": (lambda x: random_unitary(x, rng=0), "n", 1, 3),
    "random_pure n": (lambda x: random_pure(x, rng=0), "n", 1, 3),
    "random_hermitian n": (lambda x: random_hermitian(x, rng=0), "n", 1, 3),
    "sample_outcomes size": (lambda x: q.sample_outcomes(q.standard_pvm(3), _RHO, x, rng=0), "size", 0, 5),
    "make_score spectral:log dim": (lambda x: q.expected_score(make_score("spectral:log", x), _RHO2, _RHO2), "dim", 1, 2),
    "make_score fixed:brier dim": (lambda x: q.expected_score(make_score("fixed:brier", x), _RHO2, _RHO2), "dim", 1, 2),
    "make_property dim": (lambda x: make_property("entropy", x).eval(_RHO2), "dim", 1, 2),
}


def _bits(x):
    # x as nested Python values whose repr pins every bit (numpy scalars and arrays as Python values)
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, (np.ndarray, np.generic)):
        return _bits(x.tolist())
    return x


@pytest.mark.parametrize("call, name, floor, valid", COUNTS.values(), ids=COUNTS)
class TestCountArguments:
    @pytest.mark.parametrize("x", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_a_non_integer_is_refused_by_name(self, call, name, floor, valid, x):
        with pytest.raises(ValueError, match=f"^{name} must be (an integer of at least|an integer in) .*, got {x!r}$"):
            call(x)

    def test_an_integer_below_the_floor_is_refused_by_name(self, call, name, floor, valid):
        with pytest.raises(ValueError, match=f"^{name} must be .*{floor}.*, got {floor - 1}$"):
            call(floor - 1)

    def test_a_numpy_integer_gives_the_python_result(self, call, name, floor, valid):
        assert repr(_bits(call(np.int64(valid)))) == repr(_bits(call(valid)))
