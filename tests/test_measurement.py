import numpy as np
import pytest

from qelicit.linalg import PSD_TOL, TRACE_TOL, as_density, frob_dist, random_density, random_unitary
from qelicit.measurement import (
    COMPLETENESS_RTOL,
    POVM_SUM_TOL,
    PVM_TOL,
    Measurement,
    apply_measurement,
    basis_pvm,
    canonical_complete,
    hadamard_pvm,
    herm_coords,
    is_pvm,
    is_tomographically_complete,
    sample_outcome,
    sample_outcomes,
    standard_pvm,
    tomographic_map,
)
from qelicit.registry import make_score
from qelicit.scores import binary_brier, expected_score, relative_entropy, von_neumann_entropy


class TestMeasurementType:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="identity"):
            Measurement([np.eye(2) * 0.4, np.eye(2) * 0.4])

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValueError, match="PSD"):
            Measurement([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])

    def test_json_round_trip(self, rng):
        mu = canonical_complete(2)
        back = Measurement.from_json(mu.to_json())
        assert np.array_equal(back.elements, mu.elements)

    @pytest.mark.parametrize("dim", [7.5, "x", True, None], ids=["fraction", "string", "bool", "missing"])
    def test_json_non_integer_dim_is_malformed(self, dim):
        doc = standard_pvm(2).to_json()
        if dim is None:
            del doc["dim"]
        else:
            doc["dim"] = dim
        with pytest.raises(ValueError, match="malformed measurement"):
            Measurement.from_json(doc)

    def test_json_missing_dim_is_named(self):
        doc = standard_pvm(2).to_json()
        del doc["dim"]
        with pytest.raises(ValueError, match="^malformed measurement: missing key 'dim'$"):
            Measurement.from_json(doc)

    @pytest.mark.parametrize("key", ["dim", "re", "im"])
    def test_json_element_missing_a_key_is_named(self, key):
        doc = standard_pvm(2).to_json()
        del doc["elements"][1][key]
        with pytest.raises(ValueError, match=f"^element 1: malformed matrix JSON: missing key '{key}'$"):
            Measurement.from_json(doc)

    @pytest.mark.parametrize("dim", [3, -1])
    def test_json_element_of_another_dimension_is_named(self, dim):
        doc = {**standard_pvm(2).to_json(), "dim": dim}
        with pytest.raises(ValueError, match=f"element 0 has dimension 2, but the measurement dim is {dim}"):
            Measurement.from_json(doc)

    @pytest.mark.parametrize("elements, got", [("ab", "str"), ({"a": 1}, "dict"), (5, "int"), (None, "NoneType")])
    def test_json_elements_that_are_not_a_list_are_named(self, elements, got):
        with pytest.raises(ValueError, match=f"^malformed measurement: elements must be a JSON list, got {got}$"):
            Measurement.from_json({"dim": 2, "elements": elements})

    @pytest.mark.parametrize("bad, message", [
        (None, "matrix JSON must be an object with dim, re, im, got NoneType"),
        ({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}, r"matrix JSON shape mismatch: dim=2, re \(1, 2\)"),
        ({"dim": 2, "re": [[1, 0], [0, "0"]], "im": [[0, 0], [0, 0]]}, "malformed matrix JSON: re entry '0'"),
    ], ids=["null", "shape", "string"])
    def test_json_malformed_element_is_named_by_its_index(self, bad, message):
        doc = standard_pvm(2).to_json()
        doc["elements"][1] = bad
        with pytest.raises(ValueError, match=f"^element 1: {message}"):
            Measurement.from_json(doc)


class TestApplyMeasurement:
    def test_example_standard_basis(self, rho_example):
        p = apply_measurement(standard_pvm(2), rho_example)
        assert np.abs(p - [1 / 6, 5 / 6]).max() <= 1e-12

    def test_example_hadamard_basis(self, rho_example):
        p = apply_measurement(hadamard_pvm(), rho_example)
        assert np.abs(p - [2 / 3, 1 / 3]).max() <= 1e-12

    def test_single_outcome(self, rng):
        mu = Measurement([np.eye(3)])
        assert apply_measurement(mu, random_density(3, rng=rng)).tolist() == [1.0]

    def test_linear_in_state(self, rng):
        mu = canonical_complete(3)
        r1 = random_density(3, rng=rng)
        r2 = random_density(3, rank=1, rng=rng)
        a = 0.3
        mixed = apply_measurement(mu, a * r1 + (1 - a) * r2)
        combo = a * apply_measurement(mu, r1) + (1 - a) * apply_measurement(mu, r2)
        assert np.abs(mixed - combo).max() <= 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            apply_measurement(standard_pvm(2), random_density(3, rng=rng))


class TestSampling:
    def test_deterministic_distribution(self, rng):
        mu = standard_pvm(2)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert all(sample_outcome(mu, rho, rng=rng) == 0 for _ in range(50))

    def test_empirical_frequency_binomial_bound(self, rho_example):
        n = 100_000
        draws = sample_outcomes(standard_pvm(2), rho_example, n, rng=np.random.default_rng(5))
        freq = np.mean(draws == 0)
        p = 1 / 6
        assert abs(freq - p) <= 3 * np.sqrt(p * (1 - p) / n)

    # pinned draws of sample_outcome on random_density(n, rng=n) in canonical_complete(n):
    # by seed 0..11, then 12 from one generator seeded 100 + n
    PINNED = {
        2: ([2, 2, 1, 0, 3, 3, 2, 2, 1, 3, 3, 0], [0, 2, 3, 1, 2, 2, 3, 2, 3, 1, 0, 1]),
        3: ([5, 4, 0, 0, 7, 6, 4, 4, 2, 6, 7, 0], [2, 0, 0, 6, 6, 0, 1, 5, 5, 3, 3, 6]),
        5: ([15, 13, 6, 2, 23, 20, 13, 15, 7, 22, 24, 3], [15, 24, 2, 12, 9, 5, 23, 13, 15, 7, 13, 19]),
    }

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_single_draw_is_pinned(self, n):
        rho, mu = random_density(n, rng=n), canonical_complete(n)
        by_seed, shared = self.PINNED[n]
        assert [sample_outcome(mu, rho, rng=s) for s in range(12)] == by_seed
        assert [int(sample_outcomes(mu, rho, 1, rng=s)[0]) for s in range(12)] == by_seed
        g = np.random.default_rng(100 + n)
        draws = [sample_outcome(mu, rho, rng=g) for _ in range(12)]
        assert draws == shared and all(type(y) is int for y in draws)

    def test_golden_sequence(self, rho_example):
        seq = sample_outcomes(standard_pvm(2), rho_example, 20, rng=np.random.default_rng(123))
        assert seq.tolist() == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]

    def test_reproducible(self, rho_example):
        a = sample_outcomes(standard_pvm(2), rho_example, 100, rng=np.random.default_rng(9))
        b = sample_outcomes(standard_pvm(2), rho_example, 100, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_total_variation_convergence(self, rng):
        # empirical distribution within 0.01 TV of the exact one at 1e6 draws
        for n in (3, 4):
            mu = canonical_complete(n)
            rho = random_density(n, rng=rng)
            p = apply_measurement(mu, rho)
            draws = sample_outcomes(mu, rho, 1_000_000, rng=rng)
            freq = np.bincount(draws, minlength=len(mu)) / 1_000_000
            assert 0.5 * np.abs(freq - p).sum() <= 0.01


class TestPvm:
    def test_basis_pvm_identity(self):
        mu = basis_pvm(np.eye(3))
        for y in range(3):
            expected = np.zeros((3, 3))
            expected[y, y] = 1.0
            assert frob_dist(mu[y], expected) <= 1e-12

    def test_hadamard_projectors(self):
        mu = hadamard_pvm()
        assert frob_dist(mu[0], np.full((2, 2), 0.5)) <= 1e-12
        assert frob_dist(mu[1], np.array([[0.5, -0.5], [-0.5, 0.5]])) <= 1e-12

    def test_random_basis_sums_to_identity(self, rng):
        mu = basis_pvm(random_unitary(4, rng=rng))
        assert frob_dist(sum(mu.elements), np.eye(4)) <= 1e-10

    def test_is_pvm_true_for_basis(self, rng):
        assert is_pvm(basis_pvm(random_unitary(3, rng=rng)))

    def test_is_pvm_false_when_a_projector_overlaps_a_later_element(self):
        # element 0 is a projector within PVM_TOL, and its product with element 1 is 3e-5
        a, x = 5e-9, 3e-5
        first = np.diag([1.0 - a, 0.0])
        assert np.abs(first @ first - first).max() <= PVM_TOL
        assert not is_pvm(Measurement([first, [[a / 2, x], [x, 0.5]], [[a / 2, -x], [-x, 0.5]]]))
        assert is_pvm(Measurement([first, np.diag([a, 1.0])]))  # the overlap 5e-9 is within PVM_TOL

    def test_binary_state_measurement_not_pvm(self, rng):
        rho = random_density(2, rng=rng)  # mixed almost surely
        mu = Measurement([np.eye(2) - rho, rho])
        assert not is_pvm(mu)

    def test_split_identity_not_pvm(self):
        assert not is_pvm(Measurement([np.eye(2) / 2, np.eye(2) / 2]))


class TestCoordinates:
    def test_isometry(self, rng):
        from qelicit.linalg import hs_inner, random_hermitian

        A = random_hermitian(4, rng=rng)
        B = random_hermitian(4, rng=rng)
        assert herm_coords(A) @ herm_coords(B) == pytest.approx(hs_inner(A, B), abs=1e-10)

    def test_round_trip(self, rng):
        # a complete map's reconstruct inverts the coordinates of any Hermitian matrix
        from qelicit.linalg import random_hermitian

        A = random_hermitian(3, rng=rng)
        tmap = tomographic_map(canonical_complete(3))
        assert frob_dist(tmap.reconstruct(tmap.probs(A)), A) <= 1e-12

    def test_stack_gives_each_matrix_its_coordinates(self, rng):
        from qelicit.linalg import random_hermitian

        A = np.stack([random_hermitian(3, rng=rng) for _ in range(4)]).reshape(2, 2, 3, 3)
        C = herm_coords(A)
        assert C.shape == (2, 2, 9)
        for a, c in zip(A.reshape(4, 3, 3), C.reshape(4, 9)):
            assert np.array_equal(herm_coords(a), c)

    def test_non_hermitian_matrix_of_a_stack_is_refused(self):
        with pytest.raises(ValueError, match="^matrix 1 is not Hermitian"):
            herm_coords(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))


class TestCompleteness:
    def test_basis_pvm_never_complete(self, rng):
        for n in range(2, 7):
            assert not is_tomographically_complete(basis_pvm(random_unitary(n, rng=rng)))

    def test_single_element_not_complete(self):
        assert not is_tomographically_complete(Measurement([np.eye(2)]))

    def test_dim_one_trivially_complete(self):
        assert is_tomographically_complete(Measurement([np.eye(1)]))

    def test_canonical_complete(self):
        for n in range(1, 7):
            mu = canonical_complete(n)
            assert len(mu) == n * n
            assert is_tomographically_complete(mu)

    def test_canonical_n1(self):
        mu = canonical_complete(1)
        assert len(mu) == 1
        assert frob_dist(mu[0], np.eye(1)) <= 1e-12

    def test_canonical_n2_sums_to_identity(self):
        mu = canonical_complete(2)
        assert frob_dist(sum(mu.elements), np.eye(2)) <= 1e-10


def _nearly_complete(eps):
    # (1 - eps) of the qubit standard basis measurement, eps of the complete canonical POVM
    return Measurement([*(1 - eps) * standard_pvm(2).elements, *eps * canonical_complete(2).elements])


_POVMS = {
    **{f"canonical_complete({n})": canonical_complete(n) for n in range(1, 7)},
    "standard_pvm(3)": standard_pvm(3),
    "hadamard_pvm": hadamard_pvm(),
    "[I_1]": Measurement([np.eye(1)]),
    "[I_2]": Measurement([np.eye(2)]),
    "[I_2 / 2, I_2 / 2]": Measurement([np.eye(2) / 2, np.eye(2) / 2]),
    "eps=1e-9": _nearly_complete(1e-9),
    "eps=1e-3": _nearly_complete(1e-3),
}


class TestTomographicMap:
    def test_probs_match_apply(self, rng):
        mu = canonical_complete(3)
        tmap = tomographic_map(mu)
        rho = random_density(3, rng=rng)
        assert np.abs(tmap.probs(rho) - apply_measurement(mu, rho)).max() <= 1e-10

    def test_complete_round_trip(self, rng):
        tmap = tomographic_map(canonical_complete(3))
        for _ in range(20):
            rho = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
            assert frob_dist(tmap.reconstruct(tmap.probs(rho)), rho) <= 1e-8

    def test_pinv_is_left_inverse_when_complete(self):
        tmap = tomographic_map(canonical_complete(2))
        assert np.abs(tmap.pinv @ tmap.matrix - np.eye(4)).max() <= 1e-8

    def test_incomplete_gives_proper_projection(self, rng):
        tmap = tomographic_map(standard_pvm(3))
        P = tmap.pinv @ tmap.matrix
        assert np.abs(P @ P - P).max() <= 1e-8
        assert np.abs(P - np.eye(9)).max() > 0.5

    def test_nearly_complete_is_cut_by_the_completeness_rule(self):
        # coordinate singular values (1, 1, 3.8e-10, 2.9e-10) relative to the largest: not
        # complete, so the pseudoinverse drops the two small ones and pinv @ matrix projects
        mu = _nearly_complete(1e-9)
        tmap = tomographic_map(mu)
        P = tmap.pinv @ tmap.matrix
        assert not is_tomographically_complete(mu)
        assert np.abs(P @ P - P).max() <= 1e-8
        assert np.abs(P - np.eye(4)).max() > 0.5
        assert np.abs(tmap.pinv).max() <= 2.0

    @pytest.mark.parametrize("mu", _POVMS.values(), ids=list(_POVMS))
    def test_left_inverse_exactly_when_complete(self, mu):
        tmap = tomographic_map(mu)
        inverts = np.abs(tmap.pinv @ tmap.matrix - np.eye(mu.dim**2)).max() <= 1e-8
        assert inverts == is_tomographically_complete(mu)

    @pytest.mark.parametrize("mu", _POVMS.values(), ids=list(_POVMS))
    def test_one_svd_gives_numpy_pinv_and_matrix_rank(self, mu, monkeypatch):
        # the map's pseudoinverse is np.linalg.pinv's, bit for bit, and its rank matrix_rank's
        phi = herm_coords(mu.elements)
        pinv, rank = np.linalg.pinv(phi, rtol=COMPLETENESS_RTOL), np.linalg.matrix_rank(phi, rtol=COMPLETENESS_RTOL)
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        tmap = tomographic_map(mu)
        assert calls == [1]
        assert tmap.pinv.tobytes() == pinv.tobytes()
        assert tmap.rank == rank
        assert is_tomographically_complete(mu) == (rank == mu.dim**2)

    def test_adjoint_maps_take_stacks(self, rng):
        from qelicit.linalg import random_hermitian

        tmap = tomographic_map(canonical_complete(3))
        V = rng.standard_normal((4, 9))
        X = np.stack([random_hermitian(3, rng=rng) for _ in range(4)])
        adj, pinv_adj = tmap.adjoint(V), tmap.pinv_adjoint(X)
        assert adj.shape == (4, 3, 3) and pinv_adj.shape == (4, 9)
        for k in range(4):
            assert np.abs(adj[k] - tmap.adjoint(V[k])).max() <= 1e-14
            assert np.abs(pinv_adj[k] - tmap.pinv_adjoint(X[k])).max() <= 1e-12

    def test_adjoint_identity(self, rng):
        # <adjoint(v), X> == v . probs(X)
        from qelicit.linalg import hs_inner, random_hermitian

        tmap = tomographic_map(canonical_complete(2))
        v = rng.standard_normal(4)
        X = random_hermitian(2, rng=rng)
        assert hs_inner(tmap.adjoint(v), X) == pytest.approx(v @ tmap.probs(X), abs=1e-10)


class TestTomographicRefusals:
    """The map of canonical_complete(2) refuses a matrix of another dimension and outcome values it cannot pair."""

    tmap = tomographic_map(canonical_complete(2))

    @pytest.mark.parametrize("call, X", [("probs", np.eye(3)), ("pinv_adjoint", np.eye(3)),
                                         ("pinv_adjoint", np.stack([np.eye(3)] * 2))],
                             ids=["probs", "pinv_adjoint", "pinv_adjoint of a stack"])
    def test_a_matrix_of_another_dimension_is_named(self, call, X):
        with pytest.raises(ValueError, match="^dimension mismatch: state 3, measurement 2$"):
            getattr(self.tmap, call)(X)

    @pytest.mark.parametrize("v", [[1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]] * 2, 1.0, np.zeros((1, 1, 4))],
                             ids=["three", "stack of three", "number", "three axes"])
    def test_outcome_values_of_another_shape_are_refused(self, v):
        for call in (self.tmap.adjoint, self.tmap.reconstruct):
            with pytest.raises(ValueError, match="^expected 4 outcome values$"):
                call(v)

    def test_reconstruct_refuses_a_stack(self):
        with pytest.raises(ValueError, match="^expected 4 outcome values$"):
            self.tmap.reconstruct(np.full((2, 4), 0.25))
        assert self.tmap.adjoint(np.full((2, 4), 0.25)).shape == (2, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcome_values_are_refused(self, bad):
        v = [bad, 0.0, 0.0, 1.0]
        for call, arg in ((self.tmap.adjoint, v), (self.tmap.adjoint, [[0.25] * 4, v]), (self.tmap.reconstruct, v)):
            with pytest.raises(ValueError, match="^outcome values must be finite$"):
                call(arg)


def _random_rank_one_povm(n, m, rng):
    # m rank-one elements x x*, normalized by congruence with T^(-1/2)
    X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    raw = np.einsum("ki,kj->kij", X, X.conj())
    w, V = np.linalg.eigh(raw.sum(axis=0))
    T_isqrt = (V / np.sqrt(w)) @ V.conj().T
    return Measurement([T_isqrt @ e @ T_isqrt for e in raw])


class TestStackedKernel:
    """apply_measurement's single contraction against the per-element sum."""

    @staticmethod
    def _per_element(mu, rho):
        from qelicit.classical import clean_probs
        from qelicit.linalg import hs_inner

        return clean_probs([hs_inner(e, rho) for e in mu])

    def test_canonical_complete_matches_per_element(self, rng):
        for n in range(2, 17):
            mu = canonical_complete(n)
            for rank in (n, max(1, n // 2), 1):
                rho = random_density(n, rank=rank, rng=rng)
                p = apply_measurement(mu, rho)
                assert np.abs(p - self._per_element(mu, rho)).max() <= 1e-13, (n, rank)

    def test_random_rank_one_povms_match_per_element(self, rng):
        for n in (2, 3, 5, 8, 16):
            mu = _random_rank_one_povm(n, n + 2, rng)
            for rank in (n, 1):
                rho = random_density(n, rank=rank, rng=rng)
                p = apply_measurement(mu, rho)
                assert np.abs(p - self._per_element(mu, rho)).max() <= 1e-13, (n, rank)

    def test_non_hermitian_element_raises(self):
        from qelicit.linalg import hs_inner

        A = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        plus_i = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        rho = np.outer(plus_i, plus_i.conj())
        with pytest.raises(ValueError, match="not Hermitian"):
            hs_inner(A, rho)
        with pytest.raises(ValueError, match="not Hermitian"):
            Measurement([A, np.eye(2) - A])

    def test_state_is_still_validated(self):
        with pytest.raises(ValueError, match="trace"):
            apply_measurement(standard_pvm(2), np.eye(2))

    def test_elements_are_one_read_only_stack(self, rng):
        mu = canonical_complete(3)
        assert mu.elements.shape == (9, 3, 3)
        assert mu.elements.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            mu.elements[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            mu[0][0, 0] = 1.0
        assert len(list(mu)) == len(mu) == 9

    def test_input_array_is_copied_not_frozen(self):
        stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        mu = Measurement(stack)
        stack[0, 0, 0] = 0.5  # the caller's array stays writable
        assert mu[0][0, 0] == 1.0

    def test_mismatched_element_shapes_rejected(self):
        with pytest.raises(ValueError, match="element 1 has shape"):
            Measurement([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("n", (2, 3, 8, 16))
    def test_each_row_of_a_stack_is_measured_as_it_is_alone(self, n):
        g = np.random.default_rng(n)
        R = np.array([random_density(n, rank=1 + k % n, rng=g) for k in range(24)])
        for mu in (canonical_complete(n), _random_rank_one_povm(n, n + 2, g)):
            P = mu._probs(R)
            for k in range(len(R)):
                assert P[k].tobytes() == mu._probs(R[k:k + 1])[0].tobytes()

    def test_a_real_stack_pays_as_its_complex_copy_bit_for_bit(self):
        R, B = np.diag([0.3, 0.7])[None], np.diag([0.9, 0.1])[None]
        for S in (make_score("fixed:brier", 2), make_score("fixed:log", 2), binary_brier()):
            (real,), (copy,) = S.expected_stack(R, B), S.expected_stack(R.astype(complex), B.astype(complex))
            assert real.tobytes() == copy.tobytes()
        assert make_score("fixed:brier", 2).expected_stack(R, B)[0].tolist() == [expected_score(
            make_score("fixed:brier", 2), R[0], B[0])]

    def test_a_povm_folds_its_elements_on_its_first_product(self, rng):
        # a POVM that is never measured, such as the eigenbasis of a spectral score's scalar payoff, holds no fold
        r = random_density(3, rng=rng)
        unmeasured = [canonical_complete(3), basis_pvm(random_unitary(3, rng=rng)), make_score("spectral:log", 3).measure(r),
                      Measurement(standard_pvm(3).elements)]
        assert all(mu._folded is None for mu in unmeasured)
        R = np.array([random_density(3, rank=k, rng=rng) for k in (1, 2, 3)])
        for mu in unmeasured:
            first = mu._probs(R)
            assert mu._folded is not None
            assert first.tobytes() == mu._probs(R).tobytes() == mu._probs(R.copy()).tobytes()

    def test_tomographic_probs_is_the_measurements_product(self, rng):
        mu = canonical_complete(4)
        tmap = tomographic_map(mu)
        rho = random_density(4, rng=rng)
        assert tmap.probs(rho).tobytes() == mu._products(rho[None])[0].tobytes()
        assert np.abs(tmap.probs(rho) - tmap.matrix @ herm_coords(rho)).max() <= 1e-15

    def test_approx_equal_is_elementwise(self, rng):
        mu = basis_pvm(random_unitary(3, rng=rng))
        assert mu.approx_equal(Measurement(mu.elements))
        # a valid POVM about 1e-6 away: mix in a little of the trivial one
        shifted = (1.0 - 1e-6) * mu.elements + 1e-6 * np.eye(3) / 3.0
        assert not mu.approx_equal(Measurement(shifted))
        assert not mu.approx_equal(standard_pvm(2))


def _boundary_state(n, sign):
    """diag(a, 0.4, -e, ..., -e): n - 2 eigenvalues at -PSD_TOL and trace 1 + sign TRACE_TOL, each a hair inside."""
    e = PSD_TOL * (1 - 1e-4)
    lam = np.array([0.6 + (n - 2) * e + sign * TRACE_TOL * (1 - 1e-4), 0.4] + [-e] * (n - 2))
    return as_density(np.diag(lam).astype(complex))


class TestBoundaryStates:
    """Every state that as_density accepts is measured and paid, at -PSD_TOL and trace 1 +- TRACE_TOL."""

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_measured_and_scored(self, n, sign):
        rho, mixed = _boundary_state(n, sign), np.eye(n, dtype=complex) / n
        halves = Measurement([np.diag([1.0, 1.0] + [0.0] * (n - 2)), np.diag([0.0, 0.0] + [1.0] * (n - 2))])
        over = Measurement([np.diag([1 + POVM_SUM_TOL * (1 - 1e-6)] + [1.0] * (n - 1)), np.zeros((n, n))])
        for mu in (standard_pvm(n), halves, over):  # halves' second outcome is -(n - 2) PSD_TOL before the clip
            p = apply_measurement(mu, rho)
            assert np.all(p >= 0) and p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(von_neumann_entropy(rho))
        assert np.isfinite(relative_entropy(rho, mixed))
        assert np.isfinite(expected_score(make_score("spectral:log", n), mixed, rho))
        pure = as_density(np.diag([1 + sign * TRACE_TOL * (1 - 1e-4)] + [0.0] * (n - 1)).astype(complex))
        for r in (rho, pure):  # at sign 1, pure's element I - pure reaches -TRACE_TOL
            assert np.isfinite(expected_score(binary_brier(), r, r))

    def test_cli_measures_a_boundary_state(self, tmp_path, capsys):
        import json

        from qelicit.cli import main
        from qelicit.linalg import matrix_to_json

        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json(_boundary_state(3, 1))))
        assert main(["measure", "--state", str(path), "--trials", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["probs"][2] == 0.0
