import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qelicit.classical import log_rule
from qelicit.extended import (
    EXT_WEIGHT_TOL,
    KERNEL_PRODUCT_TOL,
    NEG_INF,
    ExtendedHermitian,
    _ext_gap,
    _range_split,
    canonicalize_extended,
    ext_dot,
    ext_inner,
    matrix_log,
    range_projector,
)
from qelicit.linalg import PSD_TOL, frob_dist, hs_inner, random_density, random_pure, spectral_decompose
from qelicit.properties import (
    eigen_pair_score,
    optimize_eigen_pair,
    optimize_top_eigenvector,
    optimize_weighted_basis,
)
from qelicit.registry import SCORE_REGISTRY, make_score
from qelicit.scores import QuantumScore, log_spectral, score_coefficient


class TestExtendedArithmetic:
    def test_zero_times_neg_inf(self):
        assert ext_dot([0.0], [NEG_INF]) == 0.0

    def test_positive_times_neg_inf(self):
        assert ext_dot([0.5], [NEG_INF]) == NEG_INF

    def test_negative_times_neg_inf_raises(self):
        with pytest.raises(ValueError, match=r"\+inf"):
            ext_dot([-1.0], [NEG_INF])

    def test_sums_absorb(self):
        assert ext_dot(np.ones(3), [1.0, NEG_INF, 2.0]) == NEG_INF
        assert ext_dot(np.ones(2), [NEG_INF, NEG_INF]) == NEG_INF
        assert ext_dot(np.ones(2), [1.0, 2.0]) == 3.0

    def test_plus_inf_rejected(self):
        with pytest.raises(ValueError):
            ext_dot([1.0], [np.inf])
        with pytest.raises(ValueError):
            ext_dot(np.ones(2), [1.0, np.inf])

    def test_dot_conventions(self):
        assert ext_dot([0.0, 0.5], [NEG_INF, 2.0]) == 1.0
        assert ext_dot([0.3, 0.7], [NEG_INF, 2.0]) == NEG_INF
        with pytest.raises(ValueError):
            ext_dot([-0.1, 1.1], [NEG_INF, 2.0])

    def test_dot_zero_tolerance(self):
        # noise-level weights against -inf count as exact zeros, up to EXT_WEIGHT_TOL
        assert ext_dot([1e-13, 1.0], [NEG_INF, 3.0]) == 3.0
        assert ext_dot([EXT_WEIGHT_TOL, 1.0], [NEG_INF, 3.0]) == 3.0
        assert ext_dot([2 * EXT_WEIGHT_TOL, 1.0], [NEG_INF, 3.0]) == NEG_INF
        assert ext_dot([-1e-13, 1.0], [NEG_INF, 3.0]) == 3.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.lists(
        st.one_of(st.just(NEG_INF), st.floats(min_value=-10, max_value=10)),
        min_size=1,
        max_size=6,
    ),
)
@example(alpha=5e-324, values=[NEG_INF])  # the scaled weight underflows to 0.0
@example(alpha=1e-12, values=[NEG_INF, 1.0])  # the scaled weight 1e-13 on -inf is within EXT_WEIGHT_TOL
def test_ext_dot_scaling_property(alpha, values):
    # positive scaling commutes with the weighted sum
    weights = np.abs(np.linspace(0.1, 1.0, len(values)))
    scaled_weights = weights * abs(alpha)
    base = ext_dot(weights, values)
    scaled = ext_dot(scaled_weights, values)
    neg = np.isneginf(values)
    if base == NEG_INF and (scaled_weights[neg] > EXT_WEIGHT_TOL).any():
        assert scaled == NEG_INF
    elif base == NEG_INF:
        # every weight on a -inf value is at most EXT_WEIGHT_TOL after scaling, so it counts as 0
        finite = weights[~neg] @ np.asarray(values)[~neg]
        assert scaled == pytest.approx(abs(alpha) * finite, abs=1e-9)
    else:
        assert scaled == pytest.approx(abs(alpha) * base, abs=1e-9)


class TestMatrixLog:
    def test_maximally_mixed(self):
        E = matrix_log(np.eye(3) / 3)
        assert frob_dist(E.finite_part, -np.log(3) * np.eye(3)) <= 1e-10
        assert np.abs(E.infinite_part).max() <= 1e-12

    def test_pure_state(self, rng):
        x = random_pure(3, rng=rng)
        rho = np.outer(x, x.conj())
        E = matrix_log(rho)
        assert np.abs(E.finite_part).max() <= 1e-8
        assert frob_dist(E.infinite_part, np.eye(3) - rho) <= 1e-8

    def test_block_diagonal(self):
        E = matrix_log(np.diag([0.5, 0.5, 0.0]))
        assert frob_dist(E.finite_part, np.diag([-np.log(2), -np.log(2), 0.0])) <= 1e-10
        assert frob_dist(E.infinite_part, np.diag([0.0, 0.0, 1.0])) <= 1e-10

    def test_parts_annihilate(self, rng):
        E = matrix_log(random_density(4, rank=2, rng=rng))
        assert np.abs(E.finite_part @ E.infinite_part).max() <= 1e-8


class TestExtInner:
    def test_finite_part_only(self, rng):
        A = random_density(3, rng=rng)
        E = ExtendedHermitian.wrap(A)
        X = random_density(3, rng=rng)
        assert ext_inner(E, X) == pytest.approx(hs_inner(A, X), abs=1e-12)

    def test_wrap_returns_an_extended_matrix_as_it_is(self, rng):
        E = matrix_log(random_density(3, rank=2, rng=rng))
        assert ExtendedHermitian.wrap(E) is E
        A = random_density(3, rng=rng)
        W = ExtendedHermitian.wrap(A)
        assert ExtendedHermitian.wrap(W) is W
        assert np.array_equal(W.finite_part, A) and not W.infinite_part.any()

    def test_kernel_overlap_gives_neg_inf(self, rng):
        x = random_pure(3, rng=rng)
        y = random_pure(3, rng=rng)
        E = matrix_log(np.outer(x, x.conj()))
        assert ext_inner(E, np.outer(y, y.conj())) == NEG_INF

    def test_support_restriction_matches_subspace_oracle(self, rng):
        # rho supported inside rho_prime's support: restrict both to the
        # support subspace and compare against the plain computation there
        for _ in range(25):
            rho_prime = random_density(4, rank=3, rng=rng)
            V = spectral_decompose(rho_prime).eigenvectors[:, :3]
            small = random_density(3, rng=rng)
            rho = V @ small @ V.conj().T
            val = ext_inner(matrix_log(rho_prime), rho)
            lam = spectral_decompose(rho_prime).eigenvalues[:3]
            oracle = hs_inner(np.diag(np.log(lam)).astype(complex), small)
            assert val == pytest.approx(oracle, abs=1e-8)

    def test_negative_overlap_raises(self, rng):
        E = matrix_log(np.diag([1.0, 0.0]))
        bad = np.diag([1.5, -0.5])  # Hermitian but not PSD
        with pytest.raises(ValueError, match="overlap"):
            ext_inner(E, bad)

    def test_extended_linearity_in_argument(self, rng):
        E = matrix_log(random_density(3, rank=2, rng=rng))
        X = random_density(3, rank=1, rng=rng)
        Y = random_density(3, rank=2, rng=rng)
        a = 0.3
        lhs = ext_inner(E, a * X + (1 - a) * Y)
        parts = [ext_inner(E, X), ext_inner(E, Y)]
        rhs = ext_dot([a, 1 - a], parts)
        if lhs == NEG_INF or rhs == NEG_INF:
            assert lhs == rhs
        else:
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCanonicalize:
    def test_all_finite_is_weighted_sum(self, rng):
        mats = [random_density(3, rng=rng) for _ in range(3)]
        weights = [1.5, -2.0, 0.25]
        E = canonicalize_extended(zip(mats, weights))
        direct = sum(w * M for w, M in zip(weights, mats))
        assert frob_dist(E.finite_part, direct) <= 1e-10
        assert np.abs(E.infinite_part).max() == 0.0

    def test_orthogonal_supports(self):
        pairs = [
            (np.diag([1.0, 0.0]).astype(complex), NEG_INF),
            (np.diag([0.0, 1.0]).astype(complex), 2.0),
        ]
        E = canonicalize_extended(pairs)
        assert frob_dist(E.finite_part, np.diag([0.0, 2.0])) <= 1e-12
        assert frob_dist(E.infinite_part, np.diag([1.0, 0.0])) <= 1e-12

    def test_agrees_with_direct_extended_sum(self, rng):
        # random 3-element POVM-style pairs, one -inf weight, checked
        # pointwise against the direct sum under extended arithmetic
        from qelicit.measurement import canonical_complete

        mu = canonical_complete(2)
        elements = [mu[0], mu[1], (np.eye(2) - mu[0] - mu[1])]
        weights = [0.7, NEG_INF, -1.2]
        E = canonicalize_extended(zip(elements, weights))
        for _ in range(100):
            rho = random_density(2, rank=int(rng.integers(1, 3)), rng=rng)
            direct = ext_dot([hs_inner(M, rho) for M in elements], weights)
            val = ext_inner(E, rho)
            if direct == NEG_INF or val == NEG_INF:
                assert val == direct
            else:
                assert val == pytest.approx(direct, abs=1e-9)

    def test_rejects_non_psd(self, rng):
        with pytest.raises(ValueError, match="PSD"):
            canonicalize_extended([(np.diag([1.0, -1.0]), 1.0)])

    def test_rejects_plus_inf_weight(self):
        with pytest.raises(ValueError):
            canonicalize_extended([(np.eye(2), np.inf)])

    def test_rejects_a_nan_weight(self):
        with pytest.raises(ValueError, match="finite part has non-finite entries"):
            canonicalize_extended([(np.eye(2), np.nan)])

    @pytest.mark.parametrize("w", [1.0, 1e4, 1e8, 1e10])
    def test_large_weights_collapse_off_the_infinite_direction(self, w):
        # w rho with -inf on a pure state x: w <rho, Y> on every state Y orthogonal to x, -inf on x itself
        for s in range(100):
            g = np.random.default_rng(s)
            rho, x = random_density(4, rng=g), random_pure(4, rng=g)
            P = np.outer(x, x.conj())
            E = canonicalize_extended([(rho, w), (P, NEG_INF)])
            z = g.normal(size=4) + 1j * g.normal(size=4)
            z -= x * (x.conj() @ z)
            Y = np.outer(z, z.conj()) / (z.conj() @ z).real
            assert ext_inner(E, Y) == pytest.approx(w * hs_inner(rho, Y), rel=1.1e-15, abs=0.0)
            assert ext_inner(E, P) == NEG_INF


class TestExtendedHermitian:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="PSD"):
            ExtendedHermitian(np.zeros((2, 2)), np.diag([-1.0, 0.0]))
        with pytest.raises(ValueError, match="annihilate"):
            ExtendedHermitian(np.eye(2), np.diag([1.0, 0.0]))

    def test_add_scalar_keeps_infinite_directions(self, rng):
        E = matrix_log(random_density(3, rank=2, rng=rng))
        shifted = E.add_scalar(1.0)
        assert frob_dist(shifted.infinite_part, E.infinite_part) <= 1e-12
        comp = np.eye(3) - range_projector(E.infinite_part)
        assert frob_dist(shifted.finite_part, E.finite_part + comp) <= 1e-8

    def test_add_scalar_of_a_finite_matrix_adds_the_identity(self, rng, monkeypatch):
        # a zero infinite part has no range and costs no decomposition (_range_split's shortcut)
        def refuse(B):
            raise AssertionError("eigh called for a zero infinite part")

        monkeypatch.setattr("qelicit.extended.np.linalg.eigh", refuse)
        E = ExtendedHermitian.wrap(random_density(3, rng=rng) - 0.4 * np.eye(3))
        for c in (1.5, -0.25):
            shifted = E.add_scalar(c)
            np.testing.assert_array_equal(shifted.finite_part, E.finite_part + c * np.eye(3))
            assert not shifted.infinite_part.any()

    def test_range_projector_idempotent(self, rng):
        B = matrix_log(random_density(4, rank=2, rng=rng)).infinite_part
        P = range_projector(B)
        assert frob_dist(P @ P, P) <= 1e-10


def _states_of_every_rank(n):
    return [random_density(n, rank=r, rng=100 * n + 10 * r + s) for r in range(1, n + 1) for s in range(3)]


class TestLibraryBuiltExtendedMatrices:
    """matrix_log, score_coefficient, add_scalar and canonicalize_extended build their ExtendedHermitian unchecked.

    Its invariants hold.
    """

    @staticmethod
    def _assert_invariants(E):
        A, B = E.finite_part, E.infinite_part
        assert np.array_equal(A, A.conj().T) and np.array_equal(B, B.conj().T)
        assert np.linalg.eigvalsh(B)[0] >= -PSD_TOL
        assert np.abs(A @ B).max() <= KERNEL_PRODUCT_TOL
        checked = ExtendedHermitian(A, B)  # the public constructor takes the parts as they are
        assert checked.finite_part is A and checked.infinite_part is B

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_matrix_log_parts(self, n):
        for rho in _states_of_every_rank(n):
            self._assert_invariants(matrix_log(rho))

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_add_scalar_parts(self, n):
        for rho in _states_of_every_rank(n):
            for c in (0.7, -2.5, 1e6):
                self._assert_invariants(matrix_log(rho).add_scalar(c))

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("name", sorted(k for k in SCORE_REGISTRY if isinstance(make_score(k, 2), QuantumScore)))
    def test_score_coefficient_parts(self, name, n):
        S = make_score(name, n)
        reports = np.array(_states_of_every_rank(n))
        if S.domain is not None:  # ml:s2 refuses rank-deficient reports
            reports = reports[S.domain(reports)]
        for report in reports:
            self._assert_invariants(score_coefficient(S, report))

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_canonicalize_extended_parts(self, n):
        for rho in _states_of_every_rank(n):
            sigma = random_density(n, rng=n)
            for weights in ((0.7, -2.5), (1.5, NEG_INF), (NEG_INF, 3.0)):
                self._assert_invariants(canonicalize_extended(zip((sigma, rho), weights)))


def test_ext_gap_on_the_half_extended_line():
    a = np.array([NEG_INF, NEG_INF, 1.0, 2.0])
    b = np.array([NEG_INF, 0.5, NEG_INF, -1.0])
    assert _ext_gap(a, b).tolist() == [0.0, np.inf, np.inf, 3.0]


def test_ext_gap_is_infinite_where_either_side_is_nan():
    a = np.array([np.nan, 1.0, np.nan, NEG_INF])
    b = np.array([1.0, np.nan, np.nan, np.nan])
    assert _ext_gap(a, b).tolist() == [np.inf] * 4


class TestOneOwnerPerDecision:
    # the infinite part's range, and zero mass, are each decided in one place

    def test_finiteness_inner_product_and_range_agree(self):
        # entries at most 1e-10, yet an eigenvalue 3e-10 above the range threshold
        E = ExtendedHermitian(np.zeros((3, 3)), 1e-10 * np.ones((3, 3)))
        assert np.linalg.matrix_rank(range_projector(E.infinite_part)) == 1
        assert ext_inner(E, np.ones((3, 3)) / 3) == NEG_INF
        assert not E.is_finite()

    def test_log_rule_and_matrix_log_share_the_zero_mass_rule(self):
        lam = np.array([1.0 - 3e-12, 2e-12, 1e-12])
        logs = log_rule().values(lam)
        assert np.isfinite(logs[:2]).all() and logs[2] == NEG_INF
        E = matrix_log(np.diag(lam).astype(complex))
        assert np.diag(E.infinite_part).real.tolist() == [0.0, 0.0, 1.0]
        assert np.allclose(np.diag(E.finite_part).real[:2], logs[:2], rtol=1e-12, atol=0)

    def test_inner_product_reads_the_range_and_the_zero_mass_rule(self):
        # entries 2e-11: the weighted overlap <B, J/3> = 6e-11 is below 1e-10, the range mass 1 is not
        J = np.ones((3, 3))
        E = ExtendedHermitian(np.zeros((3, 3)), 2e-11 * J)
        assert not E.is_finite()
        assert ext_inner(E, J / 3) == NEG_INF

    def test_inner_product_and_log_score_share_the_zero_mass_rule(self):
        sigma, rho = np.diag([1.0, 0.0]), np.diag([1 - 5e-11, 5e-11])
        assert ext_inner(matrix_log(sigma), rho) == log_spectral().expected(sigma, rho) == NEG_INF

    def test_negative_mass_above_the_zero_mass_rule_is_refused(self):
        with pytest.raises(ValueError, match="overlap"):
            ext_inner(matrix_log(np.diag([1.0, 0.0])), np.diag([1 + 5e-11, -5e-11]))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_zero_matrix_split_matches_eigh_without_calling_it(self, n, monkeypatch):
        zeros = [np.zeros((n, n), dtype=complex), np.zeros((5, n, n), dtype=complex)]
        vectors = [np.linalg.eigh(B)[1] for B in zeros]
        monkeypatch.setattr(np.linalg, "eigh", lambda B: pytest.fail("eigh called on a zero matrix"))
        for B, W in zip(zeros, vectors):
            V, on = _range_split(B)
            assert V.dtype == W.dtype and V.shape == W.shape and V.tobytes() == W.tobytes()
            assert on.shape == B.shape[:-1] and not on.any()
        E = ExtendedHermitian.wrap(np.diag(np.arange(n, dtype=float)))
        assert E.is_finite()
        assert ext_inner(E, np.diag(np.eye(n)[-1])) == n - 1

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_eigen_pair_rank_must_be_a_positive_integer(self, k):
        must = "an integer of at least" if isinstance(k, (bool, float)) else "at least"
        with pytest.raises(ValueError, match=f"^k must be {must} 1, got {k!r}$"):
            eigen_pair_score(k)
