import dataclasses

import numpy as np
import pytest

from qelicit import classical, scores
from qelicit.classical import (
    ClassicalScoringRule,
    _require_row_wise,
    brier_rule,
    clean_probs,
    is_permutation_invariant,
    linear_rule,
    log_rule,
    shannon_entropy,
)
from qelicit.extended import NEG_INF, ExtendedHermitian, ext_inner, matrix_log
from qelicit.linalg import (
    HERM_TOL,
    as_density,
    as_unitary,
    eigenvalues_desc,
    frob_dist,
    hermitian_part,
    hs_inner,
    random_density,
    random_hermitian,
    random_pure,
    random_unitary,
    spectral_decompose,
)
from qelicit.measurement import (
    Measurement,
    apply_measurement,
    canonical_complete,
    hadamard_pvm,
    is_pvm,
    standard_pvm,
)
from qelicit.registry import SCORE_REGISTRY, make_score
from qelicit.measurement import _basis_pvm
from qelicit.scores import (
    ExpectedScoreFn,
    QuantumScore,
    _projective,
    binary_brier,
    equivalence_check,
    expected_score,
    fixed_meas_expression,
    fixed_meas_from_convex,
    fixed_measurement_score,
    implementability_check,
    log_det_score,
    log_spectral,
    log_trace_exp_score,
    log_trace_score,
    ml_scores,
    projective_brier,
    projective_expression,
    relative_entropy,
    score_coefficient,
    score_from_convex,
    spectral_score,
    subgradient_inequality_check,
    trace_score,
    truthfulness_check,
    unitary_invariance_check,
    von_neumann_entropy,
)


class TestExpectedScore:
    def test_binary_brier_self_score_is_purity(self, rng):
        S = binary_brier()
        for _ in range(20):
            rho = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
            assert expected_score(S, rho, rho) == pytest.approx(
                hs_inner(rho, rho), abs=1e-10
            )

    def test_log_spectral_at_maximally_mixed(self):
        S = log_spectral()
        eye3 = np.eye(3) / 3
        assert expected_score(S, eye3, eye3) == pytest.approx(-np.log(3), abs=1e-12)

    def test_matches_coefficient_inner_product(self, rng):
        for S in (binary_brier(), projective_brier(), log_spectral()):
            for _ in range(25):
                rep = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
                rho = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
                direct = expected_score(S, rep, rho)
                via_coeff = ext_inner(score_coefficient(S, rep), rho)
                if direct == NEG_INF or via_coeff == NEG_INF:
                    assert direct == via_coeff
                else:
                    assert direct == pytest.approx(via_coeff, abs=1e-10)

    def test_extended_linear_in_belief(self, rng):
        S = log_spectral()
        rep = random_density(3, rank=2, rng=rng)
        report = implementability_check(S, 200, dims=(2, 3), rng=rng)
        assert report.passed, report.violations[:2]


class TestScoreCoefficient:
    def test_binary_brier_closed_form(self, rng):
        S = binary_brier()
        rep = random_density(3, rng=rng)
        E = score_coefficient(S, rep)
        expected = 2 * rep - hs_inner(rep, rep) * np.eye(3)
        assert frob_dist(E.finite_part, expected) <= 1e-10
        assert E.is_finite()

    def test_spectral_form(self, rng):
        # coefficient of a spectral score is sum_y s(lambda, y) x_y x_y*
        rule = brier_rule()
        S = spectral_score(rule)
        rep = random_density(3, rng=rng)
        dec = spectral_decompose(rep)
        expected = sum(
            rule(dec.eigenvalues, y) * np.outer(dec.eigenvectors[:, y], dec.eigenvectors[:, y].conj())
            for y in range(3)
        )
        E = score_coefficient(S, rep)
        assert frob_dist(E.finite_part, expected) <= 1e-8

    def test_log_spectral_full_rank_is_matrix_log(self, rng):
        S = log_spectral()
        rep = random_density(3, rng=rng)
        E = score_coefficient(S, rep)
        assert frob_dist(E.finite_part, matrix_log(rep).finite_part) <= 1e-8
        assert np.abs(E.infinite_part).max() <= 1e-10


class TestFixedMeasurement:
    def test_complete_brier_strictly_truthful(self):
        S = fixed_measurement_score(brier_rule(), canonical_complete(2))
        report = truthfulness_check(S, 1500, dims=(2,), rng=3)
        assert report.passed, report.violations[:2]

    def test_log_scores_are_log_of_probs(self, rng):
        mu = canonical_complete(2)
        S = fixed_measurement_score(log_rule(), mu)
        rep = random_density(2, rng=rng)
        from qelicit.measurement import apply_measurement

        p = apply_measurement(mu, rep)
        for y in range(len(mu)):
            assert S.score(rep, y) == pytest.approx(np.log(p[y]), abs=1e-12)

    def test_incomplete_measurement_not_strict(self, rng):
        # states differing only off-diagonal share a standard-basis image
        S = fixed_measurement_score(brier_rule(), standard_pvm(2))
        rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        tau = np.array([[0.5, -0.2], [-0.2, 0.5]], dtype=complex)
        a = expected_score(S, rho, rho)
        b = expected_score(S, tau, rho)
        assert a == pytest.approx(b, abs=1e-12)
        assert frob_dist(rho, tau) > 1e-6
        report = truthfulness_check(S, 500, dims=(2,), rng=4)
        assert report.weakly_passed


class TestFixedMeasFromConvex:
    def test_quadratic_matches_brier_expected_scores(self, rng):
        mu = canonical_complete(2)
        S1 = fixed_meas_from_convex(lambda p: float(p @ p), lambda p: 2 * p, mu)
        S2 = fixed_measurement_score(brier_rule(), mu)
        report = equivalence_check(S1, S2, 300, dims=(2,), rng=5)
        assert report.passed and report.max_gap <= 1e-9

    def test_constant_function(self, rng):
        mu = canonical_complete(2)
        S = fixed_meas_from_convex(lambda p: 3.3, lambda p: np.zeros(len(p)), mu)
        rep = random_density(2, rng=rng)
        rho = random_density(2, rng=rng)
        assert expected_score(S, rep, rho) == pytest.approx(3.3, abs=1e-12)

    def test_self_score_depends_only_on_outcome_distribution(self, rng):
        # diagonal states sharing the standard-basis image score equally
        mu = standard_pvm(2)
        S = fixed_meas_from_convex(lambda p: float(p @ p), lambda p: 2 * p, mu)
        rho = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        tau = np.array([[0.6, -0.1], [-0.1, 0.4]], dtype=complex)
        assert expected_score(S, rho, rho) == pytest.approx(
            expected_score(S, tau, tau), abs=1e-12
        )

    def test_bad_subgradient_rejected(self):
        mu = canonical_complete(2)
        with pytest.raises(ValueError, match="subgradient"):
            fixed_meas_from_convex(lambda p: float(p @ p), lambda p: 6 * p, mu)

    def test_midpoint_convexity_checked(self):
        # f is 0 on every sampled distribution and 1 at the midpoint of the
        # last two, so the zero subgradient passes and only the midpoint fails
        seen = []

        def f(p):
            bump = len(seen) >= 2 and np.allclose(p, 0.5 * (seen[-1] + seen[-2]))
            seen.append(p)
            return float(bump)

        with pytest.raises(ValueError, match="midpoint convexity"):
            fixed_meas_from_convex(f, lambda p: np.zeros(len(p)), canonical_complete(2))


class TestBinaryAndProjectiveBrier:
    def test_pure_truthful_report_scores_one(self, rng):
        S = binary_brier()
        x = random_pure(3, rng=rng)
        rho = hermitian_part(np.outer(x, x.conj()))
        assert expected_score(S, rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_scores_one_over_n(self):
        S = binary_brier()
        eye4 = np.eye(4) / 4
        assert expected_score(S, eye4, eye4) == pytest.approx(0.25, abs=1e-12)

    def test_divergence_is_squared_distance(self, rng):
        S = binary_brier()
        for _ in range(25):
            rho = random_density(3, rng=rng)
            rep = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
            gap = expected_score(S, rho, rho) - expected_score(S, rep, rho)
            assert gap == pytest.approx(frob_dist(rho, rep) ** 2, abs=1e-10)
            assert gap >= -1e-12

    def test_projective_equivalent_to_binary(self):
        report = equivalence_check(projective_brier(), binary_brier(), 1000, dims=(2, 3), rng=6)
        assert report.passed, report.violations[:2]

    def test_projective_measurement_is_pvm(self, rng):
        S = projective_brier()
        assert is_pvm(S.measure(random_density(3, rng=rng)))

    def test_diagonal_reduces_to_classical_brier(self, rng):
        from qelicit.classical import expected_classical

        S = projective_brier()
        lam = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        tau = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        quantum = expected_score(S, np.diag(lam).astype(complex), np.diag(tau).astype(complex))
        classical = expected_classical(brier_rule(), lam, tau)
        assert quantum == pytest.approx(classical, abs=1e-10)


class TestSpectralScore:
    def test_brier_spectral_equivalent_to_projective(self):
        report = equivalence_check(
            spectral_score(brier_rule()), projective_brier(), 500, dims=(2, 3), rng=7
        )
        assert report.passed

    def test_self_score_is_classical_self_score(self, rng):
        from qelicit.classical import expected_classical

        rule = brier_rule()
        S = spectral_score(rule)
        for _ in range(20):
            rho = random_density(3, rng=rng)
            lam = eigenvalues_desc(rho)
            assert expected_score(S, rho, rho) == pytest.approx(
                expected_classical(rule, lam, lam), abs=1e-9
            )

    def test_diagonal_restriction_matches_classical(self, rng):
        from qelicit.classical import expected_classical

        rule = log_rule()
        S = spectral_score(rule)
        lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        tau = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        quantum = expected_score(S, np.diag(lam).astype(complex), np.diag(tau).astype(complex))
        classical = expected_classical(rule, lam, tau)
        assert quantum == pytest.approx(classical, abs=1e-10)

    def test_rejects_non_invariant_rule(self):
        from qelicit.classical import ClassicalScoringRule

        biased = ClassicalScoringRule(lambda p: np.arange(p.shape[-1]) * p, name="biased")
        with pytest.raises(ValueError, match="permutation"):
            spectral_score(biased)

    def test_strictly_truthful(self):
        report = truthfulness_check(spectral_score(brier_rule()), 1500, dims=(2, 3, 4), rng=8)
        assert report.passed, report.violations[:2]


class TestSharedRules:
    """The library's brier, log and log-det rules pass the checks a rule of one's own must pass, so the library builds
    its scores from them unchecked; the public constructors check every rule at every construction."""

    LIBRARY = {"brier": brier_rule(), "log": log_rule(), "log-det": scores._LOG_DET}

    def test_each_call_returns_the_same_rule(self):
        assert brier_rule() is brier_rule()
        assert log_rule() is log_rule()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("name", ["brier", "log", "log-det"])
    def test_each_library_rule_is_permutation_invariant(self, name, n, seed):
        assert is_permutation_invariant(self.LIBRARY[name], n, rng=seed)

    @pytest.mark.parametrize("m", [1, 2, 3, *(n * n for n in range(2, 17))])
    @pytest.mark.parametrize("name", ["brier", "log", "log-det"])
    def test_each_library_rule_pays_row_wise(self, name, m):
        _require_row_wise(self.LIBRARY[name], m)

    @staticmethod
    def _counted(monkeypatch) -> list:
        # (check, rule) for each call of a rule check, by the names the constructors call and the one
        # is_permutation_invariant calls
        calls = []
        for module, name in ((scores, "is_permutation_invariant"), (scores, "_require_row_wise"),
                             (classical, "_require_row_wise")):
            label, real = f"{module.__name__.removeprefix('qelicit.')}.{name}", getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda rule, *a, label=label, real=real, **k: calls.append((label, rule)) or real(rule, *a, **k))
        return calls

    def test_the_library_builds_its_scores_without_a_rule_check(self, monkeypatch):
        calls = self._counted(monkeypatch)
        for n in range(1, 17):
            for name in sorted(SCORE_REGISTRY):
                make_score(name, n)
        for factory in (binary_brier, projective_brier, log_spectral, log_det_score, trace_score, log_trace_score,
                        log_trace_exp_score, ml_scores):
            factory()
        rho, sigma = random_density(3, rng=0), random_density(3, rng=1)
        von_neumann_entropy(rho)
        relative_entropy(rho, sigma)
        assert calls == []

    def test_the_module_holds_no_score_built_at_import(self):
        assert not [k for k, v in vars(scores).items() if isinstance(v, (QuantumScore, ExpectedScoreFn))]

    @pytest.mark.parametrize("name", ["brier", "log", "log-det"])
    def test_the_public_constructors_check_each_library_rule_at_every_construction(self, name, monkeypatch):
        calls, rule = self._counted(monkeypatch), self.LIBRARY[name]
        for _ in range(2):
            spectral_score(rule)
            fixed_measurement_score(rule, canonical_complete(3))
        built = [("scores.is_permutation_invariant", rule), ("classical._require_row_wise", rule)] * 2
        assert calls == (built + [("scores._require_row_wise", rule)]) * 2

    def test_a_rule_of_ones_own_is_checked_at_every_construction(self, monkeypatch):
        calls = self._counted(monkeypatch)
        mine = ClassicalScoringRule(lambda p: 2.0 * p - np.vecdot(p, p)[..., None], name="mine")
        spectral_score(mine)
        spectral_score(mine)
        assert calls == [("scores.is_permutation_invariant", mine), ("classical._require_row_wise", mine)] * 4
        biased = ClassicalScoringRule(lambda p: np.arange(p.shape[-1]) * p, name="biased")
        whole = ClassicalScoringRule(lambda p: 2.0 * p - np.sum(p * p), name="whole")
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^rule 'biased' is not permutation-invariant$"):
                spectral_score(biased)
            for build in (lambda: spectral_score(whole), lambda: fixed_measurement_score(whole, canonical_complete(2))):
                with pytest.raises(ValueError, match=r"^rule 'whole' must pay each row of a stack as it pays that row alone$"):
                    build()


class TestEntropies:
    def test_uniform_and_pure(self, rng):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4), abs=1e-12)
        x = random_pure(4, rng=rng)
        assert von_neumann_entropy(np.outer(x, x.conj())) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pure_state_is_positive_zero(self, n):
        h = von_neumann_entropy(np.diag(np.eye(n)[0]))
        assert h == 0.0 and np.copysign(1.0, h) == 1.0

    def test_diagonal_matches_shannon(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert von_neumann_entropy(np.diag(p).astype(complex)) == pytest.approx(
                shannon_entropy(p), abs=1e-10
            )

    def test_rank_deficient_entropy_is_that_of_the_spectrum(self):
        # non-diagonal states of every rank below n: -sum lambda log lambda over the eigenvalues above 1e-12
        g = np.random.default_rng(52)
        for n in (2, 3, 4, 8):
            for rank in range(1, n):
                for _ in range(5):
                    rho = random_density(n, rank=rank, rng=g)
                    assert np.abs(rho - np.diag(np.diag(rho))).max() > 1e-3
                    lam = eigenvalues_desc(rho)
                    lam = lam[lam > 1e-12]
                    assert abs(von_neumann_entropy(rho) + np.sum(lam * np.log(lam))) <= 1e-14

    def test_an_eigenvalue_of_minus_5e_11_is_accepted(self):
        # PSD_TOL (1e-10) accepts it, and it is cleaned as a measured distribution would be; clean_probs, whose
        # clip is 1e-12, would refuse it
        U = random_unitary(3, rng=5)
        rho = hermitian_part(U @ np.diag([0.6 + 5e-11, 0.4, -5e-11]) @ U.conj().T)
        with pytest.raises(ValueError, match="negative beyond the clip tolerance"):
            clean_probs(eigenvalues_desc(rho))
        assert von_neumann_entropy(rho) == pytest.approx(-(0.6 * np.log(0.6) + 0.4 * np.log(0.4)), abs=1e-9)

    def test_relative_entropy_nonnegative_and_faithful(self, rng):
        for _ in range(200):
            rho = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
            sig = random_density(3, rng=rng)
            d = relative_entropy(rho, sig)
            assert d >= -1e-9
        rho = random_density(3, rng=rng)
        assert relative_entropy(rho, rho) <= 1e-8

    def test_support_mismatch_diverges(self, rng):
        rho = random_density(3, rng=rng)
        sig = random_density(3, rank=2, rng=rng)
        assert ext_inner(matrix_log(sig), rho) == NEG_INF
        assert relative_entropy(rho, sig) == np.inf

    @pytest.mark.parametrize("mass", [1.5e-12, 5e-12, 5e-11])
    def test_small_mass_outside_the_support_diverges(self, mass):
        # mass above the log rule's zero tolerance (1e-12) on sigma's kernel
        # diverges; it never reads as a negative divergence
        rho = np.diag([1.0 - mass, mass]).astype(complex)
        assert relative_entropy(rho, np.diag([1.0, 0.0]).astype(complex)) == np.inf

    def test_log_spectral_divergence_is_relative_entropy(self, rng):
        S = log_spectral()
        for _ in range(20):
            rho = random_density(3, rng=rng)
            rep = random_density(3, rng=rng)
            gap = expected_score(S, rho, rho) - expected_score(S, rep, rho)
            assert gap == pytest.approx(relative_entropy(rho, rep), abs=1e-9)

    def test_entropies_match_the_matrix_log_path(self):
        # -<log rho, rho> and <log rho - log sigma, rho> through matrix_log and
        # ext_inner, on 2,100 pairs of mixed ranks at n = 2..8: independent pairs
        # (sigma rank-deficient mostly gives +inf) and sigma = (rho + tau) / 2,
        # whose support holds rho's (finite, also when sigma is rank-deficient)
        g = np.random.default_rng(2718)
        infinite = 0
        for n in range(2, 9):
            for k in range(300):
                rho, tau = (random_density(n, rank=int(g.integers(1, n + 1)), rng=g) for _ in range(2))
                sigma = tau if k % 2 else hermitian_part((rho + tau) / 2)
                log_rho = ext_inner(matrix_log(rho), rho)
                cross = ext_inner(matrix_log(sigma), rho)
                H, D = von_neumann_entropy(rho), relative_entropy(rho, sigma)
                assert abs(H + log_rho) <= 1e-13 * max(1.0, abs(log_rho))
                assert (D == np.inf) == (cross == NEG_INF)
                if cross > NEG_INF:
                    want = log_rho - cross
                    assert abs(D - want) <= 1e-13 * max(1.0, abs(want))
                infinite += D == np.inf
        assert 300 < infinite < 1050


class TestMlScores:
    def test_s1_passes_strict(self):
        report = truthfulness_check(ml_scores()["s1"], 1000, dims=(2, 3), rng=9)
        assert report.passed

    def test_s2_passes_strict_on_full_rank(self):
        report = truthfulness_check(ml_scores()["s2"], 1000, dims=(2, 3), rng=10)
        assert report.passed, report.violations[:2]

    def test_s2_self_score_is_neg_log_det(self, rng):
        S = ml_scores()["s2"]
        for _ in range(20):
            rho = random_density(3, rng=rng)
            expected = -float(np.sum(np.log(eigenvalues_desc(rho))))
            assert expected_score(S, rho, rho) == pytest.approx(expected, abs=1e-9)

    def test_s2_rejects_singular_report(self):
        S = ml_scores()["s2"]
        with pytest.raises(ValueError, match="full-rank"):
            S.measure(np.diag([1.0, 0.0]).astype(complex))

    def test_s3_diagonal_counterexample(self):
        S = ml_scores()["s3"]
        belief = np.diag([0.6, 0.4]).astype(complex)
        lie = np.diag([1.0, 0.0]).astype(complex)
        assert expected_score(S, belief, belief) == pytest.approx(0.52, abs=1e-12)
        assert expected_score(S, lie, belief) == pytest.approx(0.6, abs=1e-12)

    def test_s4_s5_diagonal_counterexample(self):
        ml = ml_scores()
        belief = np.diag([0.6, 0.4]).astype(complex)
        lie = np.diag([1.0, 0.0]).astype(complex)
        for key in ("s4", "s5"):
            S = ml[key]
            assert expected_score(S, belief, belief) == pytest.approx(np.log(0.52), abs=1e-10)
            assert expected_score(S, lie, belief) == pytest.approx(np.log(0.6), abs=1e-10)

    def test_s5_matches_s3_on_commuting_pairs(self, rng):
        ml = ml_scores()
        lam = rng.dirichlet(np.ones(3))
        tau = rng.dirichlet(np.ones(3))
        s5 = expected_score(ml["s5"], np.diag(lam).astype(complex), np.diag(tau).astype(complex))
        s3 = expected_score(ml["s3"], np.diag(lam).astype(complex), np.diag(tau).astype(complex))
        assert s5 == pytest.approx(np.log(s3), abs=1e-9)

    def test_s3_s4_s5_fail_truthfulness(self):
        ml = ml_scores()
        for key in ("s3", "s4", "s5"):
            report = truthfulness_check(ml[key], 400, dims=(2, 3), rng=11)
            assert not report.weakly_passed and report.kind_counts["gain"] > 0, key

    def test_s4_s5_not_implementable(self):
        ml = ml_scores()
        for key in ("s4", "s5"):
            report = implementability_check(ml[key], 300, dims=(2, 3), rng=12)
            assert not report.passed, key

    def test_s3_is_implementable(self):
        report = implementability_check(ml_scores()["s3"], 300, dims=(2, 3), rng=13)
        assert report.passed


class TestChecks:
    def test_constant_score_weak_not_strict(self, rng):
        const = QuantumScore(
            lambda r: (standard_pvm(r.shape[0]), np.ones(r.shape[0])),
            name="const",
        )
        report = truthfulness_check(const, 300, dims=(2, 3), rng=14)
        assert report.weakly_passed
        assert not report.passed
        assert report.kind_counts.get("tie", 0) > 0

    def test_equivalence_fails_for_different_scores(self):
        report = equivalence_check(binary_brier(), log_spectral(), 200, dims=(2,), rng=15)
        assert not report.passed

    def test_unitary_invariance_verdicts(self):
        assert unitary_invariance_check(log_spectral(), 200, dims=(2, 3), rng=16).passed
        assert unitary_invariance_check(binary_brier(), 200, dims=(2, 3), rng=16).passed
        assert unitary_invariance_check(ml_scores()["s3"], 200, dims=(2, 3), rng=16).passed
        fixed = fixed_measurement_score(brier_rule(), canonical_complete(2))
        assert not unitary_invariance_check(fixed, 200, dims=(2,), rng=16).passed

    def test_linear_rule_spectral_score_fails(self):
        S = spectral_score(linear_rule())
        report = truthfulness_check(S, 400, dims=(2, 3), rng=17)
        assert not report.weakly_passed and report.kind_counts["gain"] > 0

    def test_truthfulness_includes_rank_deficient_beliefs(self):
        S = log_spectral()
        report = truthfulness_check(S, 600, dims=(2, 3), rng=18)
        assert report.passed
        assert report.trials == 600


class TestTrialReplay:
    def test_violation_replays_from_its_trial_index(self):
        S = make_score("ml:s3", 3)
        full = truthfulness_check(S, 160, dims=(3,), rng=5)
        assert full.n_violations
        for v in full.violations[:3]:
            i = v["trial"]
            # trial i draws from stream i of the root seed, whatever the trial count
            replay = truthfulness_check(S, i + 1, dims=(3,), rng=5)
            assert replay.violations[-1] == v
            assert replay.violations[-1]["gap"] == v["gap"]

    def test_implementability_measures_each_report_once(self):
        base = projective_brier()
        calls = []

        def payoff(report):
            calls.append(1)
            return base.payoff(report)

        report = implementability_check(QuantumScore(payoff, name="counted"), 8, dims=(2, 3), rng=4)
        assert report.passed
        assert len(calls) == 8


class TestExpressiveness:
    def test_fixed_expression_binary_brier(self):
        mu = canonical_complete(2)
        S = binary_brier()
        report = equivalence_check(fixed_meas_expression(S, mu), S, 1000, dims=(2,), rng=19)
        assert report.passed, report.violations[:2]

    def test_fixed_expression_projective_brier_dim3(self):
        mu = canonical_complete(3)
        S = projective_brier()
        report = equivalence_check(fixed_meas_expression(S, mu), S, 500, dims=(3,), rng=20)
        assert report.passed

    def test_fixed_expression_rejects_infinite_scores(self, rng):
        S = fixed_meas_expression(log_spectral(), canonical_complete(2))
        with pytest.raises(ValueError, match="-inf"):
            S.score(random_density(2, rank=1, rng=rng), 0)

    def test_fixed_expression_rejects_incomplete(self):
        with pytest.raises(ValueError, match="complete"):
            fixed_meas_expression(binary_brier(), standard_pvm(2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_fixed_expression_decomposes_its_povm_once(self, n, monkeypatch):
        # the completeness check and the pseudoinverse read one SVD of the coordinates
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        fixed_meas_expression(binary_brier(), canonical_complete(n))
        assert calls == [1]

    def test_projective_expression_of_fixed_brier(self):
        fixed = fixed_measurement_score(brier_rule(), canonical_complete(2))
        proj = projective_expression(fixed)
        report = equivalence_check(proj, fixed, 1000, dims=(2,), rng=21)
        assert report.passed, report.violations[:2]

    def test_projective_expression_yields_pvms(self, rng):
        fixed = fixed_measurement_score(brier_rule(), canonical_complete(2))
        proj = projective_expression(fixed)
        for _ in range(10):
            assert is_pvm(proj.measure(random_density(2, rng=rng)))

    def test_projective_expression_of_projective_score(self):
        S = projective_brier()
        report = equivalence_check(projective_expression(S), S, 300, dims=(2, 3), rng=22)
        assert report.passed

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_finite_coefficient_decomposes_as_its_finite_part(self, rng, n):
        # the infinite part's kernel is all of the space, so nothing is rotated
        A = random_hermitian(n, rng=rng)
        mu, vals = _projective(ExtendedHermitian.wrap(A))
        dec = spectral_decompose(A)
        assert np.array_equal(vals, dec.eigenvalues)
        assert np.array_equal(mu.elements, _basis_pvm(dec.eigenvectors).elements)

    @pytest.mark.parametrize("n, rank", [(2, 1), (3, 1), (3, 2), (5, 3), (8, 2)])
    def test_matrix_log_pays_neg_inf_once_per_kernel_direction(self, rng, n, rank):
        mu, vals = _projective(matrix_log(random_density(n, rank=rank, rng=rng)))
        assert int(np.isneginf(vals).sum()) == n - rank
        assert np.isfinite(vals[:rank]).all()
        assert np.abs(mu.elements.sum(axis=0) - np.eye(n)).max() <= 1e-12

    def test_score_that_is_neg_inf_everywhere_has_no_finite_part(self, rng):
        doomed = ClassicalScoringRule(lambda p: np.full(np.shape(p), NEG_INF), name="doomed")
        S = projective_expression(fixed_measurement_score(doomed, standard_pvm(3)))
        r = random_density(3, rng=rng)
        mu, vals = S.payoff(r)
        assert len(mu) == 3 and np.isneginf(vals).all()
        assert S.expected(r, random_density(3, rng=rng)) == NEG_INF

    def test_projective_expression_handles_infinite_scores(self, rng):
        S = log_spectral()
        proj = projective_expression(S)
        report = equivalence_check(proj, S, 300, dims=(2, 3), rng=23)
        assert report.passed


class TestConvexRepresentation:
    def test_forward_identity_for_truthful_scores(self, rng):
        # S(rep; rho) - S(rep; rep) equals the coefficient paired with rho - rep
        for S in (binary_brier(), projective_brier()):
            for _ in range(20):
                rho = random_density(3, rng=rng)
                rep = random_density(3, rng=rng)
                lhs = expected_score(S, rep, rho) - expected_score(S, rep, rep)
                E = score_coefficient(S, rep)
                rhs = hs_inner(E.finite_part, rho - rep)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_forward_identity_extended_case(self, rng):
        # with -inf scores the pairing happens through the extended inner product
        S = log_spectral()
        for _ in range(20):
            rho = random_density(3, rng=rng)
            rep = random_density(3, rank=int(rng.integers(1, 4)), rng=rng)
            lhs = expected_score(S, rep, rho) - expected_score(S, rep, rep)
            E = score_coefficient(S, rep)
            rhs = ext_inner(E, hermitian_part(rho - rep))
            if lhs == NEG_INF or rhs == NEG_INF:
                assert lhs == rhs
            else:
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_score_from_convex_is_truthful(self):
        S = score_from_convex(lambda r: hs_inner(r, r), lambda r: 2 * r)
        report = truthfulness_check(S, 800, dims=(2, 3), rng=24)
        assert report.passed, report.violations[:2]

    def test_score_from_convex_neg_entropy_matches_log_spectral(self):
        S = score_from_convex(
            lambda r: -von_neumann_entropy(r),
            lambda r: matrix_log(r).add_scalar(1.0),
        )
        # the -1 offset from <dF, rho'> cancels, leaving the log spectral score
        report = equivalence_check(S, log_spectral(), 400, dims=(2, 3), rng=25)
        assert report.passed, report.violations[:2]

    def test_self_score_convexity_midpoint(self, rng):
        for S in (binary_brier(), log_spectral()):
            for _ in range(50):
                rho = random_density(3, rng=rng)
                tau = random_density(3, rng=rng)
                mid = hermitian_part((rho + tau) / 2)
                f = lambda r: expected_score(S, r, r)
                assert f(mid) <= (f(rho) + f(tau)) / 2 + 1e-9


class TestSubgradientInequality:
    def test_quadratic_passes(self):
        report = subgradient_inequality_check(
            lambda r: hs_inner(r, r), lambda r: 2 * r, 400, dims=(2, 3), rng=26
        )
        assert report.passed

    def test_neg_entropy_passes_including_rank_deficient(self):
        report = subgradient_inequality_check(
            lambda r: -von_neumann_entropy(r),
            lambda r: matrix_log(r).add_scalar(1.0),
            600,
            dims=(2, 3),
            rng=27,
        )
        assert report.passed, report.violations[:2]

    def test_scaled_selection_fails(self):
        def bad(r):
            E = matrix_log(r).add_scalar(1.0)
            return ExtendedHermitian(1.5 * E.finite_part, E.infinite_part)

        report = subgradient_inequality_check(
            lambda r: -von_neumann_entropy(r), bad, 600, dims=(2, 3), rng=28
        )
        assert not report.passed


class TestPayoffClosedForms:
    """Every registry QuantumScore, through one payoff, against a closed form."""

    @staticmethod
    def _through_payoff(S, r, rho):
        from qelicit.extended import ext_dot

        mu, s = S.payoff(r)
        assert len(s) == len(mu)
        p = np.einsum("yij,ji->y", mu.elements, rho).real
        return ext_dot(p, s)

    @staticmethod
    def _log_pairing(r, rho):
        # <log r, rho>, -inf when rho has mass off the support of r
        w, V = np.linalg.eigh(r)
        weights = np.einsum("iy,ij,jy->y", V.conj(), rho, V).real
        pos = w > 1e-12
        if (weights[~pos] > 1e-12).any():
            return NEG_INF
        return float(weights[pos] @ np.log(w[pos]))

    @classmethod
    def _closed_form(cls, name, r, rho, n):
        from qelicit.measurement import canonical_complete

        inner = np.vdot(r, rho).real
        if name in ("binary-brier", "projective-brier", "spectral:brier"):
            return 2.0 * inner - np.vdot(r, r).real
        if name in ("spectral:log", "ml:s1"):
            return cls._log_pairing(r, rho)
        if name == "ml:s2":
            w = np.linalg.eigvalsh(r)
            return n - np.sum(np.log(w)) - np.vdot(np.linalg.inv(r), rho).real
        if name == "ml:s3":
            return inner
        E = canonical_complete(n).elements
        p = np.einsum("yij,ji->y", E, r).real
        q = np.einsum("yij,ji->y", E, rho).real
        if name == "fixed:brier":
            return 2.0 * p @ q - p @ p
        assert name == "fixed:log"
        return float(q @ np.log(p))

    def _pairs(self, n, rng):
        full = (random_density(n, rng=rng), random_density(n, rng=rng))
        deficient = (
            random_density(n, rank=max(1, n // 2), rng=rng),
            random_density(n, rank=1, rng=rng),
        )
        # belief inside the report's support: <log r, rho> stays finite
        w, V = np.linalg.eigh(deficient[0])
        Vs = V[:, w > 1e-12]
        lam = rng.dirichlet(np.ones(Vs.shape[1]))
        inside = (deficient[0], hermitian_part((Vs * lam) @ Vs.conj().T))
        return {"full": full, "deficient": deficient, "inside": inside}

    def test_registry_scores_match_closed_forms(self, rng):
        from qelicit.registry import SCORE_REGISTRY, make_score

        for n in (2, 8, 16):
            pairs = self._pairs(n, rng)
            for name in SCORE_REGISTRY:
                S = make_score(name, n)
                if not isinstance(S, QuantumScore):
                    continue
                for kind, (r, rho) in pairs.items():
                    if name == "ml:s2" and kind != "full":
                        continue  # full-rank domain only
                    got = self._through_payoff(S, r, rho)
                    want = self._closed_form(name, r, rho, n)
                    if want == NEG_INF:
                        assert got == NEG_INF, (name, n, kind, got)
                    else:
                        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (name, n, kind, got, want)
                    assert expected_score(S, r, rho) == pytest.approx(got, rel=1e-12, abs=1e-12)

    def test_log_scores_are_neg_inf_off_support(self, rng):
        r = random_density(8, rank=3, rng=rng)
        rho = random_density(8, rng=rng)
        for S in (log_spectral(), ml_scores()["s1"]):
            assert self._through_payoff(S, r, rho) == NEG_INF

    def test_measure_and_score_read_payoff(self, rng):
        r = random_density(4, rng=rng)
        for S in (binary_brier(), projective_brier(), log_spectral(), ml_scores()["s2"]):
            mu, s = S.payoff(r)
            assert np.array_equal(S.measure(r).elements, mu.elements)
            assert [S.score(r, y) for y in range(len(mu))] == list(map(float, s))


class TestNearHermitianInputs:
    """A matrix within HERM_TOL of Hermitian is its Hermitian part everywhere."""

    @staticmethod
    def _perturbed(n, rng):
        # a density matrix plus an anti-Hermitian part with max |M - M*| = HERM_TOL / 2
        H = random_hermitian(n, rng=rng)
        return random_density(n, rng=rng) + 1j * (HERM_TOL / 4) * H / np.abs(H).max()

    def test_every_function_sees_the_hermitian_part(self, rng):
        for n in range(2, 9):
            rho, sigma = self._perturbed(n, rng), random_density(n, rng=rng)
            herm = hermitian_part(rho)
            assert float(np.abs(rho - rho.conj().T).max()) > 0.0
            assert np.array_equal(as_density(rho), herm)
            mus = [canonical_complete(n)] + ([hadamard_pvm()] if n == 2 else [])
            for mu in mus:
                assert np.array_equal(apply_measurement(mu, rho), apply_measurement(mu, herm)), n
            assert von_neumann_entropy(rho) == von_neumann_entropy(herm), n
            assert relative_entropy(rho, sigma) == relative_entropy(herm, sigma), n
            assert relative_entropy(sigma, rho) == relative_entropy(sigma, herm), n
            for name in SCORE_REGISTRY:
                S = make_score(name, n)
                for r, b, rh, bh in ((rho, rho, herm, herm), (rho, sigma, herm, sigma), (sigma, rho, sigma, herm)):
                    assert expected_score(S, r, b) == expected_score(S, rh, bh), (name, n)

    def test_measurement_with_asymmetric_elements_applies(self, rng):
        elems = canonical_complete(3).elements.copy()
        elems[0, 0, 1] += 1e-11j
        elems[1, 0, 1] -= 1e-11j
        mu = Measurement(elems)
        assert np.array_equal(mu.elements, hermitian_part(elems))
        rho = random_density(3, rng=rng)
        p = apply_measurement(mu, rho)
        assert np.array_equal(p, apply_measurement(Measurement(hermitian_part(elems)), rho))
        assert abs(p.sum() - 1.0) <= 1e-12


class TestRefusals:
    """Refusals that no sampled check reaches, each with the message it names."""

    def test_quantum_score_names_a_state_of_another_dimension(self):
        rho2, rho3 = random_density(2, rng=1), random_density(3, rng=2)
        for S in (log_spectral(), projective_expression(binary_brier())):  # stack-native, per-report
            with pytest.raises(ValueError, match="^dimension mismatch: state 3, measurement 2$"):
                S.expected(rho2, rho3)

    def test_expected_score_fn_names_a_state_of_another_dimension(self):
        with pytest.raises(ValueError, match="^dimension mismatch: report 2, state 3$"):
            ml_scores()["s4"].expected(random_density(2, rng=1), random_density(3, rng=2))

    def test_fixed_measurement_score_names_a_report_of_another_dimension(self):
        S = fixed_measurement_score(brier_rule(), standard_pvm(2))
        with pytest.raises(ValueError, match="^dimension mismatch: state 3, measurement 2$"):
            S.payoff(random_density(3, rng=2))

    def test_a_per_report_stack_names_a_belief_of_another_dimension(self):
        # the measurement refuses the state (Measurement._probs), so a stacked call names it as a scalar one does
        S = projective_expression(binary_brier())
        with pytest.raises(ValueError, match="^dimension mismatch: state 3, measurement 2$"):
            S.expected_stack(random_density(2, rng=1)[None], random_density(3, rng=2)[None])
        with pytest.raises(ValueError, match="^dimension mismatch: state 3, measurement 2$"):
            standard_pvm(2)._probs(random_density(3, rng=2)[None])

    @pytest.mark.parametrize("build", [
        lambda: QuantumScore(lambda r: (standard_pvm(2), np.array([0.0, 1.0])),
                             stack=lambda R: (standard_pvm(2), np.tile([1.0, 0.0], (len(R), 1)))),
        lambda: spectral_score(brier_rule(), name="mine"),
        lambda: score_from_convex(lambda r: hs_inner(r, r), lambda r: 2 * r, name="mine"),
        lambda: as_density(np.eye(2) / 2, name="rho"),
        lambda: as_unitary(np.eye(2), name="U"),
    ], ids=["QuantumScore.stack", "spectral_score.name", "score_from_convex.name", "as_density.name",
            "as_unitary.name"])
    def test_a_keyword_that_is_gone_is_refused(self, build):
        # the first built a score with two payoffs that could disagree: expected read the stack's, 0.9, the rest 0.1
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()

    def test_a_renamed_score_pays_as_the_unnamed_one_bit_for_bit(self):
        S = spectral_score(brier_rule())
        mine = dataclasses.replace(S, name="mine")
        assert (S.name, mine.name) == ("spectral:brier", "mine")
        R = np.array([random_density(3, rank=r, rng=60 + r) for r in (1, 2, 3)])
        B = np.array([random_density(3, rng=70 + k) for k in range(3)])
        assert [mine.expected(r, b) for r, b in zip(R, B)] == [S.expected(r, b) for r, b in zip(R, B)]
        for a, b in zip(mine.expected_stack(R, B, R), S.expected_stack(R, B, R)):
            assert np.array_equal(a, b)

    def test_a_quantum_score_holds_its_payoff_name_and_domain_only(self):
        assert [f.name for f in dataclasses.fields(QuantumScore)] == ["payoff", "name", "domain"]

    @pytest.mark.parametrize("name", sorted(k for k, e in SCORE_REGISTRY.items() if e.implementable))
    def test_a_score_built_on_a_library_payoff_pays_its_stack_bit_for_bit(self, name):
        # the stack rides on the payoff, so a new score of that payoff pays a stack as the library's does
        S = make_score(name, 3)
        copy = QuantumScore(S.payoff, name="copy")
        R = np.array([random_density(3, rank=r, rng=80 + r) for r in (1, 2, 3)])
        B = np.array([random_density(3, rng=90 + k) for k in range(3)])
        R = R[S.domain(R)] if S.domain is not None else R
        B = B[:len(R)]
        for a, b in zip(copy.expected_stack(R, B, R), S.expected_stack(R, B, R), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["fixed:brier", "spectral:brier"])
    def test_a_replaced_payoff_is_the_one_every_call_pays(self, name):
        # the library's stack is the old payoff's, so it goes with it
        def payoff(r):
            return standard_pvm(2), np.array([1.0, 0.0])

        S = dataclasses.replace(make_score(name, 2), payoff=payoff)
        r, b = np.diag([0.3, 0.7]), np.diag([0.9, 0.1])
        assert S.expected(r, b) == S.expected_stack(r[None], b[None])[0][0] == 0.9
        assert projective_expression(S).expected(r, b) == pytest.approx(0.9, abs=1e-15)
        assert (S.score(r, 0), S.name) == (1.0, name)

    def test_relative_entropy_names_states_of_different_dimensions(self):
        with pytest.raises(ValueError, match="^dimension mismatch: rho 2, sigma 3$"):
            relative_entropy(random_density(2, rng=1), random_density(3, rng=2))

    def test_score_from_convex_refuses_a_selection_neg_inf_at_its_base(self):
        S = score_from_convex(lambda r: 0.0, lambda r: ExtendedHermitian(np.zeros((2, 2)), np.eye(2)))
        with pytest.raises(ValueError, match="-inf at its own base point"):
            S.payoff(random_density(2, rng=1))

    def test_subgradient_check_flags_an_invalid_selection(self):
        # the infinite part diag(1, 0) overlaps negatively with rho - base wherever
        # rho puts less mass on |0> than the base does
        dF = lambda r: ExtendedHermitian(np.zeros((2, 2)), np.diag([1.0, 0.0]))
        report = subgradient_inequality_check(lambda r: 0.0, dF, 64, dims=(2,), rng=0)
        assert report.kind_counts == {"invalid-selection": 35}
        assert all(v["gap"] == "inf" for v in report.to_json()["violations"])



class TestNanPayoffs:
    """A NaN payoff is flagged by every sampled check, or refused where a rule pays it."""

    ALL_NAN = ExpectedScoreFn(lambda reports, *beliefs: [np.full(len(reports), np.nan) for _ in beliefs], name="all-nan")

    def test_nan_on_every_lie_is_irregular_in_strict_truthfulness(self):
        def stack(reports, *beliefs):
            return [np.where(np.linalg.norm(reports - b, axis=(-2, -1)) == 0, 0.0, np.nan) for b in beliefs]

        report = truthfulness_check(ExpectedScoreFn(stack, name="nan-lies"), 400, dims=(2, 3), rng=0)
        assert report.n_violations == 400
        assert report.kind_counts == {"irregular": 400}
        assert all(v["gap"] == "nan" for v in report.to_json()["violations"])

    @pytest.mark.parametrize("check", [unitary_invariance_check, implementability_check])
    def test_all_nan_closure_fails_the_linear_checks(self, check):
        report = check(self.ALL_NAN, 64, dims=(2, 3), rng=0)
        assert report.n_violations == 64
        assert report.max_gap == -np.inf

    @pytest.mark.parametrize("check", [unitary_invariance_check, implementability_check])
    def test_nan_payoff_of_a_measured_score_fails_the_linear_checks(self, check):
        S = QuantumScore(lambda r: (standard_pvm(r.shape[0]), np.full(r.shape[0], np.nan)), name="nan-payoff")
        assert check(S, 32, dims=(2,), rng=0).n_violations == 32

    def test_spectral_score_refuses_a_rule_that_pays_nan(self):
        rule = ClassicalScoringRule(lambda p: np.full(np.shape(p), np.nan), name="all-nan")
        with pytest.raises(ValueError, match="rule 'all-nan' pays NaN"):
            spectral_score(rule)
