"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance and trial count is fixed here; each criterion
also carries a wall-clock budget that is asserted.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qelicit.classical import (
    brier_rule,
    linear_rule,
    log_rule,
    properness_check,
    shannon_entropy,
)
from qelicit.cli import example_mixture_state
from qelicit.extended import NEG_INF, ext_inner, matrix_log
from qelicit.linalg import (
    eigenvalues_desc,
    frob_dist,
    hermitian_part,
    hs_inner,
    random_density,
    random_hermitian,
    random_unitary,
    spectral_decompose,
)
from qelicit.markets import MarketState, WageringRound, lmsr_cost, market_price_state, wagering_payoffs
from qelicit.measurement import (
    apply_measurement,
    basis_pvm,
    canonical_complete,
    hadamard_pvm,
    is_tomographically_complete,
    sample_outcomes,
    standard_pvm,
    tomographic_map,
)
from qelicit.properties import (
    ABSTAIN,
    _shortfall_bound,
    abstain_score,
    eigen_pair_score,
    find_level_set_witness,
    level_set_witness,
    optimize_abstain,
    optimize_eigen_pair,
    optimize_top_eigenvector,
    optimize_weighted_basis,
    top_eigenvector_score,
    top_k_eigenvector_score,
    with_value,
)
from qelicit.registry import make_property, make_score
from qelicit.scores import (
    binary_brier,
    equivalence_check,
    expected_score,
    fixed_meas_expression,
    fixed_measurement_score,
    ml_scores,
    projective_brier,
    projective_expression,
    relative_entropy,
    truthfulness_check,
    von_neumann_entropy,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} PASS  {description}  ({elapsed:.2f}s / budget {budget_seconds:.0f}s)")
    assert elapsed <= budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def test_criterion_01_worked_example_probabilities():
    with criterion(1, "worked-example probabilities exact to 1e-12", 1.0):
        rho = example_mixture_state()
        p_std = apply_measurement(standard_pvm(2), rho)
        assert np.abs(p_std - [1 / 6, 5 / 6]).max() <= 1e-12
        p_had = apply_measurement(hadamard_pvm(), rho)
        assert np.abs(p_had - [2 / 3, 1 / 3]).max() <= 1e-12


def test_criterion_02_classical_properness():
    with criterion(2, "brier/log strictly proper, linear score fails", 10.0):
        for rule in (brier_rule(), log_rule()):
            for dim in (2, 3, 4, 5, 6):
                report = properness_check(rule, 2000, dim, rng=dim)
                assert report.passed, (rule.name, dim, report.violations[:2])
        failing = properness_check(linear_rule(), 2000, 3, rng=0)
        assert not failing.weakly_passed
        recorded = failing.violations[0]
        assert recorded["kind"] == "gain" and recorded["gap"] > 1e-9
        assert "belief" in recorded and "report" in recorded


def test_criterion_03_quantum_truthfulness_suite():
    with criterion(3, "truthful scores pass strict at 1e4 trials; s3/s4/s5 fail", 120.0):
        # dimension-generic scores: one instance across dims 2..4
        generic = [
            binary_brier(),
            projective_brier(),
            make_score("spectral:brier", 2),
            make_score("spectral:log", 2),
            make_score("ml:s2", 2),
        ]
        for S in generic:
            report = truthfulness_check(S, 10_000, dims=(2, 3, 4), rng=41)
            assert report.passed, (S.name, report.violations[:2])
        # fixed-measurement scores are dimension-specific
        for name in ("fixed:brier", "fixed:log"):
            for dim in (2, 3, 4):
                S = make_score(name, dim)
                report = truthfulness_check(S, 3334, dims=(dim,), rng=42 + dim)
                assert report.passed, (name, dim, report.violations[:2])

        ml = ml_scores()
        belief = np.diag([0.6, 0.4]).astype(complex)
        lie = np.diag([1.0, 0.0]).astype(complex)
        s3_gap = expected_score(ml["s3"], lie, belief) - expected_score(ml["s3"], belief, belief)
        assert s3_gap >= 0.08 - 1e-12
        assert expected_score(ml["s3"], belief, belief) == pytest.approx(0.52, abs=1e-12)
        assert expected_score(ml["s3"], lie, belief) == pytest.approx(0.6, abs=1e-12)
        for key in ("s3", "s4", "s5"):
            report = truthfulness_check(ml[key], 2000, dims=(2, 3), rng=43)
            assert not report.weakly_passed and report.kind_counts["gain"] > 0, key
            gap = expected_score(ml[key], lie, belief) - expected_score(ml[key], belief, belief)
            assert gap > 1e-9, key


def test_criterion_04_equivalence_transforms():
    with criterion(4, "equivalence transforms agree within 1e-8", 30.0):
        report = equivalence_check(projective_brier(), binary_brier(), 1000, dims=(2, 3, 4), rng=44)
        assert report.passed, report.violations[:2]
        for S, dim in ((binary_brier(), 2), (projective_brier(), 3)):
            mu = canonical_complete(dim)
            expr = fixed_meas_expression(S, mu)
            report = equivalence_check(expr, S, 1000, dims=(dim,), rng=45)
            assert report.passed, (S.name, report.violations[:2])
        fixed = fixed_measurement_score(brier_rule(), canonical_complete(2))
        proj = projective_expression(fixed)
        report = equivalence_check(proj, fixed, 1000, dims=(2,), rng=46)
        assert report.passed, report.violations[:2]


def test_criterion_05_entropy_identities():
    with criterion(5, "entropy matches Shannon; divergence nonnegative and faithful", 10.0):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
            assert von_neumann_entropy(np.diag(p).astype(complex)) == pytest.approx(
                shannon_entropy(p), abs=1e-10
            )
        for _ in range(10_000):
            n = int(rng.integers(2, 4))
            rho = random_density(n, rank=int(rng.integers(1, n + 1)), rng=rng)
            sig = random_density(n, rank=int(rng.integers(1, n + 1)), rng=rng)
            d = relative_entropy(rho, sig)
            assert d >= -1e-9
            if d <= 1e-8 and np.isfinite(d):
                assert frob_dist(rho, sig) <= 1e-6
        rho = random_density(3, rng=rng)
        for _ in range(50):
            sig = random_density(3, rank=int(rng.integers(1, 3)), rng=rng)
            assert ext_inner(matrix_log(sig), rho) == NEG_INF
            assert relative_entropy(rho, sig) == np.inf
        assert relative_entropy(rho, rho) <= 1e-8


def test_criterion_06_trace_inequality():
    with criterion(6, "eigenvalue pairing bounds the inner product", 10.0):
        rng = np.random.default_rng(48)
        for dim in (2, 3, 4, 5, 6):
            # batched construction of 2000 Hermitian pairs per dimension
            raw = rng.standard_normal((2000, 2, dim, dim)) + 1j * rng.standard_normal(
                (2000, 2, dim, dim)
            )
            herm = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2
            A, B = herm[:, 0], herm[:, 1]
            lamA = np.linalg.eigvalsh(A)[:, ::-1]
            lamB = np.linalg.eigvalsh(B)[:, ::-1]
            inner = np.einsum("nij,nij->n", np.conj(A), B).real
            bound = np.einsum("ni,ni->n", lamA, lamB)
            assert (inner <= bound + 1e-9).all()
        # equality under a shared eigenbasis
        for _ in range(200):
            n = int(rng.integers(2, 7))
            A = random_hermitian(n, rng=rng)
            V = spectral_decompose(A).eigenvectors
            lamB = np.sort(rng.standard_normal(n))[::-1]
            B = hermitian_part((V * lamB) @ V.conj().T)
            assert hs_inner(A, B) == pytest.approx(
                eigenvalues_desc(A) @ lamB, abs=1e-8
            )


def test_criterion_07_tomography():
    with criterion(7, "canonical POVM complete with exact pseudoinverse; PVMs never", 5.0):
        rng = np.random.default_rng(49)
        for n in range(1, 7):
            mu = canonical_complete(n)
            assert len(mu) == n * n
            assert is_tomographically_complete(mu)
            tmap = tomographic_map(mu)
            assert np.abs(tmap.pinv @ tmap.matrix - np.eye(n * n)).max() <= 1e-8
            rho = random_density(n, rng=rng)
            assert frob_dist(tmap.reconstruct(tmap.probs(rho)), rho) <= 1e-8
        for n in range(2, 7):
            assert not is_tomographically_complete(standard_pvm(n))
            assert not is_tomographically_complete(basis_pvm(random_unitary(n, rng=rng)))


def test_criterion_08_property_elicitation():
    with criterion(8, "optimizers recover spectral ground truth within 1e-5", 120.0):
        rng = np.random.default_rng(50)
        top_score = top_eigenvector_score()
        topk_weights = np.array([2.0, 1.0])
        topk_score = top_k_eigenvector_score(topk_weights)
        pair_score = eigen_pair_score(2)
        value_score = with_value(top_score, lambda a: a * a, lambda a: 2 * a)
        for i in range(100):
            dim = 2 + i % 3
            rho = random_density(dim, rng=rng)
            lam = eigenvalues_desc(rho)

            # each answer's certificate (inf when its gap test fails) is at or above its true shortfall
            x, val = optimize_top_eigenvector(rho, restarts=50, rng=rng)
            assert abs(val - lam[0]) <= 1e-5
            assert abs(top_score.expected(x, rho) - lam[0]) <= 1e-5
            assert _shortfall_bound(rho, x[:, None], np.ones(1)) >= lam[0] - val

            if dim >= 2:
                X, val = optimize_weighted_basis(rho, topk_weights, 2, restarts=50, rng=rng)
                assert abs(val - topk_weights @ lam[:2]) <= 1e-5
                assert abs(topk_score.expected(X, rho) - topk_weights @ lam[:2]) <= 1e-5
                assert _shortfall_bound(rho, X, topk_weights) >= topk_weights @ lam[:2] - val

                A, val = optimize_eigen_pair(rho, 2, restarts=50, rng=rng)
                target = lam[:2] @ lam[:2]
                assert abs(val - target) <= 1e-5
                assert abs(pair_score.expected(A, rho) - target) <= 1e-5
                assert _shortfall_bound(rho, spectral_decompose(A).eigenvectors[:, :2]) >= target - val  # A's frame

            alpha = top_score.expected(x, rho)  # the augmented report attaches the achieved expected score
            assert abs(alpha - lam[0]) <= 1e-5
            assert abs(value_score.expected((alpha, x), rho) - lam[0] ** 2) <= 1e-5

        # abstain threshold behavior, exact at probes on either side
        score = abstain_score(0.6, 2)
        below = np.eye(2, dtype=complex) / 2
        rep, val = optimize_abstain(score, below, restarts=20, rng=rng)
        assert rep is ABSTAIN and val == pytest.approx(0.6, abs=1e-12)
        above = np.diag([0.9, 0.1]).astype(complex)
        rep, val = optimize_abstain(score, above, restarts=20, rng=rng)
        assert rep is not ABSTAIN and val == pytest.approx(0.9, abs=1e-6)
        at = np.diag([0.6, 0.4]).astype(complex)
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert score.expected(ABSTAIN, at) == pytest.approx(score.expected(e1, at), abs=1e-12)


def test_criterion_09_level_set_witnesses():
    with criterion(9, "level-set counterexamples for spectra, entropies, norms", 10.0):
        rho1 = np.diag([0.25, 0.75]).astype(complex)
        rho2 = np.diag([0.75, 0.25]).astype(complex)
        for name in ("eigenvalues", "max-eigenvalue"):
            w = level_set_witness(make_property(name, 2), rho1, rho2)
            assert w.is_counterexample, name
        rng = np.random.default_rng(51)
        for name in ("entropy", "tsallis2", "norm2"):
            w = find_level_set_witness(make_property(name, 3), 3, probes=100, rng=rng)
            assert w is not None and w.is_counterexample, name


def test_criterion_10_markets():
    with criterion(10, "wagering balance, bounded maker loss, conjugate prices", 60.0):
        rng = np.random.default_rng(52)
        score = fixed_measurement_score(brier_rule(), canonical_complete(2))
        for m in range(2, 7):
            reports = [random_density(2, rank=int(rng.integers(1, 3)), rng=rng) for _ in range(m)]
            rnd = WageringRound(reports, score, random_density(2, rng=rng))
            assert abs(wagering_payoffs(rnd).sum()) <= 1e-9
            assert abs(wagering_payoffs(rnd, mode="realized", rng=rng).sum()) <= 1e-9

        for _ in range(1000):
            n = int(rng.integers(2, 5))
            market = MarketState(n)
            for _ in range(int(rng.integers(1, 6))):
                market.trade(2.0 * random_hermitian(n, rng=rng))
            truth = random_density(n, rank=int(rng.integers(1, n + 1)), rng=rng)
            assert market.maker_loss(truth) <= np.log(n) + 1e-9

        for _ in range(100):
            n = int(rng.integers(2, 6))
            Q = 2.0 * random_hermitian(n, rng=rng)
            rho = market_price_state(Q)
            assert abs(
                lmsr_cost(Q) - hs_inner(Q, rho) - von_neumann_entropy(rho)
            ) <= 1e-8
        h = 1e-6
        for _ in range(50):
            n = int(rng.integers(2, 5))
            Q = 2.0 * random_hermitian(n, rng=rng)
            D = random_hermitian(n, rng=rng)
            fd = (lmsr_cost(Q + h * D) - lmsr_cost(Q - h * D)) / (2 * h)
            assert abs(fd - hs_inner(market_price_state(Q), D)) <= 1e-5


def test_criterion_11_sampling_statistics():
    with criterion(11, "empirical frequencies within 3-sigma binomial bounds", 30.0):
        rho = example_mixture_state()
        n_draws = 1_000_000
        cases = [
            (standard_pvm(2), np.array([1 / 6, 5 / 6])),
            (hadamard_pvm(), np.array([2 / 3, 1 / 3])),
        ]

        def attempt(seed) -> bool:
            for mu, probs in cases:
                draws = sample_outcomes(mu, rho, n_draws, rng=np.random.default_rng(seed))
                freq = np.bincount(draws, minlength=2) / n_draws
                sigma = np.sqrt(probs * (1 - probs) / n_draws)
                if (np.abs(freq - probs) > 3 * sigma).any():
                    return False
            return True

        # flaky-test budget: one rerun allowed, both may not fail
        assert attempt(53) or attempt(54)
