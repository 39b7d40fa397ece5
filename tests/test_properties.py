import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from qelicit.linalg import (
    as_density,
    eigenvalues_desc,
    frob_dist,
    hermitian_part,
    hs_inner,
    random_density,
    random_pure,
    random_unitary,
    spectral_decompose,
)
from qelicit.measurement import apply_measurement, canonical_complete, standard_pvm, tomographic_map
from qelicit.properties import (
    ABSTAIN,
    QuantumProperty,
    abstain_score,
    eigen_pair_score,
    expectation_property,
    find_level_set_witness,
    level_set_witness,
    optimize_abstain,
    optimize_eigen_pair,
    optimize_top_eigenvector,
    optimize_weighted_basis,
    top_bottom_score,
    top_eigenvector_score,
    top_k_eigenvector_score,
    with_value,
)
from qelicit import properties
from qelicit.properties import _ascend, _orthonormalize_plain
from qelicit.registry import make_property
from qelicit.scores import FULL_RANK_TOL, von_neumann_entropy


class TestExpectationProperty:
    def test_property_is_observable_inner_product(self, rng):
        mu = canonical_complete(2)
        z = rng.standard_normal(len(mu))
        prop, _ = expectation_property(z, mu)
        A = hermitian_part(sum(zy * e for zy, e in zip(z, mu)))
        for _ in range(20):
            rho = random_density(2, rng=rng)
            assert prop.eval(rho) == pytest.approx(hs_inner(A, rho), abs=1e-10)

    def test_outcome_indicator_elicits_probability(self, rng):
        mu = standard_pvm(2)
        z = np.array([1.0, 0.0])
        prop, _ = expectation_property(z, mu)
        rho = random_density(2, rng=rng)
        assert prop.eval(rho) == pytest.approx(apply_measurement(mu, rho)[0], abs=1e-10)

    def test_quadratic_score_maximized_at_property_value(self, rng):
        mu = canonical_complete(2)
        z = rng.standard_normal(len(mu))
        prop, score = expectation_property(z, mu)
        for _ in range(10):
            rho = random_density(2, rng=rng)
            target = prop.eval(rho)
            # closed-form maximizer of a quadratic plus sampled probes
            best = max(
                score.expected(target + dr, rho) for dr in rng.standard_normal(20) * 0.3
            )
            opt = score.expected(target, rho)
            assert opt >= best - 1e-12
            grid = np.linspace(target - 1.0, target + 1.0, 41)
            vals = [score.expected(r, rho) for r in grid]
            assert abs(grid[int(np.argmax(vals))] - target) <= 1e-6 + 0.051


class TestTopEigenvector:
    def test_diagonal_case(self):
        score = top_eigenvector_score()
        rho = np.diag([0.9, 0.1]).astype(complex)
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert score.expected(e1, rho) == pytest.approx(0.9, abs=1e-12)

    def test_expected_is_projector_overlap(self, rng):
        score = top_eigenvector_score()
        rho = random_density(3, rng=rng)
        x = random_pure(3, rng=rng)
        assert score.expected(x, rho) == pytest.approx(
            hs_inner(np.outer(x, x.conj()), rho), abs=1e-10
        )

    def test_rejects_non_unit_report(self, rng):
        with pytest.raises(ValueError, match="unit"):
            top_eigenvector_score().measure(np.array([1.0, 1.0]))

    def test_optimizer_recovers_top_eigenvalue(self, rng):
        for _ in range(10):
            rho = random_density(3, rng=rng)
            _, val = optimize_top_eigenvector(rho, restarts=15, rng=rng)
            assert val == pytest.approx(eigenvalues_desc(rho)[0], abs=1e-6)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_certified_within_six_passes(self, n, monkeypatch):
        # a pass is one evaluation of the live stack after the first; the certificate ends the call
        for s in range(20):
            rho, passes, bounds = random_density(n, rng=s), [], []

            def spy(X0, f, iters, cert=None):
                def counted(X):
                    passes.append(len(X))
                    return f(X)

                def read(X):
                    bounds.append(cert(X))
                    return bounds[-1]

                return _ascend(X0, counted, iters, read)

            monkeypatch.setattr(properties, "_ascend", spy)
            _, val = optimize_top_eigenvector(rho, rng=s)
            assert len(passes) - 1 <= 6, s
            assert bounds and bounds[-1] <= properties.CERT_TOL, s
            assert val == pytest.approx(eigenvalues_desc(rho)[0], abs=properties.CERT_TOL), s

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_every_step_size_gains(self, n):
        # the direction P x rises with rho's eigenvalues, so (I + sP)x is never below x, for any s > 0
        rho = random_density(n, rng=n)
        X0, f, _ = _ascent_of(lambda: optimize_top_eigenvector(rho, restarts=20, rng=n))
        before, G = f(X0)
        for s in (1e-6, 0.5, 4.0, 64.0, 1e6):
            after = f(_orthonormalize_plain(X0 + s * G))[0]
            assert np.all(after >= before - 1e-15), s


class TestTopK:
    def test_k1_scales_top_eigenvector(self, rng):
        s1 = top_eigenvector_score()
        sk = top_k_eigenvector_score([2.0])
        rho = random_density(3, rng=rng)
        x = random_pure(3, rng=rng)
        assert sk.expected(x.reshape(-1, 1), rho) == pytest.approx(
            2.0 * s1.expected(x, rho), abs=1e-10
        )

    def test_diagonal_prefix_is_optimal(self):
        v = np.array([2.0, 1.0])
        score = top_k_eigenvector_score(v)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        X = np.eye(3, dtype=complex)[:, :2]
        assert score.expected(X, rho) == pytest.approx(2.0 * 0.5 + 1.0 * 0.3, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        score = top_k_eigenvector_score([2.0, 1.0])
        X = np.ones((3, 2), dtype=complex) / np.sqrt(3)
        with pytest.raises(ValueError, match="orthonormal"):
            score.measure(X)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="decreasing"):
            top_k_eigenvector_score([1.0, 1.0])
        with pytest.raises(ValueError, match="decreasing"):
            top_k_eigenvector_score([2.0, -1.0])

    def test_optimizer_matches_weighted_eigenvalues(self, rng):
        v = np.array([2.0, 1.0])
        for _ in range(8):
            rho = random_density(4, rng=rng)
            _, val = optimize_weighted_basis(rho, v, 2, restarts=15, rng=rng)
            lam = eigenvalues_desc(rho)
            assert val == pytest.approx(v @ lam[:2], abs=1e-6)

    def test_optimal_reports_are_eigenvectors(self, rng):
        # at the optimum each reported column is an eigenvector: the
        # eigenvalue-pairing bound is tight only on shared eigenbases
        v = np.array([2.0, 1.0])
        for _ in range(5):
            rho = random_density(3, rng=rng)
            lam = eigenvalues_desc(rho)
            X, _ = optimize_weighted_basis(rho, v, 2, restarts=20, rng=rng)
            for i in range(2):
                x = X[:, i]
                assert np.linalg.norm(rho @ x - lam[i] * x) <= 1e-6


class TestTopBottom:
    def test_m0_reduces_to_top_k(self, rng):
        v = np.array([2.0, 1.0, 0.0])
        tb = top_bottom_score(v)
        tk = top_k_eigenvector_score([2.0, 1.0])
        rho = random_density(3, rng=rng)
        X = spectral_decompose(random_density(3, rng=rng)).eigenvectors[:, :2]
        assert tb.expected(X, rho) == pytest.approx(tk.expected(X, rho), abs=1e-10)

    def test_optimum_value_n3_k1_m1(self, rng):
        v = np.array([1.0, 0.0, -1.0])
        score = top_bottom_score(v)
        rho = random_density(3, rng=rng)
        lam = eigenvalues_desc(rho)
        dec = spectral_decompose(rho)
        X = dec.eigenvectors[:, [0, 2]]
        assert score.expected(X, rho) == pytest.approx(lam[0] - lam[2], abs=1e-10)
        _, val = optimize_weighted_basis(rho, np.array([1.0, -1.0]), 2, restarts=15, rng=rng)
        assert val == pytest.approx(lam[0] - lam[2], abs=1e-6)

    def test_value_invariant_to_middle_completion(self, rng):
        # zero middle weights make the arbitrary completion irrelevant
        v = np.array([1.0, 0.0, 0.0, -1.0])
        score = top_bottom_score(v)
        rho = random_density(4, rng=rng)
        dec = spectral_decompose(random_density(4, rng=rng))
        X = dec.eigenvectors[:, [0, 3]]
        direct = hs_inner(
            np.outer(X[:, 0], X[:, 0].conj()) - np.outer(X[:, 1], X[:, 1].conj()), rho
        )
        assert score.expected(X, rho) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("n, k, m", [(3, 1, 1), (4, 1, 1), (5, 2, 1), (4, 2, 2), (3, 0, 1)])
    def test_measurement_is_the_frame_then_the_rest(self, rng, n, k, m):
        # one outcome per reported column, paying its weight, then the rest of the space paying 0
        v = np.r_[np.arange(k, 0, -1.0), np.zeros(n - k - m), -np.arange(1.0, m + 1)]
        X = spectral_decompose(random_density(n, rng=rng)).eigenvectors[:, : k + m]
        rho = random_density(n, rng=rng)
        mu, s = top_bottom_score(v).payoff(X)
        assert len(top_bottom_score(v).measure(X)) == len(mu) == len(s) == k + m + 1
        assert np.abs(mu.elements.sum(axis=0) - np.eye(n)).max() <= 1e-12
        weights = np.r_[v[:k], v[n - m:]]
        direct = sum(w * np.vdot(x, rho @ x).real for w, x in zip(weights, X.T))
        assert top_bottom_score(v).expected(X, rho) == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError, match="zero"):
            top_bottom_score([1.0, -1.0, 0.0])
        with pytest.raises(ValueError, match="negative"):
            top_bottom_score([1.0, -2.0, -1.0])


class TestEigenPair:
    def test_full_rank_optimum_is_purity(self, rng):
        score = eigen_pair_score(3)
        rho = random_density(3, rng=rng)
        assert score.expected(rho, rho) == pytest.approx(hs_inner(rho, rho), abs=1e-10)

    def test_diagonal_k1_optimum(self):
        score = eigen_pair_score(1)
        rho = np.diag([0.6, 0.4]).astype(complex)
        A = np.diag([0.6, 0.0]).astype(complex)
        assert score.expected(A, rho) == pytest.approx(0.36, abs=1e-12)

    def test_rank_bound_enforced(self, rng):
        score = eigen_pair_score(1)
        with pytest.raises(ValueError, match="rank"):
            score.measure(np.diag([0.6, 0.4]).astype(complex))

    def test_rank_bound_is_full_rank_tol(self):
        # an eigenvalue past index k counts as zero up to FULL_RANK_TOL, the threshold ml:s2's reports must exceed
        score = eigen_pair_score(1)
        score.measure(np.diag([1.0, FULL_RANK_TOL]))
        with pytest.raises(ValueError, match=r"^report rank exceeds 1: eigenvalue 1\.000e-08 at index 1$"):
            score.measure(np.diag([1.0, np.nextafter(FULL_RANK_TOL, 1.0)]))

    def test_report_that_is_not_psd_refused(self):
        with pytest.raises(ValueError, match=r"^report is not PSD: min eigenvalue -5\.000e-01$"):
            eigen_pair_score(2).measure(np.diag([1.5, 0.0, -0.5]))

    def test_optimizer_matches_truncated_projection(self, rng):
        score = eigen_pair_score(2)
        for _ in range(8):
            rho = random_density(4, rng=rng)
            lam = eigenvalues_desc(rho)
            A, val = optimize_eigen_pair(rho, 2, restarts=15, rng=rng)
            assert val == pytest.approx(lam[:2] @ lam[:2], abs=1e-5)
            assert score.expected(A, rho) == pytest.approx(val, abs=1e-9)
            dec = spectral_decompose(rho)
            truncated = (dec.eigenvectors[:, :2] * lam[:2]) @ dec.eigenvectors[:, :2].conj().T
            assert frob_dist(A, truncated) <= 1e-4


class TestWithValue:
    def test_quadratic_value_augmentation_formula(self, rng):
        # G(a) = a^2 turns the top-eigenvector score into a binary Brier form
        base = top_eigenvector_score()
        aug = with_value(base, lambda a: a * a, lambda a: 2 * a)
        x = random_pure(2, rng=rng)
        alpha = 0.7
        assert aug.score((alpha, x), 1) == pytest.approx(2 * alpha - alpha**2, abs=1e-12)
        assert aug.score((alpha, x), 0) == pytest.approx(-(alpha**2), abs=1e-12)

    def test_optimal_alpha_is_base_expected_score(self, rng):
        base = top_eigenvector_score()
        aug = with_value(base, lambda a: a * a, lambda a: 2 * a)
        rho = random_density(3, rng=rng)
        x = random_pure(3, rng=rng)
        star = base.expected(x, rho)
        vals = [aug.expected((a, x), rho) for a in np.linspace(0.01, 1, 100)]
        assert max(vals) <= aug.expected((star, x), rho) + 1e-12

    def test_recovers_top_eigenvalue(self, rng):
        base = top_eigenvector_score()
        aug = with_value(base, lambda a: a * a, lambda a: 2 * a)
        for _ in range(8):
            rho = random_density(3, rng=rng)
            x, v = optimize_top_eigenvector(rho, restarts=15, rng=rng)
            alpha = v  # the augmented report attaches the achieved expected score
            lam1 = eigenvalues_desc(rho)[0]
            assert alpha == pytest.approx(lam1, abs=1e-6)
            assert aug.expected((alpha, x), rho) == pytest.approx(lam1**2, abs=1e-6)

    def test_rejects_nonpositive_slope(self, rng):
        base = top_eigenvector_score()
        aug = with_value(base, lambda a: a, lambda a: 0.0)
        with pytest.raises(ValueError, match="positive"):
            aug.score((0.5, random_pure(2, rng=rng)), 1)


class TestAbstain:
    def test_threshold_behavior(self):
        score = abstain_score(0.6, 2)
        low = np.eye(2, dtype=complex) / 2
        assert score.expected(ABSTAIN, low) == pytest.approx(0.6)
        rep, val = optimize_abstain(score, low, restarts=8, rng=1)
        assert rep is ABSTAIN and val == pytest.approx(0.6)

        high = np.diag([0.9, 0.1]).astype(complex)
        rep, val = optimize_abstain(score, high, restarts=8, rng=2)
        assert rep is not ABSTAIN
        assert val == pytest.approx(0.9, abs=1e-8)

    def test_tie_at_threshold(self):
        score = abstain_score(0.6, 2)
        rho = np.diag([0.6, 0.4]).astype(complex)
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert score.expected(ABSTAIN, rho) == pytest.approx(score.expected(e1, rho), abs=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            abstain_score(1.5, 2)


class TestLevelSets:
    def test_eigenvalue_counterexample(self):
        rho1 = np.diag([0.25, 0.75]).astype(complex)
        rho2 = np.diag([0.75, 0.25]).astype(complex)
        w = level_set_witness(make_property("eigenvalues", 2), rho1, rho2)
        assert w.is_counterexample
        assert np.allclose(w.value_1, [0.75, 0.25])
        assert np.allclose(w.value_mix, [0.5, 0.5])

    def test_max_eigenvalue_counterexample(self):
        rho1 = np.diag([0.25, 0.75]).astype(complex)
        rho2 = np.diag([0.75, 0.25]).astype(complex)
        w = level_set_witness(make_property("max-eigenvalue", 2), rho1, rho2)
        assert w.is_counterexample

    def test_a_found_witness_reports_the_midpoint(self):
        w = find_level_set_witness(make_property("entropy", 3), 3, probes=20, rng=0)
        assert w.is_counterexample and w.t == 0.5 and w.to_json()["t"] == 0.5
        mix = (w.rho_1 + w.rho_2) / 2
        assert w.value_mix == pytest.approx(make_property("entropy", 3).eval(mix), abs=1e-12)

    def test_midpoint_finds_no_counterexample_for_eigvec_top(self):
        rho1, rho2 = np.diag([0.6, 0.4]).astype(complex), np.diag([0.9, 0.1]).astype(complex)
        w = level_set_witness(make_property("eigvec-top", 2), rho1, rho2)
        assert w.t == 0.5 and not w.is_counterexample

    def test_expectation_never_gives_counterexample(self, rng):
        mu = canonical_complete(2)
        prop, _ = expectation_property(rng.standard_normal(len(mu)), mu)
        assert find_level_set_witness(prop, 2, probes=100, rng=rng) is None

    def test_witnesses_found_for_entropy_family(self, rng):
        for name in ("entropy", "tsallis2", "norm2"):
            w = find_level_set_witness(make_property(name, 3), 3, probes=100, rng=rng)
            assert w is not None, name
            assert w.is_counterexample

    def test_top_eigenvector_no_witness(self, rng):
        # elicitable, so its level sets are convex and the search fails
        prop = make_property("eigvec-top", 2)
        assert find_level_set_witness(prop, 2, probes=50, rng=rng) is None

    def test_a_search_evaluates_a_midpoint_only_where_the_pair_agrees(self):
        # an elicitable property's pairs never agree, so each probe costs two evaluations, not three
        base = make_property("eigvec-top", 3)
        evals = []
        prop = QuantumProperty(lambda rho: evals.append(1) or base.eval(rho), base.name)
        assert find_level_set_witness(prop, 3, probes=20, rng=0) is None
        assert len(evals) == 40

    @pytest.mark.parametrize("name", ["eigenvalues", "max-eigenvalue", "entropy", "tsallis2", "norm2"])
    def test_a_found_witness_is_what_level_set_witness_gives_its_pair(self, name):
        # the search's draws, one probe after another, each pair judged by level_set_witness
        from qelicit.linalg import random_unitary

        prop = make_property(name, 3)
        found = find_level_set_witness(prop, 3, probes=20, rng=7)
        g = np.random.default_rng(7)
        for _ in range(20):
            rho1 = random_density(3, rng=g)
            U = random_unitary(3, rng=g)
            w = level_set_witness(prop, rho1, hermitian_part(U @ rho1 @ U.conj().T))
            if w.is_counterexample:
                break
        assert found is not None and found.to_json() == w.to_json()

    @pytest.mark.parametrize("dim, probes, name", [(2, -5, "probes"), (2, 0, "probes"), (1, 10, "dim")])
    def test_search_that_tests_nothing_is_refused(self, dim, probes, name):
        # a None here would read as "no counterexample" without a single probe
        with pytest.raises(ValueError, match=name):
            find_level_set_witness(make_property("entropy", 2), dim, probes=probes, rng=0)

    @pytest.mark.parametrize("dim, probes, message", [
        (2, 2.5, "probes must be an integer of at least 1, got 2.5"),
        (2, True, "probes must be an integer of at least 1, got True"),
        (3.0, 5, "dim must be an integer of at least 2, got 3.0"),
        (2, 0, "probes must be at least 1, got 0"),
        (1, 10, "dim must be at least 2, got 1"),
    ])
    def test_non_integer_counts_are_refused_and_low_ones_keep_their_messages(self, dim, probes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_level_set_witness(make_property("entropy", 2), dim, probes=probes, rng=0)


def _one_at_a_time(dim, g):
    # the pairs a probe-at-a-time search draws from g, as it draws them
    while True:
        rho1 = random_density(dim, rng=g)
        U = random_unitary(dim, rng=g)
        yield rho1, hermitian_part(U @ rho1 @ U.conj().T)


def _reference_search(prop, dim, probes, g):
    # the probe-at-a-time search: draw one pair, judge it with level_set_witness, stop at a counterexample
    for i, pair in enumerate(itertools.islice(_one_at_a_time(dim, g), probes)):
        w = level_set_witness(prop, *pair)
        if w.is_counterexample:
            return i, w
    return None, None


def _flag_at(target):
    # 1.0 on states whose top eigenvalue is within 1e-12 of target, else 0.0: a probe's pair always agrees, and
    # only the probe whose rho1 has that top eigenvalue is a counterexample (its midpoint's top eigenvalue is lower)
    return lambda rho: float(abs(eigenvalues_desc(rho)[0] - target) <= 1e-12)


class _SpyGenerator(np.random.Generator):
    """A generator that records the size of each standard_normal call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.sizes = []

    def standard_normal(self, size=None, *args, **kwargs):
        self.sizes.append(size)
        return super().standard_normal(size, *args, **kwargs)


class TestBlockSearch:
    """The search draws its probes in blocks and screens them with a property's stacked evaluator."""

    @pytest.mark.parametrize("probes", [1, 64, 65, 130])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_block_draws_are_the_probe_at_a_time_draws(self, dim, probes):
        # a stacked evaluator whose values never agree sees every block of rho1 and of rho2, and no witness is found
        seen = []

        def stack(rhos):
            seen.append(rhos.copy())
            return np.arange(len(rhos)) + 1000.0 * len(seen)

        prop = QuantumProperty(lambda rho: 0.0, "spy", _stack=stack)
        g, ref = np.random.default_rng(dim * 1000 + probes), np.random.default_rng(dim * 1000 + probes)
        assert find_level_set_witness(prop, dim, probes, g) is None
        rho1, rho2 = np.array(list(itertools.islice(_one_at_a_time(dim, ref), probes))).swapaxes(0, 1)
        assert np.concatenate(seen[0::2]).tobytes() == rho1.tobytes()
        assert np.concatenate(seen[1::2]).tobytes() == rho2.tobytes()
        assert g.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("at", [5, 100])
    def test_an_early_return_leaves_the_generator_where_a_probe_at_a_time_search_does(self, at, stacked):
        # the counterexample is probe 5 (first block) or probe 100 (second block) of a 130-probe search
        rho1 = list(itertools.islice(_one_at_a_time(3, np.random.default_rng(11)), at + 1))[-1][0]
        value = _flag_at(eigenvalues_desc(rho1)[0])
        prop = QuantumProperty(value, "flag", _stack=(lambda rhos: [value(r) for r in rhos]) if stacked else None)
        g, ref = np.random.default_rng(11), np.random.default_rng(11)
        found = find_level_set_witness(prop, 3, 130, g)
        i, w = _reference_search(prop, 3, 130, ref)
        assert i == at and found.to_json() == w.to_json()
        assert g.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", ["eigvec-top", "expectation"])
    def test_stack_is_eval_bit_for_bit(self, name, dim):
        prop = make_property(name, dim)
        for rhos in properties._probe_block(np.random.default_rng(dim), 64, dim):
            for value, rho in zip(prop._stack(rhos), rhos):
                a, b = np.asarray(value), np.asarray(prop.eval(rho))
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_eigvec_top_stack_is_eval_bit_for_bit_on_ties_and_rank_deficient_states(self, dim):
        # an exact top tie takes the first tied column in the solver's order, as eval's stable sort does
        g = np.random.default_rng(52)
        half = np.diag(np.r_[0.5, 0.5, np.zeros(dim - 2)]).astype(complex)
        U = random_unitary(dim, rng=g)
        rhos = np.array([half, np.eye(dim, dtype=complex) / dim, hermitian_part(U @ half @ U.conj().T),
                         *(random_density(dim, rank=1 + k % dim, rng=g) for k in range(12))])
        prop = make_property("eigvec-top", dim)
        stacked = np.asarray(prop._stack(rhos))
        assert stacked.tobytes() == spectral_decompose(rhos).eigenvectors[:, :, 0].tobytes()
        for value, rho in zip(stacked, rhos):
            a, b = np.asarray(value), np.asarray(prop.eval(rho))
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("name", ["eigvec-top", "expectation"])
    def test_a_registry_search_screens_by_stacks_alone(self, name):
        # 200 probes: no per-state evaluation, and no draw of more than one block
        evals, dim = [], 3
        base = make_property(name, dim)
        prop = dataclasses.replace(base, eval=lambda rho: evals.append(1) or base.eval(rho))
        g = _SpyGenerator(5)
        assert find_level_set_witness(prop, dim, 200, g) is None
        assert evals == []
        assert g.sizes == [(64, 4, dim, dim)] * 3 + [(8, 4, dim, dim)]

    @staticmethod
    def _phase_direction(rho):
        # the unit direction of rho's spectrum times a phase that depends on rho's basis: complex values whose
        # pairs agree up to phase, and whose midpoints differ
        lam = eigenvalues_desc(rho)
        return lam / np.linalg.norm(lam) * np.exp(1j * np.angle(rho[0, 1] + 1e-3))

    @pytest.mark.parametrize("name", ["eigvec-top", "expectation", "eigenvalues", "max-eigenvalue", "entropy",
                                      "tsallis2", "norm2", "phase-direction"])
    def test_the_screen_keeps_the_per_probe_results(self, name, monkeypatch):
        # 200 seeded searches at n = 2-4 of 1, 20 and 65 probes, each property stacked so that its blocks are
        # screened; every witness, every None and the generator's state after match a search that hands every
        # pair of a block to _value_dist, one by one
        screen = properties._screen
        for seed in range(200):
            dim, probes = 2 + seed % 3, (1, 20, 65)[seed // 3 % 3]
            if name == "phase-direction":
                prop = QuantumProperty(self._phase_direction, name)
            else:
                prop = make_property(name, dim)
            stacked = prop if prop._stack else dataclasses.replace(prop, _stack=lambda rhos, f=prop.eval: [f(r) for r in rhos])
            g, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            monkeypatch.setattr(properties, "_screen", screen)
            found = find_level_set_witness(stacked, dim, probes, g)
            monkeypatch.setattr(properties, "_screen", lambda v1, v2: range(len(v1)))
            w = find_level_set_witness(stacked, dim, probes, ref)
            assert (found and found.to_json()) == (w and w.to_json())
            assert g.bit_generator.state == ref.bit_generator.state

    def test_the_screen_passes_what_value_dist_passes(self):
        # pairs within REPORT_TOL, or just outside it, equal up to phase, or NaN reach _value_dist; others do not
        unit = np.array([0.6, 0.8j])
        for v1, v2, kept in (
            ([0.5, 0.2, 0.3], [0.5 + 5e-9, 0.2 + 1e-7, 0.3 + 2e-6], [0, 1]),
            ([[0.0, 1.0], [np.nan, 0.0]], [[0.0, 1.0 + 2e-6], [0.0, 0.0]], [1]),
            ([unit, unit, unit], [np.exp(0.7j) * unit, unit[::-1], -unit], [0, 2]),
        ):
            assert properties._screen(v1, v2).tolist() == kept

    def test_a_found_pair_is_judged_to_agree_once(self, monkeypatch):
        # a one-probe search compares the pair's values, then the midpoint's against them: two comparisons
        calls, real = [], properties._value_dist
        monkeypatch.setattr(properties, "_value_dist", lambda a, b: calls.append((a, b)) or real(a, b))
        w = find_level_set_witness(make_property("max-eigenvalue", 3), 3, 1, rng=0)
        assert w.is_counterexample
        assert len(calls) == 2


class TestValueDistance:
    """_value_dist tells complex values equal up to phase apart from distinct ones at REPORT_TOL."""

    @staticmethod
    def _top(n, seed):
        return spectral_decompose(random_density(n, rng=seed)).eigenvectors[:, 0]

    def test_a_complex_value_is_at_zero_from_itself_and_its_phases(self):
        for seed in range(200):
            v = self._top(3, seed)
            assert properties._value_dist(v, v) == 0.0
            w = self._top(4, seed)
            assert properties._value_dist(w, np.exp(0.7j) * w) < 1e-15
            assert properties._value_dist(2.0 * w, -2.0 * w) < 1e-15

    def test_phase_direction_pairs_of_one_spectrum_are_all_counterexamples(self):
        # (rho, U rho U*) agree up to phase and their midpoint moves the spectrum
        prop = QuantumProperty(TestBlockSearch._phase_direction, "phase-direction")
        for seed in range(200):
            g = np.random.default_rng(seed)
            rho = random_density(3, rng=g)
            U = random_unitary(3, rng=g)
            assert level_set_witness(prop, rho, U @ rho @ U.conj().T).is_counterexample, seed
            assert find_level_set_witness(prop, 3, 1, rng=seed) is not None, seed


class TestInducedClassical:
    """A property of states is one of outcome laws through a complete map's reconstruct."""

    def test_identity_round_trip(self, rng):
        tmap = tomographic_map(canonical_complete(2))
        rho = random_density(2, rng=rng)
        assert frob_dist(as_density(tmap.reconstruct(tmap.probs(rho))), rho) <= 1e-8

    def test_entropy_factors_through_outcomes(self, rng):
        tmap = tomographic_map(canonical_complete(2))
        entropy = make_property("entropy", 2)
        for _ in range(10):
            rho = random_density(2, rng=rng)
            assert entropy.eval(as_density(tmap.reconstruct(tmap.probs(rho)))) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-8
            )

    def test_unreachable_distribution_rejected(self):
        tmap = tomographic_map(canonical_complete(2))
        bad = np.array([0.97, 0.01, 0.01, 0.01])
        with pytest.raises(ValueError):
            as_density(tmap.reconstruct(bad))


class TestIdentificationTranslate:
    """Identification functions move through a complete map's adjoint and pinv_adjoint."""

    def test_mean_identification_translates(self, rng):
        # the mean's outcome-space identification z - r pulls back to adjoint(z - r)
        mu = canonical_complete(2)
        tmap = tomographic_map(mu)
        z = rng.standard_normal(len(mu))
        prop, _ = expectation_property(z, mu)
        for _ in range(20):
            rho = random_density(2, rng=rng)
            r = prop.eval(rho)
            assert abs(hs_inner(tmap.adjoint(z - r), rho)) <= 1e-9
            assert abs(hs_inner(tmap.adjoint(z - (r + 0.25)), rho)) > 1e-6

    def test_zero_maps_to_zero(self, rng):
        tmap = tomographic_map(canonical_complete(2))
        assert np.abs(tmap.adjoint(np.zeros((1, 4)))[0]).max() == 0.0

    def test_round_trip_on_adjoint_range(self, rng):
        # classical -> quantum -> classical preserves the pairing with
        # reachable outcome vectors
        tmap = tomographic_map(canonical_complete(2))
        z = rng.standard_normal(4)
        for _ in range(20):
            rho = random_density(2, rng=rng)
            p = tmap.probs(rho)
            v = z - float(rng.standard_normal())
            translated = float(tmap.pinv_adjoint(tmap.adjoint(v)) @ p)
            assert translated == pytest.approx(float(v @ p), abs=1e-10)

    def test_pairing_identity(self, rng):
        # <adjoint(v), rho> == <v, probs(rho)> for every row
        tmap = tomographic_map(canonical_complete(3))
        v_row = rng.standard_normal(9)
        rho = random_density(3, rng=rng)
        assert hs_inner(tmap.adjoint(v_row), rho) == pytest.approx(
            float(v_row @ tmap.probs(rho)), abs=1e-10
        )


def _overlaps(X, rho):
    # <x_i, rho x_i> for each column of X
    return np.einsum("ij,ik,kj->j", X.conj(), rho, X).real


def _random_frame(n, k, rng):
    # one column is the normalized draw, a wider frame the Q of its QR
    Z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    if k == 1:
        return Z / np.sqrt(np.maximum(np.einsum("ij,ij->j", Z.conj(), Z).real, 1e-14))
    return np.linalg.qr(Z)[0]


class TestExpectedClosedForms:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_property_score_matches_numpy(self, n, rng):
        mu = canonical_complete(n)
        z = rng.standard_normal(len(mu))
        _, expectation = expectation_property(z, mu)
        weights = np.r_[1.0, np.zeros(n - 2), -1.0]
        k = max(1, n - 1)
        scores = {
            "top": top_eigenvector_score(),
            "topk": top_k_eigenvector_score([2.0, 1.0]),
            "top-bottom": top_bottom_score(weights),
            "pair": eigen_pair_score(k),
            "value": with_value(top_eigenvector_score(), lambda a: a * a, lambda a: 2 * a),
            "abstain": abstain_score(0.3, n),
        }
        for _ in range(5):
            rho = random_density(n, rank=int(rng.integers(1, n + 1)), rng=rng)
            X = _random_frame(n, 2, rng)
            x = X[:, 0]
            b = _overlaps(X, rho)
            assert scores["top"].expected(x, rho) == pytest.approx(b[0], abs=1e-12)
            assert scores["topk"].expected(X, rho) == pytest.approx(2.0 * b[0] + b[1], abs=1e-12)
            assert scores["top-bottom"].expected(X, rho) == pytest.approx(b[0] - b[1], abs=1e-12)
            assert scores["abstain"].expected(x, rho) == pytest.approx(b[0], abs=1e-12)
            assert scores["abstain"].expected(ABSTAIN, rho) == pytest.approx(0.3, abs=1e-12)
            alpha = float(rng.random())
            assert scores["value"].expected((alpha, x), rho) == pytest.approx(
                2.0 * alpha * b[0] - alpha * alpha, abs=1e-12
            )

            V = _random_frame(n, n, rng)
            a = np.r_[np.sort(rng.random(k))[::-1], np.zeros(n - k)]
            A = (V * a) @ V.conj().T
            p = _overlaps(V, rho)
            assert scores["pair"].expected(A, rho) == pytest.approx(2.0 * a @ p - a @ a, abs=1e-12)

            r = float(rng.standard_normal())
            mean = float(z @ np.einsum("yij,ji->y", mu.elements, rho).real)
            assert expectation.expected(r, rho) == pytest.approx(2.0 * r * mean - r * r, abs=1e-12)


def test_eigen_pair_decomposes_report_once(rng, monkeypatch):
    import qelicit.properties as properties

    A, _ = optimize_eigen_pair(random_density(4, rng=rng), 2, restarts=2, rng=rng)
    rho = random_density(4, rng=rng)
    calls = []
    real = properties.spectral_decompose

    def counted(M):
        calls.append(1)
        return real(M)

    monkeypatch.setattr(properties, "spectral_decompose", counted)
    eigen_pair_score(2).expected(A, rho)
    assert len(calls) == 1


class TestOptimizerArguments:
    @pytest.mark.parametrize("call", [
        # a budget of 0 returns a starting value, and t=0 or t=1 "mixes" to one of the two states
        lambda: optimize_top_eigenvector(np.diag([0.6, 0.3, 0.1]), iters=0, rng=0),
        lambda: optimize_weighted_basis(np.diag([0.6, 0.3, 0.1]), [2.0, 1.0], 2, iters=0, rng=0),
        lambda: optimize_eigen_pair(np.diag([0.6, 0.3, 0.1]), 2, iters=0, rng=0),
        lambda: level_set_witness(make_property("eigenvalues", 2), np.diag([0.25, 0.75]), np.diag([0.75, 0.25]), t=0),
    ], ids=["top", "weighted_basis", "eigen_pair", "level_set_witness"])
    def test_a_fixed_budget_or_weight_is_not_an_argument(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()

    @pytest.mark.parametrize("call, budget", [
        (lambda rho: optimize_top_eigenvector(rho, restarts=2, rng=0), 200),
        (lambda rho: optimize_weighted_basis(rho, [2.0, 1.0], 2, restarts=2, rng=0), 300),
        (lambda rho: optimize_eigen_pair(rho, 2, restarts=2, rng=0), 300),
    ], ids=["top", "weighted_basis", "eigen_pair"])
    def test_each_optimizer_ascends_with_its_fixed_step_budget(self, call, budget, monkeypatch):
        budgets = []

        def ascend(X0, f, iters, cert=None):
            budgets.append(iters)
            return _ascend(X0, f, iters, cert)

        monkeypatch.setattr(properties, "_ascend", ascend)
        call(np.diag([0.6, 0.3, 0.1]))
        assert budgets == [budget]

    @pytest.mark.parametrize(
        "call",
        [
            lambda rho: optimize_top_eigenvector(rho, restarts=0, rng=1),
            lambda rho: optimize_weighted_basis(rho, [2.0, 1.0], 2, restarts=0, rng=1),
            lambda rho: optimize_eigen_pair(rho, 2, restarts=0, rng=1),
        ],
        ids=["top", "weighted_basis", "eigen_pair"],
    )
    def test_zero_restarts_rejected(self, call, rng):
        with pytest.raises(ValueError, match="restarts"):
            call(random_density(3, rng=rng))

    @pytest.mark.parametrize(
        "call",
        [
            lambda rho, r: optimize_top_eigenvector(rho, restarts=r, rng=1),
            lambda rho, r: optimize_weighted_basis(rho, [2.0, 1.0], 2, restarts=r, rng=1),
            lambda rho, r: optimize_eigen_pair(rho, 2, restarts=r, rng=1),
            lambda rho, r: optimize_abstain(abstain_score(0.5, 3), rho, restarts=r, rng=1),
        ],
        ids=["top", "weighted_basis", "eigen_pair", "abstain"],
    )
    def test_non_integer_restarts_rejected(self, call, rng):
        rho = random_density(3, rng=rng)
        for restarts in (2.5, 2.0, "3", True):
            with pytest.raises(ValueError, match=f"^restarts must be an integer of at least 1, got {restarts!r}$"):
                call(rho, restarts)
        call(rho, np.int64(2))

    def test_eigen_pair_rank_above_dimension_rejected(self, rng):
        with pytest.raises(ValueError, match=r"^k must be an integer in 1\.\.3, got 5$"):
            optimize_eigen_pair(random_density(3, rng=rng), 5, rng=1)

    def test_column_count_outside_dimension_rejected(self, rng):
        rho = random_density(3, rng=rng)
        for cols in (0, 4):
            with pytest.raises(ValueError, match="cols"):
                optimize_weighted_basis(rho, np.ones(cols), cols, rng=1)

    def test_weight_count_must_match_columns(self, rng):
        with pytest.raises(ValueError, match="weights"):
            optimize_weighted_basis(random_density(3, rng=rng), [2.0, 1.0], 3, rng=1)

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]])
    def test_non_finite_weights_rejected(self, weights, rng):
        with pytest.raises(ValueError, match="^weights must be finite"):
            optimize_weighted_basis(random_density(3, rng=rng), weights, 2, rng=0)



def _serial_orthonormalize(X):
    gram = hermitian_part(X.conj().T @ X)
    w, V = np.linalg.eigh(gram)
    w = np.clip(w, 1e-14, None)
    return X @ ((V / np.sqrt(w)) @ V.conj().T)


def _serial_ascend(X0, grad, value, iters, step=0.5, max_step=64.0):
    """One restart of the ascent, run on its own: the reference for the stacked loop."""
    X, best = X0, value(X0)
    s = step
    for _ in range(iters):
        G = grad(X)
        improved = False
        while s >= 1e-12:
            Xn = _serial_orthonormalize(X + s * G)
            vn = value(Xn)
            if vn > best + 1e-15:
                X, best, improved = Xn, vn, True
                s = min(s * 2.0, max_step)
                break
            s *= 0.5
        if not improved:
            break
    return X, best


def _unchanged(X):
    return X


def _serial_best(rho, k, grad, value, restarts, iters, g, start=_unchanged):
    """Best value over restarts run one after another, each drawing its own start and passing it through ``start``."""
    best = -np.inf
    for _ in range(restarts):
        _, v = _serial_ascend(start(_random_frame(rho.shape[0], k, g)), grad, value, iters)
        best = max(best, v)
    return best


class TestStackedAscentMatchesSerial:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_starting_frames_are_the_serial_draws(self, k):
        from qelicit.properties import _random_stiefel

        g_stacked, g_serial = np.random.default_rng(k), np.random.default_rng(k)
        frames = _random_stiefel(7, 4, k, g_stacked)
        for r in range(7):
            np.testing.assert_array_equal(frames[r], _random_frame(4, k, g_serial))
        assert g_stacked.standard_normal() == g_serial.standard_normal()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_values_and_generator_use(self, n):
        rho = random_density(n, rng=500 + n)
        cases = {
            "top": (
                lambda g: optimize_top_eigenvector(rho, restarts=12, rng=g)[1],
                1, lambda X: rho @ X, lambda X: float(_overlaps(X, rho)[0]), 200, _unchanged,
            ),
        }
        # each column's direction is rho x_i times its weight, and a positive weight times 256^(its rank)
        for w, c in (([2.0, 1.0], [512.0, 1.0]), ([1.0, -1.0], [1.0, -1.0])):
            w, c = np.array(w), np.array(c)
            cases[f"weighted_basis {w}"] = (
                lambda g, w=w: optimize_weighted_basis(rho, w, 2, restarts=12, rng=g)[1],
                2, lambda X, c=c: rho @ X * c, lambda X, w=w: float(w @ _overlaps(X, rho)), 300, _unchanged,
            )
        # the eigen pair sorts each start's columns by falling Rayleigh quotient, then scales the column
        # of the larger quotient by 256 on every pass, the first on a tie
        cases["eigen_pair"] = (
            lambda g: optimize_eigen_pair(rho, 2, restarts=12, rng=g)[1],
            2,
            lambda X: rho @ X * ([256.0, 1.0] if _overlaps(X, rho)[0] >= _overlaps(X, rho)[1] else [1.0, 256.0]),
            lambda X: float(_overlaps(X, rho) @ _overlaps(X, rho)),
            300,
            lambda X: X[:, np.argsort(-_overlaps(X, rho), kind="stable")],
        )
        for name, (stacked, k, grad, value, iters, start) in cases.items():
            g_stacked, g_serial = np.random.default_rng(n), np.random.default_rng(n)
            got = stacked(g_stacked)
            want = _serial_best(rho, k, grad, value, 12, iters, g_serial, start)
            assert got == pytest.approx(want, abs=1e-12), name
            assert g_stacked.standard_normal() == g_serial.standard_normal(), name


_WIDE = [(6, 5), (6, 6), (8, 5), (8, 6), (8, 8)]  # (n, k)


def _weights(k, order="descending"):
    w = np.arange(k, 0, -1.0)
    if order == "ascending":
        return w[::-1].copy()
    if order == "shuffled":
        return np.random.default_rng(k).permutation(w)
    return w


def _frame_bound_checks(rho, k, w, restarts=50):
    """Both optimizers' values minus their eigenvalue bounds; each frame is orthonormal and no value above its bound."""
    lam = eigenvalues_desc(rho)[:k]
    X, value = optimize_weighted_basis(rho, w, k, restarts=restarts, rng=0)
    bound = np.sort(w)[::-1] @ lam
    assert value - bound <= 1e-13
    assert np.abs(X.conj().T @ X - np.eye(k)).max() <= 1e-13
    assert abs(w @ _overlaps(X, rho) - value) <= 1e-13  # the columns come back in the order of the weights
    A, pair_value = optimize_eigen_pair(rho, k, restarts=restarts, rng=0)
    assert pair_value - lam @ lam <= 1e-13
    assert abs(np.trace(A @ A).real - pair_value) <= 1e-13  # A = X diag(b) X* on an orthonormal frame X
    return value - bound, pair_value - lam @ lam


class TestColumnOrderedAscent:
    """Each column's direction is scaled by its weight's rank, so both k-column optimizers converge per column."""

    def test_close_eigenvalues_reach_the_eigen_pair_bound(self):
        rho = random_density(4, rng=103)  # lambda_1, lambda_2 = 0.512, 0.444
        lam = eigenvalues_desc(rho)
        _, value = optimize_eigen_pair(rho, 2, rng=3)
        assert abs(value - lam[:2] @ lam[:2]) <= 1e-12

    def test_every_eigen_pair_restart_reaches_the_bound(self):
        # at n = k = 2 a start whose first column has the smaller Rayleigh quotient, left in that
        # order, would only descend within its span and retire where it started
        for seed in range(40):
            rho = random_density(2, rng=200 + seed)
            lam = eigenvalues_desc(rho)
            _, value = optimize_eigen_pair(rho, 2, restarts=1, rng=seed)
            assert abs(value - lam @ lam) <= 1e-12, seed

    @pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 4), (6, 3), (8, 8)])
    def test_every_eigen_pair_restart_of_a_stack_reaches_the_bound(self, n, k, monkeypatch):
        # the scales follow the Rayleigh quotients' order on every pass: fixed at the start, they left
        # 4 of these 500 restarts at n = k = 3 more than 1e-9 short, whose quotients crossed during the ascent
        ends = []

        def spy(X0, f, iters, cert=None):
            X, best = _ascend(X0, f, iters)  # without the certified stop, which leaves the losing restarts unconverged
            ends.append(best)
            return X, best

        monkeypatch.setattr(properties, "_ascend", spy)
        for seed in range(10):
            rho = random_density(n, rng=1000 + seed)
            lam = eigenvalues_desc(rho)[:k]
            optimize_eigen_pair(rho, k, rng=seed)
            assert np.abs(ends[-1] - lam @ lam).max() <= 1e-9, seed

    @pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
    @pytest.mark.parametrize("n, k", _WIDE)
    def test_wide_frames_reach_their_eigenvalue_bounds(self, n, k, order):
        gaps = _frame_bound_checks(random_density(n, rng=77), k, _weights(k, order))
        assert max(map(abs, gaps)) <= 1e-12

    @pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
    @pytest.mark.parametrize("n, k", _WIDE)
    def test_the_widest_steps_retract_to_orthonormal_frames(self, n, k, order):
        # the largest scale stands first, last or anywhere: steps 0.5 and 64 along scales up to k * 256^(k-1)
        rho = random_density(n, rng=77)
        X0 = np.linalg.qr(_complex_normal(np.random.default_rng(k), (20, n, k)))[0]
        c = properties._ordered_scales(_weights(k, order))
        assert c.max() / c.min() == k * 256.0 ** (k - 1)
        for s in (0.5, 64.0):
            Y = _orthonormalize_plain(X0 + s * (rho @ X0) * c)
            assert np.abs(Y.conj().swapaxes(-1, -2) @ Y - np.eye(k)).max() <= 1e-13, s

    def test_scales_span_at_most_256_to_the_7th(self):
        for k in (2, 8, 9, 16, 70):
            c = properties._ordered_scales(_weights(k))
            assert np.all(np.diff(c) < 0)  # still in the order of the weights
            assert c[0] / (c[-1] * k) == pytest.approx(256.0 ** min(k - 1, 7), rel=1e-12)
        np.testing.assert_array_equal(properties._ordered_scales(_weights(8)), _weights(8) * 256.0 ** np.arange(7, -1, -1))

    @pytest.mark.parametrize("order", ["descending", "ascending"])
    def test_sixteen_columns_reach_their_bounds(self, order):
        gaps = _frame_bound_checks(random_density(16, rng=77), 16, _weights(16, order), restarts=4)
        assert max(map(abs, gaps)) <= 1e-12

    @pytest.mark.parametrize("order", ["descending", "ascending"])
    def test_seventy_columns_stay_orthonormal_and_below_their_bounds(self, order):
        # 256^69 would overflow the step's Gram entries; the narrowed base keeps the frames finite and orthonormal
        _frame_bound_checks(random_density(70, rng=77), 70, _weights(70, order), restarts=1)

    def test_signed_weights_of_equal_magnitude_ascend_along_the_weights(self):
        # c = w here: the same frame and value, bit for bit, as an ascent along rho X diag(w)
        from qelicit.properties import _random_stiefel

        rho, w = random_density(8, rng=1138), np.array([1.0, -1.0])
        X, value = optimize_weighted_basis(rho, [1, -1], 2, rng=2)

        def f(X):
            b, RX = properties._rayleigh(rho, X)
            return b @ w, RX * w

        Xs, vs = _ascend(_random_stiefel(50, 8, 2, np.random.default_rng(2)), f, 300)
        i = int(np.argmax(vs))
        np.testing.assert_array_equal(X, Xs[i])
        assert value == float(vs[i])


class TestAscentRetirement:
    def test_restart_at_a_top_eigenvector_retires_after_two_flat_steps(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(np.complex128)
        calls = []

        def value(X):
            calls.append(len(X))
            return np.einsum("rij,ik,rkj->r", X.conj(), rho, X).real

        X0 = np.eye(3, 1, dtype=np.complex128)[None]
        X, best = _ascend(X0, lambda X: (value(X), rho @ X), iters=200)
        assert len(calls) == 3  # the start, then two steps that leave the value where it is
        assert best[0] == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(np.abs(X[0, :, 0]), [1.0, 0.0, 0.0], atol=1e-15)

    def test_a_flat_overshoot_does_not_retire_the_restart(self):
        # A tent in t = |x_1 / x_0| peaking at t = 0.25.  The first step (0.5)
        # lands on its far foot t = 0.5, at the start's value 0; the halved
        # step reaches the peak.
        def grad(X):
            G = np.zeros_like(X)
            G[:, 1, 0] = 1.0
            return G

        def value(X):
            t = np.abs(X[:, 1, 0] / X[:, 0, 0])
            return np.minimum(t, 0.5 - t)

        X0 = np.eye(2, 1, dtype=np.complex128)[None]
        assert abs(value(_orthonormalize_plain(X0 + 0.5 * grad(X0)))[0]) <= 1e-15
        _, best = _ascend(X0, lambda X: (value(X), grad(X)), iters=1)
        assert best[0] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("iters", [1, 3, 50])
    @pytest.mark.parametrize("k", [1, 2])
    def test_each_restart_returns_its_own_frame_and_value(self, k, iters):
        # restarts retire on different passes (the eigenvector starts after two flat
        # steps, the rest after iters); each must come back with the frame it ended
        # on and the value f gives there, as when it ascends alone
        from qelicit.properties import _random_stiefel

        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)
        w = np.array([2.0, 1.0][:k])

        def f(X):
            RX = rho @ X
            return np.einsum("rij,rij->rj", X.conj(), RX).real @ w, RX * w

        X0 = _random_stiefel(12, 4, k, np.random.default_rng(k))
        X0[[0, 5, 9]] = np.eye(4, k)
        X, best = _ascend(X0, f, iters)
        np.testing.assert_array_equal(best, f(X)[0])
        assert np.count_nonzero(best > f(X0)[0]) == 9
        for r in range(12):
            Xr, best_r = _ascend(X0[r : r + 1], f, iters)
            np.testing.assert_array_equal(X[r], Xr[0])
            assert best[r] == best_r[0]


def _ascent_of(call):
    """The start stack, value-direction map and certificate with which ``call()`` ascends."""
    seen = []

    def spy(X0, f, iters, cert=None):
        seen.append((X0, f, cert))
        return _ascend(X0, f, iters, cert)

    real, properties._ascend = properties._ascend, spy
    try:
        call()
    finally:
        properties._ascend = real
    return seen[0]


def _shortfalls(rho, frames, w):
    """Each frame's distance below the optimum, from rho's spectrum: falling weights w, or the eigen pair's for None."""
    lam = eigenvalues_desc(rho)[: frames.shape[-1]]
    b = np.einsum("rij,ik,rkj->rj", frames.conj(), rho, frames).real
    return lam @ lam - np.sum(b * b, axis=1) if w is None else w @ lam - b @ w


def _random_stiefel_stack(n, k, count):
    return np.linalg.qr(_complex_normal(np.random.default_rng(n * 10 + k), (count, n, k)))[0]


class TestCertificate:
    """_shortfall_bound reads an upper bound on a frame's shortfall from the frame alone, and a call stops on it."""

    @pytest.mark.parametrize("pair", [False, True], ids=["weighted_basis", "eigen_pair"])
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 9) for k in range(1, min(n, 3) + 1)])
    def test_bound_covers_the_true_shortfall(self, n, k, pair):
        # frames 1-5 accepted steps into the ascent and frames it ran to the end, without the stop
        rho, w = random_density(n, rng=40 + n), np.arange(k, 0, -1.0)
        if pair:
            X0, f, _ = _ascent_of(lambda: optimize_eigen_pair(rho, k, restarts=10, rng=k))
        else:
            X0, f, _ = _ascent_of(lambda: optimize_weighted_basis(rho, w, k, restarts=10, rng=k))
        w = None if pair else w
        finite = 0  # frames 1-5 steps in that pass the gap test
        for iters in (1, 2, 3, 4, 5, 300):
            frames = _ascend(X0, f, iters)[0]
            bounds = np.array([properties._shortfall_bound(rho, X, w) for X in frames])
            short = _shortfalls(rho, frames, w)
            assert np.all(bounds >= short), iters  # with no slack: the bound carries its own rounding allowance
            finite += np.count_nonzero(np.isfinite(bounds)) if iters <= 5 else 0
        assert bounds.max() <= 1e-12  # every frame of the finished ascent is certified
        assert finite > 0 or n >= 7  # from n = 7 the gap test can fail on every frame 5 steps in

    @pytest.mark.parametrize("n", range(2, 7))
    def test_at_k_equal_n_the_bound_is_the_oracle_itself(self, n):
        # R and C vanish at k = n: Theta's eigenvalues are rho's, so the certificate is the
        # within-span shortfall against rho's own spectrum, the very oracle it stands in for,
        # plus its allowance of 16 eps times the optimum for rounding
        rho, w = random_density(n, rng=60 + n), np.arange(n, 0, -1.0)
        lam, eps = eigenvalues_desc(rho), np.finfo(float).eps
        frames = _random_stiefel_stack(n, n, 5)
        for X, short in zip(frames, _shortfalls(rho, frames, w)):
            assert properties._shortfall_bound(rho, X, w) == pytest.approx(short + 16 * eps * (w @ lam), abs=1e-14)
        for X, short in zip(frames, _shortfalls(rho, frames, None)):
            assert properties._shortfall_bound(rho, X) == pytest.approx(short + 16 * eps * (lam @ lam), abs=1e-14)

    @pytest.mark.parametrize("n, rank, k", [(3, 1, 2), (4, 2, 3), (4, 1, 4), (6, 3, 6)])
    def test_rank_below_k_fails_the_gap_test(self, n, rank, k):
        # mu_k(Theta) <= lambda_k(rho) = 0, so delta <= -|R|: no bound, even for a frame at the optimum
        rho = random_density(n, rank=rank, rng=n)
        X = spectral_decompose(rho).eigenvectors[:, :k]
        for Y in (X, *_random_stiefel_stack(n, k, 3)):
            assert properties._shortfall_bound(rho, Y, np.arange(k, 0, -1.0)) == np.inf
            assert properties._shortfall_bound(rho, Y) == np.inf

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_a_one_column_bound_reads_its_1x1_matrices_as_eigvalsh_does(self, n):
        # the bound paid with eigvalsh of the stacked 1 x 1 Theta and R*R, bit for bit, on frames near and far
        # from the top eigenvector, certified or not
        rho, eps = random_density(n, rng=70 + n), np.finfo(float).eps
        top = spectral_decompose(rho).eigenvectors[:, :1]
        near = _orthonormalize_plain(top + 1e-6 * _random_stiefel_stack(n, 1, 1))[0]
        frames = [*_random_stiefel_stack(n, 1, 4), top, near]
        finite = 0
        for X in frames:
            RX = rho @ X
            theta = X.conj().T @ RX
            R = RX - X @ theta
            mu, rr = np.linalg.eigvalsh(np.array([theta, R.conj().T @ R]))
            b, r2 = theta.diagonal().real, max(rr[-1], 0.0)
            c_fro2 = np.vdot(rho, rho).real - 2.0 * np.vdot(RX, RX).real + mu @ mu
            delta = mu[-1] - min(np.sqrt(max(c_fro2, 0.0)), max(rho.trace().real - b.sum(), 0.0)) - np.sqrt(r2)
            top_mu = mu + r2 / delta
            want = float(top_mu.sum() - b.sum() + 16 * eps * top_mu.sum()) if delta > 0 else np.inf
            assert properties._shortfall_bound(rho, X, np.ones(1)) == want
            finite += np.isfinite(want)
        assert finite >= 2

    def test_signed_weights_get_no_certificate(self):
        # the (1, -1) call that stops 3.9e-6 short of its bound keeps its uncertified ascent, bit for bit
        rho = random_density(8, rng=1138)
        X0, f, cert = _ascent_of(lambda: optimize_weighted_basis(rho, [1, -1], 2, rng=2))
        assert cert is None
        X, value = optimize_weighted_basis(rho, [1, -1], 2, rng=2)
        Xs, vs = _ascend(X0, f, 300)
        np.testing.assert_array_equal(X, Xs[int(np.argmax(vs))])
        assert value == float(vs.max())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_elicit_shaped_call_stops_on_its_certificate(self, n, monkeypatch):
        # the calls of the elicit workload: top eigenvector, weights (2, 1), eigen pair k = 2, abstain
        stops = []

        def spy(X0, f, iters, cert=None):
            last = []

            def counted(X):
                last.append(cert(X))
                return last[-1]

            out = _ascend(X0, f, iters, counted)
            stops.append(bool(last) and last[-1] <= properties.CERT_TOL)
            return out

        monkeypatch.setattr(properties, "_ascend", spy)
        eps, calls = np.finfo(float).eps, []  # (seed, call, value, bound), one per call, in the order of stops
        for seed in range(10):
            rho = random_density(n, rng=seed)
            lam = eigenvalues_desc(rho)
            calls += [(seed, call, value, bound) for call, (value, bound) in (
                ("top", (optimize_top_eigenvector(rho, rng=seed)[1], lam[0])),
                ("weighted", (optimize_weighted_basis(rho, [2.0, 1.0], 2, rng=seed)[1], 2 * lam[0] + lam[1])),
                ("pair", (optimize_eigen_pair(rho, 2, rng=seed)[1], lam[:2] @ lam[:2])),
                ("abstain", (optimize_abstain(abstain_score(0.05, n), rho, rng=seed)[1], lam[0])),
            )]
        # the stops first, so that a failing run says which calls retired uncertified and how many
        uncertified = [(seed, call) for (seed, call, _, _), stopped in zip(calls, stops) if not stopped]
        assert stops == [True] * 40, f"{len(uncertified)} of {len(stops)} calls uncertified: {uncertified}"
        for seed, call, value, bound in calls:
            # a value at the optimum may land above the eigvalsh bound by its own rounding, that of
            # the bound and a frame orthonormal to rounding: the 16 eps allowance of _shortfall_bound
            assert -16 * eps * bound <= bound - value <= properties.CERT_TOL + 1e-15, (seed, call)

    def test_a_stopped_ascent_writes_back_every_live_restart(self):
        # a certificate that always holds stops the call on the first pass on which the best
        # restart gains at most 1e-9; each restart still returns the frame it holds and its value
        from qelicit.properties import _random_stiefel

        rho, w = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128), np.array([2.0, 1.0])
        calls = []

        def f(X):
            calls.append(len(X))
            RX = rho @ X
            return np.einsum("rij,rij->rj", X.conj(), RX).real @ w, RX * w

        X0 = _random_stiefel(12, 4, 2, np.random.default_rng(5))
        X, best = _ascend(X0, f, 300, lambda X: 0.0)
        stopped = len(calls)
        np.testing.assert_array_equal(best, f(X)[0])
        assert 2.0 * 0.4 + 0.3 - best.max() <= 1e-8
        calls.clear()
        _ascend(X0, f, 300)
        assert stopped < len(calls)


class TestSubspaceStarts:
    """The k-column optimizers start from the drawn frames after three QR steps with rho^8 / tr rho^8."""

    # summed passes of optimize_weighted_basis([2, 1]) and optimize_eigen_pair(k = 2) over s = 0-19;
    # from random starts they took 305, 625 and 1,048
    @pytest.mark.parametrize("n, most", [(2, 150), (3, 200), (4, 450)])
    def test_elicit_shaped_calls_certify_in_few_passes(self, n, most, monkeypatch):
        passes, bounds = [], []

        def spy(X0, f, iters, cert=None):
            def counted(X):
                passes.append(len(X))
                return f(X)

            def read(X):
                bounds.append(cert(X))
                return bounds[-1]

            passes.append(None)  # the first evaluation of this call, which is no pass
            return _ascend(X0, counted, iters, read)

        monkeypatch.setattr(properties, "_ascend", spy)
        total = 0
        for s in range(20):
            rho = random_density(n, rng=s)
            lam = eigenvalues_desc(rho)
            for call, bound in (
                (lambda: optimize_weighted_basis(rho, [2.0, 1.0], 2, rng=s)[1], 2 * lam[0] + lam[1]),
                (lambda: optimize_eigen_pair(rho, 2, rng=s)[1], lam[:2] @ lam[:2]),
            ):
                passes.clear()
                bounds.clear()
                value = call()
                total += len(passes) - 2
                assert bounds and bounds[-1] <= properties.CERT_TOL, s
                assert abs(bound - value) <= properties.CERT_TOL, s
        assert total < most

    @pytest.mark.parametrize("weights", [[2.0, 1.0], [1.0, 3.0], [1.0, -1.0]])
    def test_weighted_basis_starts_are_the_draws_after_the_steps_and_signed_ones_the_draws(self, weights):
        from qelicit.properties import _ordered_scales, _random_stiefel, _subspace_steps

        rho, w = random_density(4, rng=9), np.array(weights)
        g = np.random.default_rng(3)
        X0 = _ascent_of(lambda: optimize_weighted_basis(rho, w, 2, restarts=7, rng=g))[0]
        g_ref = np.random.default_rng(3)
        drawn = _random_stiefel(7, 4, 2, g_ref)[:, :, np.argsort(-_ordered_scales(w), kind="stable")]
        np.testing.assert_array_equal(X0, drawn if np.any(w < 0) else _subspace_steps(rho, drawn))
        assert g.standard_normal() == g_ref.standard_normal()

    def test_eigen_pair_starts_are_the_draws_after_the_steps_sorted_by_rayleigh_quotient(self):
        from qelicit.properties import _random_stiefel, _subspace_steps

        rho = random_density(5, rng=4)
        X0 = _ascent_of(lambda: optimize_eigen_pair(rho, 3, restarts=6, rng=8))[0]
        Y = _subspace_steps(rho, _random_stiefel(6, 5, 3, np.random.default_rng(8)))
        b = np.einsum("rij,ik,rkj->rj", Y.conj(), rho, Y).real
        np.testing.assert_array_equal(X0, np.take_along_axis(Y, np.argsort(-b, axis=1, kind="stable")[:, None, :], axis=2))

    @pytest.mark.parametrize("n, k", [(3, 2), (4, 3), (6, 3)])
    def test_start_columns_head_for_the_eigenvectors_in_order(self, n, k):
        # column j of the steps' output is about (1/2)^24 from rho's j-th eigenvector, and the columns stay orthonormal
        from qelicit.properties import _random_stiefel, _subspace_steps

        rho = np.diag(0.5 ** np.arange(n)).astype(np.complex128)
        rho /= rho.trace()
        Y = _subspace_steps(rho, _random_stiefel(5, n, k, np.random.default_rng(n)))
        np.testing.assert_allclose(np.abs(Y[:, :k, :]), np.broadcast_to(np.eye(k), (5, k, k)), atol=1e-6)
        np.testing.assert_allclose(np.einsum("rij,rik->rjk", Y.conj(), Y), np.broadcast_to(np.eye(k), (5, k, k)), atol=1e-14)


class TestWitnessEdges:
    def test_complex_values_reach_json_as_their_parts(self):
        r = random_density(2, rng=3)
        w = level_set_witness(make_property("eigvec-top", 2), r, r)
        x = spectral_decompose(r).eigenvectors[:, 0]
        reports = json.loads(json.dumps(w.to_json()))["reports"]
        assert reports["value_1"] == reports["value_mix"] == {"re": x.real.tolist(), "im": x.imag.tolist()}

    def test_real_values_are_written_as_they_are(self):
        rho1, rho2 = np.diag([0.25, 0.75]), np.diag([0.75, 0.25])
        w = level_set_witness(make_property("eigenvalues", 2), rho1, rho2)
        assert w.to_json()["reports"]["value_1"] == np.asarray(w.value_1).tolist()
        top = level_set_witness(make_property("max-eigenvalue", 2), rho1, rho2).to_json()["reports"]
        assert all(type(v) is float for v in top.values())

    def test_states_of_different_dimensions_are_named(self):
        with pytest.raises(ValueError, match="^dimension mismatch: rho1 2, rho2 3$"):
            level_set_witness(make_property("entropy", 2), random_density(2, rng=1), random_density(3, rng=2))

    def test_a_value_of_another_shape_is_another_value(self):
        # the nonzero eigenvalues: one value for a pure state, two for a mixed one
        support = QuantumProperty(lambda rho: np.linalg.eigvalsh(rho)[np.linalg.eigvalsh(rho) > 1e-9], "support")
        pure, mixed = np.diag([1.0, 0.0]), np.diag([0.5, 0.5])
        assert not level_set_witness(support, pure, mixed).is_counterexample
        # two pure states agree, and their even mixture has two nonzero eigenvalues
        assert level_set_witness(support, pure, np.diag([0.0, 1.0])).is_counterexample


def _eigh_polar(X):
    # one pass of the batched eigh retraction, spectrum clipped at 1e-14
    w, V = np.linalg.eigh(hermitian_part(X.conj().swapaxes(-1, -2) @ X))
    w = np.clip(w, 1e-14, None)
    return X @ ((V / np.sqrt(w)[:, None, :]) @ V.conj().swapaxes(-1, -2))


def _svd_polar(X):
    # U V* of X = U S V*: the path wide and near-singular stacks take
    U, _, Vh = np.linalg.svd(X, full_matrices=False)
    return U @ Vh


def _complex_normal(g, shape):
    return g.standard_normal(shape) + 1j * g.standard_normal(shape)


class TestRetraction:
    """The polar factor X (X*X)^(-1/2): closed form for one and two columns, U V* of an SVD otherwise."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_closed_form_matches_eigh(self, n, k):
        # column scales up to 1 + 64 * 512: a unit column plus a step of at most 64 along rho x times 2 * 256
        g = np.random.default_rng(10 * n + k)
        X = _complex_normal(g, (40, n, k)) * g.uniform(1.0, 1.0 + 64.0 * 512.0, size=(40, 1, k))
        Y = _orthonormalize_plain(X)
        for r in range(len(X)):
            np.testing.assert_allclose(Y[r], _serial_orthonormalize(X[r]), rtol=0, atol=1e-12)

    def test_rank_deficient_stacks_take_the_svd_path(self):
        g = np.random.default_rng(3)
        x = _complex_normal(g, (4, 3))
        zero_column = np.stack([x, np.zeros_like(x)], axis=-1)
        equal_columns = np.stack([x, x], axis=-1)
        one_singular = _complex_normal(g, (4, 3, 2))
        one_singular[2, :, 1] = one_singular[2, :, 0]
        for X in (zero_column, zero_column[..., ::-1], equal_columns, one_singular):
            Y = _orthonormalize_plain(X)
            np.testing.assert_array_equal(Y, _svd_polar(X))
            assert np.abs(Y.conj().swapaxes(-1, -2) @ Y - np.eye(2)).max() <= 1e-14  # completed to a frame
        np.testing.assert_array_equal(_orthonormalize_plain(zero_column[..., :1] * 0.0), zero_column[..., :1] * 0.0)

    @pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_near_dependent_columns_are_no_farther_from_the_svd_polar_factor(self, gap):
        # both forms start from the Gram matrix, so neither reaches 1e-12 here
        for n in range(2, 7):
            g = np.random.default_rng(n)
            x = _complex_normal(g, (20, n))
            X = np.stack([x, x + gap * _complex_normal(g, (20, n))], axis=-1)
            U, _, Vh = np.linalg.svd(X, full_matrices=False)
            polar = U @ Vh
            closed = np.abs(_orthonormalize_plain(X) - polar).max()
            assert closed <= np.abs(_eigh_polar(X) - polar).max(), (gap, n)

    def test_three_columns_take_the_svd_path(self):
        X = _complex_normal(np.random.default_rng(7), (10, 5, 3))
        np.testing.assert_array_equal(_orthonormalize_plain(X), _svd_polar(X))


class TestEmptyFrameRefusals:
    def test_top_k_refuses_k_zero(self):
        with pytest.raises(ValueError, match=r"weights must be a non-empty vector, .* got \[\]"):
            top_k_eigenvector_score([])

    def test_top_bottom_refuses_no_columns(self):
        with pytest.raises(ValueError, match=r"weights must be a vector with a nonzero entry, got \[0\.0, 0\.0\]"):
            top_bottom_score([0.0, 0.0])
