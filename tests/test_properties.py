import numpy as np
import pytest

from qelicit.linalg import (
    eigenvalues_desc,
    frob_dist,
    hermitian_part,
    hs_inner,
    random_density,
    random_pure,
    spectral_decompose,
)
from qelicit.measurement import apply_measurement, canonical_complete, standard_pvm, tomographic_map
from qelicit.properties import (
    ABSTAIN,
    abstain_score,
    classical_to_quantum_identification,
    eigen_pair_score,
    expectation_property,
    find_level_set_witness,
    induced_classical_property,
    level_set_witness,
    optimize_abstain,
    optimize_eigen_pair,
    optimize_top_eigenvector,
    optimize_weighted_basis,
    optimize_with_value,
    quantum_to_classical_identification,
    top_bottom_score,
    top_eigenvector_score,
    top_k_eigenvector_score,
    with_value,
)
from qelicit.registry import make_property
from qelicit.scores import von_neumann_entropy


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


class TestTopK:
    def test_k1_scales_top_eigenvector(self, rng):
        s1 = top_eigenvector_score()
        sk = top_k_eigenvector_score(1, [2.0])
        rho = random_density(3, rng=rng)
        x = random_pure(3, rng=rng)
        assert sk.expected(x.reshape(-1, 1), rho) == pytest.approx(
            2.0 * s1.expected(x, rho), abs=1e-10
        )

    def test_diagonal_prefix_is_optimal(self):
        v = np.array([2.0, 1.0])
        score = top_k_eigenvector_score(2, v)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        X = np.eye(3, dtype=complex)[:, :2]
        assert score.expected(X, rho) == pytest.approx(2.0 * 0.5 + 1.0 * 0.3, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        score = top_k_eigenvector_score(2, [2.0, 1.0])
        X = np.ones((3, 2), dtype=complex) / np.sqrt(3)
        with pytest.raises(ValueError, match="orthonormal"):
            score.measure(X)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="decreasing"):
            top_k_eigenvector_score(2, [1.0, 1.0])
        with pytest.raises(ValueError, match="decreasing"):
            top_k_eigenvector_score(2, [2.0, -1.0])

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
        tb = top_bottom_score(2, 0, v)
        tk = top_k_eigenvector_score(2, [2.0, 1.0])
        rho = random_density(3, rng=rng)
        X = spectral_decompose(random_density(3, rng=rng)).eigenvectors[:, :2]
        assert tb.expected(X, rho) == pytest.approx(tk.expected(X, rho), abs=1e-10)

    def test_optimum_value_n3_k1_m1(self, rng):
        v = np.array([1.0, 0.0, -1.0])
        score = top_bottom_score(1, 1, v)
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
        score = top_bottom_score(1, 1, v)
        rho = random_density(4, rng=rng)
        dec = spectral_decompose(random_density(4, rng=rng))
        X = dec.eigenvectors[:, [0, 3]]
        direct = hs_inner(
            np.outer(X[:, 0], X[:, 0].conj()) - np.outer(X[:, 1], X[:, 1].conj()), rho
        )
        assert score.expected(X, rho) == pytest.approx(direct, abs=1e-10)

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError, match="zero"):
            top_bottom_score(1, 1, [1.0, 0.5, -1.0])
        with pytest.raises(ValueError, match="negative"):
            top_bottom_score(1, 1, [1.0, 0.0, 1.0])


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
            alpha, _ = optimize_with_value(x, v)
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
        w = level_set_witness(make_property("eigenvalues", 2), rho1, rho2, t=0.5)
        assert w.is_counterexample
        assert np.allclose(w.value_1, [0.75, 0.25])
        assert np.allclose(w.value_mix, [0.5, 0.5])

    def test_max_eigenvalue_counterexample(self):
        rho1 = np.diag([0.25, 0.75]).astype(complex)
        rho2 = np.diag([0.75, 0.25]).astype(complex)
        w = level_set_witness(make_property("max-eigenvalue", 2), rho1, rho2, t=0.5)
        assert w.is_counterexample

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


class TestInducedClassical:
    def test_identity_round_trip(self, rng):
        tmap = tomographic_map(canonical_complete(2))
        from qelicit.properties import QuantumProperty

        ident = QuantumProperty(lambda rho: rho, name="identity")
        lifted = induced_classical_property(ident, tmap)
        rho = random_density(2, rng=rng)
        assert frob_dist(lifted.eval(tmap.probs(rho)), rho) <= 1e-8

    def test_entropy_factors_through_outcomes(self, rng):
        tmap = tomographic_map(canonical_complete(2))
        lifted = induced_classical_property(make_property("entropy", 2), tmap)
        for _ in range(10):
            rho = random_density(2, rng=rng)
            assert lifted.eval(tmap.probs(rho)) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-8
            )

    def test_unreachable_distribution_rejected(self):
        tmap = tomographic_map(canonical_complete(2))
        lifted = induced_classical_property(make_property("entropy", 2), tmap)
        bad = np.array([0.97, 0.01, 0.01, 0.01])
        with pytest.raises(ValueError):
            lifted.eval(bad)

    def test_functorial_in_report_postmaps(self, rng):
        # lifting commutes with post-composition on the report space
        from qelicit.properties import QuantumProperty

        tmap = tomographic_map(canonical_complete(2))
        base = make_property("eigenvalues", 2)
        post = lambda lam: float(lam[0] - lam[1])
        composed = QuantumProperty(lambda rho: post(base.eval(rho)), name="gap")
        lift_then_post = induced_classical_property(base, tmap)
        post_of_lift = induced_classical_property(composed, tmap)
        for _ in range(10):
            p = tmap.probs(random_density(2, rng=rng))
            assert post(lift_then_post.eval(p)) == pytest.approx(
                post_of_lift.eval(p), abs=1e-10
            )


class TestIdentificationTranslate:
    def test_mean_identification_translates(self, rng):
        mu = canonical_complete(2)
        tmap = tomographic_map(mu)
        z = rng.standard_normal(len(mu))
        prop, _ = expectation_property(z, mu)

        def v(r):
            return (z - r).reshape(1, -1)

        ident = classical_to_quantum_identification(v, tmap)
        for _ in range(20):
            rho = random_density(2, rng=rng)
            r = prop.eval(rho)
            V = ident.matrices(r)
            assert abs(hs_inner(V[0], rho)) <= 1e-9
            off = r + 0.25
            V_off = ident.matrices(off)
            assert abs(hs_inner(V_off[0], rho)) > 1e-6

    def test_zero_maps_to_zero(self, rng):
        tmap = tomographic_map(canonical_complete(2))
        ident = classical_to_quantum_identification(lambda r: np.zeros((1, 4)), tmap)
        assert np.abs(ident.matrices(0.0)[0]).max() == 0.0

    def test_round_trip_on_adjoint_range(self, rng):
        # classical -> quantum -> classical preserves the pairing with
        # reachable outcome vectors
        tmap = tomographic_map(canonical_complete(2))
        z = rng.standard_normal(4)

        def v(r):
            return (z - r).reshape(1, -1)

        ident = classical_to_quantum_identification(v, tmap)
        back = quantum_to_classical_identification(lambda r: ident.matrices(r), tmap)
        for _ in range(20):
            rho = random_density(2, rng=rng)
            p = tmap.probs(rho)
            r = float(rng.standard_normal())
            direct = float(np.atleast_2d(v(r))[0] @ p)
            translated = float(back(r)[0] @ p)
            assert translated == pytest.approx(direct, abs=1e-10)

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
    return np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]


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
            "topk": top_k_eigenvector_score(2, [2.0, 1.0]),
            "top-bottom": top_bottom_score(1, 1, weights),
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

    def test_eigen_pair_rank_above_dimension_rejected(self, rng):
        with pytest.raises(ValueError, match="k must be between 1 and the dimension 3"):
            optimize_eigen_pair(random_density(3, rng=rng), 5, rng=1)

    def test_column_count_outside_dimension_rejected(self, rng):
        rho = random_density(3, rng=rng)
        for cols in (0, 4):
            with pytest.raises(ValueError, match="cols"):
                optimize_weighted_basis(rho, np.ones(cols), cols, rng=1)

    def test_weight_count_must_match_columns(self, rng):
        with pytest.raises(ValueError, match="weights"):
            optimize_weighted_basis(random_density(3, rng=rng), [2.0, 1.0], 3, rng=1)


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


def _serial_best(rho, k, grad, value, restarts, iters, g):
    """Best value over restarts run one after another, each drawing its own start."""
    best = -np.inf
    for _ in range(restarts):
        _, v = _serial_ascend(_random_frame(rho.shape[0], k, g), grad, value, iters)
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
                1, lambda X: rho @ X, lambda X: float(_overlaps(X, rho)[0]), 200,
            ),
        }
        for w in ([2.0, 1.0], [1.0, -1.0]):
            w = np.array(w)
            cases[f"weighted_basis {w}"] = (
                lambda g, w=w: optimize_weighted_basis(rho, w, 2, restarts=12, rng=g)[1],
                2, lambda X, w=w: rho @ X * w, lambda X, w=w: float(w @ _overlaps(X, rho)), 300,
            )
        cases["eigen_pair"] = (
            lambda g: optimize_eigen_pair(rho, 2, restarts=12, rng=g)[1],
            2, lambda X: rho @ X * _overlaps(X, rho), lambda X: float(_overlaps(X, rho) @ _overlaps(X, rho)), 300,
        )
        for name, (stacked, k, grad, value, iters) in cases.items():
            g_stacked, g_serial = np.random.default_rng(n), np.random.default_rng(n)
            got = stacked(g_stacked)
            want = _serial_best(rho, k, grad, value, 12, iters, g_serial)
            assert got == pytest.approx(want, abs=1e-12), name
            assert g_stacked.standard_normal() == g_serial.standard_normal(), name
