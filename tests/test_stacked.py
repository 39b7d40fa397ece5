"""The stacked payoff path and the block-wise sampled checks.

Every state-score construction has one stack-native payoff; its scalar
calls are the N = 1 case.  These tests hold the stacked calls to the
scalar ones, the check reports to the block size, and the block-wise
checks to a per-trial copy of the loop they replace.
"""

import json
import math
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import qelicit
from qelicit import classical, reports, scores
from qelicit.cli import main, run_verify
from qelicit.extended import NEG_INF, ext_dot
from qelicit.linalg import (
    as_hermitian,
    frob_dist,
    hermitian_part,
    hs_inner,
    matrix_to_json,
    random_density,
    random_pure,
    random_unitary,
    spectral_decompose,
)
from qelicit.classical import ClassicalScoringRule, linear_rule, properness_check
from qelicit.measurement import apply_measurement, canonical_complete, standard_pvm
from qelicit.registry import SCORE_REGISTRY, make_score, replay_verify
from qelicit.scores import (
    DISTINCT_TOL,
    EQUIV_TOL,
    TRUTH_MARGIN,
    ExpectedScoreFn,
    QuantumScore,
    binary_brier,
    equivalence_check,
    expected_score,
    fixed_measurement_score,
    implementability_check,
    log_spectral,
    projective_brier,
    relative_entropy,
    spectral_score,
    subgradient_inequality_check,
    truthfulness_check,
    unitary_invariance_check,
    von_neumann_entropy,
)

DIMS = (2, 3, 4, 5, 6, 7, 8, 16)


def _reports(n, g):
    """Full-rank, rank-deficient, repeated-eigenvalue and near-pure states of dimension n."""
    out = [random_density(n, rng=g) for _ in range(2)]
    out += [random_density(n, rank=r, rng=g) for r in sorted({1, max(1, n // 2), n - 1})]
    U = random_unitary(n, rng=g)
    for spectrum in (np.r_[0.5, np.full(n - 1, 0.5 / (n - 1))],
                     np.r_[np.full(2, 0.5), np.zeros(n - 2)],
                     np.full(n, 1.0 / n)):
        out.append(hermitian_part((U * spectrum) @ U.conj().T))
    x = random_pure(n, rng=g)
    for eps in (1e-9, 1e-6):
        out.append(hermitian_part((1 - eps) * np.outer(x, x.conj()) + eps * np.eye(n) / n))
    return np.array(out)


def _close(a, b, tol=1e-12, scale=1.0):
    # equal -inf positions, finite values within tol relative to max(scale, |b|)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(np.isneginf(a), np.isneginf(b))
    fin = ~np.isneginf(a)
    assert np.all(np.abs(a[fin] - b[fin]) <= tol * np.maximum(scale, np.abs(b[fin])))


class TestStackedMatchesScalar:
    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("name", sorted(SCORE_REGISTRY))
    def test_stack_equals_its_n1_calls(self, name, n):
        g = np.random.default_rng(1000 + n)
        S = make_score(name, n)
        R = _reports(n, g)
        if getattr(S, "domain", None) is not None:  # an ExpectedScoreFn has no domain
            R = R[S.domain(R)]
        # beliefs: random states, and the reports themselves (truthful self-scores)
        for B in (np.array([random_density(n, rank=int(g.integers(1, n + 1)), rng=g) for _ in R]), R):
            (stacked,) = S.expected_stack(R, B)
            _close(stacked, [expected_score(S, r, b) for r, b in zip(R, B)])

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("name", sorted(k for k, e in SCORE_REGISTRY.items() if e.implementable))
    def test_stacked_measurement_is_each_reports_povm(self, name, n):
        g = np.random.default_rng(1000 + n)
        S = make_score(name, n)
        R = _reports(n, g)
        if S.domain is not None:
            R = R[S.domain(R)]
        outcomes, values = S._stacked(R)
        assert values.shape[0] == len(R)
        # beliefs: random states, and the reports themselves (truthful self-scores)
        beliefs = np.array([random_density(n, rank=int(g.integers(1, n + 1)), rng=g) for _ in R])
        for B, stacked in zip((beliefs, R), S.expected_stack(R, beliefs, R)):
            for k in range(len(R)):
                mu, v = S.payoff(R[k])
                _close(values[k], v)
                at_k = outcomes._at(k).elements
                assert at_k.shape == mu.elements.shape and np.abs(at_k - mu.elements).max() <= 1e-12
                # the report's POVM elements measured on the belief, paired under
                # 0 * (-inf) = 0; rounding scales with the largest payoff
                largest = np.abs(v[np.isfinite(v)]).max(initial=1.0)
                _close(stacked[k], ext_dot(apply_measurement(mu, B[k]), v), scale=largest)


class TestOneDecompositionPerStack:
    @pytest.mark.parametrize("n", (2, 4, 16))
    def test_ml_s5_decomposes_each_stack_of_a_call_once(self, monkeypatch, n):
        g = np.random.default_rng(n)
        R, *B = (np.array([random_density(n, rank=1 + k % n, rng=g) for k in range(8)]) for _ in range(4))
        S = make_score("ml:s5", n)
        alone = [S.expected_stack(R, b)[0] for b in (*B, R)]
        calls, decompose = [], scores._decompose
        monkeypatch.setattr(scores, "_decompose", lambda A: calls.append(len(A)) or decompose(A))
        stacked = S.expected_stack(R, *B)
        assert len(calls) == 4  # the reports, then each belief stack
        stacked += S.expected_stack(R, R)
        assert len(calls) == 4  # a truthful self-score decomposes nothing: it reads the eigenvalues
        for got, want in zip(stacked, alone, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _spy(monkeypatch, owner, attr):
    # a list that gets, per call of owner.attr, the number of matrices its first array argument holds
    sizes, real = [], getattr(owner, attr)

    def counted(*args, **kwargs):
        A = np.asarray(args[1] if isinstance(owner, type) else args[0])
        sizes.append(len(A) if A.ndim == 3 else 1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return sizes


class TestWorkPerDrawnState:
    """The matrices a verify run decomposes and the states it measures, at d = 16 (160, 40 and 40 trials)."""

    @pytest.mark.parametrize("name, matrices", [
        ("spectral:log", 480),  # each truthfulness belief solved once, for its adversary and its two scores
        ("ml:s5", 1000),  # and the kernels of B_r + B_b; the self pair reads its beliefs' eigenvalues
        ("binary-brier", 120),  # the adversaries alone
        ("fixed:brier", 121),  # and canonical_complete(16)
        ("fixed:log", 121),
    ])
    def test_eigh_solves_each_drawn_state_once(self, monkeypatch, name, matrices):
        sizes = _spy(monkeypatch, np.linalg, "eigh")
        run_verify(name, [16], 160, 3)
        assert sum(sizes) == matrices

    def test_a_shared_povm_measures_each_drawn_stack_once(self, monkeypatch):
        # truthfulness 160 beliefs and 160 reports; the other two checks 4 stacks of 40 each
        sizes = _spy(monkeypatch, qelicit.measurement.Measurement, "_products")
        run_verify("fixed:brier", [16], 160, 3)
        assert sum(sizes) == 640

    def test_ml_s5_builds_each_stacks_log_parts_once(self, monkeypatch):
        # truthfulness 160 beliefs and 160 reports (the self pair builds none), the other two checks 4 x 40 each
        sizes, log_parts = [], scores._log_parts
        monkeypatch.setattr(scores, "_log_parts", lambda lam, V: sizes.append(len(lam)) or log_parts(lam, V))
        run_verify("ml:s5", [16], 160, 3)
        assert sum(sizes) == 640

    @pytest.mark.parametrize("n", (2, 4, 16))
    def test_ml_s5_self_pair_is_log_tr_rho_squared_at_every_rank(self, n):
        # log sum lambda^2 from the eigenvalues against log Tr rho^2 from the entries: both round at
        # about n eps, so they agree within 1e-13 of max(1, |log Tr rho^2|)
        g = np.random.default_rng(100 + n)
        R = np.array([random_density(n, rank=rank, rng=g) for rank in range(1, n + 1) for _ in range(2)])
        (own,) = make_score("ml:s5", n).expected_stack(R, R)
        _close(own, np.log(np.einsum("kij,kji->k", R, R).real), tol=1e-13)

    @pytest.mark.parametrize("n", (2, 4, 16))
    def test_ml_s5_self_pair_reads_its_support_from_its_own_kernel(self, n):
        g = np.random.default_rng(n)
        R = np.array([random_density(n, rank=1 + k % n, rng=g) for k in range(12)])
        S = make_score("ml:s5", n)
        (own,), (copied,) = S.expected_stack(R, R), S.expected_stack(R, R.copy())
        _close(own, copied)
        _close(own, np.log(np.einsum("kij,kji->k", R, R).real))  # log Tr rho^2


class TestStackedDecomposition:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_stack_matches_each_matrix_bit_for_bit(self, n):
        R = _reports(n, np.random.default_rng(n))
        lam, V = spectral_decompose(R)
        for k, A in enumerate(R):
            alone = spectral_decompose(A)
            assert np.array_equal(lam[k], alone.eigenvalues)
            assert np.array_equal(V[k], alone.eigenvectors)

    def test_stack_names_the_matrix_that_is_not_hermitian(self):
        R = _reports(3, np.random.default_rng(0))
        R[4, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="matrix 4 is not Hermitian"):
            spectral_decompose(R)


    def test_as_hermitian_takes_one_matrix_only(self):
        with pytest.raises(ValueError, match="must be square"):
            as_hermitian(np.zeros((2, 2, 2)))


class TestStackContracts:
    """Callables written for one report at a time are refused, not misread on a block."""

    def test_rule_reducing_over_the_whole_array_is_refused(self):
        # right for one report, wrong for every row of a block
        rule = ClassicalScoringRule(lambda p: 2.0 * p - np.sum(p * p), name="whole-array")
        with pytest.raises(ValueError, match="whole-array.*each row"):
            spectral_score(rule)
        with pytest.raises(ValueError, match="whole-array.*each row"):
            fixed_measurement_score(rule, canonical_complete(2))

    @pytest.mark.parametrize("domain", [
        lambda rho: bool(np.linalg.eigvalsh(rho).min() > 1e-8),  # one bool for the stack
        lambda rho: np.linalg.eigvalsh(rho)[0] > 1e-8,  # length n, not N
    ])
    def test_per_state_domain_is_refused(self, domain):
        S = replace(log_spectral(), name="per-state", domain=domain)
        with pytest.raises(ValueError, match="domain of 'per-state'"):
            truthfulness_check(S, 10, dims=(3,), rng=0)
        with pytest.raises(ValueError, match="domain of 'per-state'"):
            equivalence_check(log_spectral(), S, 10, dims=(3,), rng=0)

    @pytest.mark.parametrize("check, trials", [
        (truthfulness_check, 8),
        (truthfulness_check, 1),  # at one trial a bare (1,) array unpacks as if it were one array per stack
        (unitary_invariance_check, 8),
        (implementability_check, 8),
    ])
    def test_closure_returning_one_bare_array_is_refused_by_name(self, check, trials):
        # the two-argument contract's (N,) array, where the stacked one returns one (N,) array per belief stack
        S = ExpectedScoreFn(lambda reports, *beliefs: np.zeros(len(reports)), name="bare")
        with pytest.raises(ValueError, match=r"'bare': expected_stack must return one \(\d+,\) array per belief stack"):
            check(S, trials, dims=(2,), rng=0)

    @pytest.mark.parametrize("returned, shapes", [
        (lambda n: np.zeros(n), r"ndarray of shape\(s\) \(1,\)"),
        (lambda n: [0.0], r"list of shape\(s\) \[\(\)\]"),
        (lambda n: 0.0, r"float of shape\(s\) \(\)"),
        (lambda n: [np.zeros(n), np.zeros(n)], r"list of shape\(s\) \[\(1,\), \(1,\)\]"),
    ], ids=["bare-array", "list-of-scalars", "scalar", "two-arrays"])
    def test_expected_score_names_the_closure_and_what_it_returned(self, returned, shapes):
        S = ExpectedScoreFn(lambda reports, *beliefs: returned(len(reports)), name="bare")
        rho = random_density(2, rng=0)
        with pytest.raises(ValueError, match=r"'bare'.*1 here, but returned " + shapes):
            expected_score(S, rho, rho)


CHECKED = ("spectral:log", "ml:s2", "ml:s3", "ml:s4", "ml:s5", "binary-brier")


def _check_reports(dims=(2, 3, 4)):
    out = []
    for name in CHECKED:
        S = make_score(name, 3)
        out.append(truthfulness_check(S, 40, dims=dims, rng=3).to_json())
        out.append(unitary_invariance_check(S, 20, dims=dims[:2], rng=4).to_json())
        out.append(implementability_check(S, 20, dims=dims[:2], rng=5).to_json())
    for name in ("fixed:brier", "fixed:log"):
        S = make_score(name, 3)
        out += [check(S, 20, dims=(3,), rng=6).to_json()
                for check in (truthfulness_check, unitary_invariance_check, implementability_check)]
    out.append(equivalence_check(projective_brier(), binary_brier(), 30, dims=(2, 3), rng=7).to_json())
    out.append(properness_check(linear_rule(), 40, 3, rng=8).to_json())
    # a wrong gradient of the quadratic fails about half the pairs
    out.append(subgradient_inequality_check(
        lambda r: hs_inner(r, r), lambda r: -2 * r, 30, dims=(2, 3), rng=9).to_json())
    return out


class TestBlockSizeInvariance:
    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        monkeypatch.setattr(reports, "TRIAL_BLOCK", 1000)
        whole = _check_reports()
        assert any(r["n_violations"] for r in whole)
        for block in (1, 7):
            monkeypatch.setattr(reports, "TRIAL_BLOCK", block)
            assert _check_reports() == whole, block


def _recorded(i, trials, rows, draw, dims=(2, 3, 4), rng=11):
    # the states trial i records in a run of `trials` trials whose score flags trial i alone
    def score(drawn):
        hit = drawn[2] == i
        return np.where(hit, "hit", ""), np.zeros(len(hit))

    check = {"name": "s", "mode": "strict", "rows": rows, "score": score, "parts": ("a", "b", "i"), "store": True,
             "draw": lambda dim, group, r, spare: (*draw(dim, group, r, spare)[:2], group)}
    (v,) = reports.run_trials(check, trials, dims, rng).violations
    assert v["trial"] == v["i"] == i
    return tuple(_matrix(v[k]) if isinstance(v[k], dict) else np.array(v[k]) for k in ("a", "b"))


class TestBlockRows:
    @pytest.mark.parametrize("i", [reports.RNG_BLOCK - 1, reports.RNG_BLOCK, 2 * reports.RNG_BLOCK + 5])
    def test_trial_replays_whatever_the_trial_count_and_block_size(self, monkeypatch, i):
        S = make_score("ml:s2", 3)  # outside its domain a state reads all of its row's columns
        rows, draw = partial(scores._rows, 2), partial(scores._beliefs_and_reports, S)
        ranks, G, u = _ref_row(11, (2, 3, 4), i, 2)
        want = _ref_state(S, ranks[0], G[0])
        seen = []
        for block in (1, 7, 1000):
            monkeypatch.setattr(reports, "TRIAL_BLOCK", block)
            seen += [_recorded(i, trials, rows, draw) for trials in (i + 1, i + reports.RNG_BLOCK + 3)]
        assert np.array_equal(seen[0][0], want)
        for got in seen[1:]:
            assert all(np.array_equal(x, y) for x, y in zip(got, seen[0]))

    def test_spare_rows_come_from_the_first_child_of_the_block(self):
        def draw(dim, group, rows, spare):
            return spare()[1], rows[1]

        for i in (5, reports.RNG_BLOCK + 2):
            spare, common = _recorded(i, i + 10, partial(scores._rows, 2), draw)
            assert np.array_equal(spare, _ref_row(11, (2, 3, 4), i, 2, spare=True)[1])
            assert np.array_equal(common, _ref_row(11, (2, 3, 4), i, 2)[1])

    def test_a_generator_root_draws_each_block_from_the_child_its_spawn_gives(self):
        # Generator.spawn's child keeps the root's bit generator, here Philox, not the default PCG64
        def draw(dim, group, rows, spare):
            return rows[1], rows[2]

        root = lambda: np.random.Generator(np.random.Philox(11))
        for i in (5, reports.RNG_BLOCK + 2):
            G, u = _recorded(i, i + 10, partial(scores._rows, 2), draw, dims=(3,), rng=root())
            _, G_ref, u_ref = scores._rows(2, root().spawn(i // reports.RNG_BLOCK + 1)[-1], 3, reports.RNG_BLOCK)
            assert np.array_equal(G, G_ref[i % reports.RNG_BLOCK]) and np.array_equal(u, u_ref[i % reports.RNG_BLOCK])

    def test_report_in_the_near_window_is_redrawn_from_the_spare_row(self):
        g = np.random.default_rng(3)
        rho = np.diag([0.5, 0.5 - 1e-5, 1e-5]).astype(complex)
        ranks, G, u = scores._rows(2, g, 3, 1)
        spare = scores._rows(2, g, 3, 1)
        u[0, :3] = [0.1, 0.9, 0.2]  # the permuting adversary swaps the two top (last) eigenvalues
        rep = scores._adversarial_reports(None, rho[None], np.array([1]), ranks[:, 1], G[:, 1], u, lambda: spare)
        assert DISTINCT_TOL < frob_dist(rep[0], rho)
        assert np.array_equal(rep, scores._states(None, spare[0][:, 0], spare[1][:, 0]))

    def test_fresh_distribution_in_the_near_window_is_redrawn_from_the_spare_row(self):
        g = np.random.default_rng(3)
        D, u = classical._rows(g, 3, 1)
        spare = classical._rows(g, 3, 1)
        p = D[:, 0]
        fresh = p + 1e-5 * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)  # 1e-5 from the belief
        q = classical._sample_reports(p, np.array([0]), fresh, u, lambda: spare)  # trial 0 reads the fresh report
        assert DISTINCT_TOL < np.linalg.norm(fresh - p) < 1e-4
        assert np.array_equal(q, spare[0][:, 1])


# ---------------------------------------------------------------------------
# a per-trial copy of the sampled checks, each trial reading its row of the
# block draw ("rng": "block-v1") and scoring alone through expected_score


def _ref_row(rng, dims, i, k, spare=False):
    """(ranks, Gaussians, uniforms) of trial i's row: of its block's draw, or of its spare draw."""
    b, r = divmod(i, reports.RNG_BLOCK)
    root = rng if isinstance(rng, np.random.SeedSequence) else np.random.SeedSequence(rng)
    g = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, b)))  # child b of the root
    if spare:
        g = g.spawn(1)[0]
    at = [(b * reports.RNG_BLOCK + x) % len(dims) for x in range(reports.RNG_BLOCK)]  # each row's index of dims
    for j, dim in enumerate(dims):  # the block's rows at each index of dims in turn
        m = at.count(j)
        ranks = g.integers(1, dim + 1, (m, k))
        G = g.standard_normal((m, k, dim, dim)) + 1j * g.standard_normal((m, k, dim, dim))
        u = g.random((m, dim + 3))
        if j == at[r]:
            x = at[:r].count(j)
            return ranks[x], G[x], u[x]


def _in_domain(S, rho):
    # an ExpectedScoreFn has no domain
    return getattr(S, "domain", None) is None or bool(S.domain(rho[None])[0])


def _ref_density(G):
    M = G @ G.conj().T
    return hermitian_part(M / np.trace(M).real)


def _ref_state(S, rank, G):
    # the first rank columns of G, the others zeroed; outside S's domain, all of them, blended
    rho = _ref_density(G * (np.arange(G.shape[1]) < rank))
    if not _in_domain(S, rho):
        dim = G.shape[0]
        rho = hermitian_part(0.99 * _ref_density(G) + 0.01 * np.eye(dim) / dim)
    return rho


def _ref_unitary(Z):
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _ref_adversarial_report(S, rho, strategy, rank, G, u, spare):
    dim = rho.shape[0]
    if strategy == 0:
        rep = _ref_state(S, rank, G)
    else:
        if strategy == 3:
            U = _ref_unitary(G)
            rep = hermitian_part(U @ rho @ U.conj().T)
        else:
            lam, V = np.linalg.eigh(rho)  # eigenvalues in ascending order
            if strategy == 1:
                lam = lam[np.argsort(u[:dim])]
            else:  # all mass on one eigenvector, the top (last) one half the time
                lam = np.arange(dim) == (dim - 1 if u[dim] < 0.5 else int(u[dim + 1] * dim))
            rep = hermitian_part((V * lam) @ V.conj().T)
        if not _in_domain(S, rep):
            rep = hermitian_part(0.99 * rep + 0.01 * np.eye(dim) / dim)
    if DISTINCT_TOL < frob_dist(rho, rep) < 1e-4:
        ranks, G, _ = spare()
        return _ref_state(S, ranks[0], G[0])
    return rep


def _ref_classify(truthful, other, distinct, margin):
    if not np.isfinite(truthful):
        return -math.inf, ("irregular", truthful)
    gap = other - truthful if other > -math.inf else -math.inf
    if gap > margin:
        return gap, ("gain", gap)
    if np.isfinite(gap) and abs(gap) <= margin and distinct:
        return gap, ("tie", gap)
    return gap, None


def _ref_compare(kind, a, b, tol):
    if a == NEG_INF or b == NEG_INF:
        gap = 0.0 if a == b else float("inf")
    else:
        gap = abs(a - b)
    return gap, (kind, gap) if gap > tol else None


def test_compare_flags_a_gap_above_equiv_tol():
    a = np.array([0.0, 0.0, NEG_INF, NEG_INF])
    kinds, values = scores._compare("mismatch", a, np.array([EQUIV_TOL, 2 * EQUIV_TOL, NEG_INF, 0.0]))
    assert kinds.tolist() == ["", "mismatch", "", "mismatch"]
    assert values.tolist() == [EQUIV_TOL, 2 * EQUIV_TOL, 0.0, math.inf]


def _ref_trial(S, check, dims, rng, i):
    """(gap, violation or None, parts) of trial i of the per-trial loop: a violation as (kind, value), the
    parts in draw order, (belief, report), (belief, report, U) or (belief 1, belief 2, report, t)."""
    k = 2 if check == "truthfulness" else 3
    ranks, G, u = _ref_row(rng, dims, i, k)
    spare = lambda: _ref_row(rng, dims, i, k, spare=True)
    a = _ref_state(S, ranks[0], G[0])
    if check == "implementability":
        b = _ref_state(S, ranks[2], G[2])
        rep = _ref_adversarial_report(S, a, i % 4, ranks[1], G[1], u, spare)
        t = u[-1]
        e1, e2 = expected_score(S, rep, a), expected_score(S, rep, b)
        mixed = expected_score(S, rep, hermitian_part(t * a + (1.0 - t) * b))
        linear = ext_dot([t, 1.0 - t], [e1, e2])
        return *_ref_compare("nonlinear", mixed, linear, EQUIV_TOL), (a, b, rep, t)
    b = _ref_adversarial_report(S, a, i % 4, ranks[1], G[1], u, spare)
    if check == "truthfulness":
        return *_ref_classify(expected_score(S, a, a), expected_score(S, b, a),
                              frob_dist(a, b) > DISTINCT_TOL, TRUTH_MARGIN), (a, b)
    U = _ref_unitary(G[2])
    rotated = expected_score(S, hermitian_part(U @ b @ U.conj().T), hermitian_part(U @ a @ U.conj().T))
    return *_ref_compare("variance", expected_score(S, b, a), rotated, EQUIV_TOL), (a, b, U)


def _ref_check(S, check, trials, dims, rng):
    """(gaps, violations) of the per-trial loop: violations as (trial, kind, value, parts)."""
    gaps, found = [], []
    for i in range(trials):
        gap, v, parts = _ref_trial(S, check, dims, rng, i)
        gaps.append(gap)
        if v is not None:
            found.append((i, *v, parts))
    return gaps, found


CHECKS = {
    "truthfulness": truthfulness_check,
    "unitary_invariance": unitary_invariance_check,
    "implementability": implementability_check,
}
ARGUMENTS = {  # each check's run_trials arguments but trials, dims and rng
    "truthfulness": scores._truthfulness,
    "unitary_invariance": scores._unitary_invariance,
    "implementability": scores._implementability,
}


def _constant_score():
    # a per-report payoff paying 1 whatever the report: every distinct report ties
    return QuantumScore(lambda r: (standard_pvm(r.shape[0]), np.ones(r.shape[0])), name="constant")


class TestPerTrialReference:
    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("name", sorted(SCORE_REGISTRY) + ["constant"])
    def test_block_checks_match_the_per_trial_loop(self, name, check):
        dims = (3,) if name.startswith("fixed:") else (2, 3, 4)
        S = _constant_score() if name == "constant" else make_score(name, 3)
        got = CHECKS[check](S, 60, dims=dims, rng=17)
        gaps, found = _ref_check(S, check, 60, dims, 17)
        assert got.n_violations == len(found)
        kinds = {}
        for _, kind, *_ in found:
            kinds[kind] = kinds.get(kind, 0) + 1
        assert got.kind_counts == kinds
        for v, (trial, kind, value, parts) in zip(got.violations, found):
            assert (v["trial"], v["kind"]) == (trial, kind)
            if check == "truthfulness":
                assert v["rho"] == matrix_to_json(parts[0]) and v["rho_prime"] == matrix_to_json(parts[1])
            else:  # no states stored: the replayed trial is the reference's, part for part
                assert "rho" not in v and "rho_prime" not in v
                replayed = reports._replay(ARGUMENTS[check](S), trial, dims, 17)
                assert replayed[:2] == (kind, v["gap"])
                assert all(np.array_equal(x, y) for x, y in zip(replayed[2], parts, strict=True))
            if math.isfinite(value):
                _close(v["gap"], value)
            else:
                assert v["gap"] == value
        finite = [x for x in gaps if math.isfinite(x)]
        assert got.max_gap == pytest.approx(max(finite, default=-math.inf), abs=1e-12)

    def test_equivalence_matches_the_per_trial_loop(self):
        S1, S2 = projective_brier(), make_score("ml:s2", 2)
        got = equivalence_check(S1, S2, 60, dims=(2, 3), rng=8)
        skipped = mismatched = 0
        for i in range(60):
            ranks, G, u = _ref_row(8, (2, 3), i, 2)
            rho = _ref_state(S1, ranks[0], G[0])
            rep = _ref_adversarial_report(S1, rho, i % 4, ranks[1], G[1], u,
                                          lambda i=i: _ref_row(8, (2, 3), i, 2, spare=True))
            if not (_in_domain(S2, rho) and _in_domain(S2, rep)):
                skipped += 1
                continue
            a, b = expected_score(S1, rep, rho), expected_score(S2, rep, rho)
            gap, v = _ref_compare("mismatch", a, b, EQUIV_TOL)
            mismatched += v is not None
        assert skipped and mismatched
        assert got.n_violations == mismatched


# (seed, trial) of an ml:s2 trial at d = 2 whose report is redrawn from its spare row, by check
SPARE = {"truthfulness": (12, 578), "unitary_invariance": (5, 266), "implementability": (1, 462)}
PART_NAMES = {
    "truthfulness": ("rho", "rho_prime"),
    "unitary_invariance": ("rho", "rho_prime", "unitary"),
    "implementability": ("rho_1", "rho_2", "rho_prime", "t"),
}


def _reads_spare(S, check, dims, rng, i):
    # whether trial i's adversarial report (the per-trial loop's) is redrawn from its spare row
    k = 2 if check == "truthfulness" else 3
    ranks, G, u = _ref_row(rng, dims, i, k)
    read = []
    _ref_adversarial_report(S, _ref_state(S, ranks[0], G[0]), i % 4, ranks[1], G[1], u,
                            lambda: read.append(i) or _ref_row(rng, dims, i, k, spare=True))
    return bool(read)


def _matrix(wire):
    return np.array(wire["re"]) + 1j * np.array(wire["im"])


class TestReplay:
    @pytest.mark.parametrize("check", list(ARGUMENTS))  # in stream order
    @pytest.mark.parametrize("name", sorted(SCORE_REGISTRY))
    def test_replay_is_the_per_trial_reference(self, name, check):
        stream, (seed, spare) = list(ARGUMENTS).index(check), SPARE[check]
        S = make_score(name, 2)
        trials = [5, reports.TRIAL_BLOCK + 44]  # one past the first scoring block
        if name == "ml:s2":
            trials.append(spare)
            assert _reads_spare(S, check, (2,), np.random.SeedSequence(seed, spawn_key=(stream,)), spare)
        for i in trials:
            got = replay_verify(name, [2], 2400, seed, stream, i)  # 600 trials in the last two checks
            gap, v, parts = _ref_trial(S, check, (2,), np.random.SeedSequence(seed, spawn_key=(stream,)), i)
            assert (got["check"], got["dim"], got["stream"], got["trial"]) == (check, 2, stream, i)
            assert got["kind"] == (v[0] if v else "")
            if math.isfinite(gap):
                _close(got["gap"], gap)
            else:
                assert float(got["gap"]) == gap
            for part, want in zip(PART_NAMES[check], parts, strict=True):
                assert got[part] == (float(want) if part == "t" else matrix_to_json(want)), part

    @pytest.mark.parametrize("spare", [False, True])
    @pytest.mark.parametrize("check", list(ARGUMENTS))  # in stream order
    def test_a_replay_draws_its_own_block_alone(self, monkeypatch, check, spare):
        def refused(*args, **kwargs):
            raise AssertionError("a replay ran the check")

        monkeypatch.setattr(reports, "run_trials", refused)
        S, stream = make_score("ml:s2", 3), list(ARGUMENTS).index(check)
        if spare:  # an ml:s2 trial whose report is redrawn from its spare row, in block 4 or later
            (seed, trial), dims = SPARE[check], (2,)
            root = lambda: np.random.SeedSequence(seed, spawn_key=(stream,))
        else:
            trial, dims, root = 4 * reports.RNG_BLOCK + 7, (2, 3, 4), lambda: 17
        assert trial // reports.RNG_BLOCK >= 4
        assert _reads_spare(S, check, dims, root(), trial) == spare
        checked, calls = ARGUMENTS[check](S), []
        rows = checked["rows"]
        checked["rows"] = lambda g, dim, m: calls.append((dim, m)) or rows(g, dim, m)
        kind, value, parts = reports._replay(checked, trial, dims, root())
        # one call per index of dims, each the block's rows at that index; as many again for the spare rows
        assert [dim for dim, _ in calls] == list(dims) * (1 + spare)
        assert sum(m for _, m in calls) == reports.RNG_BLOCK * (1 + spare)
        gap, v, want = _ref_trial(S, check, dims, root(), trial)
        assert kind == (v[0] if v else "")
        if math.isfinite(gap):
            _close(value, gap)
        else:
            assert value == gap
        assert all(np.array_equal(x, y) for x, y in zip(parts, want, strict=True))

    def test_a_seed_sequence_that_spawned_before_replays_the_trial_it_ran(self):
        ss, S, dims = np.random.SeedSequence(17), make_score("ml:s3", 3), (2, 3)
        ss.spawn(3)
        report = truthfulness_check(S, 3 * reports.RNG_BLOCK, dims=dims, rng=ss)
        assert {v["trial"] // reports.RNG_BLOCK for v in report.violations} == {0, 1, 2}
        for v in report.violations:
            kind, value, parts = reports._replay(scores._truthfulness(S), v["trial"], dims, ss)
            assert (kind, value) == (v["kind"], v["gap"])
            assert [matrix_to_json(p) for p in parts] == [v["rho"], v["rho_prime"]]
        assert ss.n_children_spawned == 3

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("name, stream", [("fixed:brier", 1), ("fixed:log", 1), ("ml:s4", 2), ("ml:s5", 2)])
    def test_the_replayed_parts_recompute_the_stored_gap(self, name, stream, d):
        report = run_verify(name, [d], 160, 3)
        check = list(ARGUMENTS)[stream]
        stored = report["reports"][0][check]["violations"]
        assert stored and all(set(v) == {"kind", "gap", "trial"} for v in stored)
        S = make_score(name, d)
        for v in stored[:8]:
            got = replay_verify(name, [d], 160, 3, stream, v["trial"])
            assert (got["kind"], got["gap"]) == (v["kind"], v["gap"])
            if check == "unitary_invariance":
                rho, r, U = (_matrix(got[k]) for k in ("rho", "rho_prime", "unitary"))
                a = expected_score(S, r, rho)
                b = expected_score(S, hermitian_part(U @ r @ U.conj().T), hermitian_part(U @ rho @ U.conj().T))
            else:
                rho_1, rho_2, r = (_matrix(got[k]) for k in ("rho_1", "rho_2", "rho_prime"))
                t = got["t"]
                a = expected_score(S, r, hermitian_part(t * rho_1 + (1.0 - t) * rho_2))
                b = ext_dot([t, 1.0 - t], [expected_score(S, r, rho_1), expected_score(S, r, rho_2)])
            if v["gap"] == "inf":  # -inf on one side only
                assert (a == NEG_INF) != (b == NEG_INF)
            else:
                assert v["gap"] > EQUIV_TOL
                _close(abs(a - b), v["gap"], tol=1e-9)

    def test_run_verify_calls_the_public_checks_by_name(self, monkeypatch):
        # the benchmark's tracing wraps the three checks where the registry names them
        calls = []
        for check, public in CHECKS.items():
            monkeypatch.setattr(qelicit.registry, public.__name__,
                                lambda *a, public=public, check=check, **k: calls.append(check) or public(*a, **k))
        run_verify("fixed:brier", [2, 3], 8, 0)
        assert calls == list(CHECKS) * 2

    def test_truthfulness_violations_keep_their_states(self):
        report = run_verify("ml:s3", [3], 80, 2)
        (v, *_) = report["reports"][0]["truthfulness"]["violations"]
        got = replay_verify("ml:s3", [3], 80, 2, 0, v["trial"])
        assert {k: got[k] for k in v} == v

    def test_a_d16_report_without_truthfulness_violations_is_small(self):
        report = run_verify("fixed:brier", [16], 160, 3)
        assert report["reports"][0]["unitary_invariance"]["n_violations"] == 40
        assert len(json.dumps(report)) < 5000

    @pytest.mark.parametrize("stream, trial, match", [
        (3, 0, r"stream must be an integer in 0\.\.2, got 3"),
        (-1, 0, r"stream must be an integer in 0\.\.2, got -1"),
        (1, 10, r"trial of stream 1 \(unitary_invariance, 10 trials\) must be an integer in 0\.\.9, got 10"),
        (0, 40, r"trial of stream 0 \(truthfulness, 40 trials\) must be an integer in 0\.\.39, got 40"),
        (0, 1.5, r"trial of stream 0 .* got 1\.5"),
    ])
    def test_a_stream_or_trial_out_of_range_is_refused(self, stream, trial, match):
        with pytest.raises(ValueError, match=match):
            replay_verify("fixed:brier", [2], 40, 3, stream, trial)


# ---------------------------------------------------------------------------
# validation counts, markets, profiling


def _count_as_density(monkeypatch):
    # one count per state validated, by as_density or by _decomposed_densities (the owner
    # for states whose call decomposes them, which validates each of its states once)
    calls = []
    real, real_decomposed = qelicit.linalg.as_density, qelicit.linalg._decomposed_densities

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def counted_decomposed(*states):
        calls.extend([1] * len(states))
        return real_decomposed(*states)

    for name, mod in list(sys.modules.items()):
        if name == "qelicit" or name.startswith("qelicit."):
            for attr, original, fake in (("as_density", real, counted),
                                         ("_decomposed_densities", real_decomposed, counted_decomposed)):
                if getattr(mod, attr, None) is original:
                    monkeypatch.setattr(mod, attr, fake)
    return calls


class TestValidationCounts:
    def test_ml_s2_domain_adds_no_state_validation(self, monkeypatch):
        calls = _count_as_density(monkeypatch)
        run_verify("spectral:log", [2, 3, 4], 160, 1)
        spectral = len(calls)
        run_verify("ml:s2", [2, 3, 4], 160, 1)
        assert len(calls) - spectral <= spectral

    def test_relative_entropy_validates_each_state_once(self, monkeypatch):
        g = np.random.default_rng(9)
        rho, sigma = random_density(3, rng=g), random_density(3, rank=2, rng=g)
        calls = _count_as_density(monkeypatch)
        value = relative_entropy(rho, sigma)
        assert len(calls) == 2
        assert value == math.inf
        L = log_spectral()
        for _ in range(5):
            rho, sigma = random_density(3, rank=2, rng=g), random_density(3, rng=g)
            assert relative_entropy(rho, sigma) == L.expected(rho, rho) - L.expected(sigma, rho)

    def test_entropies_are_the_log_scores_expected_values_bit_for_bit(self, monkeypatch):
        # H(rho) = -S(rho; rho) and D(rho || sigma) = S(rho; rho) - S(sigma; rho)
        # for the spectral log score S, from one validation per state
        g = np.random.default_rng(14)
        L = log_spectral()
        calls = _count_as_density(monkeypatch)
        for n in (2, 3, 4, 8):
            for _ in range(10):
                rho, sigma = (random_density(n, rank=int(g.integers(1, n + 1)), rng=g) for _ in range(2))
                calls.clear()
                H = von_neumann_entropy(rho)
                assert len(calls) == 1
                assert H == -L.expected(rho, rho)
                want = L.expected(rho, rho) - L.expected(sigma, rho)
                assert relative_entropy(rho, sigma) == want


SPECTRAL = ("projective-brier", "spectral:brier", "spectral:log", "ml:s1", "ml:s2")
BAD_STATES = {
    "non-Hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    "wrong trace": np.diag([0.7, 0.7]),
    "non-PSD": np.diag([1.2, -0.2]),
    "NaN": np.array([[np.nan, 0.0], [0.0, 0.5]]),
}


def _refusal(f, *args) -> str:
    with pytest.raises(ValueError) as caught:
        f(*args)
    return str(caught.value)


class TestValidatedDecomposition:
    """Calls that decompose a state PSD-test it from that decomposition, refusing as as_density does."""

    @pytest.mark.parametrize("kind", sorted(BAD_STATES))
    def test_each_rerouted_call_refuses_with_as_densitys_message(self, kind):
        bad, good = BAD_STATES[kind], random_density(2, rng=3)
        want = _refusal(qelicit.as_density, bad)
        calls = [(von_neumann_entropy, bad), (relative_entropy, bad, good), (relative_entropy, good, bad),
                 (qelicit.matrix_log, bad)]
        for name in SPECTRAL:
            S = make_score(name, 2)
            calls += [(S.payoff, bad), (S.measure, bad), (S.expected, bad, good),
                      (qelicit.score_coefficient, S, bad)]
        for f, *args in calls:
            assert _refusal(f, *args) == want, (f, kind)

    @pytest.mark.parametrize("n", (2, 3, 4, 8))
    @pytest.mark.parametrize("name", SPECTRAL)
    def test_a_stacked_row_equals_its_n1_payoff_bit_for_bit(self, name, n):
        S = make_score(name, n)
        R = _reports(n, np.random.default_rng(50 + n))
        R = R[S.domain(R)] if S.domain is not None else R
        outcomes, values = S._stacked(R)
        for k, r in enumerate(R):
            mu, v = S.payoff(r)
            assert np.array_equal(values[k], v)
            assert np.array_equal(outcomes._at(k).elements, mu.elements)


class TestMarketShapes:
    def test_bundle_cost_rejects_a_bundle_of_another_shape(self):
        with pytest.raises(ValueError, match=r"\(1, 1\).*\(3, 3\)"):
            qelicit.bundle_cost(np.zeros((3, 3)), [[1.0]])

    def test_trade_rejects_a_bundle_of_another_shape(self):
        market = qelicit.MarketState(3)
        with pytest.raises(ValueError, match=r"\(1, 1\).*\(3, 3\)"):
            market.trade([[2.0]])
        assert np.array_equal(market.shares, np.zeros((3, 3)))
        assert market.history == []


class TestProfile:
    def test_profile_leaves_stdout_unchanged(self, capsys):
        argv = ["verify", "--score", "ml:s3", "--dims", "2,3", "--trials", "40", "--seed", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out
        assert plain.err == ""
        lines = profiled.err.splitlines()
        assert len(lines) == 7
        assert all("trials/s" in line and "draw" in line and "score" in line for line in lines[:6])
        assert f"report: {len(plain.out)} bytes" in lines[6]

    def test_each_check_reports_its_encoding_seconds_and_violations(self, capsys):
        subs = run_verify("ml:s3", [2, 3], 40, 2)["reports"]
        assert main(["verify", "--score", "ml:s3", "--dims", "2,3", "--trials", "40", "--seed", "2", "--profile"]) == 0
        lines = capsys.readouterr().err.splitlines()[:6]
        for line, (sub, key) in zip(lines, [(sub, key) for sub in subs for key in ARGUMENTS], strict=True):
            assert line.startswith(f"profile ml:s3 dim={sub['dim']} {key}: ")
            assert " s, encode " in line and line.endswith(f" s), {sub[key]['n_violations']} violations")

    @pytest.mark.parametrize("check, name", [("truthfulness", "ml:s4"), ("unitary_invariance", "fixed:brier"),
                                             ("implementability", "ml:s4")])
    def test_timing_splits_the_wall_seconds_and_stays_out_of_the_json(self, check, name):
        report = CHECKS[check](make_score(name, 3), 40, dims=(3,), rng=4)
        assert report.n_violations
        t = report.timing
        assert set(t) == {"wall_s", "draw_s", "score_s", "encode_s"} and min(t.values()) >= 0
        assert t["draw_s"] + t["score_s"] + t["encode_s"] == pytest.approx(t["wall_s"])
        assert "timing" not in report.to_json()
