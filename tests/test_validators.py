"""Each validator on the scalar path accepts a good value with one test.

The ordered checks behind that test run only to name a fault, so these
tests hold each validator to a reference copy of the ordered path: the
same values bit for bit, the same first refusal, and no floating-point
warning on the way to a refusal.
"""

import warnings

import numpy as np
import pytest

from qelicit import scores
from qelicit.classical import PROB_CLIP, _clean_rows, clean_probs, expected_classical, log_rule, shannon_entropy
from qelicit.extended import NEG_INF, _ext_pair, ext_dot
from qelicit.linalg import (
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    as_density,
    as_hermitian,
    eigenvalues_desc,
    hs_inner,
    random_density,
    spectral_decompose,
)
from qelicit.measurement import POVM_SUM_TOL, Measurement, herm_coords
from qelicit.registry import SCORE_REGISTRY, make_score


def _ordered(P, clip=PROB_CLIP, tol=1e-10):
    # _clean_rows as three ordered checks: finite, negative beyond the clip, totals off 1
    if not np.isfinite(P).all():
        raise ValueError("probability vector has non-finite entries")
    if (P < -clip).any():
        raise ValueError(f"probability {P.min():.3e} is negative beyond the clip tolerance")
    q = np.maximum(P, 0.0)
    total = q.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > tol
    if off.any():
        raise ValueError(f"probabilities sum to {float(total[np.argmax(off), 0])!r}, expected 1")
    return q / total


def _result(f, *args):
    # the bytes, shape and dtype of what f returns, or the type and message of what it raises
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = f(*args)
    except Exception as exc:  # noqa: BLE001 - the refusal is the result
        return type(exc).__name__, str(exc)
    return out.tobytes(), out.shape, out.dtype.str


def _edge(sign):
    # the last total within 1e-10 of 1 on the side of sign
    t = 1.0 + sign * 1e-10
    while abs(t - 1.0) > 1e-10:
        t = np.nextafter(t, 1.0)
    return t


BOUNDARY_ROWS = {
    "clipped": [1.0 + PROB_CLIP, -PROB_CLIP],
    "just below -clip": [1.0 + 2 * PROB_CLIP, np.nextafter(-PROB_CLIP, -1.0)],
    "total at 1 + 1e-10": [0.5, _edge(1.0) - 0.5],
    "total past 1 + 1e-10": [0.5, np.nextafter(_edge(1.0), 2.0) - 0.5],
    "total at 1 - 1e-10": [0.5, _edge(-1.0) - 0.5],
    "total past 1 - 1e-10": [0.5, np.nextafter(_edge(-1.0), 0.0) - 0.5],
    "NaN": [np.nan, 1.0],
    "+inf": [np.inf, 0.0],
    "-inf": [-np.inf, 1.0],
    "+inf beside 1e308": [1e308, 1e308, np.inf],
    "negative and NaN": [-0.5, np.nan],
    "one entry": [1.0],
}

# (clip, tol) of a plain vector and of _measured_rows at n = 2 and 16 with 4 and 256 outcomes
BOUNDS = [(PROB_CLIP, 1e-10)] + [
    (clip, 1e-10 + TRACE_TOL + 2.0 * n * POVM_SUM_TOL + m * clip)
    for n, m in ((2, 4), (16, 256))
    for clip in [PROB_CLIP + 2.0 * (TRACE_TOL + n * PSD_TOL)]
]


class TestCleanRows:
    @pytest.mark.parametrize("clip, tol", BOUNDS)
    @pytest.mark.parametrize("label", sorted(BOUNDARY_ROWS))
    def test_boundary_rows_match_the_ordered_checks(self, label, clip, tol):
        P = np.array([BOUNDARY_ROWS[label]])
        assert _result(_clean_rows, P, clip, tol) == _result(_ordered, P, clip, tol)

    @pytest.mark.parametrize("clip, tol", BOUNDS)
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 256])
    def test_random_stacks_match_the_ordered_checks(self, m, clip, tol):
        g = np.random.default_rng(m)
        for _ in range(200):
            N = int(g.integers(1, 9))
            P = g.dirichlet(np.ones(m), N)
            kind = g.integers(6)
            if kind == 1:  # float noise about the clip, on a few entries
                P = P + g.choice([0.0, 1.0], P.shape, p=[0.7, 0.3]) * g.uniform(-2, 2, P.shape) * clip
            elif kind == 2:  # totals scaled about the tolerance
                P = P * (1.0 + g.uniform(-2, 2, (N, 1)) * tol)
            elif kind == 3:  # one non-finite entry
                P[g.integers(N), g.integers(m)] = g.choice([np.nan, np.inf, -np.inf])
            elif kind == 4:  # one entry far out
                P[g.integers(N), g.integers(m)] = g.choice([-0.5, 1.5, 1e308, -1e308])
            elif kind == 5:  # exact zeros and negative zeros
                P[g.random(P.shape) < 0.3] = g.choice([0.0, -0.0])
                total = P.sum(axis=-1, keepdims=True)
                P = P / np.where(total > 0.0, total, 1.0)
            assert _result(_clean_rows, P, clip, tol) == _result(_ordered, P, clip, tol)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_stacks_match_the_ordered_checks(self, shape):
        P = np.zeros(shape)
        assert _result(_clean_rows, P) == _result(_ordered, P)


NON_FINITE = {
    "NaN": [[np.nan, 0.0], [0.0, 1.0]],
    "+inf on the diagonal": [[np.inf, 0.0], [0.0, 1.0]],
    "imaginary +inf on the diagonal": [[0.5 + 1j * np.inf, 0.0], [0.0, 0.5]],
    "+inf symmetric pair": [[0.5, np.inf], [np.inf, 0.5]],
    "-inf symmetric pair": [[0.5, -np.inf], [-np.inf, 0.5]],
    "conjugate infinite pair": [[0.5, 1j * np.inf], [-1j * np.inf, 0.5]],
    "NaN beside inf": [[np.inf, np.nan], [np.nan, -np.inf]],
}


class TestExactHermitian:
    def test_an_exactly_hermitian_input_is_returned_as_it_is(self):
        A = random_density(3, rng=1)
        assert as_hermitian(A) is A
        assert as_density(A) is A

    def test_a_near_hermitian_input_gets_its_hermitian_part(self):
        A = random_density(3, rng=1)
        B = A.copy()
        B[0, 1] += 0.5 * HERM_TOL
        out = as_hermitian(B)
        assert out is not B and np.array_equal(out, (B + B.conj().T) / 2)

    @pytest.mark.parametrize("label", sorted(NON_FINITE))
    def test_a_non_finite_input_is_refused_without_a_warning(self, label):
        M = np.array(NON_FINITE[label], dtype=np.complex128)
        calls = {
            "matrix": [as_hermitian, spectral_decompose, eigenvalues_desc, herm_coords, lambda A: hs_inner(A, A)],
            "state": [as_density],
            "element 0": [lambda A: Measurement([A, np.eye(2) - A])],
        }
        for name, fs in calls.items():
            for f in fs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
                        f(M)

    def test_a_stack_with_one_non_finite_matrix_is_refused_without_a_warning(self):
        stack = np.array([np.eye(2), NON_FINITE["+inf symmetric pair"]], dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                spectral_decompose(stack)


def _states(n, g):
    # full-rank and rank-deficient states of dimension n
    return np.array([random_density(n, rank=r, rng=g) for r in (1, max(1, n // 2), max(1, n - 1), n, n)])


class TestPairing:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("name", sorted(k for k, e in SCORE_REGISTRY.items() if e.implementable))
    def test_pairing_equals_ext_dot_of_the_distributions(self, name, n):
        S = make_score(name, n)
        assert isinstance(S, scores.QuantumScore)
        g = np.random.default_rng(100 + n)
        R = _states(n, g)
        if S.domain is not None:
            R = R[S.domain(R)]
        outcomes, values = S._stacked(R)
        for B in (_states(n, g)[: len(R)], R):
            paired = scores._pair(outcomes, values, B)
            reference = ext_dot(outcomes._probs(B), values)
            assert paired.tobytes() == reference.tobytes()

    def test_classical_pairings_equal_ext_dot_of_the_cleaned_belief(self):
        g = np.random.default_rng(7)
        log = log_rule()
        for p in [*g.dirichlet(np.ones(4), 20), [1.0 + PROB_CLIP, -PROB_CLIP, 0.0], [0.5, 0.5, 0.0]]:
            q = clean_probs(p)
            assert expected_classical(log, q, p) == ext_dot(q, log.values(q))
            assert shannon_entropy(p) == 0.0 - ext_dot(q, log.values(q))

    def test_payoff_values_are_still_checked(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="^shape mismatch: \\(2,\\) vs \\(3,\\)$"):
            _ext_pair(p, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^\\+inf is not a valid extended score value$"):
            _ext_pair(p, [np.inf, NEG_INF])

    @pytest.mark.parametrize("weights, values, message", [
        ([1.5, -0.5], [0.0, NEG_INF], "negative weight on a -inf value would produce +inf"),
        ([1.5, -0.5, 0.0], [0.0, NEG_INF, np.inf], "+inf is not a valid extended score value"),
        ([np.nan, 1.0], [np.inf, 0.0], "weights must be finite"),
        ([np.nan, 1.0], [0.0, 0.0, 0.0], "shape mismatch: (2,) vs (3,)"),
    ])
    def test_ext_dot_names_the_first_fault(self, weights, values, message):
        with pytest.raises(ValueError) as err:
            ext_dot(weights, values)
        assert str(err.value) == message
