"""Each refusal of malformed library input raises its own error with its own message.

One row per refusal: the call, the error type and the message it must
match in full.  Count and dimension arguments are covered by
``test_linalg.TestCountArguments``.
"""

import re

import numpy as np
import pytest

import qelicit as q
from qelicit.extended import range_projector
from qelicit.measurement import herm_coords
from qelicit.registry import SCORE_REGISTRY, make_property, make_score

_FRAME = q.random_unitary(3, rng=6)

REFUSALS = {
    "Measurement of no element": (
        lambda: q.Measurement([]), ValueError, "a measurement needs at least one element"),
    "ExtendedHermitian parts of two shapes": (
        lambda: q.ExtendedHermitian(np.zeros((2, 2)), np.zeros((3, 3))),
        ValueError, "finite and infinite parts must share a shape"),
    "add_scalar of a NaN": (
        lambda: q.matrix_log(np.diag([1.0, 0.0])).add_scalar(np.nan), ValueError, "c must be finite, got nan"),
    "add_scalar of an infinity": (
        lambda: q.ExtendedHermitian.wrap(np.eye(2)).add_scalar(-np.inf), ValueError, "c must be finite, got -inf"),
    "canonicalize_extended of no pair": (
        lambda: q.canonicalize_extended([]), ValueError, "need at least one (matrix, weight) pair"),
    "ext_dot of two shapes": (
        lambda: q.ext_dot([0.5, 0.5], [1.0, 2.0, 3.0]), ValueError, "shape mismatch: (2,) vs (3,)"),
    "ext_dot of a non-finite weight": (
        lambda: q.ext_dot([np.nan, 1.0], [0.0, 0.0]), ValueError, "weights must be finite"),
    "clean_probs of a matrix": (
        lambda: q.clean_probs(np.full((2, 2), 0.25)), ValueError, "probability vector must be 1-d, got shape (2, 2)"),
    "clean_probs of a NaN": (
        lambda: q.clean_probs([np.nan, 1.0]), ValueError, "probability vector has non-finite entries"),
    "spectral_decompose of a vector": (
        lambda: q.spectral_decompose(np.ones(3)),
        ValueError, "matrix must be square or a stack of square matrices, got shape (3,)"),
    "reconstruct of the wrong length": (
        lambda: q.tomographic_map(q.canonical_complete(2)).reconstruct(np.zeros(3)),
        ValueError, "expected 4 outcome values"),
    "frame report that is a vector": (
        lambda: q.top_k_eigenvector_score([2.0, 1.0]).payoff(_FRAME[:, 0]),
        ValueError, "report must be a matrix of column vectors, got shape (3,)"),
    "frame report of too few columns": (
        lambda: q.top_k_eigenvector_score([2.0, 1.0]).payoff(_FRAME[:, :1]),
        ValueError, "expected 2 report vectors, got 1"),
    "expectation_property of the wrong z length": (
        lambda: q.expectation_property(np.arange(3.0), q.canonical_complete(2)),
        ValueError, "need one value per outcome: 3 vs 4"),
    "top_k_eigenvector_score of zero weights": (
        lambda: q.top_k_eigenvector_score([0.0, 0.0]),
        ValueError, "weights must be a non-empty vector, strictly decreasing and positive, got [0.0, 0.0]"),
    "top_k_eigenvector_score of a negative weight": (
        lambda: q.top_k_eigenvector_score([2.0, -1.0]),
        ValueError, "weights must be a non-empty vector, strictly decreasing and positive, got [2.0, -1.0]"),
    "top_k_eigenvector_score of a matrix of weights": (
        lambda: q.top_k_eigenvector_score([[2.0, 1.0]]),
        ValueError, "weights must be a non-empty vector, strictly decreasing and positive, got [[2.0, 1.0]]"),
    "top_k_eigenvector_score of an infinite weight": (
        lambda: q.top_k_eigenvector_score([np.inf, 1.0]), ValueError, "weights must be finite, got [inf, 1.0]"),
    "top_k_eigenvector_score of a NaN weight": (
        lambda: q.top_k_eigenvector_score([2.0, np.nan]), ValueError, "weights must be finite, got [2.0, nan]"),
    "top_bottom_score of an infinite top weight": (
        lambda: q.top_bottom_score([np.inf, 0.0, -1.0]), ValueError, "weights must be finite, got [inf, 0.0, -1.0]"),
    "top_bottom_score of an infinite bottom weight": (
        lambda: q.top_bottom_score([1.0, 0.0, -np.inf]), ValueError, "weights must be finite, got [1.0, 0.0, -inf]"),
    "top_bottom_score of a NaN middle weight": (
        lambda: q.top_bottom_score([1.0, np.nan, -1.0]), ValueError, "weights must be finite, got [1.0, nan, -1.0]"),
    "top_bottom_score of no weights": (
        lambda: q.top_bottom_score([]), ValueError, "weights must be a vector with a nonzero entry, got []"),
    "top_bottom_score of a scalar weight": (
        lambda: q.top_bottom_score(1.0), ValueError, "weights must be a vector with a nonzero entry, got 1.0"),
    "top_bottom_score of a negative weight first": (
        lambda: q.top_bottom_score([-1.0, 0.0, 1.0]),
        ValueError, "top weights must be strictly decreasing and positive"),
    "top_bottom_score of a negative weight before a zero": (
        lambda: q.top_bottom_score([1.0, -1.0, 0.0]), ValueError, "middle weights must be exactly zero"),
    "top_bottom_score of equal top weights": (
        lambda: q.top_bottom_score([1.0, 1.0, 0.0]),
        ValueError, "top weights must be strictly decreasing and positive"),
    "top_bottom_score of equal bottom weights": (
        lambda: q.top_bottom_score([0.0, -1.0, -1.0]),
        ValueError, "bottom weights must be strictly decreasing and negative"),
    "top_bottom_score report of the wrong dimension": (
        lambda: q.top_bottom_score([1.0, 0.0, -1.0]).payoff(np.eye(2)),
        ValueError, "report vectors have dimension 2, expected 3"),
    "hs_inner of a 2x3 array": (
        lambda: q.hs_inner(np.ones((2, 3)), np.ones((2, 3))), ValueError, "matrix must be square, got shape (2, 3)"),
    "frob_dist of a 2x3 array": (
        lambda: q.frob_dist(np.ones((2, 3)), np.ones((2, 3))), ValueError, "matrix must be square, got shape (2, 3)"),
    "hs_inner of a NaN entry": (
        lambda: q.hs_inner([[1.0, np.nan], [np.nan, 1.0]], np.eye(2)), ValueError, "matrix has non-finite entries"),
    "frob_dist of a NaN entry": (
        lambda: q.frob_dist([[1.0, np.nan], [np.nan, 1.0]], np.eye(2)), ValueError, "matrix has non-finite entries"),
    "hs_inner of two shapes": (
        lambda: q.hs_inner(np.eye(2), np.eye(3)), ValueError, "dimension mismatch: (2, 2) vs (3, 3)"),
    "frob_dist of two shapes": (
        lambda: q.frob_dist(np.eye(2), np.eye(3)), ValueError, "dimension mismatch: (2, 2) vs (3, 3)"),
    "hs_inner of a non-Hermitian matrix with I": (
        lambda: q.hs_inner([[0.5, 0.3], [0.0, 0.5]], np.eye(2)),
        ValueError, "matrix is not Hermitian: max |M - M*| = 3.000e-01"),
    "make_property of a score-only entry": (
        lambda: make_property("eigvec-topk", 2),
        KeyError, "property 'eigvec-topk' has no level-set evaluator (score-only entry)"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_names_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(repr(message) if error is KeyError else message)}$"):
        call()


# each entry point that validates a matrix, given a 0x0 one, and the name its refusal gives that matrix
TAKES_A_MATRIX = {
    "as_hermitian": (q.as_hermitian, "matrix"),
    "as_unitary": (q.as_unitary, "unitary"),
    "eigenvalues_desc": (q.eigenvalues_desc, "matrix"),
    "matrix_to_json": (q.matrix_to_json, "matrix"),
    "herm_coords": (herm_coords, "matrix"),
    "Measurement": (lambda E: q.Measurement([E]), "element 0"),
    "basis_pvm": (q.basis_pvm, "unitary"),
    "range_projector": (range_projector, "matrix"),
    "ExtendedHermitian": (lambda E: q.ExtendedHermitian(E, E), "finite part"),
    "ExtendedHermitian.wrap": (q.ExtendedHermitian.wrap, "finite part"),
    "canonicalize_extended": (lambda E: q.canonicalize_extended([(E, 1.0)]), "pair 0"),
    "lmsr_cost": (q.lmsr_cost, "matrix"),
    "market_price_state": (q.market_price_state, "matrix"),
    "bundle_cost": (lambda E: q.bundle_cost(E, E), "share matrix"),
    "hs_inner": (lambda E: q.hs_inner(E, E), "matrix"),
    "frob_dist": (lambda E: q.frob_dist(E, E), "matrix"),
}


@pytest.mark.parametrize("call, name", TAKES_A_MATRIX.values(), ids=TAKES_A_MATRIX)
def test_a_0x0_matrix_is_refused_as_empty(call, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} is empty, got shape \\(0, 0\\)$"):
        call(np.zeros((0, 0)))


_RHO2 = q.random_density(2, rng=1)

# the entry points that need a score's measurement, each given an ExpectedScoreFn, which has none;
# those that build something refuse it when they build
NEEDS_A_MEASUREMENT = {
    "score_coefficient": lambda S: q.score_coefficient(S, _RHO2),
    "projective_expression": lambda S: q.projective_expression(S),
    "fixed_meas_expression": lambda S: q.fixed_meas_expression(S, q.canonical_complete(2)),
    "with_value": lambda S: q.with_value(S, lambda a: a * a, lambda a: 2.0 * a),
    "WageringRound": lambda S: q.WageringRound([q.random_density(2, rng=s) for s in (2, 3)], S, _RHO2),
}


@pytest.mark.parametrize("name", ["ml:s4", "ml:s5"])
@pytest.mark.parametrize("call", NEEDS_A_MEASUREMENT.values(), ids=NEEDS_A_MEASUREMENT)
def test_a_score_without_a_measurement_is_refused_by_name(call, name):
    message = f"score {name!r} has no measurement: only its expected values are defined"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(make_score(name, 2))


@pytest.mark.parametrize("name", sorted(SCORE_REGISTRY))
def test_a_belief_stack_of_another_dimension_is_refused(name):
    # the stacked call of every registry score names the mismatch in its own words
    reports, beliefs = q.random_density(2, rng=1)[None], q.random_density(3, rng=2)[None]
    with pytest.raises(ValueError, match="dimension mismatch"):
        make_score(name, 2).expected_stack(reports, beliefs)
