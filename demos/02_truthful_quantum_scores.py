#!/usr/bin/env python3
"""Scores that make honesty optimal when reporting a quantum state.

A quantum score pairs a payoff function with a report-dependent
measurement.  Truthful designs reward the honest report in expectation,
whatever the agent's true state; misreports can only lose.
"""

import numpy as np

from qelicit import (
    binary_brier,
    expected_score,
    log_spectral,
    ml_scores,
    projective_brier,
    random_density,
    truthfulness_check,
)

rng = np.random.default_rng(7)
truth = random_density(3, rng=rng)
lie = random_density(3, rng=rng)

# The binary Brier score measures {I - report, report} and pays 2y - <r, r>.
S = binary_brier()
print("binary Brier, honest:  ", expected_score(S, truth, truth))
print("binary Brier, misreport:", expected_score(S, lie, truth))

# The projective version measures in the report's eigenbasis instead and
# produces the same expected score for every (report, belief) pair.
P = projective_brier()
print("projective form agrees:",
      np.isclose(expected_score(P, lie, truth), expected_score(S, lie, truth)))

# The spectral log score generalizes the log score; it can pay -inf when
# the report claims certainty it does not have.
L = log_spectral()
pure_lie = np.diag([1.0, 0.0, 0.0]).astype(complex)
print("\nlog spectral, honest:   ", expected_score(L, truth, truth))
print("log spectral, pure lie: ", expected_score(L, pure_lie, truth))

# Sampled verification: honest reports win against random and adversarial
# alternatives.  One run gives both verdicts: `passed` is strict (no
# misreport gains or ties), `weakly_passed` is plain truthfulness (none gains).
report = truthfulness_check(S, 2000, dims=(2, 3), rng=0)
print("\nbinary Brier strict truthfulness:", report.verdict)
print("binary Brier truthfulness:", report.weakly_passed)

# The trace score <report, truth> looks reasonable but is gameable: claim
# full weight on the top eigenvector and beat the honest report.
s3 = ml_scores()["s3"]
belief = np.diag([0.6, 0.4]).astype(complex)
exaggerate = np.diag([1.0, 0.0]).astype(complex)
print("\ntrace score, honest:    ", expected_score(s3, belief, belief))
print("trace score, exaggerate:", expected_score(s3, exaggerate, belief))
report = truthfulness_check(s3, 500, dims=(2,), rng=1)
print("trace score truthfulness:", report.weakly_passed, report.kind_counts)
