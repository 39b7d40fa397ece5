#!/usr/bin/env python3
"""Which statistics of a state can be elicited directly?

Eigenvectors can: simple projective payoffs make the true eigenvectors
optimal.  Eigenvalues, entropies, and norms cannot: any elicitable
statistic has convex level sets, and mixing two states with the same
spectrum typically changes the spectrum.
"""

import numpy as np

from qelicit import (
    ABSTAIN,
    abstain_score,
    eigen_pair_score,
    eigenvalues_desc,
    find_level_set_witness,
    level_set_witness,
    make_property,
    random_density,
    top_k_eigenvector_score,
)
from qelicit.properties import (
    optimize_abstain,
    optimize_eigen_pair,
    optimize_top_eigenvector,
    optimize_weighted_basis,
)

rng = np.random.default_rng(12)
rho = random_density(3, rng=rng)
lam = eigenvalues_desc(rho)
print("spectrum:", lam)

# Reporting a direction, paid 1 when the projective outcome fires:
# ascent over the sphere lands on the top eigenvector.
x, value = optimize_top_eigenvector(rho, restarts=25, rng=rng)
print("\nbest single-direction value:", value, "(top eigenvalue)", lam[0])

# Strictly decreasing payoffs elicit the top-k frame in order; k is the
# number of weights.
weights = np.array([2.0, 1.0])
X, value = optimize_weighted_basis(rho, weights, 2, restarts=25, rng=rng)
print("best weighted-frame value:", value, "(2 l1 + l2)", weights @ lam[:2])
print("frame score at report:", top_k_eigenvector_score(weights).expected(X, rho))

# Reporting a rank-k PSD matrix elicits eigenvalues and vectors together.
A, value = optimize_eigen_pair(rho, 2, restarts=25, rng=rng)
print("best rank-2 report value:", value, "(l1^2 + l2^2)", lam[:2] @ lam[:2])
print("pair score at report:", eigen_pair_score(2).expected(A, rho))

# An abstain option pays a flat rate; reporting beats abstaining exactly
# when the top eigenvalue clears the rate.
score = abstain_score(0.6, 2)
for state in (np.eye(2) / 2, np.diag([0.9, 0.1]).astype(complex)):
    rep, val = optimize_abstain(score, state, restarts=10, rng=rng)
    label = "abstain" if rep is ABSTAIN else "report vector"
    print(f"top eigenvalue {eigenvalues_desc(state)[0]:.2f} -> {label} (value {val:.2f})")

# Non-elicitability witnesses: same spectrum, different spectrum at the mix.
rho1 = np.diag([0.25, 0.75]).astype(complex)
rho2 = np.diag([0.75, 0.25]).astype(complex)
w = level_set_witness(make_property("eigenvalues", 2), rho1, rho2)
print("\neigenvalue level sets convex?", not w.is_counterexample)
for name in ("entropy", "tsallis2", "norm2"):
    w = find_level_set_witness(make_property(name, 3), 3, probes=100, rng=rng)
    print(f"{name}: counterexample found?", w is not None)
