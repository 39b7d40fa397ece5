#!/usr/bin/env python3
"""Reducing quantum elicitation to classical scoring via tomography.

A tomographically complete measurement makes the state-to-probabilities
map injective, so scoring the induced outcome distribution with any
strictly proper classical rule already elicits the full state.  The
map's pseudoinverse and adjoint carry properties and identification
functions across.  Scores can also be re-expressed across measurement
classes without changing any expected value.
"""

import numpy as np

from qelicit import (
    apply_measurement,
    binary_brier,
    brier_rule,
    canonical_complete,
    equivalence_check,
    expectation_property,
    fixed_meas_expression,
    fixed_measurement_score,
    hs_inner,
    is_pvm,
    is_tomographically_complete,
    projective_expression,
    random_density,
    standard_pvm,
    tomographic_map,
    truthfulness_check,
    von_neumann_entropy,
)

# An orthonormal-basis measurement has n outcomes; completeness needs n^2.
print("standard basis complete?", is_tomographically_complete(standard_pvm(2)))
mu = canonical_complete(2)
print("canonical POVM outcomes:", len(mu), "complete?", is_tomographically_complete(mu))

# Complete means invertible: reconstruct the state from its outcome law.
tmap = tomographic_map(mu)
rho = random_density(2, rng=0)
recovered = tmap.reconstruct(apply_measurement(mu, rho))
print("reconstruction error:", np.abs(recovered - rho).max())

# So a property of states is one of outcome laws: evaluate it at the reconstruction.
print("entropy from the outcome law:", von_neumann_entropy(recovered), "from the state:", von_neumann_entropy(rho))

# Identification functions pull back through the adjoint.  The mean r of a
# payoff z over the outcomes is identified by v(r)_y = z_y - r, so on states
# it is identified by adjoint(v(r)) = sum_y (z_y - r) mu_y: its pairing with
# rho is E_p[z] - r, zero exactly at the mean.
z = np.arange(len(mu), dtype=np.float64)
mean, _ = expectation_property(z, mu)
r = mean.eval(rho)
print(f"<adjoint(z - r), rho> at the mean r = {r:.4f}: {hs_inner(tmap.adjoint(z - r), rho):.1e}; "
      f"at r + 0.25: {hs_inner(tmap.adjoint(z - (r + 0.25)), rho):.4f}")

# Brier on the outcome distribution, measurement fixed once and for all.
S_fixed = fixed_measurement_score(brier_rule(), mu)
print("\nfixed-measurement Brier strict truthfulness:",
      truthfulness_check(S_fixed, 1000, dims=(2,), rng=1).verdict)

# Any finite score can be rewritten over the fixed complete measurement...
S = binary_brier()
S_expr = fixed_meas_expression(S, mu)
print("re-expressed binary Brier equivalent:",
      equivalence_check(S_expr, S, 500, dims=(2,), rng=2).verdict)

# ... and any score at all can be rewritten projectively: eigenbasis
# measurement plus eigenvalue payoffs.
S_proj = projective_expression(S_fixed)
print("projective re-expression equivalent:",
      equivalence_check(S_proj, S_fixed, 500, dims=(2,), rng=3).verdict)
print("its measurements are PVMs:", is_pvm(S_proj.measure(random_density(2, rng=4))))
