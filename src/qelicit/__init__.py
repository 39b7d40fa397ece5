"""qelicit: truthful elicitation of quantum mixed states.

Scoring rules whose expected value is maximized by honest reporting,
for both classical distributions and density matrices; POVM measurement
simulation and tomographic reductions between the two settings; property
elicitation for eigenvectors and eigenvalue functionals; and multi-agent
payoffs (wagering, scoring-rule markets, a cost-function market maker).
"""

from .linalg import (
    SpectralDecomposition,
    as_density,
    as_hermitian,
    as_unitary,
    density_from_json,
    eigenvalues_desc,
    frob_dist,
    hermitian_part,
    hs_inner,
    matrix_from_json,
    matrix_to_json,
    random_density,
    random_hermitian,
    random_pure,
    random_unitary,
    spectral_decompose,
)
from .extended import (
    NEG_INF,
    ExtendedHermitian,
    canonicalize_extended,
    ext_dot,
    ext_inner,
    matrix_log,
)
from .classical import (
    ClassicalScoringRule,
    brier_rule,
    clean_probs,
    expected_classical,
    from_convex,
    linear_rule,
    log_rule,
    properness_check,
    shannon_entropy,
)
from .measurement import (
    Measurement,
    TomographicMap,
    apply_measurement,
    basis_pvm,
    canonical_complete,
    hadamard_pvm,
    is_pvm,
    is_tomographically_complete,
    sample_outcome,
    sample_outcomes,
    standard_pvm,
    tomographic_map,
)
from .scores import (
    ExpectedScoreFn,
    QuantumScore,
    binary_brier,
    equivalence_check,
    expected_score,
    fixed_meas_expression,
    fixed_meas_from_convex,
    fixed_measurement_score,
    implementability_check,
    log_det_score,
    log_spectral,
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
from .properties import (
    ABSTAIN,
    QuantumProperty,
    abstain_score,
    eigen_pair_score,
    expectation_property,
    find_level_set_witness,
    level_set_witness,
    top_bottom_score,
    top_eigenvector_score,
    top_k_eigenvector_score,
    with_value,
)
from .markets import (
    MarketState,
    WageringRound,
    bundle_cost,
    bundle_expected_payoff,
    lmsr_cost,
    market_price_state,
    trader_payoff,
    wagering_payoffs,
)
from .registry import PROPERTY_REGISTRY, SCORE_REGISTRY, make_property, make_score
from .reports import ScoreReport

__version__ = "0.1.0"
