"""Named registries of scores and properties for the CLI and test harness.

Each score entry records the verdicts its checks are expected to
produce, so the verification command can distinguish "this score fails
truthfulness, as it should" from a genuine regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import brier_rule, log_rule
from .linalg import eigenvalues_desc, hs_inner, spectral_decompose
from .measurement import canonical_complete
from .properties import QuantumProperty, abstain_score, eigen_pair_score, expectation_property, top_eigenvector_score, top_k_eigenvector_score
from .scores import (
    binary_brier,
    fixed_measurement_score,
    log_det_score,
    log_spectral,
    log_trace_exp_score,
    log_trace_score,
    projective_brier,
    spectral_score,
    trace_score,
    von_neumann_entropy,
)

__all__ = ["ScoreEntry", "SCORE_REGISTRY", "make_score", "PROPERTY_REGISTRY", "make_property"]


@dataclass(frozen=True)
class ScoreEntry:
    """Factory plus the verdicts every check is expected to return."""

    make: Callable[[int], object]
    truthful: bool
    strictly_truthful: bool
    implementable: bool
    unitary_invariant: bool


SCORE_REGISTRY: dict[str, ScoreEntry] = {
    "binary-brier": ScoreEntry(
        lambda dim: binary_brier(), True, True, True, True
    ),
    "projective-brier": ScoreEntry(
        lambda dim: projective_brier(), True, True, True, True
    ),
    "spectral:brier": ScoreEntry(
        lambda dim: spectral_score(brier_rule()), True, True, True, True
    ),
    "spectral:log": ScoreEntry(
        lambda dim: log_spectral(), True, True, True, True
    ),
    "fixed:brier": ScoreEntry(
        lambda dim: fixed_measurement_score(brier_rule(), canonical_complete(dim)),
        True, True, True, False,
    ),
    "fixed:log": ScoreEntry(
        lambda dim: fixed_measurement_score(log_rule(), canonical_complete(dim)),
        True, True, True, False,
    ),
    "ml:s1": ScoreEntry(
        lambda dim: spectral_score(log_rule(), name="ml:s1", check=False),
        True, True, True, True,
    ),
    "ml:s2": ScoreEntry(
        lambda dim: log_det_score(), True, True, True, True
    ),
    "ml:s3": ScoreEntry(
        lambda dim: trace_score(), False, False, True, True
    ),
    "ml:s4": ScoreEntry(
        lambda dim: log_trace_score(), False, False, False, True
    ),
    "ml:s5": ScoreEntry(
        lambda dim: log_trace_exp_score(), False, False, False, True
    ),
}


def make_score(name: str, dim: int):
    try:
        entry = SCORE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SCORE_REGISTRY))
        raise KeyError(f"unknown score {name!r}; known scores: {known}") from None
    return entry.make(dim)


def _top_eigenvector_property() -> QuantumProperty:
    def evaluate(rho):
        return spectral_decompose(rho).eigenvectors[:, 0]

    def member(rho, x):
        x = np.asarray(x, dtype=np.complex128)
        lam = float(eigenvalues_desc(rho)[0])
        return bool(np.linalg.norm(rho @ x - lam * x) <= 1e-8)

    return QuantumProperty(evaluate, name="eigvec-top", set_valued=True, membership=member)


# Factories keyed by CLI name.  Entries are (property factory, score factory);
# either side may be None when the registry only exposes one of the two.
PROPERTY_REGISTRY: dict[str, dict] = {
    "eigvec-top": {
        "property": lambda dim: _top_eigenvector_property(),
        "score": lambda dim: top_eigenvector_score(),
        "elicitable": True,
    },
    "eigvec-topk": {
        "property": None,
        "score": lambda dim: top_k_eigenvector_score(2, [2.0, 1.0]),
        "elicitable": True,
    },
    "eig-pair": {
        "property": None,
        "score": lambda dim: eigen_pair_score(max(1, dim - 1)),
        "elicitable": True,
    },
    "abstain": {
        "property": None,
        "score": lambda dim: abstain_score(0.5, dim),
        "elicitable": True,
    },
    "expectation": {
        "property": lambda dim: _expectation_for(dim)[0],
        "score": lambda dim: _expectation_for(dim)[1],
        "elicitable": True,
    },
    "eigenvalues": {
        "property": lambda dim: QuantumProperty(eigenvalues_desc, name="eigenvalues"),
        "score": None,
        "elicitable": False,
    },
    "max-eigenvalue": {
        "property": lambda dim: QuantumProperty(lambda rho: float(eigenvalues_desc(rho)[0]), name="max-eigenvalue"),
        "score": None,
        "elicitable": False,
    },
    "entropy": {
        "property": lambda dim: QuantumProperty(von_neumann_entropy, name="entropy"),
        "score": None,
        "elicitable": False,
    },
    "tsallis2": {
        "property": lambda dim: QuantumProperty(lambda rho: 1.0 - hs_inner(rho, rho), name="tsallis2"),
        "score": None,
        "elicitable": False,
    },
    "norm2": {
        "property": lambda dim: QuantumProperty(lambda rho: float(np.sqrt(hs_inner(rho, rho))), name="norm2"),
        "score": None,
        "elicitable": False,
    },
}


def _expectation_for(dim: int):
    mu = canonical_complete(dim)
    z = np.arange(len(mu), dtype=np.float64)
    return expectation_property(z, mu)


def make_property(name: str, dim: int) -> QuantumProperty:
    try:
        entry = PROPERTY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(PROPERTY_REGISTRY))
        raise KeyError(f"unknown property {name!r}; known properties: {known}") from None
    if entry["property"] is None:
        raise KeyError(f"property {name!r} has no level-set evaluator (score-only entry)")
    return entry["property"](dim)
