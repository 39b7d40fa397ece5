"""Named registries of scores and properties for the CLI and test harness.

Each entry records the verdicts its checks are expected to produce, and
``run_verify`` (scores) and ``run_witness`` (properties) run the checks
and compare, so the CLI can tell "this score fails truthfulness, as it
should" from a genuine regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import brier_rule, log_rule
from .linalg import _count, _decompose, _hs, eigenvalues_desc, spectral_decompose
from .measurement import canonical_complete
from .properties import QuantumProperty, abstain_score, eigen_pair_score, expectation_property, find_level_set_witness, top_eigenvector_score, top_k_eigenvector_score
from .reports import RNG_FORMAT, _check_dims
from .scores import (
    binary_brier,
    fixed_measurement_score,
    implementability_check,
    log_det_score,
    log_spectral,
    log_trace_exp_score,
    log_trace_score,
    projective_brier,
    spectral_score,
    trace_score,
    truthfulness_check,
    unitary_invariance_check,
    von_neumann_entropy,
)

__all__ = ["ScoreEntry", "SCORE_REGISTRY", "make_score", "run_verify", "PROPERTY_REGISTRY", "make_property", "run_witness"]


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
        lambda dim: spectral_score(log_rule(), name="ml:s1"),
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


def _lookup(table: dict, name: str, kind: str, kinds: str):
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown {kind} {name!r}; known {kinds}: {', '.join(sorted(table))}") from None


def make_score(name: str, dim: int):
    return _lookup(SCORE_REGISTRY, name, "score", "scores").make(_count(dim, "dim", 1))


def run_verify(score_name: str, dims, trials: int, seed: int, profile=None) -> dict:
    """Run all checks for one registry score and compare with its expectations.

    Fixed-measurement scores are dimension-specific, so each dimension
    gets its own instance.  The trials are split as evenly as they go,
    the first ``trials % len(dims)`` dimensions taking one more, so the
    per-dimension truthfulness trials add up to ``trials``.  Each check
    records as ``stream`` the index j of its root seed
    ``SeedSequence(seed).spawn(3 * len(dims))[j]``, which
    ``SeedSequence(seed, spawn_key=(j,))`` rebuilds, and draws its trials
    by the layout ``"rng"`` names (``reports.run_trials``).  Every check
    runs at its own default tolerances.  With ``profile``, a text stream,
    each check writes one line to it: its trials, wall seconds, trials/s
    and the split between drawing and scoring.
    """
    entry = _lookup(SCORE_REGISTRY, score_name, "score", "scores")
    dims = _check_dims(dims)
    trials = _count(trials, "trials", len(dims), floor=f"the number of dimensions ({len(dims)})")
    seed = _count(seed, "seed", 0)  # a Python int, so the report serializes

    base, extra = divmod(trials, len(dims))
    children = np.random.SeedSequence(seed).spawn(3 * len(dims))
    sub_reports, runs = [], []
    for i, dim in enumerate(dims):
        S = entry.make(dim)
        per_dim = base + (i < extra)
        rngs = [np.random.default_rng(children[3 * i + k]) for k in range(3)]
        truth = truthfulness_check(S, per_dim, dims=(dim,), rng=rngs[0])
        ui = unitary_invariance_check(S, max(1, per_dim // 4), dims=(dim,), rng=rngs[1])
        impl = implementability_check(S, max(1, per_dim // 4), dims=(dim,), rng=rngs[2])
        runs.append({"truthfulness": truth, "unitary_invariance": ui, "implementability": impl})
        sub = {"dim": dim}
        for k, (key, check) in enumerate(runs[-1].items()):
            sub[key] = {**check.to_json(), "stream": 3 * i + k}
            if profile is not None:
                _profile_line(profile, score_name, dim, key, check)
        sub_reports.append(sub)

    observed = {
        "truthful": all(run["truthfulness"].weakly_passed for run in runs),
        "strictly_truthful": all(run["truthfulness"].passed for run in runs),
        "implementable": all(run["implementability"].passed for run in runs),
        "unitary_invariant": all(run["unitary_invariance"].passed for run in runs),
    }
    expected = {key: getattr(entry, key) for key in observed}  # the entry's verdict fields
    return {
        "score": score_name,
        "dims": dims,
        "trials": trials,
        "seed": seed,
        "rng": RNG_FORMAT,
        "expected": expected,
        "observed": observed,
        "as_expected": observed == expected,
        "reports": sub_reports,
    }


def _profile_line(stream, score_name: str, dim: int, key: str, check) -> None:
    t = check.timing
    rate = check.trials / t["wall_s"] if t["wall_s"] > 0 else float("inf")
    print(
        f"profile {score_name} dim={dim} {key}: {check.trials} trials in {t['wall_s']:.4f} s, "
        f"{rate:.0f} trials/s (draw {t['draw_s']:.4f} s, score {t['score_s']:.4f} s)",
        file=stream,
    )


# Factories keyed by CLI name.  Entries are (property factory, score factory);
# either side may be None when the registry only exposes one of the two.
PROPERTY_REGISTRY: dict[str, dict] = {
    "eigvec-top": {
        "property": lambda dim: QuantumProperty(lambda rho: spectral_decompose(rho).eigenvectors[:, 0], name="eigvec-top",
                                                _stack=lambda rhos: _decompose(rhos).eigenvectors[:, :, 0]),
        "score": lambda dim: top_eigenvector_score(),
        "elicitable": True,
    },
    "eigvec-topk": {
        "property": None,
        "score": lambda dim: top_k_eigenvector_score([2.0, 1.0]),
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
        "property": lambda dim: QuantumProperty(lambda rho: 1.0 - _hs(rho, rho), name="tsallis2"),
        "score": None,
        "elicitable": False,
    },
    "norm2": {
        "property": lambda dim: QuantumProperty(lambda rho: float(np.sqrt(_hs(rho, rho))), name="norm2"),
        "score": None,
        "elicitable": False,
    },
}


def _expectation_for(dim: int):
    mu = canonical_complete(dim)
    z = np.arange(len(mu), dtype=np.float64)
    return expectation_property(z, mu)


def make_property(name: str, dim: int) -> QuantumProperty:
    entry = _lookup(PROPERTY_REGISTRY, name, "property", "properties")
    if entry["property"] is None:
        raise KeyError(f"property {name!r} has no level-set evaluator (score-only entry)")
    return entry["property"](_count(dim, "dim", 1))


def run_witness(property_name: str, dims, trials: int, seed: int) -> dict:
    """Search one registry property for a level-set counterexample and compare with its verdict.

    The search probes the one dimension in ``dims`` (at least 2)
    ``trials`` times, seeded by ``seed``; more than one dimension is
    refused.  A counterexample is expected exactly when the property is
    not elicitable; ``as_expected`` says whether the search agreed.
    """
    dims = _check_dims(dims)
    if len(dims) > 1:
        raise ValueError(f"a witness search probes one dimension, got dims {dims}")
    trials = _count(trials, "trials", 1)
    seed = _count(seed, "seed", 0)  # a Python int, so the report serializes
    prop = make_property(property_name, dims[0])
    found = find_level_set_witness(prop, dims[0], probes=trials, rng=np.random.default_rng(seed))
    elicitable = PROPERTY_REGISTRY[property_name]["elicitable"]
    return {
        "property": property_name,
        "dim": dims[0],
        "probes": trials,
        "seed": seed,
        "expected_elicitable": elicitable,
        "witness": found.to_json() if found else None,
        "as_expected": (found is None) == elicitable,
    }
