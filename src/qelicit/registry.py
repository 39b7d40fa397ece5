"""Named registries of scores and properties for the CLI and test harness.

Each entry records the verdicts its checks are expected to produce, and
``run_verify`` (scores) and ``run_witness`` (properties) run the checks
and compare, so the CLI can tell "this score fails truthfulness, as it
should" from a genuine regression.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable

import numpy as np

from .classical import brier_rule, log_rule
from .linalg import _count, _decompose, _hs, eigenvalues_desc, spectral_decompose
from .measurement import canonical_complete
from .properties import QuantumProperty, abstain_score, eigen_pair_score, expectation_property, find_level_set_witness, top_eigenvector_score, top_k_eigenvector_score
from .reports import RNG_FORMAT, _check_dims, _replay, _wire_parts, json_safe
from .scores import (
    _fixed_score,
    _implementability,
    _spectral_score,
    _truthfulness,
    _unitary_invariance,
    binary_brier,
    implementability_check,
    log_det_score,
    log_spectral,
    log_trace_exp_score,
    log_trace_score,
    projective_brier,
    trace_score,
    truthfulness_check,
    unitary_invariance_check,
    von_neumann_entropy,
)

__all__ = ["ScoreEntry", "SCORE_REGISTRY", "make_score", "run_verify", "replay_verify", "PROPERTY_REGISTRY",
           "make_property", "run_witness"]


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
        lambda dim: _spectral_score(brier_rule(), "spectral:brier"), True, True, True, True
    ),
    "spectral:log": ScoreEntry(
        lambda dim: log_spectral(), True, True, True, True
    ),
    "fixed:brier": ScoreEntry(
        lambda dim: _fixed_score(brier_rule(), canonical_complete(dim)),
        True, True, True, False,
    ),
    "fixed:log": ScoreEntry(
        lambda dim: _fixed_score(log_rule(), canonical_complete(dim)),
        True, True, True, False,
    ),
    "ml:s1": ScoreEntry(
        lambda dim: _spectral_score(log_rule(), "ml:s1"),
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


# The checks run_verify runs at each dimension, in stream order, as replay_verify runs them: each one's
# description for a score.  run_verify calls the public checks by name, so that tracing sees them.
_CHECKS = {"truthfulness": _truthfulness, "unitary_invariance": _unitary_invariance,
           "implementability": _implementability}

# The least dimension whose checks run_verify runs on two threads when the process may use more than one
# CPU.  From there up the work is mostly eigh, qr and Gaussian draws, which release the GIL; below, the
# Python glue holds it.  Ten scores at 160 trials on two cores, threaded against serial: x0.96 at n = 3,
# x1.02 at 4, x1.09-1.20 at 5, x1.16-1.18 at 6, x1.3-1.5 at 7 and 8.
THREADED_DIM = 6


def _verify_arguments(score_name, dims, trials, seed) -> tuple:
    # the registry entry, dims, trials and seed of a verify run, validated; the counts
    # as Python ints, so that a report serializes
    entry = _lookup(SCORE_REGISTRY, score_name, "score", "scores")
    dims = _check_dims(dims)
    trials = _count(trials, "trials", len(dims), floor=f"the number of dimensions ({len(dims)})")
    return entry, dims, trials, _count(seed, "seed", 0)


def _stream_root(seed, stream):
    # the root seed of verify stream j, SeedSequence(seed).spawn(j + 1)[j], built alone
    return np.random.SeedSequence(seed, spawn_key=(stream,))


def _check_trials(dims, trials) -> list:
    # each check's trial count, by stream: the trials split over the dimensions as evenly as they
    # go, the first trials % len(dims) taking one more, and a quarter of those (at least 1) for the last two checks
    base, extra = divmod(trials, len(dims))
    per_dim = [base + (i < extra) for i in range(len(dims))]
    return [n if k == 0 else max(1, n // 4) for n in per_dim for k in range(len(_CHECKS))]


def run_verify(score_name: str, dims, trials: int, seed: int, profile=None) -> dict:
    """Run all checks for one registry score and compare with its expectations.

    Fixed-measurement scores are dimension-specific, so each dimension
    gets its own instance.  The trials are split as evenly as they go,
    the first ``trials % len(dims)`` dimensions taking one more, so the
    per-dimension truthfulness trials add up to ``trials``; the
    unitary-invariance and implementability checks run a quarter of them
    (at least 1).  Each check records as ``stream`` the index j of its
    root seed ``SeedSequence(seed).spawn(3 * len(dims))[j]``, which
    ``SeedSequence(seed, spawn_key=(j,))`` rebuilds, and draws its trials
    by the layout ``"rng"`` names (``reports.run_trials``), so
    ``replay_verify`` rebuilds any of its trials.  Every check runs at
    its own default tolerances.  A dimension of at least ``THREADED_DIM``
    runs its truthfulness check on a second thread while the other two
    run in turn, when the process may use more than one CPU
    (``os.sched_getaffinity``); the report is the same either way.  With
    ``profile``, a text stream, each check writes one line to it: its
    trials, wall seconds, trials/s, the split between drawing, scoring
    and encoding, and its violations; then each dimension writes the
    wall seconds of its three checks together and the threads they ran
    on, since the checks' own wall seconds overlap on two threads.
    """
    entry, dims, trials, seed = _verify_arguments(score_name, dims, trials, seed)
    counts, sub_reports, runs, K = _check_trials(dims, trials), [], [], len(_CHECKS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for i, dim in enumerate(dims):
        S = entry.make(dim)
        n, roots = counts[K * i:K * i + K], [_stream_root(seed, K * i + k) for k in range(K)]
        calls = [partial(check, S, n[k], dims=(dim,), rng=roots[k]) for k, check in
                 enumerate((truthfulness_check, unitary_invariance_check, implementability_check))]
        threads = 2 if cpus > 1 and dim >= THREADED_DIM else 1
        start = perf_counter()
        runs.append(dict(zip(_CHECKS, _run_checks(calls, threads))))
        wall = perf_counter() - start
        sub = {"dim": dim}
        for k, (key, check) in enumerate(runs[-1].items()):
            sub[key] = {**check.to_json(), "stream": K * i + k}
            if profile is not None:
                _profile_line(profile, score_name, dim, key, check)
        if profile is not None:
            print(f"profile {score_name} dim={dim} checks: {wall:.4f} s on {threads} thread{'s' * (threads > 1)}",
                  file=profile)
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


def _run_checks(calls, threads: int) -> list:
    # the checks' reports in call order.  On two threads, a worker runs the first, the largest, in the
    # caller's context (its errstate) while this thread runs the others; the first check's error is
    # raised before the others', as it is when they run one after another
    if threads == 1:
        return [call() for call in calls]
    from concurrent.futures import ThreadPoolExecutor  # here, so that a serial run's memory does not grow by it

    with ThreadPoolExecutor(max_workers=1) as pool:
        first = pool.submit(contextvars.copy_context().run, calls[0])
        try:
            rest = [call() for call in calls[1:]]
        finally:
            head = first.result()
    return [head, *rest]


def replay_verify(score_name: str, dims, trials: int, seed: int, stream: int, trial: int) -> dict:
    """Trial ``trial`` of the check ``run_verify(score_name, dims, trials, seed)`` ran as ``stream``, in full.

    Only the trial's block, ``trial // 64`` of its stream's root seed, is
    drawn (``reports._replay``), so the trial reads the rows it read in the
    whole run (the ``"rng"`` layout).  Returns the run's arguments,
    the check's name, ``dim``, the recomputed ``kind`` ("" for a trial
    that is not a violation) and ``gap``, which equal what the report
    stores for a violation, and the trial's parts, named by its check's
    description and written as a stored violation writes them
    (``rho``, ``rho_prime`` and, for unitary invariance, ``unitary``;
    ``rho_1``, ``rho_2``, ``rho_prime`` and ``t`` for implementability).
    A stream outside ``0..3 * len(dims) - 1`` or a trial outside its
    check's trials is a ValueError.
    """
    entry, dims, trials, seed = _verify_arguments(score_name, dims, trials, seed)
    counts = _check_trials(dims, trials)
    stream = _count(stream, "stream", 0, len(counts) - 1)
    i, k = divmod(stream, len(_CHECKS))
    key, describe = list(_CHECKS.items())[k]
    trial = _count(trial, f"trial of stream {stream} ({key}, {counts[stream]} trials)", 0, counts[stream] - 1)
    check = describe(entry.make(dims[i]))
    kind, value, parts = _replay(check, trial, (dims[i],), _stream_root(seed, stream))
    return {"score": score_name, "dims": dims, "trials": trials, "seed": seed, "rng": RNG_FORMAT, "stream": stream,
            "check": key, "dim": dims[i], "trial": trial, "kind": kind, "gap": json_safe(float(value)),
            **_wire_parts(check, parts)}


def _profile_line(stream, score_name: str, dim: int, key: str, check) -> None:
    t = check.timing
    rate = check.trials / t["wall_s"] if t["wall_s"] > 0 else float("inf")
    print(
        f"profile {score_name} dim={dim} {key}: {check.trials} trials in {t['wall_s']:.4f} s, "
        f"{rate:.0f} trials/s (draw {t['draw_s']:.4f} s, score {t['score_s']:.4f} s, "
        f"encode {t['encode_s']:.4f} s), {check.n_violations} violations",
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
