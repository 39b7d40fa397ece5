"""Check reports and the seeded trial runner used by the verification suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

__all__ = ["ScoreReport", "run_trials", "json_safe"]

MAX_STORED_VIOLATIONS = 32
TRIAL_BLOCK = 256  # trials drawn and scored together; bounds a check's memory for any trial count


def json_safe(x):
    """Recursively replace non-finite floats with strings for strict JSON."""
    if isinstance(x, float):
        return x if math.isfinite(x) else str(x)
    if isinstance(x, dict):
        return {k: json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    return x


@dataclass
class ScoreReport:
    """Outcome of a sampled check: pass iff no violations were found.

    ``violations`` stores at most MAX_STORED_VIOLATIONS entries, each with
    the index of its trial as ``trial``; ``n_violations`` counts them all.
    ``timing`` holds the wall seconds of the run and their split between
    drawing and scoring; it is not part of the JSON, which stays the same
    for a fixed seed.
    """

    name: str
    mode: str
    trials: int
    dims: tuple[int, ...]
    violations: list = field(default_factory=list)
    n_violations: int = 0
    max_gap: float = float("-inf")
    kind_counts: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def add_violation(self, entry: dict):
        self.n_violations += 1
        kind = entry.get("kind", "violation")
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if len(self.violations) < MAX_STORED_VIOLATIONS:
            self.violations.append(entry)

    def record_gap(self, gap: float):
        if gap > self.max_gap:
            self.max_gap = gap

    def to_json(self) -> dict:
        return json_safe(
            {
                "name": self.name,
                "mode": self.mode,
                "trials": self.trials,
                "dims": list(self.dims),
                "verdict": self.verdict,
                "max_gap": self.max_gap,
                "n_violations": self.n_violations,
                "kind_counts": dict(sorted(self.kind_counts.items())),
                "violations": self.violations,
            }
        )


def _check_dims(dims) -> list:
    # dims as a list, refused unless non-empty with every dimension at least 2
    dims = list(dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"dims must be non-empty, every dimension at least 2 (checks are vacuous below), got {dims}")
    return dims


def run_trials(report: ScoreReport, draw, score, encode, rng=None) -> ScoreReport:
    """Run ``report.trials`` trials in blocks of TRIAL_BLOCK and record them.

    Trial i runs at dimension ``report.dims[i % len(report.dims)]`` and
    draws from stream i spawned from the root seed ``rng``, so a trial's
    stream depends neither on the trial count nor on the block size:
    re-running with ``trials=i + 1`` and the same seed replays trial i.

    Each block is split into one group per dimension.  ``draw(dim, trials,
    gens)`` draws a group's trials from their streams ``gens`` as a tuple
    of stacks whose first two hold the states each trial records, and
    ``score(drawn)`` returns the group's ``(gaps, kinds, values)``, one
    entry per trial.  Finite gaps feed ``max_gap``; each trial of kind
    not "" is a violation, stored in trial order with its trial index,
    its value as ``gap`` and ``encode(a, b)``, a dict describing its two
    states, which is called only for the violations that are stored.
    ``report.timing`` gets the seconds spent in all, in scoring, and in
    the rest, mostly drawing, as ``draw_s``.
    """
    if report.trials < 0:
        raise ValueError(f"trials must be non-negative, got {report.trials}")
    dims = np.asarray(_check_dims(report.dims))
    root = np.random.default_rng(rng)
    score_s, start = 0.0, perf_counter()
    for first in range(0, report.trials, TRIAL_BLOCK):
        trials = np.arange(first, min(first + TRIAL_BLOCK, report.trials))
        gens = root.spawn(len(trials))
        at = dims[trials % len(dims)]
        gaps, found = np.empty(len(trials)), []
        for dim in dict.fromkeys(at.tolist()):
            k = np.flatnonzero(at == dim)
            drawn = draw(dim, trials[k], [gens[j] for j in k])
            t = perf_counter()
            gaps[k], kinds, values = score(drawn)
            score_s += perf_counter() - t
            found += [(int(trials[k[j]]), str(kinds[j]), values[j], drawn[0][j], drawn[1][j])
                      for j in np.flatnonzero(kinds != "")]
        finite = gaps[np.isfinite(gaps)]
        if finite.size:
            report.record_gap(float(finite.max()))
        for i, kind, value, a, b in sorted(found, key=lambda v: v[0]):
            # only the violations that will be stored are encoded
            states = encode(a, b) if len(report.violations) < MAX_STORED_VIOLATIONS else {}
            report.add_violation({"kind": kind, "gap": float(value), **states, "trial": i})
    wall_s = perf_counter() - start
    report.timing = {"wall_s": wall_s, "draw_s": wall_s - score_s, "score_s": score_s}
    return report


def _classify(truthful, other, distinct, margin: float, strict: bool):
    """``(gaps, kinds, values)`` of reports against the truth, one entry per trial.

    A truthful expected score that is not finite is ``irregular``, with
    gap -inf and its own value stored.  Otherwise the gap is
    ``other - truthful`` (-inf when ``other`` is): above ``margin`` it is a
    ``gain``, and in strict mode a finite gap within ``margin`` is a
    ``tie`` where ``distinct`` holds.  Other trials get kind "".
    """
    truthful, other = np.asarray(truthful, dtype=np.float64), np.asarray(other, dtype=np.float64)
    irregular = ~np.isfinite(truthful)
    with np.errstate(invalid="ignore"):
        gaps = np.where(irregular | ~(other > -math.inf), -math.inf, other - truthful)
    gain = gaps > margin
    tie = strict & np.isfinite(gaps) & (np.abs(gaps) <= margin) & distinct
    kinds = np.select([irregular, gain, tie], ["irregular", "gain", "tie"], "")
    return gaps, kinds, np.where(irregular, truthful, gaps)
