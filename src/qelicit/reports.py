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


def run_trials(report: ScoreReport, trial, encode, rng=None, score=None) -> ScoreReport:
    """Run ``report.trials`` trials in blocks of TRIAL_BLOCK and record them.

    Trial i draws from stream i spawned from the root seed ``rng``, so a
    trial's stream depends neither on the trial count nor on the block
    size: re-running with ``trials=i + 1`` and the same seed replays
    trial i.

    Without ``score``, ``trial(i, g)`` runs trial i and returns
    ``(gap, found)``, with ``found`` a list of ``(kind, gap, a, b)``
    violations.  With ``score``, each block is drawn, then scored at once:
    ``trial(first, gens)`` draws trials first, first + 1, ... from their
    streams ``gens``, and ``score(drawn)`` returns the block's gaps and its
    violations as ``(j, kind, value, a, b)`` for trial first + j, in trial
    order (see ``_found``).  Finite gaps feed ``max_gap``; each violation
    is stored with its trial index and ``encode(a, b)``, a dict describing
    its two states.  ``report.timing`` gets the seconds spent in all, in
    drawing and in scoring.
    """
    if score is None:
        trial, score = _per_trial(trial)
    root = np.random.default_rng(rng)
    spent = {"draw_s": 0.0, "score_s": 0.0}
    start = perf_counter()
    for first in range(0, report.trials, TRIAL_BLOCK):
        t0 = perf_counter()
        drawn = trial(first, root.spawn(min(TRIAL_BLOCK, report.trials - first)))
        t1 = perf_counter()
        gaps, found = score(drawn)
        spent["draw_s"] += t1 - t0
        spent["score_s"] += perf_counter() - t1
        finite = gaps[np.isfinite(gaps)]
        if finite.size:
            report.record_gap(float(finite.max()))
        for j, kind, value, a, b in found:
            report.add_violation({"kind": kind, "gap": float(value), **encode(a, b), "trial": first + j})
    report.timing = {"wall_s": perf_counter() - start, **spent}
    return report


def _per_trial(trial):
    # the block form of a per-trial function: drawing runs the trials, scoring collects them
    def draw(first, gens):
        return [trial(i, g) for i, g in enumerate(gens, start=first)]

    def score(results):
        gaps = np.array([gap for gap, _ in results], dtype=np.float64)
        return gaps, [(j, *v) for j, (_, found) in enumerate(results) for v in found]

    return draw, score


def _found(kinds, values, a, b) -> list:
    """The violations of a scored block: ``(j, kind, value, a[j], b[j])`` for each trial j of kind not ""."""
    return [(int(j), str(kinds[j]), values[j], a[j], b[j]) for j in np.flatnonzero(kinds != "")]


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
