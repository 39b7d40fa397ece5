"""Check reports and the seeded trial runner used by the verification suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ScoreReport", "run_trials", "json_safe"]

MAX_STORED_VIOLATIONS = 32


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
    """

    name: str
    mode: str
    trials: int
    dims: tuple[int, ...]
    violations: list = field(default_factory=list)
    n_violations: int = 0
    max_gap: float = float("-inf")
    kind_counts: dict = field(default_factory=dict)

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


def run_trials(report: ScoreReport, trial, encode, rng=None) -> ScoreReport:
    """Run ``trial(i, g)`` for each of ``report.trials`` trials and record them.

    Trial i draws from stream i spawned from the root seed ``rng``, so a
    trial's stream does not depend on the trial count: re-running with
    ``trials=i + 1`` and the same seed replays trial i.  ``trial``
    returns ``(gap, found)``, with ``found`` a list of
    ``(kind, gap, a, b)`` violations; finite gaps feed ``max_gap``, and
    each violation is stored with its trial index and ``encode(a, b)``,
    a dict describing its two states.
    """
    streams = np.random.default_rng(rng).spawn(report.trials)
    for i, g in enumerate(streams):
        gap, found = trial(i, g)
        if np.isfinite(gap):
            report.record_gap(gap)
        for kind, value, a, b in found:
            report.add_violation({"kind": kind, "gap": float(value), **encode(a, b), "trial": i})
    return report


def _classify(truthful: float, other, distinct, margin: float, strict: bool, a, b):
    """``(gap, found)`` of one report against the truth, for a ``run_trials`` trial.

    A truthful expected score that is not finite is ``irregular``.
    Otherwise the gap is ``other() - truthful`` (-inf when ``other()``
    is): above ``margin`` it is a ``gain``, and in strict mode a finite
    gap within ``margin`` is a ``tie`` when ``distinct()`` holds.
    ``other`` and ``distinct`` are called only when needed.
    """
    if not np.isfinite(truthful):
        return -math.inf, [("irregular", truthful, a, b)]
    value = other()
    gap = value - truthful if value > -math.inf else -math.inf
    if gap > margin:
        return gap, [("gain", gap, a, b)]
    if strict and np.isfinite(gap) and abs(gap) <= margin and distinct():
        return gap, [("tie", gap, a, b)]
    return gap, []
