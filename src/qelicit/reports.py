"""Check reports and the seeded trial runner used by the verification suites."""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from .linalg import _count, _is_int

__all__ = ["ScoreReport", "run_trials", "json_safe"]

MAX_STORED_VIOLATIONS = 32
TRIAL_BLOCK = 256  # trials drawn and scored together; bounds a check's memory for any trial count
RNG_BLOCK = 64  # trials per seeded block draw, fixed by the "rng": RNG_FORMAT of the verify JSON
RNG_FORMAT = "block-v1"
PROPERNESS_MARGIN = 1e-9  # a gain above this is a violation; a gap within it, between distinct reports, a tie


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

    A report starts empty and ``run_trials`` fills it.  ``violations``
    holds at most MAX_STORED_VIOLATIONS entries, each with its trial's
    index as ``trial``; ``n_violations`` counts them all.  ``timing``, the
    run's wall seconds split into drawing, scoring and encoding the stored
    violations, is not in the JSON, which stays the same for a fixed seed.
    """

    name: str
    mode: str
    trials: int
    dims: tuple[int, ...]
    violations: list = field(init=False, default_factory=list)
    n_violations: int = field(init=False, default=0)
    max_gap: float = field(init=False, default=float("-inf"))
    kind_counts: dict = field(init=False, default_factory=dict)
    timing: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    @property
    def weakly_passed(self) -> bool:
        """No ``gain`` and no ``irregular`` trial: the weak verdict of a check whose ``passed`` also counts ties."""
        return not (self.kind_counts.get("gain") or self.kind_counts.get("irregular"))

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        """The report as strict JSON: only the gaps can be non-finite, as the stored states are finite."""
        return {
            "name": self.name,
            "mode": self.mode,
            "trials": self.trials,
            "dims": list(self.dims),
            "verdict": self.verdict,
            "max_gap": json_safe(self.max_gap),
            "n_violations": self.n_violations,
            "kind_counts": dict(sorted(self.kind_counts.items())),
            "violations": [{**v, "gap": json_safe(v["gap"])} for v in self.violations],
        }


def _check_dims(dims) -> list:
    # dims as a list of Python ints, refused unless non-empty with every dimension an integer of at least 2
    dims = list(dims)
    if not dims or not all(_is_int(d) and d >= 2 for d in dims):
        must = "at least" if all(map(_is_int, dims)) else "an integer of at least"
        raise ValueError(f"dims must be non-empty, every dimension {must} 2 (checks are vacuous below), got {dims}")
    return [int(d) for d in dims]


def run_trials(name, mode, trials, dims, rows, draw, score, encode, rng=None) -> ScoreReport:
    """Run ``trials`` trials in blocks of TRIAL_BLOCK and return their ScoreReport.

    Trial i runs at ``dims[j]``, ``j = i % len(dims)``, and reads its row
    of block ``c = i // RNG_BLOCK``, drawn from child c of the root seed
    ``rng`` (the child ``SeedSequence.spawn`` gives; a SeedSequence is only
    read, while a Generator is a stream and advances): for each index j in
    turn, ``rows(g, dims[j], m)`` draws the block's m rows at j as arrays
    whose first axis is the row.  The spare rows, for rare resamples, are
    drawn the same way from the first child of the block's stream, when
    first asked for.  A block is drawn whole, by ``_take``, so trial i's
    rows depend on neither the trial count nor TRIAL_BLOCK: ``trials=i + 1``
    replays it, and ``_replay`` draws its block alone.

    Each block of trials is split into one group per index j.
    ``draw(dims[j], trials, rows, spare)`` builds a group from its rows,
    stacked, and ``spare()``, their spare rows, as a tuple of stacks whose
    first two hold the states a trial records; ``score(drawn)`` returns
    ``(kinds, values)``, one entry per trial.  The largest finite value
    is ``max_gap``; each trial of kind not "" is a violation, counted by
    kind and stored in trial order, up to MAX_STORED_VIOLATIONS, with its
    index as ``trial``, its value as ``gap`` and, unless ``encode`` is
    None, ``encode(a, b)``, a dict describing its two states, called only
    for the violations that are stored.  The report, named ``name`` and
    ``mode``, is built here and its counters written once, at the end;
    ``report.timing`` gets the seconds spent in all, in scoring, in
    encoding (``encode_s``), and in the rest, mostly drawing (``draw_s``).
    """
    report = ScoreReport(name, mode, _count(trials, "trials", 0), tuple(_check_dims(dims)))
    dims, L, root, blocks = report.dims, len(report.dims), _root(rng), {}
    max_gap, kind_counts, stored = float("-inf"), {}, []
    score_s, encode_s, start = 0.0, 0.0, perf_counter()
    for first in range(0, report.trials, TRIAL_BLOCK):
        trials = np.arange(first, min(first + TRIAL_BLOCK, report.trials))
        # the blocks this one reads: new ones are spawned in order, so that block c is child c
        blocks = {c: blocks.get(c) or {"gen": root.spawn(1)[0]}
                  for c in range(first // RNG_BLOCK, int(trials[-1]) // RNG_BLOCK + 1)}
        found = []
        for j in dict.fromkeys((trials % L).tolist()):
            k = np.flatnonzero(trials % L == j)
            take = partial(_take, rows, dims, blocks, j, trials[k])
            drawn = draw(dims[j], trials[k], take(), partial(take, "spare"))
            t = perf_counter()
            kinds, values = score(drawn)
            score_s += perf_counter() - t
            max_gap = float(np.max(values, initial=max_gap, where=np.isfinite(values)))
            found += [(int(trials[k[x]]), str(kinds[x]), values[x], drawn[0][x], drawn[1][x])
                      for x in np.flatnonzero(kinds != "")]
        t = perf_counter()
        for i, kind, value, a, b in sorted(found, key=lambda v: v[0]):
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            if len(stored) < MAX_STORED_VIOLATIONS:  # only the violations that are stored are encoded
                stored.append({"kind": kind, "gap": float(value), **(encode(a, b) if encode else {}), "trial": i})
        encode_s += perf_counter() - t
    report.max_gap, report.kind_counts, report.violations = max_gap, kind_counts, stored
    report.n_violations = sum(kind_counts.values())
    wall_s = perf_counter() - start
    report.timing = {"wall_s": wall_s, "draw_s": wall_s - score_s - encode_s, "score_s": score_s, "encode_s": encode_s}
    return report


def _root(rng) -> np.random.Generator:
    # the generator the blocks are spawned from; a SeedSequence is copied, so the caller's is left as it was
    return np.random.default_rng(copy(rng) if isinstance(rng, np.random.SeedSequence) else rng)


def _take(rows, dims, blocks, j, group, key="rows") -> list:
    # the rows (or the spare rows, key "spare") of a group of trials at index j, the one
    # reader of the block layout: block c, from generator blocks[c]["gen"], is drawn on first
    # use as rows(g, dims[i], m) for each index i in turn, and its row r is its (r // L)-th at j
    L, parts = len(dims), []
    for c in range(group[0] // RNG_BLOCK, group[-1] // RNG_BLOCK + 1):
        if key not in blocks[c]:
            g = blocks[c]["gen"].spawn(1)[0] if key == "spare" else blocks[c]["gen"]
            blocks[c][key] = [rows(g, dims[i], len(range((i - c * RNG_BLOCK) % L, RNG_BLOCK, L))) for i in range(L)]
        parts.append([a[group[group // RNG_BLOCK == c] % RNG_BLOCK // L] for a in blocks[c][key][j]])
    return [np.concatenate(p) for p in zip(*parts)]


def _replay(checked: dict, trial: int, dims, rng) -> tuple:
    """``(kind, value, parts)`` of trial ``trial`` of ``run_trials(trials=..., dims=dims, rng=rng, **checked)``.

    ``parts`` holds the trial's row of each stack ``checked["draw"]`` builds; only the trial's block is drawn.
    """
    c, j, group = trial // RNG_BLOCK, trial % len(dims), np.array([trial])
    blocks = {c: {"gen": _root(rng).spawn(c + 1)[c]}}  # the child run_trials spawns c-th
    take = partial(_take, checked["rows"], dims, blocks, j, group)
    drawn = checked["draw"](dims[j], group, take(), partial(take, "spare"))
    kinds, values = checked["score"](drawn)
    return str(kinds[0]), values[0], [part[0] for part in drawn]


def _classify(truthful, other, distinct):
    """``(kinds, values)`` of reports against the truth, one entry per trial.

    A truthful expected score that is not finite, or a NaN on either side,
    is ``irregular``, valued at the NaN (else the truthful value), never
    finite.  Otherwise the value is the gap ``other - truthful`` (-inf
    when ``other`` is): above PROPERNESS_MARGIN it is a ``gain``, and a
    finite gap within it is a ``tie`` where ``distinct`` holds.  Other
    trials get kind "".
    """
    truthful, other = np.asarray(truthful, dtype=np.float64), np.asarray(other, dtype=np.float64)
    irregular = ~np.isfinite(truthful) | np.isnan(other)
    with np.errstate(invalid="ignore"):
        gaps = np.where(other > -math.inf, other - truthful, -math.inf)
    tie = np.isfinite(gaps) & (np.abs(gaps) <= PROPERNESS_MARGIN) & distinct
    kinds = np.select([irregular, gaps > PROPERNESS_MARGIN, tie], ["irregular", "gain", "tie"], "")
    return kinds, np.where(irregular, np.where(np.isnan(other), other, truthful), gaps)
