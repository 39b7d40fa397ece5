"""Check reports and the seeded trial runner used by the verification suites."""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from .linalg import _count, _is_int, matrix_to_json

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


def run_trials(check: dict, trials, dims, rng=None) -> ScoreReport:
    """Run ``trials`` trials of the sampled check ``check`` and return their ScoreReport.

    ``check`` describes the check: the report's ``name`` and ``mode``;
    ``rows``, ``draw`` and ``score``, which ``_step`` reads; ``parts``, the
    names of a trial's parts in the order ``draw`` builds them; and
    ``store``, whether a violation stores them.  Block c of RNG_BLOCK
    trials is drawn from child c of the root seed ``rng`` (a SeedSequence
    is only read, while a Generator is a stream and advances), so the
    trials, run TRIAL_BLOCK at a time as one ``_step`` each and folded in
    trial order, depend on neither the trial count nor TRIAL_BLOCK, and
    ``_replay`` runs one alone.  The largest finite value is ``max_gap``;
    each trial of kind not "" is a violation, counted by kind and stored
    in trial order, up to MAX_STORED_VIOLATIONS, with its index, value
    and, if ``check["store"]``, parts (``_wire_parts``, only for those
    stored).  ``report.timing`` gets the seconds spent in all, in scoring,
    in writing stored parts (``encode_s``) and in the rest (``draw_s``).
    """
    report = ScoreReport(check["name"], check["mode"], _count(trials, "trials", 0), tuple(_check_dims(dims)))
    seeds = _seeds(rng, -(-report.trials // RNG_BLOCK))
    max_gap, kind_counts, stored = float("-inf"), {}, []
    score_s, encode_s, start = 0.0, 0.0, perf_counter()
    for first in range(0, report.trials, TRIAL_BLOCK):
        groups, seconds = _step(check, report.dims, seeds, np.arange(first, min(first + TRIAL_BLOCK, report.trials)))
        score_s, found = score_s + seconds, []
        for group, kinds, values, drawn in groups:
            max_gap = float(np.max(values, initial=max_gap, where=np.isfinite(values)))
            found += [(int(group[x]), str(kinds[x]), values[x], drawn, x) for x in np.flatnonzero(kinds != "")]
        t = perf_counter()
        for i, kind, value, drawn, x in sorted(found, key=lambda v: v[0]):
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            if len(stored) < MAX_STORED_VIOLATIONS:  # only the violations that are stored are encoded
                parts = _wire_parts(check, [part[x] for part in drawn]) if check["store"] else {}
                stored.append({"kind": kind, "gap": float(value), **parts, "trial": i})
        encode_s += perf_counter() - t
    report.max_gap, report.kind_counts, report.violations = max_gap, kind_counts, stored
    report.n_violations = sum(kind_counts.values())
    wall_s = perf_counter() - start
    report.timing = {"wall_s": wall_s, "draw_s": wall_s - score_s - encode_s, "score_s": score_s, "encode_s": encode_s}
    return report


def _seeds(rng, n) -> list:
    # block c's seed, child c of the root seed rng, as a maker of fresh generators on a copy of it of rng's types
    # (Generator.spawn's children); a SeedSequence rng is copied, left as it was, while a Generator advances
    root = np.random.default_rng(copy(rng) if isinstance(rng, np.random.SeedSequence) else rng)
    G, bits = type(root), type(root.bit_generator)
    return [lambda s=s: G(bits(copy(s))) for s in root.bit_generator.seed_seq.spawn(n)]


def _step(check: dict, dims, seeds, trials) -> tuple:
    # draws and scores a run of ascending trial indices, block c from a fresh generator on its own seed, seeds[c](),
    # so a trial reads the same rows in any run; the trials at index j of dims form a group, stacked as one array
    # per part by check["draw"](dims[j], group, rows, spare) and scored by check["score"](drawn) as (kinds, values).
    # Returns [(group, kinds, values, drawn), ...], in order of first index, and the seconds spent scoring
    blocks = {c: {"gen": seeds[c]()} for c in range(trials[0] // RNG_BLOCK, trials[-1] // RNG_BLOCK + 1)}
    groups, score_s = [], 0.0
    for j in dict.fromkeys((trials % len(dims)).tolist()):
        group = trials[trials % len(dims) == j]
        take = partial(_take, check["rows"], dims, blocks, j, group)
        drawn = check["draw"](dims[j], group, take(), partial(take, "spare"))
        t = perf_counter()
        kinds, values = check["score"](drawn)
        score_s += perf_counter() - t
        groups.append((group, kinds, values, drawn))
    return groups, score_s


def _take(rows, dims, blocks, j, group, key="rows") -> list:
    # the rows (or the spare rows, key "spare", from the generator's first child) of a group of trials
    # at index j, the one reader of the block layout: block c, from generator blocks[c]["gen"], is drawn
    # on first use as rows(g, dims[i], m) for each index i in turn, and its row r is its (r // L)-th at j
    L, parts = len(dims), []
    for c in range(group[0] // RNG_BLOCK, group[-1] // RNG_BLOCK + 1):
        if key not in blocks[c]:
            g = blocks[c]["gen"].spawn(1)[0] if key == "spare" else blocks[c]["gen"]
            blocks[c][key] = [rows(g, dims[i], len(range((i - c * RNG_BLOCK) % L, RNG_BLOCK, L))) for i in range(L)]
        parts.append([a[group[group // RNG_BLOCK == c] % RNG_BLOCK // L] for a in blocks[c][key][j]])
    return [np.concatenate(p) for p in zip(*parts)]


def _replay(check: dict, trial: int, dims, rng) -> tuple:
    # (kind, value, parts) of trial ``trial`` of run_trials(check, trials, dims, rng): one _step, of its block alone
    [(_, kinds, values, drawn)], _ = _step(check, dims, _seeds(rng, trial // RNG_BLOCK + 1), np.array([trial]))
    return str(kinds[0]), values[0], [part[0] for part in drawn]


def _wire_parts(check: dict, parts) -> dict:
    # a trial's parts named by check["parts"], on the wire: a matrix by matrix_to_json, an array as a list, a number
    return {name: matrix_to_json(p) if np.ndim(p) == 2 else p.tolist() if np.ndim(p) else float(p)
            for name, p in zip(check["parts"], parts, strict=True)}


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
