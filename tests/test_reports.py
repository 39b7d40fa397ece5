import json

import numpy as np
import pytest

from qelicit import classical, reports, scores
from qelicit.classical import brier_rule, linear_rule, properness_check
from qelicit.linalg import hs_inner, matrix_to_json
from qelicit.registry import SCORE_REGISTRY, make_score, run_verify, run_witness
from qelicit.reports import MAX_STORED_VIOLATIONS, ScoreReport, _classify, json_safe, run_trials
from qelicit.scores import (
    equivalence_check,
    implementability_check,
    subgradient_inequality_check,
    truthfulness_check,
    unitary_invariance_check,
)


def _rows(g, dim, m):
    return (g.random(m),)


def _draw(dim, trials, rows, spare):
    # each trial draws its own index and its dimension as its two "states"
    assert len(rows[0]) == len(trials)
    return trials, np.full(len(trials), dim)


def _run(trials, score, dims=(2,), rng=0):
    check = {"name": "s", "mode": "strict", "rows": _rows, "draw": _draw, "score": score, "parts": ("a", "b"),
             "store": True}
    return run_trials(check, trials, dims, rng)


def _flag_all(kind, value):
    def score(drawn):
        n = len(drawn[0])
        return np.full(n, kind), np.full(n, value)

    return score


def _chosen(kinds):
    # a score giving trial i the kind kinds[i] ("" past the end), each valued 0
    def score(drawn):
        return np.array([kinds[i] if i < len(kinds) else "" for i in drawn[0]]), np.zeros(len(drawn[0]))

    return score


class TestRunTrials:
    def test_ordered_by_index(self):
        seen = []

        def score(drawn):
            seen.extend(drawn[0].tolist())
            return _flag_all("", 0.0)(drawn)

        _run(20, score, rng=3)
        assert seen == list(range(20))

    def test_finite_gaps_recorded(self):
        gaps = np.array([-1.0, float("-inf"), -0.25, float("inf"), -0.5])
        report = _run(len(gaps), lambda d: (np.full(len(d[0]), ""), gaps[d[0]]))
        assert report.max_gap == -0.25
        assert report.passed

    def test_max_gap_is_the_largest_finite_value_of_a_block_with_irregular_rows(self):
        # truthful values NaN, +inf and -inf, and a NaN report, are irregular; the two finite gains are 0.5 and 2
        truthful = np.array([0.0, np.nan, np.inf, -np.inf, 0.0, 0.0])
        other = np.array([0.5, 0.0, 0.0, 0.0, 2.0, np.nan])
        report = _run(len(truthful), lambda d: _classify(truthful[d[0]], other[d[0]], np.ones(len(d[0]), dtype=bool)))
        assert report.max_gap == 2.0
        assert report.kind_counts == {"gain": 2, "irregular": 4}
        assert [v["gap"] for v in report.to_json()["violations"]] == [0.5, "nan", "inf", "-inf", 2.0, "nan"]

    def test_kinds_counted_and_trial_index_recorded(self):
        def score(drawn):
            t = drawn[0]
            return np.where(t % 3 == 0, "gain", "tie"), np.full(len(t), 0.5)

        report = _run(9, score)
        assert report.kind_counts == {"gain": 3, "tie": 6}
        assert report.n_violations == 9
        assert [v["trial"] for v in report.violations] == list(range(9))
        assert report.violations[4] == {"kind": "tie", "gap": 0.5, "a": 4, "b": 2, "trial": 4}

    def test_storage_capped(self):
        report = _run(100, _flag_all("tie", 0.0))
        assert report.n_violations == 100
        assert report.kind_counts == {"tie": 100}
        assert len(report.violations) == MAX_STORED_VIOLATIONS
        assert [v["trial"] for v in report.violations] == list(range(MAX_STORED_VIOLATIONS))

    def test_only_stored_violations_are_encoded(self, monkeypatch):
        calls, real = [], reports._wire_parts

        def encode(check, parts):
            calls.append(parts[0])
            return real(check, parts)

        monkeypatch.setattr(reports, "_wire_parts", encode)
        report = _run(100, _flag_all("gain", 1.0), dims=(2, 3))
        assert report.n_violations == 100
        assert report.kind_counts == {"gain": 100}
        assert len(calls) <= MAX_STORED_VIOLATIONS
        assert [v["a"] for v in report.violations] == list(range(MAX_STORED_VIOLATIONS))

    def test_trials_stored_in_order_across_dimensions(self):
        n = 25
        report = _run(n, _flag_all("gain", 1.0), dims=(2, 3))
        assert report.n_violations == n
        assert [v["trial"] for v in report.violations] == list(range(n))
        assert [v["a"] for v in report.violations] == list(range(n))
        assert [v["b"] for v in report.violations] == [(2, 3)[i % 2] for i in range(n)]

    def test_each_run_builds_its_own_report(self):
        # two runs of the same arguments give equal but distinct reports: counts never add up across runs
        def flag_even(drawn):
            return np.where(drawn[0] % 2 == 0, "gain", ""), np.zeros(len(drawn[0]))

        first, second = _run(10, flag_even), _run(10, flag_even)
        assert first is not second
        assert first == second
        assert first.to_json() == second.to_json()
        assert second.n_violations == 5 and second.kind_counts == {"gain": 5}

    def test_same_seed_gives_identical_bytes(self):
        S = make_score("ml:s3", 3)
        blobs = [
            json.dumps(truthfulness_check(S, 80, dims=(3,), rng=5).to_json(), sort_keys=True)
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]
        assert '"trial"' in blobs[0]

    def test_a_seed_sequence_is_only_read_while_a_generator_advances(self):
        S, ss, g = make_score("ml:s3", 3), np.random.SeedSequence(5), np.random.default_rng(5)
        run = lambda rng: truthfulness_check(S, 160, dims=(3,), rng=rng).to_json()
        first = run(5)
        assert run(ss) == run(ss) == first
        assert ss.n_children_spawned == 0
        assert run(g) == first and run(g) != first  # a Generator is a stream


def _wire(part):
    # a part as a stored violation writes it: a matrix as matrix_to_json, a vector as a list, a number as a float
    part = np.asarray(part)
    return matrix_to_json(part) if part.ndim == 2 else part.tolist() if part.ndim else float(part)


SIX_CHECKS = {  # each sampled check, run so that it stores violations, some past the first 64-trial block
    "truthfulness": lambda: truthfulness_check(make_score("ml:s3", 3), 150, dims=(2, 3), rng=7),
    "equivalence": lambda: equivalence_check(make_score("spectral:log", 2), make_score("spectral:brier", 2), 150,
                                             dims=(2, 3), rng=7),
    "unitary_invariance": lambda: unitary_invariance_check(make_score("fixed:brier", 2), 150, dims=(2,), rng=7),
    "implementability": lambda: implementability_check(make_score("ml:s4", 3), 150, dims=(2, 3), rng=7),
    "subgradient": lambda: subgradient_inequality_check(F, lambda r: -2 * r, 150, dims=(2, 3), rng=7),
    "properness": lambda: properness_check(linear_rule(), 150, 3, rng=7),
}


class TestDescriptions:
    @pytest.mark.parametrize("name", list(SIX_CHECKS))
    def test_stored_parts_are_the_parts_replay_rebuilds(self, monkeypatch, name):
        # the check's own description, as it reaches the runner, replays each stored violation
        seen, real = [], reports.run_trials

        def spy(check, trials, dims, rng):
            seen.append((check, dims, rng))
            return real(check, trials, dims, rng)

        monkeypatch.setattr(scores, "run_trials", spy)
        monkeypatch.setattr(classical, "run_trials", spy)
        report = SIX_CHECKS[name]()
        (check, dims, rng), = seen
        assert report.violations and len(report.violations) <= report.n_violations
        for v in report.violations:
            kind, value, parts = reports._replay(check, v["trial"], dims, rng)
            assert len(parts) == len(check["parts"])
            named = dict(zip(check["parts"], map(_wire, parts))) if check["store"] else {}
            assert v == {"kind": kind, "gap": float(value), **named, "trial": v["trial"]}
            assert list(v) == ["kind", "gap", *named, "trial"]


S = make_score("spectral:log", 3)
F, DF = (lambda r: hs_inner(r, r)), (lambda r: 2 * r)


@pytest.mark.parametrize("run, name", [
    (lambda: truthfulness_check(S, -5), "trials"),
    (lambda: subgradient_inequality_check(F, DF, -3), "trials"),
    (lambda: properness_check(brier_rule(), -4, 3), "trials"),
    (lambda: truthfulness_check(S, 10, dims=()), "dims"),
    (lambda: unitary_invariance_check(S, 10, dims=()), "dims"),
    (lambda: subgradient_inequality_check(F, DF, 10, dims=()), "dims"),
    (lambda: truthfulness_check(S, 10, dims=(1,)), "dims"),
    (lambda: implementability_check(S, 10, dims=(2, 1)), "dims"),
    (lambda: equivalence_check(S, S, 10, dims=(0,)), "dims"),
    (lambda: properness_check(brier_rule(), 10, 1), "dim"),
], ids=["truth-trials", "subgradient-trials", "properness-trials", "truth-empty", "unitary-empty",
        "subgradient-empty", "truth-dim-1", "implementability-dim-1", "equivalence-dim-0", "properness-dim-1"])
def test_bad_trials_or_dims_are_refused(run, name):
    with pytest.raises(ValueError, match=name):
        run()


class TestScoreReport:
    @pytest.mark.parametrize("counter, value", [
        ("violations", []), ("n_violations", 0), ("max_gap", float("-inf")), ("kind_counts", {}), ("timing", {}),
    ])
    def test_a_report_starts_empty(self, counter, value):
        report = ScoreReport("s", "strict", 10, (2,))
        assert (report.violations, report.n_violations, report.max_gap) == ([], 0, float("-inf"))
        assert report.kind_counts == {} and report.timing == {}
        with pytest.raises(TypeError, match=counter):
            ScoreReport("s", "strict", 10, (2,), **{counter: value})

    def test_verdict_tracks_violations(self):
        report = _run(10, _chosen(()))
        assert report.passed and report.verdict == "pass"
        report = _run(10, _chosen(("gain",)))
        assert not report.passed and report.verdict == "fail"
        assert report.kind_counts == {"gain": 1}

    @pytest.mark.parametrize("kinds, weak", [
        ((), True), (("tie",), True), (("tie", "tie"), True), (("gain",), False), (("irregular",), False),
        (("tie", "gain"), False), (("tie", "irregular"), False),
    ])
    def test_the_weak_verdict_ignores_ties_alone(self, kinds, weak):
        report = _run(10, _chosen(kinds))
        assert report.weakly_passed is weak
        assert report.passed == (not kinds)

    @pytest.mark.parametrize("name", sorted(SCORE_REGISTRY))
    def test_run_verify_reads_both_truthfulness_verdicts_off_one_strict_run(self, name):
        result = run_verify(name, [2, 3], 48, 0)
        counts = [sub["truthfulness"]["kind_counts"] for sub in result["reports"]]
        assert result["observed"]["truthful"] == all(not (c.get("gain") or c.get("irregular")) for c in counts)
        assert result["observed"]["strictly_truthful"] == all(not c for c in counts)

    def test_violation_storage_capped(self):
        report = _run(100, _chosen(("tie",) * 100))
        assert report.n_violations == 100
        assert len(report.violations) == 32

    def test_json_safe_handles_infinities(self):
        blob = json_safe({"a": float("-inf"), "b": [1.0, float("nan")]})
        assert blob["a"] == "-inf"
        assert blob["b"][1] == "nan"
        import json

        json.dumps(blob, allow_nan=False)


@pytest.mark.parametrize("call", [
    lambda: run_verify("fixed:brier", [2], np.int64(8), 0),
    lambda: run_verify("fixed:brier", [np.int64(2)], 8, 0),
    lambda: run_witness("entropy", [3], np.int64(5), 0),
    lambda: truthfulness_check(make_score("spectral:log", 2), np.int64(8), dims=(2,), rng=0).to_json(),
    lambda: run_verify("fixed:brier", [2], 8, np.int64(0)),
    lambda: run_witness("entropy", [3], 5, np.int64(0)),
], ids=["run_verify trials", "run_verify dims", "run_witness trials", "truthfulness_check trials",
        "run_verify seed", "run_witness seed"])
def test_numpy_integer_counts_serialize(call):
    # json.dumps refuses numpy integers: a report keeps the Python ints its count and seed checks return
    json.dumps(call())
