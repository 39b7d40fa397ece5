import json

from qelicit.registry import make_score
from qelicit.reports import MAX_STORED_VIOLATIONS, ScoreReport, json_safe, run_trials
from qelicit.scores import truthfulness_check


def _encode(a, b):
    return {"a": a, "b": b}


def _run(trials, trial, rng=0):
    return run_trials(ScoreReport("s", "strict", trials, (2,)), trial, _encode, rng)


class TestRunTrials:
    def test_ordered_by_index(self):
        seen = []

        def trial(i, g):
            seen.append(i)
            return 0.0, []

        _run(20, trial, rng=3)
        assert seen == list(range(20))

    def test_finite_gaps_recorded(self):
        gaps = [-1.0, float("-inf"), -0.25, float("inf"), -0.5]
        report = _run(len(gaps), lambda i, g: (gaps[i], []))
        assert report.max_gap == -0.25
        assert report.passed

    def test_kinds_counted_and_trial_index_recorded(self):
        def trial(i, g):
            return 0.5, [("gain" if i % 3 == 0 else "tie", 0.5, i, -i)]

        report = _run(9, trial)
        assert report.kind_counts == {"gain": 3, "tie": 6}
        assert report.n_violations == 9
        assert [v["trial"] for v in report.violations] == list(range(9))
        assert report.violations[4] == {"kind": "tie", "gap": 0.5, "a": 4, "b": -4, "trial": 4}

    def test_storage_capped(self):
        report = _run(100, lambda i, g: (0.0, [("tie", 0.0, i, i)]))
        assert report.n_violations == 100
        assert report.kind_counts == {"tie": 100}
        assert len(report.violations) == MAX_STORED_VIOLATIONS
        assert [v["trial"] for v in report.violations] == list(range(MAX_STORED_VIOLATIONS))

    def test_same_seed_gives_identical_bytes(self):
        S = make_score("ml:s3", 3)
        blobs = [
            json.dumps(truthfulness_check(S, 80, dims=(3,), rng=5).to_json(), sort_keys=True)
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]
        assert '"trial"' in blobs[0]


class TestScoreReport:
    def test_verdict_tracks_violations(self):
        report = ScoreReport("s", "strict", 10, (2,))
        assert report.passed and report.verdict == "pass"
        report.add_violation({"kind": "gain", "gap": 1.0})
        assert not report.passed and report.verdict == "fail"
        assert report.kind_counts == {"gain": 1}

    def test_violation_storage_capped(self):
        report = ScoreReport("s", "strict", 10, (2,))
        for _ in range(100):
            report.add_violation({"kind": "tie", "gap": 0.0})
        assert report.n_violations == 100
        assert len(report.violations) == 32

    def test_json_safe_handles_infinities(self):
        blob = json_safe({"a": float("-inf"), "b": [1.0, float("nan")]})
        assert blob["a"] == "-inf"
        assert blob["b"][1] == "nan"
        import json

        json.dumps(blob, allow_nan=False)
