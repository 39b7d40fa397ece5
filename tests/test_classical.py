import numpy as np
import pytest

from qelicit import classical
from qelicit.classical import (
    DISTINCT_TOL,
    PROPERNESS_MARGIN,
    ClassicalScoringRule,
    brier_rule,
    clean_probs,
    expected_classical,
    from_convex,
    is_permutation_invariant,
    linear_rule,
    log_rule,
    properness_check,
    shannon_entropy,
)
from qelicit.extended import NEG_INF
from qelicit.reports import _classify
from qelicit.scores import TRUTH_MARGIN


class TestCleanProbs:
    def test_clips_tiny_negatives(self):
        p = clean_probs([1.0 + 5e-13, -5e-13])
        assert p[1] == 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError, match="negative"):
            clean_probs([1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            clean_probs([0.6, 0.6])


class TestBrier:
    def test_point_mass(self):
        rule = brier_rule()
        assert rule([1.0, 0.0], 0) == pytest.approx(1.0)

    def test_uniform(self):
        rule = brier_rule()
        assert rule([0.5, 0.5], 0) == pytest.approx(0.5)
        assert rule([0.5, 0.5], 1) == pytest.approx(0.5)

    def test_expected_matches_inner_product_form(self, rng):
        rule = brier_rule()
        for _ in range(50):
            q = rng.dirichlet(np.ones(4))
            p = rng.dirichlet(np.ones(4))
            assert expected_classical(rule, q, p) == pytest.approx(
                2 * q @ p - q @ q, abs=1e-12
            )


class TestLog:
    def test_point_mass(self):
        assert log_rule()([1.0, 0.0], 0) == 0.0

    def test_uniform(self):
        assert log_rule()([0.5, 0.5], 1) == pytest.approx(-np.log(2))

    def test_zero_mass_scores_neg_inf(self):
        assert log_rule()([1.0, 0.0], 1) == NEG_INF


class TestExpectedClassical:
    def test_brier_uniform(self):
        assert expected_classical(brier_rule(), [0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.5)

    def test_neg_inf_with_positive_mass(self):
        assert expected_classical(log_rule(), [1.0, 0.0], [0.5, 0.5]) == NEG_INF

    def test_zero_times_neg_inf_is_zero(self):
        assert expected_classical(log_rule(), [1.0, 0.0], [1.0, 0.0]) == 0.0


class TestFromConvex:
    def test_quadratic_reproduces_brier(self, rng):
        rule = from_convex(lambda p: p @ p, lambda p: 2 * p, dim=3)
        brier = brier_rule()
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            y = int(rng.integers(3))
            assert rule(p, y) == pytest.approx(brier(p, y), abs=1e-12)

    def test_negative_entropy_reproduces_log(self, rng):
        def G(p):
            pos = p > 0
            return float(p[pos] @ np.log(p[pos]))

        def dG(p):
            return np.where(p > 1e-12, 1.0 + np.log(np.clip(p, 1e-300, None)), NEG_INF)

        rule = from_convex(G, dG, dim=3)
        ref = log_rule()
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            y = int(rng.integers(3))
            assert rule(p, y) == pytest.approx(ref(p, y), abs=1e-10)

    def test_constant_function_constant_score(self, rng):
        rule = from_convex(lambda p: 4.2, lambda p: np.zeros(len(p)), dim=3)
        p = rng.dirichlet(np.ones(3))
        assert rule(p, 0) == rule(p, 2) == pytest.approx(4.2)

    def test_self_score_equals_g(self, rng):
        rule = from_convex(lambda p: p @ p, lambda p: 2 * p, dim=4)
        for _ in range(25):
            p = rng.dirichlet(np.ones(4))
            assert expected_classical(rule, p, p) == pytest.approx(p @ p, abs=1e-10)

    def test_non_convex_rejected(self):
        with pytest.raises(ValueError, match="convex|subgradient"):
            from_convex(lambda p: -float(p @ p), lambda p: -2 * p, dim=3)

    def test_inconsistent_subgradient_rejected(self):
        with pytest.raises(ValueError, match="subgradient"):
            from_convex(lambda p: p @ p, lambda p: 5 * p, dim=3)


class TestPropernessCheck:
    def test_brier_passes_strict(self):
        for dim in (2, 4, 6):
            report = properness_check(brier_rule(), 2000, dim, rng=7)
            assert report.passed, report.violations[:2]

    def test_log_passes_strict(self):
        for dim in (2, 4, 6):
            report = properness_check(log_rule(), 2000, dim, rng=8)
            assert report.passed, report.violations[:2]

    def test_linear_rule_fails_with_counterexample(self):
        report = properness_check(linear_rule(), 500, 3, rng=9)
        assert not report.weakly_passed and report.kind_counts["gain"] > 0
        assert report.max_gap > 0
        v = report.violations[0]
        assert v["kind"] == "gain"
        p = np.array(v["belief"])
        q = np.array(v["report"])
        # replay the recorded counterexample
        gain = expected_classical(linear_rule(), q, p) - expected_classical(
            linear_rule(), p, p
        )
        assert gain == pytest.approx(v["gap"], abs=1e-12)
        assert gain > 1e-9

    def test_constant_rule_passes_weak_fails_strict(self):
        from qelicit.classical import ClassicalScoringRule

        const = ClassicalScoringRule(lambda p: np.ones(np.shape(p)), name="const")
        report = properness_check(const, 300, 3, rng=10)
        assert report.weakly_passed
        assert not report.passed
        assert report.kind_counts.get("tie", 0) > 0

    def test_neg_inf_self_score_is_irregular(self):
        # a rule paying -inf everywhere has no finite truthful score to beat
        from qelicit.classical import ClassicalScoringRule

        doomed = ClassicalScoringRule(lambda p: np.full(np.shape(p), NEG_INF), name="doomed")
        report = properness_check(doomed, 200, 3, rng=1)
        assert not report.passed and not report.weakly_passed
        assert report.kind_counts == {"irregular": 200}
        assert report.violations[0]["gap"] == NEG_INF

    @pytest.mark.parametrize("name", ["brier", "log", "linear", "const", "doomed"])
    def test_block_scoring_matches_a_per_trial_reference(self, monkeypatch, name):
        # each block is scored with one pairing per side; a per-trial expected_classical
        # on the same draws must give the same kinds and values, bit for bit
        rule = {
            "brier": brier_rule(), "log": log_rule(), "linear": linear_rule(),
            "const": ClassicalScoringRule(lambda p: np.ones(np.shape(p)), name="const"),
            "doomed": ClassicalScoringRule(lambda p: np.full(np.shape(p), NEG_INF), name="doomed"),
        }[name]

        def reference(drawn):
            beliefs, reports = drawn
            truthful = [expected_classical(rule, p, p) for p in beliefs]
            other = [expected_classical(rule, q, p) for p, q in zip(beliefs, reports)]
            distinct = np.linalg.norm(beliefs - reports, axis=1) > DISTINCT_TOL
            return _classify(truthful, other, distinct)

        scored, real = [], classical.run_trials

        def spy(check, trials, dims, rng):
            def both(drawn):
                out = check["score"](drawn)
                for a, b in zip(out, reference(drawn)):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
                scored.append(len(drawn[0]))
                return out

            return real({**check, "score": both}, trials, dims, rng)

        monkeypatch.setattr(classical, "run_trials", spy)
        for dim in (2, 3, 4):
            properness_check(rule, 300, dim, rng=11)
        assert sum(scored) == 900

    def test_convex_battery_yields_proper_rules(self, rng):
        def neg_entropy(p):
            pos = p > 0
            return float(p[pos] @ np.log(p[pos]))

        battery = [
            from_convex(lambda p: p @ p, lambda p: 2 * p, dim=3),
            from_convex(
                neg_entropy,
                lambda p: np.where(p > 1e-12, 1.0 + np.log(np.clip(p, 1e-300, None)), NEG_INF),
                dim=3,
            ),
            from_convex(
                lambda p: float(np.max(p)),
                lambda p: (np.arange(len(p)) == np.argmax(p)).astype(float),
                dim=3,
            ),
        ]
        for rule in battery:
            assert properness_check(rule, 800, 3, rng=14).weakly_passed


class TestPermutationInvariance:
    def test_brier_and_log_invariant(self):
        assert is_permutation_invariant(brier_rule(), 4, rng=15)
        assert is_permutation_invariant(log_rule(), 4, rng=15)

    def test_position_weighted_rule_is_not(self):
        from qelicit.classical import ClassicalScoringRule

        biased = ClassicalScoringRule(lambda p: np.arange(p.shape[-1]) * p, name="biased")
        assert not is_permutation_invariant(biased, 3, rng=16)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_each_check_pays_32_samples_then_their_relabeling(self, dim):
        from qelicit.classical import ClassicalScoringRule

        shapes = []

        def values(p):
            shapes.append(p.shape)
            return brier_rule().values(p)

        assert is_permutation_invariant(ClassicalScoringRule(values, name="recorded"), dim, rng=0)
        assert shapes[-2:] == [(32, dim), (32, dim)]

    def test_the_sample_count_is_fixed(self):
        # a count of 0 would test nothing and pass any rule
        with pytest.raises(TypeError, match="trials"):
            is_permutation_invariant(brier_rule(), 3, trials=0, rng=0)


class TestRuleContract:
    # a rule pays along the last axis; one that takes a single report is refused by name
    ONE_D = ClassicalScoringRule(lambda p: np.ones(len(p)), name="one-d")

    def test_properness_check_refuses_a_one_report_rule(self):
        with pytest.raises(ValueError, match="rule 'one-d' must pay along the last axis"):
            properness_check(self.ONE_D, 50, 3, rng=1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_permutation_check_refuses_a_one_report_rule(self, dim):
        with pytest.raises(ValueError, match="rule 'one-d' must pay along the last axis"):
            is_permutation_invariant(self.ONE_D, dim, rng=1)

    def test_rule_reducing_over_the_whole_array_is_refused(self):
        rule = ClassicalScoringRule(lambda p: 2.0 * p - np.sum(p * p), name="whole-array")
        for check in (lambda: properness_check(rule, 50, 3, rng=1), lambda: is_permutation_invariant(rule, 3)):
            with pytest.raises(ValueError, match="rule 'whole-array' must pay each row"):
                check()


def test_shannon_entropy_basics():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(np.log(2))
    assert shannon_entropy([1.0, 0.0]) == 0.0


class TestRuleValues:
    """values(p) is the whole payoff vector; rule(p, y) reads one entry."""

    def _rules(self):
        def neg_entropy(p):
            pos = p > 0
            return float(p[pos] @ np.log(p[pos]))

        return [
            brier_rule(),
            log_rule(),
            linear_rule(),
            from_convex(lambda p: p @ p, lambda p: 2 * p, dim=4),
            from_convex(
                neg_entropy,
                lambda p: np.where(p > 1e-12, 1.0 + np.log(np.clip(p, 1e-300, None)), NEG_INF),
                dim=4,
            ),
        ]

    def test_values_match_call_including_zero_mass(self, rng):
        points = [
            np.array([0.5, 0.0, 0.5, 0.0]),
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([0.25, 0.25, 0.25, 0.25]),
            rng.dirichlet(np.ones(4)),
        ]
        for rule in self._rules():
            for p in points:
                v = rule.values(p)
                assert len(v) == len(p)
                for y in range(len(p)):
                    assert v[y] == rule(p, y), (rule.name, p, y)

    def test_log_values_neg_inf_at_zero_mass(self):
        v = log_rule().values(np.array([0.5, 0.0, 0.5, 1e-13]))
        assert v[1] == NEG_INF and v[3] == NEG_INF
        assert v[0] == pytest.approx(np.log(0.5))

    def test_expected_classical_uses_one_vector(self, rng):
        calls = []
        brier = brier_rule()
        from qelicit.classical import ClassicalScoringRule

        counted = ClassicalScoringRule(lambda p: calls.append(1) or brier.values(p), name="counted")
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert expected_classical(counted, q, p) == pytest.approx(2 * q @ p - q @ q, abs=1e-12)
        assert len(calls) == 1


class TestShannonEntropy:
    """H(p) is the log rule's self-score negated, under its zero-mass rule."""

    def test_point_mass_is_positive_zero(self):
        for p in ([1.0, 0.0], [0.0, 1.0, 0.0], [1.0]):
            h = shannon_entropy(p)
            assert h == 0.0 and np.copysign(1.0, h) == 1.0

    def test_mass_at_or_below_the_zero_tolerance_contributes_nothing(self):
        q = clean_probs([1.0 - 1e-12, 1e-12])
        assert shannon_entropy(q) == pytest.approx(-q[0] * np.log(q[0]), rel=1e-9)

    def test_equals_the_log_rules_negated_self_score(self, rng):
        for n in (2, 3, 5):
            p = rng.dirichlet(np.full(n, 0.3))
            assert shannon_entropy(p) == pytest.approx(-expected_classical(log_rule(), p, p), abs=1e-15)


def test_bregman_rule_refuses_neg_inf_where_p_is_positive():
    rule = classical._bregman_rule(lambda p: 0.0, lambda p: np.full(len(p), NEG_INF), "doomed")
    with pytest.raises(ValueError, match="invalid oracle"):
        rule.values(np.array([0.5, 0.5]))


def test_near_tie_band_is_open_on_both_ends():
    d = np.array([1e-7, DISTINCT_TOL, 2e-6, 9.9e-5, 1e-4, 1e-3])
    assert classical._near_tie(d).tolist() == [False, False, True, True, False, False]


def test_near_tie_band_reaches_the_distance_a_quadratic_score_ties_at():
    # a quadratic score's loss at a report d away is of order d**2, within the margin up to sqrt(margin),
    # so the samplers must redraw reports up to there for a strict check to see no false tie
    assert classical._near_tie(np.sqrt([TRUTH_MARGIN, PROPERNESS_MARGIN])).all()


class TestNanPayoffs:
    ALL_NAN = ClassicalScoringRule(lambda p: np.full(np.shape(p), np.nan), name="all-nan")

    def test_expected_classical_refuses_a_rule_that_pays_nan(self):
        root = ClassicalScoringRule(lambda p: np.sqrt(np.asarray(p) - 0.5), name="root")
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"^rule 'root' pays NaN$"):
            expected_classical(root, [0.2, 0.8], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^rule 'all-nan' pays NaN$"):
            expected_classical(self.ALL_NAN, [0.5, 0.5], [1.0, 0.0])

    def test_a_rule_call_refuses_a_rule_that_pays_nan(self):
        root = ClassicalScoringRule(lambda p: np.sqrt(np.asarray(p) - 0.5), name="root")
        for y in (0, 1):  # the NaN is outcome 0's, and the whole payoff vector is refused
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"^rule 'root' pays NaN$"):
                root([0.2, 0.8], y)
        assert brier_rule()([0.2, 0.8], 0) == brier_rule().values(np.array([0.2, 0.8]))[0]  # a finite rule as before

    def test_permutation_check_refuses_a_rule_that_pays_nan(self):
        with pytest.raises(ValueError, match="rule 'all-nan' pays NaN"):
            is_permutation_invariant(self.ALL_NAN, 3, rng=0)

    def test_properness_check_refuses_a_rule_that_pays_nan(self):
        with pytest.raises(ValueError, match="rule 'all-nan' pays NaN"):
            properness_check(self.ALL_NAN, 50, 3, rng=1)

    def test_classify_counts_a_nan_on_either_side_as_irregular(self):
        truthful, other = np.array([0.0, np.nan, 0.0]), np.array([np.nan, 0.0, 1.0])
        kinds, values = _classify(truthful, other, np.ones(3, dtype=bool))
        assert kinds.tolist() == ["irregular", "irregular", "gain"]
        assert np.isnan(values[:2]).all() and values[2] == 1.0
