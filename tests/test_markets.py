import json

import numpy as np
import pytest

from qelicit.classical import brier_rule, log_rule
from qelicit.linalg import (
    as_density,
    frob_dist,
    hs_inner,
    random_density,
    random_hermitian,
)
from qelicit.markets import (
    MarketState,
    WageringRound,
    bundle_cost,
    bundle_expected_payoff,
    lmsr_cost,
    market_price_state,
    trader_payoff,
    wagering_payoffs,
)
from qelicit.measurement import canonical_complete, standard_pvm
from qelicit.scores import (
    QuantumScore,
    binary_brier,
    expected_score,
    fixed_meas_expression,
    fixed_measurement_score,
    log_spectral,
    von_neumann_entropy,
)


def fixed_brier(dim):
    return fixed_measurement_score(brier_rule(), canonical_complete(dim))


class TestWagering:
    def test_identical_reports_pay_zero(self, rng):
        rho = random_density(2, rng=rng)
        rnd = WageringRound([rho, rho, rho], fixed_brier(2), random_density(2, rng=rng))
        assert np.abs(wagering_payoffs(rnd)).max() <= 1e-12

    def test_two_agent_formula(self, rng):
        S = fixed_brier(2)
        r1, r2 = random_density(2, rng=rng), random_density(2, rng=rng)
        truth = random_density(2, rng=rng)
        pay = wagering_payoffs(WageringRound([r1, r2], S, truth))
        direct = expected_score(S, r1, truth) - expected_score(S, r2, truth)
        assert pay[0] == pytest.approx(direct, abs=1e-12)
        assert pay[1] == pytest.approx(-direct, abs=1e-12)

    def test_budget_balance_random_rounds(self, rng):
        for m in range(2, 7):
            S = fixed_brier(2)
            reports = [random_density(2, rng=rng) for _ in range(m)]
            rnd = WageringRound(reports, S, random_density(2, rng=rng))
            assert abs(wagering_payoffs(rnd).sum()) <= 1e-9
            assert abs(wagering_payoffs(rnd, mode="realized", rng=rng).sum()) <= 1e-9

    def test_realized_mode_uses_shared_outcome(self, rng):
        S = fixed_brier(2)
        reports = [random_density(2, rng=rng) for _ in range(3)]
        rnd = WageringRound(reports, S, random_density(2, rng=rng))
        pay = wagering_payoffs(rnd, mode="realized", outcome=1)
        scores = np.array([S.score(r, 1) for r in reports])
        expected = scores - (scores.sum() - scores) / 2
        assert np.abs(pay - expected).max() <= 1e-12

    def test_report_dependent_measurement_rejected(self, rng):
        reports = [random_density(2, rng=rng) for _ in range(2)]
        rnd = WageringRound(reports, binary_brier(), random_density(2, rng=rng))
        with pytest.raises(ValueError, match="fixed"):
            wagering_payoffs(rnd)

    def test_score_from_a_payoff_alone_wagers(self, rng):
        # fixed_meas_expression has a per-report payoff and no stacked form
        S = fixed_meas_expression(binary_brier(), canonical_complete(2))
        reports = [random_density(2, rng=rng) for _ in range(3)]
        truth = random_density(2, rng=rng)
        rnd = WageringRound(reports, S, truth)
        for mode, scores in (
            ("expected", np.array([expected_score(S, r, truth) for r in reports])),
            ("realized", np.array([S.score(r, 2) for r in reports])),
        ):
            pay = wagering_payoffs(rnd, mode=mode, outcome=2)
            assert np.abs(pay - (scores - (scores.sum() - scores) / 2)).max() <= 1e-12
            assert abs(pay.sum()) <= 1e-12

    @pytest.mark.parametrize("mode", ["expected", "realized"])
    def test_each_report_is_paid_once(self, rng, mode):
        calls = []
        base = fixed_brier(2)

        def payoff(report):
            calls.append(1)
            return base.payoff(report)

        reports = [random_density(2, rng=rng) for _ in range(4)]
        rnd = WageringRound(reports, QuantumScore(payoff), random_density(2, rng=rng))
        wagering_payoffs(rnd, mode=mode, rng=rng)
        assert len(calls) == len(reports)

    def test_reports_and_truth_share_one_dimension(self, rng):
        rho2, rho3 = random_density(2, rng=rng), random_density(3, rng=rng)
        with pytest.raises(ValueError, match="one dimension"):
            WageringRound([rho2, rho3], fixed_brier(2), rho2)
        with pytest.raises(ValueError, match="one dimension"):
            WageringRound([rho2, rho2], fixed_brier(2), rho3)

    def test_needs_two_agents(self, rng):
        with pytest.raises(ValueError, match="two"):
            WageringRound([random_density(2, rng=rng)], fixed_brier(2), random_density(2, rng=rng))

    def test_truthful_report_maximizes_expected_payoff(self, rng):
        # others' reports fixed; the agent's payoff is their score plus a constant
        S = fixed_brier(2)
        truth = random_density(2, rng=rng)
        others = [random_density(2, rng=rng) for _ in range(2)]
        honest = wagering_payoffs(WageringRound([truth] + others, S, truth))[0]
        for _ in range(50):
            lie = random_density(2, rank=int(rng.integers(1, 3)), rng=rng)
            dishonest = wagering_payoffs(WageringRound([lie] + others, S, truth))[0]
            assert dishonest <= honest + 1e-9


class TestTraderPayoff:
    def test_no_trade_no_payoff(self, rng):
        S = fixed_brier(2)
        rho = random_density(2, rng=rng)
        assert trader_payoff(S, rho, rho, random_density(2, rng=rng)) == 0.0

    def test_truthful_trade_is_optimal(self, rng):
        S = fixed_brier(2)
        truth = random_density(2, rng=rng)
        prev = random_density(2, rng=rng)
        best = trader_payoff(S, prev, truth, truth)
        for _ in range(50):
            other = random_density(2, rank=int(rng.integers(1, 3)), rng=rng)
            assert trader_payoff(S, prev, other, truth) <= best + 1e-9

    def test_telescoping(self, rng):
        S = fixed_brier(2)
        truth = random_density(2, rng=rng)
        states = [random_density(2, rng=rng) for _ in range(6)]
        total = sum(
            trader_payoff(S, states[i], states[i + 1], truth) for i in range(5)
        )
        direct = expected_score(S, states[-1], truth) - expected_score(S, states[0], truth)
        assert total == pytest.approx(direct, abs=1e-9)

    def test_neg_inf_previous_position_rejected(self, rng):
        S = log_spectral()
        prev = np.diag([1.0, 0.0]).astype(complex)  # scores -inf under mixed truth
        truth = np.eye(2) / 2
        with pytest.raises(ValueError, match="-inf"):
            trader_payoff(S, prev, truth, truth)


class TestLmsr:
    def test_zero_shares_cost_log_n(self):
        for n in (2, 3, 5):
            assert lmsr_cost(np.zeros((n, n))) == pytest.approx(np.log(n), abs=1e-12)

    def test_identity_translation(self, rng):
        Q = 3.0 * random_hermitian(4, rng=rng)
        assert lmsr_cost(Q + 2.5 * np.eye(4)) == pytest.approx(
            lmsr_cost(Q) + 2.5, abs=1e-10
        )

    def test_price_state_is_density(self, rng):
        for _ in range(20):
            as_density(market_price_state(4.0 * random_hermitian(3, rng=rng)))

    def test_price_at_zero_is_maximally_mixed(self):
        assert frob_dist(market_price_state(np.zeros((3, 3))), np.eye(3) / 3) <= 1e-12

    def test_large_diagonal_concentrates(self):
        rho = market_price_state(np.diag([30.0, 0.0, 0.0]))
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_conjugacy_identity(self, rng):
        for _ in range(20):
            Q = 2.0 * random_hermitian(4, rng=rng)
            rho = market_price_state(Q)
            assert lmsr_cost(Q) == pytest.approx(
                hs_inner(Q, rho) + von_neumann_entropy(rho), abs=1e-8
            )

    def test_finite_difference_gradient_is_price(self, rng):
        Q = 2.0 * random_hermitian(3, rng=rng)
        rho = market_price_state(Q)
        h = 1e-6
        for _ in range(10):
            D = random_hermitian(3, rng=rng)
            fd = (lmsr_cost(Q + h * D) - lmsr_cost(Q - h * D)) / (2 * h)
            assert fd == pytest.approx(hs_inner(rho, D), abs=1e-5)

    def test_overflow_stability(self):
        assert np.isfinite(lmsr_cost(np.diag([1e4, -1e4])))


class TestMarketState:
    def test_trade_costs_match_bundle_cost(self, rng):
        market = MarketState(3)
        R = random_hermitian(3, rng=rng)
        expected = bundle_cost(np.zeros((3, 3)), R)
        assert market.trade(R) == pytest.approx(expected, abs=1e-12)

    def test_maker_loss_bounded_by_log_n(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            market = MarketState(n)
            for _ in range(int(rng.integers(1, 6))):
                market.trade(2.0 * random_hermitian(n, rng=rng))
            truth = random_density(n, rank=int(rng.integers(1, n + 1)), rng=rng)
            assert market.maker_loss(truth) <= np.log(n) + 1e-9

    def test_conjugacy_gap_small(self, rng):
        market = MarketState(3)
        for _ in range(4):
            market.trade(random_hermitian(3, rng=rng))
        assert market.conjugacy_gap() <= 1e-8

    def test_conjugacy_gap_decomposes_the_shares_once(self, rng, monkeypatch):
        market = MarketState(4)
        for _ in range(3):
            market.trade(2.0 * random_hermitian(4, rng=rng))
        calls = []
        for solver in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, solver)
            monkeypatch.setattr(np.linalg, solver, lambda A, real=real, solver=solver: calls.append(solver) or real(A))
        gap = market.conjugacy_gap()
        assert calls == ["eigh"]
        monkeypatch.undo()
        cost, price = lmsr_cost(market.shares), market.price()
        assert gap == pytest.approx(abs(cost - hs_inner(market.shares, price) - von_neumann_entropy(price)), abs=1e-14)

    def test_a_numpy_integer_dim_is_kept_as_a_python_int(self):
        market = MarketState(np.int64(2))
        assert type(market.dim) is int and json.dumps({"dim": market.dim}) == '{"dim": 2}'
        assert market.shares.shape == (2, 2)

    def test_bundle_payoff(self, rng):
        R = random_hermitian(3, rng=rng)
        rho = random_density(3, rng=rng)
        assert bundle_expected_payoff(R, rho) == pytest.approx(hs_inner(R, rho), abs=1e-12)


class TestWageringRefusals:
    def test_unknown_mode_is_refused(self, rng):
        S = fixed_measurement_score(brier_rule(), standard_pvm(2))
        rnd = WageringRound([random_density(2, rng=rng) for _ in range(2)], S, random_density(2, rng=rng))
        with pytest.raises(ValueError, match="mode must be 'expected' or 'realized', got 'bogus'"):
            wagering_payoffs(rnd, mode="bogus")

    def test_non_finite_scores_are_refused(self):
        # the log rule pays -inf on outcome 1 to a report with no mass there
        S = fixed_measurement_score(log_rule(), standard_pvm(2))
        truth = np.diag([0.5, 0.5]).astype(complex)
        rnd = WageringRound([np.diag([1.0, 0.0]).astype(complex), truth], S, truth)
        with pytest.raises(ValueError, match="wagering needs finite scores"):
            wagering_payoffs(rnd)


class TestOutcomeAndDimensionRefusals:
    @pytest.mark.parametrize("outcome", [-1, 2, 5, 1.7, True, "1"])
    def test_realized_mode_refuses_an_outcome_outside_the_measurement(self, outcome, rng):
        S = fixed_measurement_score(brier_rule(), standard_pvm(2))
        rnd = WageringRound([random_density(2, rng=rng) for _ in range(3)], S, random_density(2, rng=rng))
        with pytest.raises(ValueError, match=r"outcome must be an integer in 0\.\.1"):
            wagering_payoffs(rnd, mode="realized", outcome=outcome)

    def test_realized_mode_takes_a_numpy_integer(self, rng):
        S = fixed_measurement_score(brier_rule(), standard_pvm(2))
        rnd = WageringRound([random_density(2, rng=rng) for _ in range(3)], S, random_density(2, rng=rng))
        assert np.array_equal(wagering_payoffs(rnd, mode="realized", outcome=np.int64(1)),
                              wagering_payoffs(rnd, mode="realized", outcome=1))

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True])
    def test_market_refuses_a_dimension_that_is_not_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="^dim must be (an integer of )?at least 1, got "):
            MarketState(dim)
