"""Scaling rules: exact schedule reproduction, algebraic laws, Monte Carlo probes."""

import math

import numpy as np
import pytest

from ctrlab.scaling import (
    COWCLIP_SCHEDULES,
    LINEAR_SCHEDULE,
    N2_LAMBDA_SCHEDULE,
    RULES,
    SQRT_SCHEDULE,
    BaseHyperparams,
    QuadraticProblem,
    estimate_update_covariance,
    expected_update_frequency_check,
    plan_for_batch,
    scale,
)

BASE = BaseHyperparams(1024, 1e-4, 1e-4, 1e-4)


class TestRuleExactness:
    def test_identity_at_s_one(self):
        for rule in RULES:
            plan = scale(rule, BASE, 1.0)
            assert (plan.eta_dense, plan.eta_embed, plan.l2) == (1e-4, 1e-4, 1e-4)

    def test_sqrt_8k(self):
        plan = plan_for_batch("sqrt", BASE, 8192)
        assert plan.eta_dense == 2 * math.sqrt(2) * 1e-4
        assert plan.eta_embed == 2 * math.sqrt(2) * 1e-4
        assert plan.l2 == 2 * math.sqrt(2) * 1e-4

    def test_linear_8k(self):
        plan = plan_for_batch("linear", BASE, 8192)
        assert plan.eta_dense == 8e-4
        assert plan.l2 == 1e-4

    def test_sqrt_star_keeps_l2(self):
        plan = plan_for_batch("sqrt_star", BASE, 4096)
        assert plan.eta_dense == 2e-4
        assert plan.l2 == 1e-4

    def test_n2_lambda_4k(self):
        plan = plan_for_batch("n2_lambda", BASE, 4096)
        assert plan.l2 == 1.6e-3
        assert plan.eta_embed == 1e-4
        assert plan.eta_dense == 4e-4

    def test_cowclip_8k(self):
        plan = plan_for_batch("cowclip", BASE, 8192)
        assert plan.l2 == 8e-4
        assert plan.eta_embed == 1e-4
        assert plan.eta_dense == math.sqrt(8) * 1e-4

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            scale("cubic", BASE, 2.0)
        with pytest.raises(ValueError):
            scale("sqrt", BASE, 0.0)

    def test_nan_batch_factor_rejected(self):
        with pytest.raises(ValueError, match="batch factor"):
            scale("sqrt", BASE, float("nan"))

    @pytest.mark.parametrize("name", ["eta_dense", "eta_embed", "l2"])
    def test_nan_base_hyperparameter_rejected(self, name):
        values = {"eta_dense": 1e-4, "eta_embed": 1e-4, "l2": 1e-4, name: float("nan")}
        with pytest.raises(ValueError, match="must be positive"):
            BaseHyperparams(1024, **values)

    @pytest.mark.parametrize("rule", ["sqrt", "cowclip"])
    def test_infinite_batch_factor_rejected(self, rule):
        with pytest.raises(ValueError, match="batch factor"):
            scale(rule, BASE, math.inf)

    @pytest.mark.parametrize("name", ["eta_dense", "eta_embed", "l2"])
    def test_infinite_base_hyperparameter_rejected(self, name):
        values = {"eta_dense": 1e-4, "eta_embed": 1e-4, "l2": 1e-4, name: math.inf}
        with pytest.raises(ValueError, match="must be positive"):
            BaseHyperparams(1024, **values)

    @pytest.mark.parametrize("bad", [1024.5, 1024.0, True, "1024"])
    def test_base_batch_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=f"^base_batch must be an integer, got {bad!r}$"):
            BaseHyperparams(bad, 1e-4, 1e-4, 1e-4)

    @pytest.mark.parametrize("name", ["eta_dense", "eta_embed", "l2"])
    @pytest.mark.parametrize("bad", [True, "1e-4"])
    def test_base_rate_must_be_a_real_number(self, name, bad):
        values = {"eta_dense": 1e-4, "eta_embed": 1e-4, "l2": 1e-4, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got {bad!r}$"):
            BaseHyperparams(1024, **values)

    def test_numpy_base_values_are_accepted(self):
        base = BaseHyperparams(np.int64(1024), np.float32(1e-4), 1e-4, 1e-4)
        assert scale("sqrt", base, np.float64(4.0)).eta_dense == pytest.approx(2e-4)

    @pytest.mark.parametrize("bad", [True, "2"])
    def test_batch_factor_must_be_a_real_number(self, bad):
        with pytest.raises(ValueError, match=f"^batch factor s must be a real number, got {bad!r}$"):
            scale("sqrt", BASE, bad)


class TestSchedules:
    def test_sqrt_schedule_cells(self):
        for b, row in SQRT_SCHEDULE.items():
            plan = plan_for_batch("sqrt", BASE, b)
            assert plan.eta_dense == row["lr"]
            assert plan.l2 == row["l2"]

    def test_linear_schedule_cells(self):
        for b, row in LINEAR_SCHEDULE.items():
            plan = plan_for_batch("linear", BASE, b)
            assert plan.eta_dense == row["lr"]
            assert plan.l2 == row["l2"]

    def test_n2_lambda_schedule_cells(self):
        for b, row in N2_LAMBDA_SCHEDULE.items():
            plan = plan_for_batch("n2_lambda", BASE, b)
            assert plan.eta_embed == row["lr_embed"]
            assert plan.eta_dense == row["lr_dense"]
            if "l2" not in row["hand_tuned"]:
                assert plan.l2 == row["l2"]
            else:
                assert plan.l2 != row["l2"]  # tuned past the rule, kept as preset

    @pytest.mark.parametrize("dataset", ["criteo", "avazu"])
    def test_cowclip_schedule_cells(self, dataset):
        sched = COWCLIP_SCHEDULES[dataset]
        base = sched["base"]
        for b, row in sched["rows"].items():
            plan = plan_for_batch("cowclip", base, b)
            assert plan.eta_embed == row["lr_embed"]
            if "l2" not in row["hand_tuned"]:
                assert plan.l2 == row["l2"]
            if "lr_dense" not in row["hand_tuned"]:
                assert plan.eta_dense == row["lr_dense"]


class TestAlgebra:
    @pytest.mark.parametrize("rule", ["sqrt", "sqrt_star", "linear", "n2_lambda", "cowclip"])
    def test_composability_power_of_two(self, rule):
        # every component is a pure power of s, so s1*s2 composes; exact for
        # power-of-4 factors where sqrt is an integer
        for s1, s2 in ((4.0, 4.0), (4.0, 16.0), (16.0, 4.0)):
            direct = scale(rule, BASE, s1 * s2)
            first = scale(rule, BASE, s1)
            rebased = BaseHyperparams(BASE.base_batch, first.eta_dense, first.eta_embed, first.l2)
            staged = scale(rule, rebased, s2)
            assert direct.eta_dense == staged.eta_dense
            assert direct.eta_embed == staged.eta_embed
            assert direct.l2 == staged.l2

    @pytest.mark.parametrize("rule", ["sqrt", "sqrt_star", "linear", "n2_lambda", "cowclip"])
    def test_composability_general(self, rule):
        for s1, s2 in ((2.0, 8.0), (3.0, 5.0), (2.5, 1.7)):
            direct = scale(rule, BASE, s1 * s2)
            first = scale(rule, BASE, s1)
            rebased = BaseHyperparams(BASE.base_batch, first.eta_dense, first.eta_embed, first.l2)
            staged = scale(rule, rebased, s2)
            assert direct.eta_dense == pytest.approx(staged.eta_dense, rel=1e-14)
            assert direct.eta_embed == pytest.approx(staged.eta_embed, rel=1e-14)
            assert direct.l2 == pytest.approx(staged.l2, rel=1e-14)

    def test_l2_strength_identity(self):
        """eta'*lambda' = s*eta*lambda: the SGD decay-per-epoch invariant."""
        for s in (2.0, 4.0, 8.0, 64.0):
            sqrt_plan = scale("sqrt", BASE, s)
            assert sqrt_plan.eta_dense * sqrt_plan.l2 == pytest.approx(
                s * BASE.eta_dense * BASE.l2, rel=1e-14)
            lin_plan = scale("linear", BASE, s)
            assert lin_plan.eta_dense * lin_plan.l2 == pytest.approx(
                s * BASE.eta_dense * BASE.l2, rel=1e-14)
            cow_plan = scale("cowclip", BASE, s)
            assert cow_plan.eta_embed * cow_plan.l2 == pytest.approx(
                s * BASE.eta_embed * BASE.l2, rel=1e-14)


class TestUpdateCovariance:
    def test_zero_lr_zero_covariance(self):
        cov = estimate_update_covariance(QuadraticProblem(seed=0), b=8, eta=0.0,
                                         n_trials=256, seed=1)
        assert np.all(cov == 0.0)

    def test_lr_squared_scaling(self):
        problem = QuadraticProblem(seed=0)
        cov1 = estimate_update_covariance(problem, b=8, eta=0.01, n_trials=2048, seed=2)
        cov2 = estimate_update_covariance(problem, b=8, eta=0.02, n_trials=2048, seed=2)
        assert np.allclose(cov2, 4.0 * cov1, rtol=1e-12, atol=0)


class TestUpdateFrequency:
    def test_frequent_id_linear_scaling_equalizes(self):
        ratio = expected_update_frequency_check(1.0, b=64, s=16, eta=1e-3,
                                                n_trials=1000, seed=0, eta_big=16e-3)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_rare_id_fixed_lr_matches(self):
        ratio = expected_update_frequency_check(1e-4, b=64, s=16, eta=1e-3,
                                                n_trials=200_000, seed=1)
        assert 0.9 <= ratio <= 1.1

    def test_rare_id_naive_linear_overshoots(self):
        s = 16
        ratio = expected_update_frequency_check(1e-4, b=64, s=s, eta=1e-3,
                                                n_trials=200_000, seed=2, eta_big=s * 1e-3)
        assert 0.85 * s <= ratio <= 1.15 * s

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_update_frequency_check(1.5, 8, 2, 1e-3, 10, 0)
        # an id with p = 0 is never present, so the ratio would be 0 / 0
        with pytest.raises(ValueError, match=r"^p must lie in \(0, 1\], got 0.0$"):
            expected_update_frequency_check(0.0, 8, 2, 1e-3, 10, 0)
        with pytest.raises(ValueError):
            expected_update_frequency_check(0.5, 0, 2, 1e-3, 10, 0)
