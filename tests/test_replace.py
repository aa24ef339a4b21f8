"""Indicator gradients, hysteresis rule, and replacement training behavior."""

import copy

import numpy as np
import pytest
from scipy.special import expit

from arp.dapa import GaussianStats, fit_closed_form
from arp.data import two_spirals
from arp.nn import build_model
from arp.replace import (
    HybridActivation,
    IndicatorState,
    ReplacementConfig,
    acc_grad_aux,
    apply_hysteresis,
    count_relu,
    evaluate,
    hysteresis_step,
    penalty_grad_aux,
    refresh_coeffs,
    ste_softplus_grad,
    train_replace,
    train_supervised,
)


class TestSteSoftplusGrad:
    def test_midpoint(self):
        assert ste_softplus_grad(np.array([0.0]))[0] == 0.5

    def test_saturation(self):
        assert abs(ste_softplus_grad(np.array([20.0]))[0] - 1.0) < 1e-8
        assert abs(ste_softplus_grad(np.array([-20.0]))[0]) < 1e-8

    def test_matches_softplus_finite_difference(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=200)
        h = 1e-6
        softplus = lambda v: np.log1p(np.exp(v))
        num = (softplus(w + h) - softplus(w - h)) / (2 * h)
        assert np.max(np.abs(ste_softplus_grad(w) - num)) < 1e-6


class TestAccGradAux:
    def _act(self, n=4):
        act = HybridActivation((n,), degree=2)
        act.coeffs.coeffs[:] = [0.28, 0.5, 0.14]
        return act

    def test_zero_when_paths_agree(self):
        # identity polynomial on positive inputs: relu(z) == poly(z)
        act = HybridActivation((3,), degree=2)  # coeffs start as identity
        z = np.array([[1.0, 2.0, 3.0]])
        dl = np.array([[5.0, -1.0, 2.0]])
        act.forward(z, training=False)
        assert np.all(acc_grad_aux(dl, z, act) == 0)

    def test_zero_upstream(self):
        act = self._act()
        z = np.random.default_rng(1).normal(size=(2, 4))
        act.forward(z)
        assert np.all(acc_grad_aux(np.zeros_like(z), z, act) == 0)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(2)
        act = self._act()
        z = rng.normal(size=(5, 4))
        dl = rng.normal(size=(5, 4))
        act.forward(z)
        got = acc_grad_aux(dl, z, act)
        poly = 0.14 * z**2 + 0.5 * z + 0.28
        expect = dl * (np.maximum(z, 0) - poly) * expit(act.indicator.m_w)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_both_flip_directions_reachable(self):
        """The task gradient can push either way; the penalty cannot."""
        act = self._act(2)
        z = np.array([[1.0, 1.0]])  # relu(1) = 1 > poly(1) = 0.92
        act.forward(z)
        dl = np.array([[1.0, -1.0]])
        g = acc_grad_aux(dl, z, act)
        assert g[0, 0] > 0 and g[0, 1] < 0
        pen = penalty_grad_aux(act.indicator, 0.5, over_budget=True)
        assert np.all(pen >= 0)


class TestPenaltyGradAux:
    def test_inactive_at_budget(self):
        st = IndicatorState.all_relu((10,))
        g = penalty_grad_aux(st, 0.3, over_budget=False)
        assert np.all(g == 0)

    def test_active_over_budget(self):
        st = IndicatorState.all_relu((10,))
        g = penalty_grad_aux(st, 0.3, over_budget=True)
        np.testing.assert_allclose(g, 0.3 * expit(st.m_w))
        assert np.all(g > 0)


class TestHysteresis:
    def test_truth_table_rows(self):
        t_h = 0.01
        one, zero = np.array([1.0]), np.array([0.0])
        # row 1: m=1 survives while m_w > -t_h
        assert apply_hysteresis(one, np.array([-t_h / 2]), t_h)[0] == 1
        # row 2: m=1 flips at m_w <= -t_h
        assert apply_hysteresis(one, np.array([-2 * t_h]), t_h)[0] == 0
        assert apply_hysteresis(one, np.array([-t_h]), t_h)[0] == 0  # boundary
        # row 3: m=0 stays while m_w <= t_h
        assert apply_hysteresis(zero, np.array([t_h / 2]), t_h)[0] == 0
        assert apply_hysteresis(zero, np.array([t_h]), t_h)[0] == 0  # boundary
        # row 4: m=0 flips at m_w > t_h
        assert apply_hysteresis(zero, np.array([2 * t_h]), t_h)[0] == 1

    def test_zero_threshold_reduces_to_sign_rule(self):
        rng = np.random.default_rng(3)
        m = (rng.random(1000) < 0.5).astype(np.float64)
        m_w = rng.normal(size=1000)
        np.testing.assert_array_equal(apply_hysteresis(m, m_w, 0.0), (m_w > 0).astype(np.float64))

    def test_step_descends(self):
        st = IndicatorState.all_relu((3,), t_h=0.003, m_w_init=0.1)
        grad = np.array([1.0, -1.0, 0.0])
        new = hysteresis_step(st, grad, lr=0.01)
        assert new.m_w[0] < 0.1 and new.m_w[1] > 0.1 and new.m_w[2] == 0.1

    def test_step_rederives_m(self):
        st = IndicatorState(np.array([1.0]), np.array([-0.002]), 0.003)
        new = hysteresis_step(st, np.array([0.5]), lr=0.01)  # m_w -> -0.007
        assert new.m[0] == 0.0


class TestCountRelu:
    def test_limits(self):
        assert count_relu(IndicatorState(np.zeros((4, 4)), np.zeros((4, 4)), 0.0)) == 0
        assert count_relu(IndicatorState(np.ones((4, 4)), np.zeros((4, 4)), 0.0)) == 16

    def test_popcount_oracle(self):
        rng = np.random.default_rng(4)
        m = (rng.random(997) < 0.3).astype(np.float64)
        st = IndicatorState(m, np.zeros(997), 0.0)
        assert count_relu(st) == int(sum(int(v) for v in m))


class TestHybridForwardAndRefresh:
    def test_all_relu(self):
        act = HybridActivation((4,))
        z = np.random.default_rng(5).normal(size=(3, 4))
        np.testing.assert_array_equal(act.forward(z), np.maximum(z, 0))

    def test_all_poly_identity(self):
        act = HybridActivation((4,))
        act.indicator.m[:] = 0.0
        z = np.random.default_rng(6).normal(size=(3, 4))
        np.testing.assert_allclose(act.forward(z), z)  # identity start coeffs

    def test_poly_value(self):
        act = HybridActivation((1,))
        act.indicator.m[:] = 0.0
        act.coeffs.coeffs[:] = [0.28, 0.5, 0.14]
        np.testing.assert_allclose(act.forward(np.array([[2.0]])), [[1.84]])

    def test_refresh_matches_closed_form(self):
        act = HybridActivation((2,))
        act.stats.mean = np.array([0.0, 0.0])
        act.stats.var = np.array([2.0, 2.0])
        act.stats.warmed_up = True
        refresh_coeffs(act)
        expect = fit_closed_form(GaussianStats(0.0, 2.0))
        np.testing.assert_allclose(act.coeffs.coeffs[0], expect, rtol=1e-12)

    def test_refresh_idempotent(self):
        act = HybridActivation((2,))
        act.stats.mean = np.array([0.5, -0.5])
        act.stats.var = np.array([1.0, 4.0])
        act.stats.warmed_up = True
        refresh_coeffs(act)
        first = act.coeffs.coeffs.copy()
        refresh_coeffs(act)
        assert np.array_equal(act.coeffs.coeffs, first)

    def test_refresh_tracks_distribution_shift(self):
        act = HybridActivation((1,))
        act.stats.mean = np.array([0.0])
        act.stats.var = np.array([2.0])
        act.stats.warmed_up = True
        refresh_coeffs(act)
        c2_before = act.coeffs.coeffs[0, 2]
        act.stats.var = np.array([8.0])
        refresh_coeffs(act)
        np.testing.assert_allclose(act.coeffs.coeffs[0, 2], c2_before / 2, rtol=1e-12)

    def test_stats_update_in_training_mode_only(self):
        act = HybridActivation((2,))
        z = np.ones((4, 2))
        act.forward(z, training=False)
        assert not act.stats.warmed_up
        act.forward(z, training=True)
        assert act.stats.warmed_up


@pytest.fixture(scope="module")
def spiral_setup():
    x, y = two_spirals(512, noise=0.15, seed=3)
    n = int(0.8 * len(x))
    model = build_model("mlp", seed=0)
    train_supervised(model, x[:n], y[:n], epochs=60, lr=1e-3, batch_size=64, seed=0)
    return model, (x[:n], y[:n]), (x[n:], y[n:])


class TestTrainReplace:
    def test_unconstrained_budget_keeps_all(self, spiral_setup):
        model, train, test = spiral_setup
        # 2 epochs x 7 steps x lr 1e-3 cannot move m_w from +0.1 past -t_h
        cfg = ReplacementConfig(relu_budget=128, epochs=2, seed=1)
        m, plan, hist = train_replace(copy.deepcopy(model), train, cfg, eval_data=test)
        assert plan.relu_count == 128
        assert hist.epochs[-1]["accuracy"] >= evaluate(model, *test) - 0.05

    def test_zero_budget_fully_polynomial(self, spiral_setup):
        model, train, test = spiral_setup
        cfg = ReplacementConfig(relu_budget=0, epochs=25, seed=1)
        m, plan, hist = train_replace(copy.deepcopy(model), train, cfg, eval_data=test)
        assert plan.relu_count == 0
        assert all(np.all(mask == 0) for mask in plan.masks)

    def test_budget_contract(self, spiral_setup):
        model, train, test = spiral_setup
        cfg = ReplacementConfig(relu_budget=32, epochs=25, seed=1)
        m, plan, hist = train_replace(copy.deepcopy(model), train, cfg, eval_data=test)
        assert plan.relu_count <= 32

    def test_transition_log_satisfies_truth_table(self, spiral_setup):
        model, train, test = spiral_setup
        cfg = ReplacementConfig(relu_budget=64, epochs=8, seed=1, log_transitions=True)
        m, plan, hist = train_replace(copy.deepcopy(model), train, cfg, eval_data=test)
        assert hist.transitions
        for before, m_w, after, t_h in hist.transitions:
            expect = np.where(before == 1, m_w > -t_h, m_w > t_h).astype(np.float64)
            assert np.array_equal(after, expect)

    def test_flip_requires_band_crossing(self, spiral_setup):
        """With t_h > 0 an element only flips when m_w crosses +/-t_h."""
        model, train, test = spiral_setup
        cfg = ReplacementConfig(relu_budget=64, epochs=8, seed=1, log_transitions=True)
        m, plan, hist = train_replace(copy.deepcopy(model), train, cfg, eval_data=test)
        for before, m_w, after, t_h in hist.transitions:
            flipped_off = (before == 1) & (after == 0)
            flipped_on = (before == 0) & (after == 1)
            assert np.all(m_w[flipped_off] <= -t_h)
            assert np.all(m_w[flipped_on] > t_h)

    def test_history_csv(self, spiral_setup):
        model, train, test = spiral_setup
        cfg = ReplacementConfig(relu_budget=64, epochs=3, seed=1)
        _, _, hist = train_replace(copy.deepcopy(model), train, cfg, eval_data=test)
        lines = hist.to_csv().strip().splitlines()
        assert lines[0] == "epoch,accuracy,relu_count,flips"
        assert len(lines) >= 4

    def test_invalid_configs(self, spiral_setup):
        model, train, _ = spiral_setup
        with pytest.raises(ValueError):
            train_replace(copy.deepcopy(model), train, ReplacementConfig(relu_budget=-1))
        with pytest.raises(ValueError):
            train_replace(copy.deepcopy(model), train, ReplacementConfig(relu_budget=129))
        with pytest.raises(ValueError):
            train_replace(copy.deepcopy(model), (np.zeros((0, 2)), np.zeros(0)),
                          ReplacementConfig(relu_budget=4))
