"""Indicator gradients, hysteresis rule, and replacement training behavior."""

import copy
import json
import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

from arp.dapa import GaussianStats, PolyCoeffs, fit_closed_form
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

from conftest import same_bits


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
        assert np.all(acc_grad_aux(dl, z, act, ste_softplus_grad(act.indicator.m_w)) == 0)

    def test_zero_upstream(self):
        act = self._act()
        z = np.random.default_rng(1).normal(size=(2, 4))
        act.forward(z)
        assert np.all(acc_grad_aux(np.zeros_like(z), z, act, ste_softplus_grad(act.indicator.m_w)) == 0)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(2)
        act = self._act()
        z = rng.normal(size=(5, 4))
        dl = rng.normal(size=(5, 4))
        act.forward(z)
        got = acc_grad_aux(dl, z, act, ste_softplus_grad(act.indicator.m_w))
        poly = 0.14 * z**2 + 0.5 * z + 0.28
        expect = dl * (np.maximum(z, 0) - poly) * expit(act.indicator.m_w)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_both_flip_directions_reachable(self):
        """The task gradient can push either way; the penalty cannot."""
        act = self._act(2)
        z = np.array([[1.0, 1.0]])  # relu(1) = 1 > poly(1) = 0.92
        act.forward(z)
        dl = np.array([[1.0, -1.0]])
        sig = ste_softplus_grad(act.indicator.m_w)
        g = acc_grad_aux(dl, z, act, sig)
        assert g[0, 0] > 0 and g[0, 1] < 0
        pen = penalty_grad_aux(sig, 0.5, over_budget=True)
        assert np.all(pen >= 0)


class TestPenaltyGradAux:
    def test_inactive_at_budget(self):
        st = IndicatorState.all_relu((10,))
        g = penalty_grad_aux(ste_softplus_grad(st.m_w), 0.3, over_budget=False)
        assert np.all(g == 0)

    def test_active_over_budget(self):
        st = IndicatorState.all_relu((10,))
        g = penalty_grad_aux(ste_softplus_grad(st.m_w), 0.3, over_budget=True)
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

    def test_step_takes_descended_m_w(self):
        st = IndicatorState.all_relu((3,))
        m_w = np.array([0.05, 0.2, 0.1])
        new = hysteresis_step(st, m_w, 0.003)
        assert new.m_w is m_w
        with pytest.raises(ValueError):
            hysteresis_step(st, np.zeros(4), 0.003)

    def test_step_rederives_m(self):
        st = IndicatorState(np.array([1.0, 1.0, 0.0]), np.array([-0.002, 0.1, 0.002]))
        new = hysteresis_step(st, np.array([-0.007, -0.002, 0.004]), 0.003)
        assert new.m.tolist() == [0.0, 1.0, 1.0]


class TestCountRelu:
    def test_limits(self):
        assert count_relu(IndicatorState(np.zeros((4, 4)), np.zeros((4, 4)))) == 0
        assert count_relu(IndicatorState(np.ones((4, 4)), np.zeros((4, 4)))) == 16

    def test_popcount_oracle(self):
        rng = np.random.default_rng(4)
        m = (rng.random(997) < 0.3).astype(np.float64)
        st = IndicatorState(m, np.zeros(997))
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


class TestSinglePath:
    """forward/backward/indicator_grad equal the full two-branch expressions.

    The expected arrays are built here with the full expressions, so the
    comparison holds on any BLAS build.  Only values are compared: layout no
    longer reaches a reduction (tests/test_nn.py::TestLayoutIndependence).
    """

    @staticmethod
    def _full(act, z, dy):
        m = act.indicator.m
        out = m * np.maximum(z, 0.0) + (1.0 - m) * act.poly(z)
        dz = dy * (m * (z > 0) + (1.0 - m) * act.poly_deriv(z))
        gap = np.maximum(z, 0.0) - act.poly(z)
        grad = np.ascontiguousarray(dy * gap * expit(act.indicator.m_w)).sum(axis=0)
        return out, dz, grad

    @pytest.mark.parametrize("batch", [3, 64, 256])
    @pytest.mark.parametrize("layout", ["conv", "dense"])
    def test_matches_full_expression(self, layout, batch):
        rng = np.random.default_rng(batch)
        if layout == "conv":  # batch-minor, as Conv2d.forward returns it
            feat = (8, 8, 8)
            z = rng.normal(size=(*feat, batch)).transpose(3, 0, 1, 2)
        else:
            feat = (64,)
            z = rng.normal(size=(batch, *feat))
        dy = rng.normal(size=z.shape)  # C-contiguous, as AvgPool2d/Dense backward return it
        act = HybridActivation(feat)
        act.coeffs = PolyCoeffs(rng.normal(size=(feat[0], 3)))
        act.indicator.m_w[:] = rng.normal(size=feat)
        mixed = (rng.random(feat) < 0.5).astype(np.float64)
        for mask in (np.ones(feat), np.zeros(feat), mixed, np.ones(feat)):
            act.indicator.m[:] = mask  # in place: the layer must not cache its branch
            expect = self._full(act, z, dy)
            out = act.forward(z, training=True)
            dz = act.backward(dy)
            grad = act.indicator_grad(ste_softplus_grad(act.indicator.m_w))
            for got, want in zip((out, dz, grad), expect):
                assert same_bits(got, want)

    def test_shared_layer_forward_in_two_threads(self):
        """Both parties' threads run the plaintext forward pass of one model at once."""
        rng = np.random.default_rng(10)
        act = HybridActivation((64,))
        act.indicator.m[:] = (rng.random(64) < 0.5).astype(np.float64)
        inputs = [rng.normal(size=(16, 64)) for _ in range(2)]
        expect = [self._full(act, z, z)[0] for z in inputs]
        failures = []

        def work(i):
            try:
                for _ in range(300):
                    if not np.array_equal(act.forward(inputs[i]), expect[i]):
                        failures.append(i)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]

    def test_rebound_mask(self):
        act = HybridActivation((4,))
        z = np.random.default_rng(9).normal(size=(5, 4))
        act.forward(z)
        act.indicator.m = np.zeros(4)  # rebound, as model_io does
        np.testing.assert_array_equal(act.forward(z), z)  # identity start coeffs


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

    def test_history_json(self, spiral_setup):
        model, train, test = spiral_setup
        cfg = ReplacementConfig(relu_budget=64, epochs=3, seed=1)
        _, plan, hist = train_replace(copy.deepcopy(model), train, cfg, eval_data=test)
        rows = json.loads(json.dumps(hist.to_json()))["epochs"]
        assert len(rows) >= 3
        assert set(rows[0]) == {"epoch", "accuracy", "relu_count", "flips", "loss",
                                "relu_per_layer", "penalty_active", "tail"}
        assert [r["epoch"] for r in rows] == list(range(len(rows)))
        for row in rows:
            assert row["relu_count"] == sum(row["relu_per_layer"])
            assert len(row["relu_per_layer"]) == 2 and row["loss"] > 0
        assert rows[0]["penalty_active"] and not rows[0]["tail"]
        assert rows[-1]["relu_count"] == plan.relu_count
        assert all(r["tail"] for r in rows[3:])

    def test_invalid_configs(self, spiral_setup):
        model, train, _ = spiral_setup
        with pytest.raises(ValueError):
            train_replace(copy.deepcopy(model), train, ReplacementConfig(relu_budget=-1))
        with pytest.raises(ValueError):
            train_replace(copy.deepcopy(model), train, ReplacementConfig(relu_budget=129))
        with pytest.raises(ValueError):
            train_replace(copy.deepcopy(model), (np.zeros((0, 2)), np.zeros(0)),
                          ReplacementConfig(relu_budget=4))
        for bad in ({"epochs": 0}, {"batch_size": 0}):
            with pytest.raises(ValueError, match="at least 1"):
                train_replace(copy.deepcopy(model), train, ReplacementConfig(relu_budget=4, **bad))
        with pytest.raises(ValueError, match="hysteresis threshold"):
            train_replace(copy.deepcopy(model), train, ReplacementConfig(relu_budget=4, t_h=-0.1))


class TestDapaBeatsFixedFit:
    """The paper's ablations: per-channel DaPa fits beat a fixed fit and the identity.

    mlp on two-spiral (2,048 points, the first 1,600 for training), 60
    pretrain epochs, then 20 replacement epochs to 16 kept ReLUs.  The
    fixed variant swaps the trainer's channel-wise refit for the closed-form
    fit to N(0, 1) in every channel.  The identity variant replaces each
    dropped ReLU with z, as SNL does (Cho et al., ICML 2022).  All three
    start from the same pretrained weights.
    """

    BUDGET = 16

    @staticmethod
    def _fixed_coeffs(stats, degree=2):
        return PolyCoeffs(np.tile(fit_closed_form(GaussianStats(0.0, 1.0)), (stats.channels, 1)))

    @staticmethod
    def _identity_coeffs(stats, degree=2):
        return PolyCoeffs(np.tile([0.0, 1.0, 0.0], (stats.channels, 1)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dapa_margin_at_budget_16(self, seed, monkeypatch):
        x, y = two_spirals(2048, seed=seed)
        train, test = (x[:1600], y[:1600]), (x[1600:], y[1600:])
        base = build_model("mlp", seed=seed)
        train_supervised(base, *train, epochs=60, lr=1e-3, batch_size=64, seed=seed)
        cfg = ReplacementConfig(relu_budget=self.BUDGET, epochs=20, seed=seed)

        def accuracy(fit=None):
            if fit is not None:
                monkeypatch.setattr("arp.replace.channelwise_coeffs", fit)
            model, plan, _ = train_replace(copy.deepcopy(base), train, cfg, eval_data=test)
            assert plan.relu_count <= self.BUDGET
            return evaluate(model, *test)

        acc_dapa = accuracy()
        acc_fixed = accuracy(self._fixed_coeffs)
        acc_identity = accuracy(self._identity_coeffs)
        assert acc_dapa >= acc_fixed + 0.05, (acc_dapa, acc_fixed)
        assert acc_dapa >= acc_identity + 0.1, (acc_dapa, acc_identity)
