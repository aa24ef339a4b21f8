"""Closed-form Gaussian fits, minimum loss, Monte-Carlo fitting, channel stats."""

import numpy as np
import pytest

from arp.dapa import (
    ChannelStats,
    GaussianStats,
    VAR_CLAMP,
    channelwise_coeffs,
    empirical_loss,
    fit_closed_form,
    fit_closed_form_linear,
    fit_monte_carlo,
    horner,
    min_approx_loss,
    min_linear_loss,
)
from arp.errors import DegenerateDistributionError

from conftest import same_bits


class TestClosedForm:
    def test_standard_point(self):
        c0, c1, c2 = fit_closed_form(GaussianStats(0.0, 2.0))
        assert abs(c0 - 0.28) < 0.005
        assert abs(c1 - 0.5) < 0.005
        assert abs(c2 - 0.14) < 0.005

    def test_symmetric_linear_term(self):
        for var in (0.1, 1.0, 7.3):
            _, c1, _ = fit_closed_form(GaussianStats(0.0, var))
            assert c1 == 0.5  # erfc(0)/2 = 1/2 exactly

    def test_relu_is_identity_far_right(self):
        c0, c1, c2 = fit_closed_form(GaussianStats(10.0, 1.0))
        assert abs(c0) < 1e-6 and abs(c1 - 1.0) < 1e-6 and abs(c2) < 1e-6

    def test_relu_is_zero_far_left(self):
        c0, c1, c2 = fit_closed_form(GaussianStats(-10.0, 1.0))
        assert abs(c0) < 1e-6 and abs(c1) < 1e-6 and abs(c2) < 1e-6

    def test_scaling_law(self):
        """fit(k*mu, k^2*var) = (k*c0, c1, c2/k)."""
        base = np.array(fit_closed_form(GaussianStats(0.7, 1.3)))
        for k in (0.5, 2.0, 3.7):
            scaled = np.array(fit_closed_form(GaussianStats(k * 0.7, k * k * 1.3)))
            np.testing.assert_allclose(scaled, [k * base[0], base[1], base[2] / k], rtol=1e-12)

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            GaussianStats(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianStats(0.0, -1.0)

    def test_matches_normal_equations(self):
        """Cross-check against an OLS solve using exact Gaussian moments."""
        from scipy import integrate

        for mu, var in [(0.0, 2.0), (1.0, 1.0), (-2.0, 0.5), (0.5, 0.25)]:
            s = np.sqrt(var)

            def moment(k, relu=False):
                f = lambda z: (max(z, 0.0) if relu else 1.0) * z**k * np.exp(
                    -((z - mu) ** 2) / (2 * var)
                ) / np.sqrt(2 * np.pi * var)
                return integrate.quad(f, mu - 12 * s, mu + 12 * s, limit=200)[0]

            gram = np.array([[moment(i + j) for j in range(3)] for i in range(3)])
            rhs = np.array([moment(i, relu=True) for i in range(3)])
            expect = np.linalg.solve(gram, rhs)
            got = fit_closed_form(GaussianStats(mu, var))
            np.testing.assert_allclose(got, expect, rtol=1e-5, atol=1e-9)


class TestLinearClosedForm:
    def test_symmetric(self):
        c0, c1 = fit_closed_form_linear(GaussianStats(0.0, 1.0))
        assert abs(c1 - 0.5) < 1e-12
        assert abs(c0 - 1 / np.sqrt(2 * np.pi)) < 1e-12

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0.5, 1.5, size=1_000_000)
        mc = fit_monte_carlo(z, 1)
        cf = fit_closed_form_linear(GaussianStats(0.5, 1.5**2))
        np.testing.assert_allclose(mc, cf, atol=5e-3)

    def test_loss_at_standard_normal(self):
        assert min_linear_loss(GaussianStats(0.0, 1.0)) == pytest.approx(0.25 - 1 / (2 * np.pi), rel=1e-15)

    @pytest.mark.parametrize("mu,var", [(1.0, 2.0), (3.0, 4.0), (-2.0, 0.5)])
    def test_loss_matches_monte_carlo(self, mu, var):
        """The closed-form loss is the Monte-Carlo loss of the closed-form fit,
        within four of the estimate's standard errors."""
        g = GaussianStats(mu, var)
        z = np.random.default_rng(5).normal(mu, np.sqrt(var), size=1_000_000)
        err2 = (np.maximum(z, 0.0) - horner(fit_closed_form_linear(g), z)) ** 2
        assert abs(min_linear_loss(g) - err2.mean()) < 4 * err2.std() / np.sqrt(z.size)


class TestFitArguments:
    """Both closed-form fits share one argument rule."""

    @pytest.mark.parametrize("fit", [fit_closed_form, fit_closed_form_linear])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_arrays_with_nonpositive_variance_refused(self, fit, bad):
        with pytest.raises(ValueError, match="variance must be positive"):
            fit(np.array([0.0, 1.0]), np.array([1.0, bad]))

    @pytest.mark.parametrize("fit,degree", [(fit_closed_form, 2), (fit_closed_form_linear, 1)])
    def test_scalar_and_array_forms_agree(self, fit, degree):
        scalar = fit(GaussianStats(0.5, 2.0))
        assert isinstance(scalar, np.ndarray) and scalar.dtype == np.float64
        assert scalar.shape == (degree + 1,)
        rows = fit(np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        assert rows.shape == (2, degree + 1) and np.all(rows == scalar)


class TestMinApproxLoss:
    def test_reference_value(self):
        expect = 2.0 * (0.25 - 3.0 / (4.0 * np.pi))
        assert abs(min_approx_loss(GaussianStats(0.0, 2.0)) - expect) < 1e-12

    def test_vanishes_far_from_zero(self):
        assert min_approx_loss(GaussianStats(10.0, 1.0)) < 1e-6
        assert min_approx_loss(GaussianStats(-10.0, 1.0)) < 1e-6

    def test_variance_scaling_at_zero_mean(self):
        for var in (0.5, 1.0, 3.0):
            a = min_approx_loss(GaussianStats(0.0, var))
            b = min_approx_loss(GaussianStats(0.0, 2 * var))
            np.testing.assert_allclose(b, 2 * a, rtol=1e-12)

    def test_nonnegative_on_grid(self):
        for mu in np.linspace(-4, 4, 17):
            for var in (0.25, 1.0, 4.0):
                assert min_approx_loss(GaussianStats(mu, var)) >= 0

    def test_uncorrected_variant_disagrees(self):
        g = GaussianStats(0.0, 2.0)
        good = min_approx_loss(g)
        printed = min_approx_loss(g, uncorrected=True)
        assert abs(printed - good) > 0.25  # 0.324 vs 0.0225

    def test_matches_loss_at_fitted_coefficients(self):
        """Formula equals the Monte-Carlo loss of the closed-form fit."""
        rng = np.random.default_rng(2)
        g = rng.standard_normal(2_000_000)
        for mu, var in [(0.0, 2.0), (1.0, 1.0), (-1.5, 3.0)]:
            z = mu + np.sqrt(var) * g
            mc = empirical_loss(z, fit_closed_form(GaussianStats(mu, var)))
            formula = min_approx_loss(GaussianStats(mu, var))
            assert abs(mc - formula) < 5e-4


class TestMonteCarloFit:
    def test_identity_on_positives(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0.5, 5.0, size=5000)
        c = fit_monte_carlo(z, 1)
        np.testing.assert_allclose(c, [0.0, 1.0], atol=1e-9)

    def test_zero_on_negatives(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(-5.0, -0.5, size=5000)
        c = fit_monte_carlo(z, 1)
        np.testing.assert_allclose(c, [0.0, 0.0], atol=1e-9)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0.0, np.sqrt(2.0), size=1_000_000)
        mc = fit_monte_carlo(z, 2)
        cf = fit_closed_form(GaussianStats(0.0, 2.0))
        assert np.max(np.abs(mc - cf)) < 1e-2

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateDistributionError):
            fit_monte_carlo(np.full(1000, 2.0), 2)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_monte_carlo(np.arange(100, dtype=float), 2)

    def test_degree_zero_refused(self):
        z = np.random.default_rng(7).normal(size=1000)
        with pytest.raises(ValueError, match="degree must be >= 1"):
            fit_monte_carlo(z, 0)

    def test_higher_degree_for_analysis(self):
        rng = np.random.default_rng(6)
        z = rng.normal(0, 1, size=20_000)
        fit = fit_monte_carlo(z, 5)
        assert fit.shape == (6,)
        assert empirical_loss(z, fit) <= empirical_loss(
            z, fit_monte_carlo(z, 2)
        ) + 1e-12  # more degrees never fit worse


class TestChannelStats:
    def test_first_batch_sets_directly(self):
        st = ChannelStats(3)
        z = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        st.update(z)
        np.testing.assert_allclose(st.mean, [2.0, 3.0, 4.0])
        np.testing.assert_allclose(st.var, [1.0, 1.0, 1.0])

    def test_ema_after_warmup(self):
        st = ChannelStats(1, momentum=0.1)
        st.update(np.array([[1.0], [3.0]]))  # mean 2, var 1
        st.update(np.array([[10.0], [12.0]]))  # mean 11, var 1
        np.testing.assert_allclose(st.mean, [0.9 * 2 + 0.1 * 11])

    def test_conv_layout(self):
        st = ChannelStats(2)
        z = np.zeros((4, 2, 3, 3))
        z[:, 1] = 5.0
        st.update(z, channel_axis=1)
        np.testing.assert_allclose(st.mean, [0.0, 5.0])

    def test_not_warmed_up(self):
        with pytest.raises(ValueError):
            channelwise_coeffs(ChannelStats(2))

    @pytest.mark.parametrize("layout", ["conv", "dense"])
    def test_matches_numpy_mean_var(self, layout):
        """Both updates equal the statistics of z.mean/z.var over C-ordered z bit for bit."""
        rng = np.random.default_rng(11)
        if layout == "conv":  # (batch, channel, h, w), batch-minor like Conv2d's output
            make, axes, channels = lambda: rng.normal(1.0, 2.0, (8, 6, 6, 64)).transpose(3, 0, 1, 2), (0, 2, 3), 8
        else:
            make, axes, channels = lambda: rng.normal(1.0, 2.0, (64, 16)), (0,), 16
        st = ChannelStats(channels, momentum=0.1)
        z = make()
        st.update(z, channel_axis=1)
        z = np.ascontiguousarray(z)
        mean, var = z.mean(axis=axes), z.var(axis=axes)
        assert same_bits(st.mean, mean) and same_bits(st.var, var)
        z = make()
        st.update(z, channel_axis=1)
        z = np.ascontiguousarray(z)
        mean = 0.9 * mean + 0.1 * z.mean(axis=axes)
        var = 0.9 * var + 0.1 * z.var(axis=axes)
        assert same_bits(st.mean, mean) and same_bits(st.var, var)


class TestChannelwiseCoeffs:
    def _stats(self, means, variances):
        st = ChannelStats(len(means))
        st.mean = np.asarray(means, dtype=np.float64)
        st.var = np.asarray(variances, dtype=np.float64)
        st.warmed_up = True
        return st

    def test_quadratic_coefficient_scales_inverse_sigma(self):
        c = channelwise_coeffs(self._stats([0.0, 0.0], [2.0, 8.0]))
        # sigma doubles, c2 halves
        np.testing.assert_allclose(c[0, 2], 2 * c[1, 2], rtol=1e-12)

    def test_identical_stats_identical_rows(self):
        c = channelwise_coeffs(self._stats([1.0, 1.0, 1.0], [3.0, 3.0, 3.0]))
        assert np.all(c == c[0])

    def test_matches_scalar_fit(self):
        c = channelwise_coeffs(self._stats([1.0], [1.0]))
        np.testing.assert_allclose(c[0], fit_closed_form(GaussianStats(1.0, 1.0)), rtol=1e-12)

    def test_variance_clamp_is_silent(self):
        c = channelwise_coeffs(self._stats([0.0, 0.0], [1e-12, 1.0]))
        clamped = channelwise_coeffs(self._stats([0.0], [VAR_CLAMP]))
        np.testing.assert_allclose(c[0], clamped[0], rtol=1e-12)
        assert np.all(np.isfinite(c))

    def test_degree_one(self):
        c = channelwise_coeffs(self._stats([0.0], [1.0]), degree=1)
        np.testing.assert_allclose(c[0], fit_closed_form_linear(GaussianStats(0.0, 1.0)))


class TestHorner:
    def test_evaluation(self):
        z = np.array([0.0, 2.0, -1.0])
        out = horner(np.array([0.28, 0.5, 0.14]), z)
        np.testing.assert_allclose(out, 0.14 * z**2 + 0.5 * z + 0.28)

    def test_channelwise_broadcast(self):
        """Rows of (channels, degree + 1) coefficients, transposed, broadcast over z."""
        c = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        z = np.full((4, 2), 3.0)
        out = horner(c.T, z)
        np.testing.assert_allclose(out[:, 0], 3.0)
        np.testing.assert_allclose(out[:, 1], 1.0)
