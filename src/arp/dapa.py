"""Distribution-aware polynomial approximation of ReLU.

Fits low-order polynomials minimizing the expected squared error against
ReLU under the input distribution: a closed form for Gaussian inputs at
degree 1 and 2, plus a Monte-Carlo least-squares path for arbitrary samples
and degrees.  Channel-wise fitting tracks running activation statistics and
re-fits each channel independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .errors import DegenerateDistributionError
from .nn import mean_var

__all__ = [
    "GaussianStats",
    "ChannelStats",
    "fit_closed_form",
    "fit_closed_form_linear",
    "min_approx_loss",
    "fit_monte_carlo",
    "horner",
    "channelwise_coeffs",
    "MU_GRID",
    "VAR_GRID",
    "VAR_CLAMP",
]

# grid used by the optimality checks; variances, matching the module's
# (mean, var) parameterization.  Beyond ratio |mean|/std ~ 6 the positive
# tail is unreachable by float64 Monte Carlo and optimality certificates
# become undecidable, so the grid stays within that regime.
MU_GRID = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
VAR_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

# channel variances below this are clamped before fitting; the closed form
# is singular at sigma = 0 and dead channels would otherwise poison it
VAR_CLAMP = 1e-4

_SQRT2 = np.sqrt(2.0)
_SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class GaussianStats:
    mean: float
    var: float

    def __post_init__(self):
        if self.var <= 0:
            raise ValueError(f"variance must be positive, got {self.var}")


def horner(terms, z: np.ndarray) -> np.ndarray:
    """sum_i terms[i] * z**i by Horner's rule, started from the leading term."""
    out = terms[-1]
    for t in terms[-2::-1]:
        out = out * z + t
    return out


def _gaussian_args(stats, var):
    """(mean, var) for the closed-form fits: a GaussianStats's scalars, or
    (mean, var) arrays, every variance checked positive, for vectorized
    per-channel use.
    """
    if isinstance(stats, GaussianStats):
        return stats.mean, stats.var
    mu, v = np.asarray(stats, dtype=np.float64), np.asarray(var, dtype=np.float64)
    if np.any(v <= 0):
        raise ValueError("variance must be positive")
    return mu, v


def fit_closed_form(stats, var=None) -> np.ndarray:
    """Optimal quadratic fit [..., (c0, c1, c2)] to ReLU for N(mean, var) inputs, in closed form."""
    mu, v = _gaussian_args(stats, var)
    sigma = np.sqrt(v)
    e = np.exp(-(mu**2) / (2 * v))
    c2 = _SQRT2 * e / (4 * _SQRT_PI * sigma)
    c1 = -_SQRT2 * mu * e / (2 * _SQRT_PI * sigma) - erfc(_SQRT2 * mu / (2 * sigma)) / 2 + 1
    c0 = _SQRT2 * mu**2 * e / (4 * _SQRT_PI * sigma) + _SQRT2 * sigma * e / (4 * _SQRT_PI)
    return np.stack((c0, c1, c2), axis=-1)


def fit_closed_form_linear(stats, var=None) -> np.ndarray:
    """Optimal affine fit c0 + c1*z to ReLU for Gaussian inputs.

    c1 = Phi(mu/sigma), c0 = sigma * phi(mu/sigma): the covariance of ReLU(Z)
    with Z over a Gaussian is sigma^2 * Phi(mu/sigma).
    """
    mu, v = _gaussian_args(stats, var)
    sigma = np.sqrt(v)
    alpha = mu / sigma
    c1 = 0.5 * erfc(-alpha / _SQRT2)  # standard normal CDF
    c0 = sigma * np.exp(-(alpha**2) / 2) / np.sqrt(2 * np.pi)
    return np.stack((c0, c1), axis=-1)


def min_approx_loss(stats: GaussianStats, *, uncorrected: bool = False) -> float:
    """Expected squared error of the optimal quadratic fit.

    With uncorrected=True the final term's exponent is the constant -1
    instead of -mu^2/sigma^2; that variant is retained only to document that
    it disagrees with the true minimum (checkable against Monte Carlo).
    """
    mu, v = stats.mean, stats.var
    sigma = np.sqrt(v)
    u = _SQRT2 * mu / (2 * sigma)
    ec = erfc(u)
    e = np.exp(-(mu**2) / (2 * v))
    tail = np.exp(-1.0) if uncorrected else np.exp(-(mu**2) / v)
    loss = (
        -(mu**2) * ec**2 / 4
        + mu**2 * ec / 2
        + _SQRT2 * mu * sigma * e * ec / (2 * _SQRT_PI)
        - _SQRT2 * mu * sigma * e / (2 * _SQRT_PI)
        - v * ec**2 / 4
        + v * ec / 2
        - 3 * v * tail / (4 * np.pi)
    )
    return float(loss)


def fit_monte_carlo(samples: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares fit of ReLU over an empirical sample distribution.

    Solves the normal equations by a Cholesky factorization of their
    positive-definite Gram matrix.  Requires at least (degree+1)*100 samples with nonzero
    variance; constant samples make the design rank deficient.
    """
    from scipy.linalg import solve

    z = np.asarray(samples, dtype=np.float64).reshape(-1)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if z.size < (degree + 1) * 100:
        raise ValueError(f"need at least {(degree + 1) * 100} samples, got {z.size}")
    if np.var(z) == 0:
        raise DegenerateDistributionError("constant samples give a rank-deficient design")
    v = np.vander(z, degree + 1, increasing=True)
    gram = v.T @ v
    rhs = v.T @ np.maximum(z, 0.0)
    try:
        c = solve(gram, rhs, assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise DegenerateDistributionError(f"normal equations not SPD: {exc}") from exc
    return c


def empirical_loss(samples: np.ndarray, coeffs: np.ndarray) -> float:
    """Mean squared error against ReLU over samples of the polynomial (c0, c1, ...)."""
    z = np.asarray(samples, dtype=np.float64).reshape(-1)
    return float(np.mean((np.maximum(z, 0.0) - horner(coeffs, z)) ** 2))


@dataclass
class ChannelStats:
    """Running per-channel mean/variance with exponential moving average.

    The first observed batch sets the statistics directly; later batches are
    folded in with the given momentum.
    """

    channels: int
    momentum: float = 0.1
    mean: np.ndarray = field(init=False)
    var: np.ndarray = field(init=False)
    warmed_up: bool = field(init=False, default=False)

    def __post_init__(self):
        self.mean = np.zeros(self.channels, dtype=np.float64)
        self.var = np.ones(self.channels, dtype=np.float64)

    def update(self, z: np.ndarray, channel_axis: int = 1) -> None:
        """Fold one batch in; reduces over every axis except the channel one."""
        z = np.asarray(z, dtype=np.float64)
        axes = tuple(i for i in range(z.ndim) if i != channel_axis)
        bm, bv = mean_var(z, axes)
        if bm.shape != (self.channels,):
            raise ValueError(f"expected {self.channels} channels, got {bm.shape}")
        if not self.warmed_up:
            self.mean, self.var = bm, bv
            self.warmed_up = True
        else:
            m = self.momentum
            self.mean = (1 - m) * self.mean + m * bm
            self.var = (1 - m) * self.var + m * bv


def channelwise_coeffs(stats: ChannelStats, degree: int = 2) -> np.ndarray:
    """Closed-form per-channel fit from running statistics, shaped (channels, degree + 1).

    Channel variances below VAR_CLAMP are clamped, never an error: dead
    channels would otherwise blow up the quadratic coefficient.
    """
    if not stats.warmed_up:
        raise ValueError("channel statistics not warmed up (no batch observed)")
    var = np.maximum(stats.var, VAR_CLAMP)
    if degree == 2:
        return fit_closed_form(stats.mean, var)
    if degree == 1:
        return fit_closed_form_linear(stats.mean, var)
    raise ValueError(f"channel-wise fitting supports degrees 1 and 2, got {degree}")
