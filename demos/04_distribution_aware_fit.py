"""Fitting ReLU with a quadratic that knows its input distribution.

A fixed polynomial wastes accuracy where the data never goes.  Fitting
against the actual Gaussian of the pre-activations gives the least-squares
optimum in closed form; this demo compares it with the common fixed choices
and with a Monte-Carlo fit, then shows the channel-wise machinery.
"""

import numpy as np

from arp.dapa import (
    ChannelStats,
    GaussianStats,
    channelwise_coeffs,
    empirical_loss,
    fit_closed_form,
    fit_monte_carlo,
    min_approx_loss,
)

rng = np.random.default_rng(4)
z = rng.normal(0.0, np.sqrt(2.0), size=1_000_000)

print("input distribution: N(0, 2), one million samples\n")
closed = fit_closed_form(GaussianStats(0.0, 2.0))
candidates = {
    "distribution-aware fit": closed,
    "identity g(z) = z": np.array([0.0, 1.0, 0.0]),
    "g(z) = z^2 + z": np.array([0.0, 1.0, 1.0]),
    "g(z) = z^2": np.array([0.0, 0.0, 1.0]),
}
print(f"{'replacement':<26} {'c0':>7} {'c1':>7} {'c2':>7} {'mean sq err':>12}")
for name, c in candidates.items():
    loss = empirical_loss(z, c)
    print(f"{name:<26} {c[0]:7.3f} {c[1]:7.3f} {c[2]:7.3f} {loss:12.5f}")

print(f"\nanalytic minimum loss: {min_approx_loss(GaussianStats(0.0, 2.0)):.5f}")
mc = fit_monte_carlo(z, 2)
print(f"monte-carlo fit      : ({mc[0]:.4f}, {mc[1]:.4f}, {mc[2]:.4f})")

# the optimum moves with the distribution: wider inputs flatten the parabola
print("\nhow the optimum tracks the distribution:")
for mu, var in [(0.0, 0.5), (0.0, 2.0), (1.0, 2.0), (-2.0, 1.0)]:
    c0, c1, c2 = fit_closed_form(GaussianStats(mu, var))
    loss = min_approx_loss(GaussianStats(mu, var))
    print(f"  N({mu:+.1f}, {var:.1f}) -> ({c0:+.4f}, {c1:+.4f}, {c2:+.4f})  min loss {loss:.5f}")

# channel-wise: one fit per feature channel from running statistics
stats = ChannelStats(channels=3)
batch = np.stack([
    rng.normal(0.0, 1.0, size=4096),
    rng.normal(1.5, 0.5, size=4096),
    rng.normal(-1.0, 2.0, size=4096),
], axis=1)
stats.update(batch)
per_channel = channelwise_coeffs(stats)
print("\nper-channel coefficients from running stats:")
for ch in range(3):
    c = per_channel[ch]
    print(f"  channel {ch}: mean {stats.mean[ch]:+.2f} var {stats.var[ch]:.2f} "
          f"-> ({c[0]:+.4f}, {c[1]:+.4f}, {c[2]:+.4f})")
