"""Numerical probes of the inequality machinery: convolution-exponent
feasibility, weighted product and transport estimates, and the empirical
constants entering the damping radius schedule and the diffusion smallness
threshold.

All ratio probes are scale-invariant (numerator and denominator carry the
same homogeneity degree).  Both constants come from one sampling loop over
seeded ``initial_data.random_decay`` probes and one weighted pairing, so
each estimator is a deterministic function of its seed.  Whether the
sampled maxima approach the true suprema is unknowable at finite
truncation; the N- and sample-count stability scans in the test suite are
the only evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, gevrey, initial_data, spectral, stochastic
from .gevrey import GevreyParams
from .spectral import SpectralScalar, SpectralVelocity

__all__ = [
    "ExponentPair",
    "ConstantEstimate",
    "feasible_exponents",
    "exponent_grid_search",
    "product_inequality_ratio",
    "nonlinear_estimate_ratio",
    "estimate_c_sigma",
    "estimate_c_star",
    "twisted_cancellation_residual",
]

# Radii phi at which the estimators sample their ratios, and the frozen noise
# exponents nu*W = fraction * phi that estimate_c_star scans at each radius.
PHIS = (0.0, 0.05)
W_FRACTIONS = (0.0, 1.0)


@dataclass(frozen=True)
class ExponentPair:
    """Convolution exponents with 1/p + 1/q = 3/2, both in (1, 2)."""

    p: float
    q: float

    def __post_init__(self):
        if not (1.0 < self.p < 2.0 and 1.0 < self.q < 2.0):
            raise ValueError(f"p, q must lie in (1, 2), got p={self.p}, q={self.q}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.5) > 1e-12:
            raise ValueError(f"1/p + 1/q must equal 3/2, got p={self.p}, q={self.q}")


def _conditions_hold(p: float, q: float, sigma_s: float) -> bool:
    """Summability conditions for the split transport estimate: the vertical
    factor needs (2p/(2-p))(sigma*s - 1) > 2 and the horizontal factor needs
    (2q/(2-q))(sigma*s - 1) > 3."""
    excess = sigma_s - 1.0
    return (2.0 * p / (2.0 - p)) * excess > 2.0 and (2.0 * q / (2.0 - q)) * excess > 3.0


def feasible_exponents(sigma: float, s: float) -> ExponentPair | None:
    """Constructive exponent pair near p = 5/4, or None when infeasible.

    The pair (5/4, 10/7) minimizes the worse of the two summability
    requirements, making sigma*s > 8/5 (strict) the exact feasibility
    boundary; sigma >= 2 is rejected because the kernel singularity is then
    non-integrable.
    """
    if sigma >= 2.0:
        raise ValueError(f"sigma must be below 2, got {sigma}")
    if sigma <= 0.0 or not 0.0 < s <= 1.0:
        raise ValueError(f"need sigma > 0 and s in (0, 1], got sigma={sigma}, s={s}")
    if sigma * s <= 1.6:
        return None
    pair = ExponentPair(p=1.25, q=10.0 / 7.0)
    assert _conditions_hold(pair.p, pair.q, sigma * s)
    return pair


def exponent_grid_search(sigma: float, s: float) -> ExponentPair | None:
    """Brute-force scan over p in (1, 2) in steps of 1e-4; the independent
    feasibility oracle."""
    if sigma >= 2.0:
        raise ValueError(f"sigma must be below 2, got {sigma}")
    sigma_s = sigma * s
    resolution = 1e-4
    p = 1.0 + resolution
    while p < 2.0:
        denom = 1.5 - 1.0 / p
        if denom > 0.0:
            q = 1.0 / denom
            if 1.0 < q < 2.0 and _conditions_hold(p, q, sigma_s):
                return ExponentPair(p=p, q=q)
        p += resolution
    return None


def _weighted_l2(field, r: float, phi: float) -> float:
    """L2 norm of exp(phi*A) A^r applied to the field (analytic weight, s=1)."""
    w = np.exp(phi * spectral.abs_k(field.N)) * gevrey._abs_k_pow(field.N, r) \
        * np.abs(field.coeffs)
    return float(np.sqrt(np.sum(w * w)))


def product_inequality_ratio(f: SpectralScalar, g: SpectralScalar, r: float,
                             phi: float, eta: float) -> float:
    """Ratio probing the weighted product estimate.

    Numerator: the L2 norm of exp(phi*A) A^r applied to the exact product
    f*g (the supremum of the pairing against unit-norm probes is attained at
    the normalized left side itself).  Denominator: the symmetric right side
    without its constant.  The sampled maximum estimates that constant.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    fg = spectral.scalar_product(f, g)  # exact product, modes up to 2N
    lhs = _weighted_l2(fg, r, phi)
    rhs = (_weighted_l2(f, r, phi) * _weighted_l2(g, 1.5 + eta, phi)
           + _weighted_l2(f, 1.5 + eta, phi) * _weighted_l2(g, r, phi))
    if rhs == 0.0:
        if lhs > 0.0:
            raise RuntimeError("zero right-hand side with nonzero left: "
                               "inputs are not zero-mean valid fields")
        return 0.0
    return lhs / rhs


def _pairing_ratio(u: SpectralVelocity, terms, sigma: float, s: float,
                   gain: float, phi: float) -> float:
    """Largest |<exp(phi*A^s) A^(sigma*s) b, exp(phi*A^s) A^(sigma*s) u>| over
    b in ``terms``, divided by |u|_{sigma} * |u|_{sigma+gain}^2 in homogeneous
    Gevrey norms of order s at radius phi; 0 when that right side vanishes.
    Raises ValueError when it is not finite, as a NaN or infinite probe
    would otherwise drop out of the maximum."""
    rhs = (gevrey.norm(u, "Gevrey_dot", GevreyParams(sigma, s, phi))
           * gevrey.norm(u, "Gevrey_dot", GevreyParams(sigma + gain, s, phi)) ** 2)
    if not math.isfinite(rhs):
        raise ValueError(f"pairing ratio needs a finite right side, got {rhs}")
    if rhs == 0.0:
        return 0.0
    weight = np.exp(2.0 * phi * gevrey._abs_k_pow(u.N, s)) \
        * gevrey._abs_k_pow(u.N, 2.0 * sigma * s)
    return max(abs(float(np.sum(weight * b.coeffs * np.conj(u.coeffs)).real))
               for b in terms) / rhs


def nonlinear_estimate_ratio(u: SpectralVelocity, sigma: float, phi: float) -> float:
    """Left/right ratio of the analytic-class transport estimate.

    Left: |<exp(phi*A) A^sigma Q(u,u), exp(phi*A) A^sigma u>|.
    Right: homogeneous Gevrey norms |u|_{sigma} * |u|_{sigma+1/2}^2 at
    radius phi (s = 1), without the constant.
    """
    if sigma <= 2.0:
        raise ValueError(f"transport estimate requires sigma > 2, got {sigma}")
    return _pairing_ratio(u, [spectral.transport_bilinear(u)], sigma, 1.0, 0.5, phi)


@dataclass(frozen=True)
class ConstantEstimate:
    """Sampled maximum (used in thresholds) plus the 95th percentile."""

    value: float
    p95: float


def decayed_random_scalar(N: int, decay: float, seed) -> SpectralScalar:
    """Zero-mean real random scalar probe with |k|^-decay coefficients."""
    c, kk = spectral._gaussian_draw(N, seed)
    c *= (2.0 * np.pi / kk) ** decay
    c = 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))
    c[N, N, N] = 0.0
    return SpectralScalar(c, N)


def _sampled_constant(sigma: float, s: float, N: int, n_samples: int, seed,
                      ratio) -> ConstantEstimate:
    """Maximum and 95th percentile of ``ratio(u)`` over the seeded probes
    ``initial_data.random_decay(N, sigma, s)``, whose |k|^-(sigma*s+2)
    spectrum keeps the low-radius Gevrey norms finite so ratios are well
    scaled.

    The samples run concurrently on the threads of ``dynamics.parallel_map``,
    one task each, as their transports' FFTs run without the interpreter
    lock; each is computed alone, so the estimate does not depend on the
    CPU count.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    ratios = dynamics.parallel_map(
        lambda i: ratio(initial_data.random_decay(
            N, sigma, s, seed=stochastic.path_seed(seed, i))),
        range(n_samples))
    arr = np.sort(np.asarray(ratios))
    return ConstantEstimate(value=float(arr[-1]), p95=float(np.quantile(arr, 0.95)))


def estimate_c_sigma(sigma: float, N: int, n_samples: int, seed) -> ConstantEstimate:
    """Empirical constant of the transport estimate over seeded samples: the
    largest ``nonlinear_estimate_ratio`` over the radii ``PHIS``."""
    if sigma <= 2.0:
        raise ValueError(f"transport estimate requires sigma > 2, got {sigma}")

    def ratio(u: SpectralVelocity) -> float:
        q = [spectral.transport_bilinear(u)]  # one Q(u, u) for every radius
        return max(_pairing_ratio(u, q, sigma, 1.0, 0.5, phi) for phi in PHIS)

    return _sampled_constant(sigma, 1.0, N, n_samples, seed, ratio)


def estimate_c_star(sigma: float, s: float, N: int, n_samples: int,
                    seed) -> ConstantEstimate:
    """Empirical constant of the twisted energy estimate.

    Scans seeded samples and a grid of frozen noise exponents nu*W =
    fraction * phi (so the radius dominates the exponent, the regime where
    the estimate applies), maximizing
    |<exp(phi*A^s) B(u,u), exp(phi*A^s) A^(2*sigma*s) u>| over
    |u|_{sigma} * |u|_{sigma+1}^2 in homogeneous Gevrey norms at radius phi.

    B is ``dynamics.twisted_transport`` with nu = 1, which is projected; the
    slab projector is a real symmetric per-mode matrix and u is projected,
    so the radially weighted pairing equals that of the unprojected term in
    exact arithmetic.
    """
    def ratio(u: SpectralVelocity) -> float:
        # one transport per distinct exponent nu*W
        b = {w: dynamics.twisted_transport(u, 1.0, w, s)
             for w in {frac * phi for phi in PHIS for frac in W_FRACTIONS}}
        return max(_pairing_ratio(u, [b[frac * phi] for frac in W_FRACTIONS],
                                  sigma, s, 1.0, phi) for phi in PHIS)

    return _sampled_constant(sigma, s, N, n_samples, seed, ratio)


def twisted_cancellation_residual(u: SpectralVelocity, nu: float, w: float,
                                  s: float) -> float:
    """Diagnostic |<B(u,u), u>| / |u|_L2^3 for the conjugated transport term.

    Exactly the transport cancellation residual at W = 0; for s > 0 the
    conjugation does not commute with products, so the value is reported,
    not asserted.
    """
    l2 = gevrey.norm(u, "L2", GevreyParams(1.0, 1.0, 0.0))
    if l2 == 0.0:
        return 0.0
    b = dynamics.twisted_transport(u, nu, w, s)
    return abs(spectral.inner_product(b, u)) / l2 ** 3
