"""Numerical probes of the inequality machinery: convolution-exponent
feasibility, weighted product and transport estimates, and the empirical
constants entering the damping radius schedule and the diffusion smallness
threshold.

All ratio probes are scale-invariant (numerator and denominator carry the
same homogeneity degree), and every estimator is a deterministic function
of its seed.  Whether the sampled maxima approach the true suprema is
unknowable at finite truncation; the N- and sample-count stability scans in
the test suite are the only evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, gevrey, spectral, stochastic
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
    "damping_threshold_check",
    "ThresholdReport",
    "twisted_cancellation_residual",
    "decayed_random_velocity",
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


def exponent_grid_search(sigma: float, s: float, resolution: float = 1e-4) -> ExponentPair | None:
    """Brute-force scan over p in (1, 2); the independent feasibility oracle."""
    if sigma >= 2.0:
        raise ValueError(f"sigma must be below 2, got {sigma}")
    sigma_s = sigma * s
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
    kk = spectral.abs_k(field.N)
    w = np.exp(phi * kk) * kk ** r * np.abs(field.coeffs)
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


def nonlinear_estimate_ratio(u: SpectralVelocity, sigma: float, phi: float) -> float:
    """Left/right ratio of the analytic-class transport estimate.

    Left: |<exp(phi*A) A^sigma Q(u,u), exp(phi*A) A^sigma u>|.
    Right: homogeneous Gevrey norms |u|_{sigma} * |u|_{sigma+1/2}^2 at
    radius phi (s = 1), without the constant.
    """
    if sigma <= 2.0:
        raise ValueError(f"transport estimate requires sigma > 2, got {sigma}")
    if float(np.abs(u.coeffs).max()) == 0.0:
        return 0.0
    return _transport_ratio(u, spectral.transport_bilinear(u), sigma, phi)


def _transport_ratio(u: SpectralVelocity, q: SpectralVelocity, sigma: float,
                     phi: float) -> float:
    """``nonlinear_estimate_ratio`` given q = Q(u, u), which does not depend
    on the radius phi; 0 for u = 0."""
    kk = spectral.abs_k(u.N)
    weight = np.exp(2.0 * phi * kk) * kk ** (2.0 * sigma)
    lhs = abs(float(np.sum(weight * q.coeffs * np.conj(u.coeffs)).real))
    n_sig = gevrey.norm(u, "Gevrey_dot", GevreyParams(sigma, 1.0, phi))
    n_half = gevrey.norm(u, "Gevrey_dot", GevreyParams(sigma + 0.5, 1.0, phi))
    rhs = n_sig * n_half ** 2
    return lhs / rhs if rhs > 0.0 else 0.0


@dataclass(frozen=True)
class ConstantEstimate:
    """Sampled maximum (used in thresholds) plus the 95th percentile."""

    value: float
    p95: float
    n_samples: int

    def __float__(self) -> float:
        return self.value


def decayed_random_velocity(N: int, decay: float, seed) -> SpectralVelocity:
    """Projected probe field with independent complex Gaussian coefficients
    shaped by |k|^-decay; the decay keeps low-radius Gevrey norms finite so
    ratios are well scaled."""
    return spectral.project_constraints(
        spectral.random_coefficients(N, seed, decay=decay))


def decayed_random_scalar(N: int, decay: float, seed) -> SpectralScalar:
    """Zero-mean real random scalar probe with |k|^-decay coefficients."""
    c, kk = spectral._gaussian_draw(N, seed)
    c *= (2.0 * np.pi / kk) ** decay
    c = 0.5 * (c + np.conj(c[::-1, ::-1, ::-1]))
    c[N, N, N] = 0.0
    return SpectralScalar(c, N)


def estimate_c_sigma(sigma: float, N: int, n_samples: int, seed) -> ConstantEstimate:
    """Empirical constant of the transport estimate over seeded samples."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if sigma <= 2.0:
        raise ValueError(f"transport estimate requires sigma > 2, got {sigma}")
    decay = sigma + 2.0
    ratios = []
    for i in range(n_samples):
        u = decayed_random_velocity(N, decay, stochastic.path_seed(seed, i))
        q = spectral.transport_bilinear(u)  # one Q(u, u) for every radius
        ratios.append(max(_transport_ratio(u, q, sigma, phi) for phi in PHIS))
    arr = np.sort(np.asarray(ratios))
    return ConstantEstimate(value=float(arr[-1]),
                            p95=float(np.quantile(arr, 0.95)),
                            n_samples=n_samples)


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
    if n_samples < 1:
        raise ValueError("need at least one sample")
    decay = sigma * s + 2.0
    kk = spectral.abs_k(N)
    weights = {phi: np.exp(2.0 * phi * kk ** s) * kk ** (2.0 * sigma * s) for phi in PHIS}
    ratios = []
    for i in range(n_samples):
        u = decayed_random_velocity(N, decay, stochastic.path_seed(seed, i))
        n_sig = {phi: gevrey.norm(u, "Gevrey_dot", GevreyParams(sigma, s, phi))
                 for phi in PHIS}
        n_one = {phi: gevrey.norm(u, "Gevrey_dot", GevreyParams(sigma + 1.0, s, phi))
                 for phi in PHIS}
        b_cache: dict = {}
        best = 0.0
        for phi in PHIS:
            for frac in W_FRACTIONS:
                nu_w = frac * phi  # stays within the radius: nu*W <= phi
                key = round(nu_w, 15)
                if key not in b_cache:
                    b_cache[key] = dynamics.twisted_transport(u, 1.0, nu_w, s)
                b = b_cache[key]
                lhs = abs(float(np.sum(weights[phi] * b.coeffs * np.conj(u.coeffs)).real))
                rhs = n_sig[phi] * n_one[phi] ** 2
                if rhs > 0.0:
                    best = max(best, lhs / rhs)
        ratios.append(best)
    arr = np.sort(np.asarray(ratios))
    return ConstantEstimate(value=float(arr[-1]),
                            p95=float(np.quantile(arr, 0.95)),
                            n_samples=n_samples)


@dataclass(frozen=True)
class ThresholdReport:
    ok: bool
    dissipation_margin: float  # (nu^2 - 2*beta)*phi0 - 4*c_sigma, must be > 0
    data_margin: float         # (nu^2-2*beta)*phi0/(4*c_sigma) - 1 - e^alpha*|U0|, >= 0


def damping_threshold_check(phi0: float, sigma: float, nu: float, beta: float,
                            alpha: float, u0_norm: float,
                            c_sigma: float) -> ThresholdReport:
    """Evaluate the two damping globality conditions and report their slack."""
    if min(phi0, nu, c_sigma) <= 0.0 or beta <= 0.0 or alpha < 0.0 or u0_norm < 0.0:
        raise ValueError("phi0, nu, beta, c_sigma must be positive; "
                         "alpha, u0_norm non-negative")
    if beta >= 0.5 * nu ** 2:
        raise ValueError("need beta < nu^2/2")
    lhs = (nu ** 2 - 2.0 * beta) * phi0
    dissipation_margin = lhs - 4.0 * c_sigma
    data_margin = lhs / (4.0 * c_sigma) - 1.0 - math.exp(alpha) * u0_norm
    return ThresholdReport(ok=dissipation_margin > 0.0 and data_margin >= 0.0,
                           dissipation_margin=dissipation_margin,
                           data_margin=data_margin)


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
