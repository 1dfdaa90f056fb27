"""Named initial-data families shared by the experiment harness and tests.

Every family returns a fully projected field; amplitudes refer to the
coefficient seeds before projection, so use :func:`normalize_to` when a
specific norm value is required.
"""

from __future__ import annotations

import math

import numpy as np

from . import gevrey, spectral
from .gevrey import GevreyParams
from .spectral import SpectralVelocity

__all__ = [
    "single_mode",
    "two_mode",
    "random_decay",
    "random_analytic",
    "normalize_to",
    "make_initial_data",
]


def _place_cos_cos(c: np.ndarray, N: int, mode, amplitude: float, component: int):
    """Coefficients of amplitude * cos(2*pi*m'.x') * cos(2*pi*m3*z) on one
    component (falls back to the plain cosine when an index vanishes); a
    mode other than three integers, not all zero, on the lattice
    |m_i| <= N, or a component other than 0 or 1 raises ``ValueError``."""
    mode = tuple(mode)
    if len(mode) != 3 or not any(mode) or max(map(abs, mode)) > N \
            or component not in (0, 1):
        raise ValueError(f"mode {mode} on component {component}: need three integers, "
                         f"not all zero, with |m_i| <= N = {N}, and component 0 or 1")
    m1, m2, m3 = mode
    horiz = [(m1, m2)] if (m1, m2) == (0, 0) else [(m1, m2), (-m1, -m2)]
    vert = [0] if m3 == 0 else [m3, -m3]
    share = amplitude / (len(horiz) * len(vert))
    for h1, h2 in horiz:
        for v in vert:
            c[component, N + h1, N + h2, N + v] += share


def single_mode(N: int, amplitude: float = 1.0, mode=(1, 0, 1),
                component: int = 0) -> SpectralVelocity:
    """Projected single cosine-product mode on one velocity component."""
    u = SpectralVelocity.zeros(N)
    _place_cos_cos(u.coeffs, N, mode, amplitude, component)
    return spectral.project_constraints(u)


def two_mode(N: int, amplitude: float = 1.0, mode_a=(1, 0, 1), component_a: int = 0,
             ratio: float = 1.0, mode_b=(0, 1, 1), component_b: int = 1) -> SpectralVelocity:
    """Projected superposition of two cosine-product modes."""
    u = SpectralVelocity.zeros(N)
    _place_cos_cos(u.coeffs, N, mode_a, amplitude, component_a)
    _place_cos_cos(u.coeffs, N, mode_b, amplitude * ratio, component_b)
    return spectral.project_constraints(u)


def random_decay(N: int, sigma: float, s: float, amplitude: float = 1.0,
                 seed=0) -> SpectralVelocity:
    """Random coefficients with the estimator-matched spectrum |k|^-(sigma*s+2)."""
    return spectral.project_constraints(
        spectral.random_coefficients(N, seed, decay=sigma * s + 2.0,
                                     amplitude=amplitude))


def random_analytic(N: int, radius: float, amplitude: float = 1.0, seed=0,
                    poly: float = 1.0) -> SpectralVelocity:
    """Random coefficients with exponential decay exp(-radius*|k|) times a
    polynomial factor; genuinely analytic-looking data for PDE runs."""
    c, kk = spectral._gaussian_draw(N, seed, (2,))
    c *= amplitude * np.exp(-radius * kk) * (2.0 * np.pi / kk) ** poly
    return spectral.project_constraints(SpectralVelocity(c, N))


def normalize_to(u: SpectralVelocity, target: float,
                 params: GevreyParams) -> SpectralVelocity:
    """Rescale so that the Gevrey norm at ``params`` equals ``target`` exactly;
    ``target`` and the datum's norm must be positive and finite."""
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError(f"target must be positive and finite, got {target}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        current = gevrey.norm(u, "Gevrey", params)
    if not (math.isfinite(current) and current > 0.0):
        raise ValueError(f"target cannot be reached from a datum of norm {current}")
    return (target / current) * u


FAMILIES = ("zero", "single_mode", "two_mode", "random_decay", "random_analytic")


def make_initial_data(family: str, N: int, *, amplitude: float = 1.0, seed=0,
                      sigma: float = 2.0, s: float = 1.0, radius: float = 0.3,
                      mode=(1, 0, 1), mode_b=(0, 1, 1), ratio: float = 1.0,
                      component: int = 0, component_b: int = 1,
                      poly: float = 1.0) -> SpectralVelocity:
    """Dispatch on the family name (the harness-facing constructor)."""
    for name, value in (("amplitude", amplitude), ("sigma", sigma), ("s", s),
                        ("radius", radius), ("ratio", ratio), ("poly", poly)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if family == "zero":
        return SpectralVelocity.zeros(N)
    if family == "single_mode":
        return single_mode(N, amplitude, mode, component)
    if family == "two_mode":
        return two_mode(N, amplitude, mode, component, ratio, mode_b, component_b)
    if family == "random_decay":
        return random_decay(N, sigma, s, amplitude, seed)
    if family == "random_analytic":
        return random_analytic(N, radius, amplitude, seed, poly)
    raise ValueError(f"unknown initial-data family {family!r}; "
                     f"known: {', '.join(FAMILIES)}")
