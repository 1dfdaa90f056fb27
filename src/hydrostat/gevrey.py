"""Fourier multiplier calculus: the noise conjugation multiplier (the one
exponential weight) and the weighted norms used for radius tracking.

All operations are coefficient-wise and pure.  Exponentially weighted sums
span many orders of magnitude, so norms accumulate the squared terms sorted
by decreasing wavenumber magnitude (pairwise summation on that ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .spectral import abs_k

__all__ = [
    "GevreyParams",
    "ExponentCapError",
    "EXPONENT_CAP",
    "check_exponent_cap",
    "noise_transform",
    "norm",
]

# Just below the double-precision overflow threshold of exp(x); a radius /
# truncation combination exceeding it fails loudly instead of returning inf.
# A numerical constant of the lab, not a parameter of the model.
EXPONENT_CAP = 700.0


class ExponentCapError(OverflowError):
    """Requested exponential weight exceeds ``EXPONENT_CAP``."""


@dataclass(frozen=True)
class GevreyParams:
    """Norm parameters: differentiability weight exponent sigma*s, weight
    order s in [0, 1], and radius phi >= 0."""

    sigma: float
    s: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {self.s}")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 <= self.phi < np.inf:
            raise ValueError(f"phi must be non-negative and finite, got {self.phi}")


def max_abs_k(N: int) -> float:
    """Largest wavevector magnitude on the truncated lattice, 2*pi*N*sqrt(3)."""
    return 2.0 * np.pi * N * np.sqrt(3.0)


def check_exponent_cap(phi: float, s: float, N: int) -> None:
    """Reject exponential weights that would overflow at the grid corner,
    where phi*|k|_max^s exceeds ``EXPONENT_CAP``."""
    if phi * max_abs_k(N) ** s > EXPONENT_CAP:
        raise ExponentCapError(
            f"exponent phi*|k|_max^s = {phi * max_abs_k(N) ** s:.3g} exceeds "
            f"cap {EXPONENT_CAP:.3g} (phi={phi:.6g}, s={s:.3g}, N={N})"
        )


@lru_cache(maxsize=32)
def _abs_k_pow(N: int, p: float) -> np.ndarray:
    """``|k|^p`` on the truncated lattice, read-only, built once per ``(N, p)``."""
    out = abs_k(N) ** p
    out.setflags(write=False)
    return out


def noise_transform(field, phi: float, s: float):
    """Multiply each coefficient by exp(phi * |k|^s): the noise conjugation
    multiplier exp(-/+ nu*W*|k|^s) at phi = -/+ nu*W, and for s = 0 the
    scalar exp(phi).  Raises ``ExponentCapError`` when phi*|k|_max^s passes
    ``EXPONENT_CAP``."""
    check_exponent_cap(phi, s, field.N)
    return replace(field, coeffs=field.coeffs * np.exp(phi * _abs_k_pow(field.N, s)))


@lru_cache(maxsize=32)
def _desc_order(N: int) -> np.ndarray:
    """Flat indices of the mode lattice sorted by decreasing |k|."""
    order = np.argsort(abs_k(N), axis=None, kind="stable")[::-1]
    order.setflags(write=False)
    return order


def _ordered_sum(terms: np.ndarray, N: int) -> float:
    order = _desc_order(N)
    if terms.ndim == 4:  # leading component axis
        return float(sum(np.sum(t.ravel()[order]) for t in terms))
    return float(np.sum(terms.ravel()[order]))


def norm(field, kind: str, params: GevreyParams) -> float:
    """Weighted coefficient norm of a field.

    Kinds: 'L2', and 'Gevrey' / 'Gevrey_dot' with weight
    exp(2*phi*|k|^s) |k|^(2*sigma*s); at phi = 0 these are the Sobolev
    norms with exponent sigma*s (inhomogeneous / homogeneous).  Raises
    ``ExponentCapError`` when the squared weight's exponent
    2*phi*|k|_max^s passes ``EXPONENT_CAP``.
    """
    N = field.N
    a = np.abs(field.coeffs)
    if kind == "L2":
        return float(np.sqrt(_ordered_sum(a * a, N)))
    if kind not in ("Gevrey", "Gevrey_dot"):
        raise ValueError(f"unknown norm kind {kind!r}")
    # the sum runs over squared weights exp(2*phi*|k|^s)
    exponent = 2.0 * params.phi * max_abs_k(N) ** params.s
    if exponent > EXPONENT_CAP:
        raise ExponentCapError(
            f"squared-weight exponent 2*phi*|k|_max^s = {exponent:.3g} exceeds cap "
            f"{EXPONENT_CAP:.3g} (phi={params.phi:.6g}, s={params.s:.3g}, N={N})")
    weighted = np.exp(params.phi * _abs_k_pow(N, params.s)) \
        * _abs_k_pow(N, params.sigma * params.s) * a
    total = _ordered_sum(weighted * weighted, N)
    if kind == "Gevrey":
        total += _ordered_sum(a * a, N)
    return float(np.sqrt(total))
