"""Truncated Fourier velocity fields on the unit torus.

State is stored as dense complex coefficient arrays in *centered* layout:
index ``i`` along each axis corresponds to the lattice mode ``m = i - N``
with ``m in [-N, N]``, and the physical wavevector is ``k = 2*pi*m``.  A
horizontal velocity field carries two components, shape ``(2, n, n, n)``
with ``n = 2N + 1``; scalars are ``(n, n, n)``.

Fields admitted by the solver satisfy four structural constraints:

* Hermitian symmetry (real-valued physical field),
* zero spatial mean,
* even parity in the vertical coordinate,
* divergence-free vertical average (modes with ``m3 = 0``).

Quadratic products are evaluated by zero-padded FFTs on a grid large
enough that the retained modes of the product are alias-free, so the
discrete transport term inherits the exact cancellation and symmetry
identities of the continuous bilinear form.  Two products are served: the
self-transport ``Q(u, u)`` (``u1``, ``u2`` and ``w`` to the grid, 5
products back, 6 ``numpy.fft`` calls), which is the only form the solver
evaluates, and the scalar product on its full support ``|m| <= 2N``.

The grid transforms are real and pruned: they read only the ``m3 >= 0``
half of a coefficient array and assume the field is real, i.e. Hermitian,
which ``project_constraints`` guarantees, and they run one axis at a time
over the 1-D lines that carry retained modes.  The ``m3 < 0`` half of a
product is rebuilt as the conjugate of the flipped ``m3 > 0`` half.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralVelocity",
    "SpectralScalar",
    "ProjectionRequiredError",
    "TruncationMismatchError",
    "lattice",
    "abs_k",
    "project_constraints",
    "hydrostatic_leray",
    "vertical_velocity",
    "transport_bilinear",
    "inner_product",
    "random_coefficients",
]

# Relative tolerance distinguishing numerical drift from an unprojected state.
INCOMPRESSIBILITY_RTOL = 1e-8


class ProjectionRequiredError(ValueError):
    """Input violates the divergence-free vertical average beyond tolerance."""


class TruncationMismatchError(ValueError):
    """Operands carry different truncation parameters."""


@dataclass(frozen=True)
class SpectralVelocity:
    """Two horizontal velocity components as centered Fourier coefficients.

    ``coeffs[c, i1, i2, i3]`` is the coefficient of component ``c`` at
    lattice mode ``(i1 - N, i2 - N, i3 - N)``.
    """

    coeffs: np.ndarray
    N: int

    def __post_init__(self):
        n = 2 * self.N + 1
        if self.coeffs.shape != (2, n, n, n):
            raise ValueError(
                f"velocity coefficients must have shape (2, {n}, {n}, {n}), "
                f"got {self.coeffs.shape}"
            )

    @classmethod
    def zeros(cls, N: int) -> "SpectralVelocity":
        n = 2 * N + 1
        return cls(np.zeros((2, n, n, n), dtype=complex), N)

    def copy(self) -> "SpectralVelocity":
        return SpectralVelocity(self.coeffs.copy(), self.N)

    def __add__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _check_same_truncation(self, other)
        return SpectralVelocity(self.coeffs + other.coeffs, self.N)

    def __sub__(self, other: "SpectralVelocity") -> "SpectralVelocity":
        _check_same_truncation(self, other)
        return SpectralVelocity(self.coeffs - other.coeffs, self.N)

    def __mul__(self, scalar) -> "SpectralVelocity":
        return SpectralVelocity(self.coeffs * scalar, self.N)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralVelocity":
        return SpectralVelocity(-self.coeffs, self.N)


@dataclass(frozen=True)
class SpectralScalar:
    """Scalar field coefficients with a vertical parity tag ('even'|'odd')."""

    coeffs: np.ndarray
    N: int
    parity: str = "even"

    def __post_init__(self):
        n = 2 * self.N + 1
        if self.coeffs.shape != (n, n, n):
            raise ValueError(
                f"scalar coefficients must have shape ({n}, {n}, {n}), "
                f"got {self.coeffs.shape}"
            )
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")

    @classmethod
    def zeros(cls, N: int, parity: str = "even") -> "SpectralScalar":
        n = 2 * N + 1
        return cls(np.zeros((n, n, n), dtype=complex), N, parity)


def _check_same_truncation(a, b):
    if a.N != b.N:
        raise TruncationMismatchError(f"truncation mismatch: N={a.N} vs N={b.N}")


@lru_cache(maxsize=32)
def lattice(N: int):
    """Integer mode index grids ``(m1, m2, m3)``, each shaped ``(n, n, n)``."""
    m = np.arange(-N, N + 1)
    m1, m2, m3 = np.meshgrid(m, m, m, indexing="ij")
    for a in (m1, m2, m3):
        a.setflags(write=False)
    return m1, m2, m3


@lru_cache(maxsize=32)
def abs_k(N: int) -> np.ndarray:
    """Physical wavevector magnitudes ``|k| = 2*pi*|m|``, shape ``(n, n, n)``."""
    m1, m2, m3 = lattice(N)
    out = 2.0 * np.pi * np.sqrt((m1 * m1 + m2 * m2 + m3 * m3).astype(float))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _derivative_multipliers(N: int):
    """Spectral derivative factors (i*k1, i*k2, i*k3), read-only."""
    m1, m2, m3 = lattice(N)
    out = tuple(2j * np.pi * m for m in (m1, m2, m3))
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _slab_projector(N: int):
    """Per-mode 2x2 horizontal Leray matrices for the m3 = 0 slab."""
    m = np.arange(-N, N + 1)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    mag2 = (m1 * m1 + m2 * m2).astype(float)
    mag2[N, N] = 1.0  # zero mode handled separately
    p11 = 1.0 - m1 * m1 / mag2
    p12 = -m1 * m2 / mag2
    p22 = 1.0 - m2 * m2 / mag2
    for a in (p11, p12, p22):
        a.setflags(write=False)
    return p11, p12, p22


def _leray_slab(c: np.ndarray, N: int) -> None:
    """Horizontal Leray projection of the m3 = 0 slab of ``c``, in place."""
    p11, p12, p22 = _slab_projector(N)
    u = c[0, :, :, N].copy()
    v = c[1, :, :, N].copy()
    c[0, :, :, N] = p11 * u + p12 * v
    c[1, :, :, N] = p12 * u + p22 * v


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (friendly FFT sizes)."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _pad(c: np.ndarray, N: int, M: int, axis: int) -> np.ndarray:
    """Zero-padded FFT-order copy of centered modes ``-N..N`` along ``axis``
    (negative): ``m >= 0`` to the first ``N + 1`` slots, ``m < 0`` to the
    last ``N``."""
    shape = list(c.shape)
    shape[axis] = M
    out = np.zeros(shape, dtype=complex)
    tail = (slice(None),) * (-1 - axis)
    out[(..., slice(0, N + 1)) + tail] = c[(..., slice(N, 2 * N + 1)) + tail]
    out[(..., slice(M - N, M)) + tail] = c[(..., slice(0, N)) + tail]
    return out


def _crop(c: np.ndarray, N: int, axis: int) -> np.ndarray:
    """Centered modes ``-N..N`` of an FFT-order spectrum along ``axis``
    (negative); the inverse of ``_pad``."""
    M = c.shape[axis]
    tail = (slice(None),) * (-1 - axis)
    return np.concatenate([c[(..., slice(M - N, M)) + tail],
                           c[(..., slice(0, N + 1)) + tail]], axis=axis)


def _to_grid(stack: np.ndarray, N: int, M: int) -> np.ndarray:
    """Real physical samples on an M^3 grid of centered coefficients.

    Only the ``m3 >= 0`` half of ``stack`` is read; the field is assumed
    real (Hermitian), as ``project_constraints`` guarantees.  The inverse is
    pruned to the lines that carry retained modes: ``ifft`` along axis -3
    over the ``(2N+1) x (N+1)`` retained columns, ``ifft`` along axis -2 over
    ``M x (N+1)``, then ``irfft`` along axis -1.  That is ``irfftn``'s own
    axis order, so the samples are bitwise those of ``irfftn`` on the
    zero-padded half spectrum.  Requires ``M >= 2N + 1``.
    """
    half = np.fft.ifft(_pad(stack[..., N:], N, M, -3), axis=-3, norm="forward")
    half = np.fft.ifft(_pad(half, N, M, -2), axis=-2, norm="forward")
    return np.fft.irfft(half, n=M, axis=-1, norm="forward")


def _from_grid(phys: np.ndarray, N_out: int, M: int) -> np.ndarray:
    """Centered coefficients with |m| <= N_out of real samples.

    ``rfftn``'s axis order, pruned to the retained lines: ``rfft`` along
    axis -1 keeping ``m3 = 0..N_out``, ``fft`` along axis -2, the retained
    rows, ``fft`` along axis -3; bitwise the gather of ``rfftn``.  The
    ``m3 < 0`` half follows by conjugate symmetry.  Requires
    ``M >= 2 N_out + 1``.
    """
    half = np.fft.rfft(phys, axis=-1, norm="forward")[..., : N_out + 1]
    half = _crop(np.fft.fft(half, axis=-2, norm="forward"), N_out, -2)
    half = _crop(np.fft.fft(half, axis=-3, norm="forward"), N_out, -3)
    return np.concatenate([np.conj(half[..., ::-1, ::-1, :0:-1]), half], axis=-1)


def dealias_pad_size(N_in: int, N_out: int) -> int:
    """Grid size making quadratic products exact on modes |m| <= N_out."""
    return _fast_len(2 * N_in + N_out + 1)


def project_constraints(f: SpectralVelocity) -> SpectralVelocity:
    """Orthogonal (coefficient-wise) projection onto the constraint space.

    Enforces Hermitian symmetry, zero mean, even vertical parity, and the
    divergence-free vertical average.  The four projections commute, so the
    composition is the nearest-point projection and is idempotent.
    """
    c = f.coeffs
    # real-valued physical field: average with the conjugate of the -m entry
    c = 0.5 * (c + np.conj(c[:, ::-1, ::-1, ::-1]))
    # even in z
    c = 0.5 * (c + c[:, :, :, ::-1])
    # zero mean
    N = f.N
    c[:, N, N, N] = 0.0
    # divergence-free vertical average on the m3 = 0 slab
    _leray_slab(c, N)
    return SpectralVelocity(c, N)


def hydrostatic_leray(f: SpectralVelocity) -> SpectralVelocity:
    """Leray projection of the vertical average plus the untouched remainder.

    Acts mode-by-mode with spectral matrices of norm <= 1, hence contracts
    every coefficient-weighted norm.
    """
    c = f.coeffs.copy()
    _leray_slab(c, f.N)
    return SpectralVelocity(c, f.N)


@lru_cache(maxsize=32)
def _vertical_divisors(N: int):
    """Slab magnitudes ``|m'|`` at ``m3 = 0`` and the integer ``m3`` divisor
    with 1 on that slab, read-only."""
    m1, m2, m3 = lattice(N)
    m1, m2 = m1[:, :, N], m2[:, :, N]
    mag = np.sqrt((m1 * m1 + m2 * m2).astype(float))
    m3safe = m3.copy()
    m3safe[:, :, N] = 1
    for a in (mag, m3safe):
        a.setflags(write=False)
    return mag, m3safe


def vertical_velocity(f: SpectralVelocity) -> SpectralScalar:
    """Vertical velocity determined by the divergence-free condition.

    Mode-wise exact antiderivative of minus the horizontal divergence,
    anchored at z = 0.  Requires the vertical-average divergence of the
    input to vanish (up to INCOMPRESSIBILITY_RTOL), otherwise the
    antiderivative is not periodic.
    """
    N = f.N
    m1, m2, _ = lattice(N)
    mag, m3safe = _vertical_divisors(N)
    s = m1 * f.coeffs[0] + m2 * f.coeffs[1]  # (m' . u_hat), divergence / (2*pi*i)
    resid = np.sqrt(np.sum(np.abs(s[:, :, N]) ** 2))
    u, v = f.coeffs[0, :, :, N], f.coeffs[1, :, :, N]
    scale = np.sqrt(np.sum((mag * np.abs(u)) ** 2 + (mag * np.abs(v)) ** 2))
    if resid > INCOMPRESSIBILITY_RTOL * max(scale, 1e-300):
        raise ProjectionRequiredError(
            "vertical average is not divergence-free "
            f"(residual {resid:.3e} vs scale {scale:.3e}); project first"
        )
    # integer divisor: the quotient is that of -s[nz] / m3[nz], bit for bit
    w = -s / m3safe
    # zero vertical mode fixed by w(., z=0) = 0; the slab's own entries are dropped
    w[:, :, N] = -np.sum(np.delete(w, N, axis=2), axis=2)
    return SpectralScalar(w, N, parity="odd")


def transport_bilinear(u: SpectralVelocity) -> SpectralVelocity:
    """Self-transport ``Q(u, u) = u.grad' u + w d_z u``: horizontal advection
    plus vertical transport by the induced vertical velocity.

    Evaluated in flux form, ``d_j(u_j u) + d_z(w u)``.  Precondition: ``u``
    is divergence-free in 3D, ``grad'.u + d_z w = 0``, which holds mode by
    mode because ``vertical_velocity`` builds ``w`` from it and rejects a
    field whose vertical average is not divergence-free.  The two forms
    differ by ``u (grad'.u + d_z w)``: round-off for a projected field, up
    to ``INCOMPRESSIBILITY_RTOL`` relative for one that ``vertical_velocity``
    admits unprojected.
    Only ``u1``, ``u2`` and ``w`` go to the grid; the 5 distinct products
    come back and are differentiated on the retained modes.  The products
    are evaluated on a zero-padded grid so the retained modes are the exact
    convolution; the result is *not* re-projected.
    """
    N = u.N
    ik = _derivative_multipliers(N)
    w = vertical_velocity(u).coeffs
    M = dealias_pad_size(N, N)
    u1, u2, uz = _to_grid(np.concatenate([u.coeffs, w[None]]), N, M)
    p = _from_grid(np.stack([u1 * u1, u1 * u2, u2 * u2, u1 * uz, u2 * uz]), N, M)
    fluxes = ((p[0], p[1], p[3]), (p[1], p[2], p[4]))
    out = np.stack([ik[0] * a + ik[1] * b + ik[2] * c for a, b, c in fluxes])
    return SpectralVelocity(out, N)


def scalar_product(f: SpectralScalar, g: SpectralScalar) -> SpectralScalar:
    """Alias-free pointwise product of two scalar fields on its full
    support, modes ``|m| <= 2N``."""
    _check_same_truncation(f, g)
    N = f.N
    M = dealias_pad_size(N, 2 * N)
    out = _from_grid(_to_grid(f.coeffs, N, M) * _to_grid(g.coeffs, N, M), 2 * N, M)
    parity = "even" if f.parity == g.parity else "odd"
    return SpectralScalar(out, 2 * N, parity)


def inner_product(f, g) -> float:
    """Real L2 pairing of two fields of the same kind and truncation."""
    _check_same_truncation(f, g)
    return float(np.sum(f.coeffs * np.conj(g.coeffs)).real)


def _gaussian_draw(N: int, seed, lead: tuple = ()):
    """Seeded complex Gaussian coefficients of shape ``lead + (n, n, n)``
    (real parts drawn first) and |k| with the zero mode set to 2*pi, so
    that ``2*pi/|k|`` spectral shapes stay finite."""
    rng = np.random.default_rng(seed)
    shape = lead + (2 * N + 1,) * 3
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kk = abs_k(N).copy()
    kk[N, N, N] = 2.0 * np.pi
    return c, kk


def random_coefficients(N: int, seed, decay: float = 3.0, amplitude: float = 1.0) -> SpectralVelocity:
    """Unprojected random velocity coefficients with power-law decay |k|^-decay."""
    c, kk = _gaussian_draw(N, seed, (2,))
    c *= amplitude * (2.0 * np.pi / kk) ** decay
    return SpectralVelocity(c, N)
