"""Multiplier calculus and weighted norms."""

import math

import numpy as np
import pytest

from hydrostat import gevrey, spectral
from hydrostat.gevrey import ExponentCapError, GevreyParams
from hydrostat.spectral import SpectralVelocity


def single_mode_pair(N=4, m=(1, 0, 0), value=1.0):
    """Hermitian pair at +-m on component 0."""
    u = SpectralVelocity.zeros(N)
    u.coeffs[0, N + m[0], N + m[1], N + m[2]] = value
    u.coeffs[0, N - m[0], N - m[1], N - m[2]] = np.conj(value)
    return u


class TestExpMultiplier:
    """The one exponential multiplier exp(phi*|k|^s), ``noise_transform``."""

    def test_phi_zero_identity(self, projected_field):
        f = projected_field(seed=3)
        out = gevrey.noise_transform(f, 0.0, 1.0)
        np.testing.assert_array_equal(out.coeffs, f.coeffs)

    def test_group_law(self, projected_field):
        f = projected_field(seed=4)
        out = gevrey.noise_transform(gevrey.noise_transform(f, 0.07, 0.9), -0.03, 0.9)
        np.testing.assert_allclose(out.coeffs, gevrey.noise_transform(f, 0.04, 0.9).coeffs,
                                   rtol=1e-12)

    def test_single_mode_factor(self):
        u = single_mode_pair()
        out = gevrey.noise_transform(u, 0.1, 1.0)
        assert out.coeffs[0, 5, 4, 4] == pytest.approx(math.exp(0.2 * np.pi))

    def test_cap_enforced(self, projected_field):
        f = projected_field(N=8)
        with pytest.raises(ExponentCapError):
            gevrey.noise_transform(f, 20.0, 1.0)  # 20 * 2*pi*8*sqrt(3) > 700

    @pytest.mark.parametrize("p", [0.0, 0.9, 1.9])
    def test_abs_k_power_cache_is_read_only(self, p):
        # one shared |k|^p per (N, p) for the multiplier and the norms; a
        # caller writing into it would corrupt every later weight
        kp = gevrey._abs_k_pow(4, p)
        assert gevrey._abs_k_pow(4, p) is kp and not kp.flags.writeable
        assert kp.tobytes() == (spectral.abs_k(4) ** p).tobytes()
        with pytest.raises(ValueError):
            kp[0, 0, 0] = 1.0


class TestNoiseTransform:
    """The multiplier in its noise role: exp(-nu*W*|k|^s) and its inverse."""

    def test_zero_noise_identity(self, projected_field):
        # W = 0 at nu = 2: the exponent is -0.0, an exact identity
        f = projected_field(seed=5)
        nu, w = 2.0, 0.0
        out = gevrey.noise_transform(f, -nu * w, 1.0)
        np.testing.assert_array_equal(out.coeffs, f.coeffs)

    def test_s_zero_is_scalar(self, projected_field):
        # exp(-nu*W) at nu = 1, W = log 2
        f = projected_field(seed=6)
        out = gevrey.noise_transform(f, -math.log(2.0), 0.0)
        np.testing.assert_allclose(out.coeffs, 0.5 * f.coeffs, rtol=1e-14)

    def test_round_trip(self, projected_field):
        # the forward multiplier at -nu*W, undone by the inverse at +nu*W
        f = projected_field(seed=7)
        nu, w = 1.5, 0.05
        fwd = gevrey.noise_transform(f, -nu * w, 1.0)
        back = gevrey.noise_transform(fwd, nu * w, 1.0)
        np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-12)


class TestNorms:
    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0])
    def test_sigma_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            GevreyParams(sigma, 1.0, 0.0)

    def test_two_cosine_closed_form(self):
        # f = 2 cos(2*pi*x1): unit coefficients at +-(1,0,0); sigma*s = 1
        u = single_mode_pair(value=1.0)
        got = gevrey.norm(u, "Gevrey", GevreyParams(1.0, 1.0, 0.0))
        assert got == pytest.approx(math.sqrt(2.0 * (1.0 + 4.0 * np.pi ** 2)), rel=1e-14)

    def test_zero_field_all_kinds(self):
        z = SpectralVelocity.zeros(4)
        p = GevreyParams(1.5, 1.0, 0.3)
        for kind in ("L2", "Gevrey", "Gevrey_dot"):
            assert gevrey.norm(z, kind, p) == 0.0

    def test_inhomogeneous_dominated(self, projected_field):
        f = projected_field(seed=8)
        p = GevreyParams(1.9, 1.0, 0.1)
        full = gevrey.norm(f, "Gevrey", p)
        hom = gevrey.norm(f, "Gevrey_dot", p)
        assert full <= math.sqrt(2.0) * hom * (1 + 1e-13)

    def test_multiplier_commutes_with_projection(self, projected_field):
        f = spectral.random_coefficients(6, 11)
        a = gevrey.noise_transform(spectral.hydrostatic_leray(f), 0.2, 1.0)
        b = spectral.hydrostatic_leray(gevrey.noise_transform(f, 0.2, 1.0))
        np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=0,
                                   atol=1e-13 * np.abs(a.coeffs).max())

    def test_projection_contracts_gevrey(self):
        f = spectral.random_coefficients(6, 13)
        p = GevreyParams(1.9, 1.0, 0.05)
        assert gevrey.norm(spectral.hydrostatic_leray(f), "Gevrey", p) \
            <= gevrey.norm(f, "Gevrey", p) * (1 + 1e-13)

    def test_monotone_in_phi(self, projected_field):
        f = projected_field(seed=9)
        vals = [gevrey.norm(f, "Gevrey", GevreyParams(1.9, 1.0, phi))
                for phi in (0.0, 0.05, 0.1, 0.2)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(vals, vals[1:]))

    def test_triangle_and_homogeneity(self, projected_field):
        f = projected_field(seed=10)
        g = projected_field(seed=11)
        p = GevreyParams(1.9, 1.0, 0.1)
        for kind in ("L2", "Gevrey", "Gevrey_dot"):
            nf, ng = gevrey.norm(f, kind, p), gevrey.norm(g, kind, p)
            nsum = gevrey.norm(f + g, kind, p)
            assert nsum <= (nf + ng) * (1 + 1e-13)
            assert gevrey.norm(-2.5 * f, kind, p) == pytest.approx(2.5 * nf, rel=1e-13)

    def test_norm_cap_guard(self):
        f = spectral.random_coefficients(8, 1)
        with pytest.raises(ExponentCapError):
            gevrey.norm(f, "Gevrey", GevreyParams(1.9, 1.0, 12.0))

    def test_norm_cap_guards_the_squared_weight(self):
        # phi*|k|_max = 435 passes the weight's own check, but the sum runs
        # over exp(2*phi*|k|^s), whose exponent 871 would overflow to inf
        f = spectral.random_coefficients(8, 1)
        p = GevreyParams(1.9, 1.0, 5.0)
        assert p.phi * gevrey.max_abs_k(8) < gevrey.EXPONENT_CAP < 2 * p.phi * gevrey.max_abs_k(8)
        gevrey.noise_transform(f, p.phi, p.s)
        with pytest.raises(ExponentCapError):
            gevrey.norm(f, "Gevrey", p)

    def test_unknown_kind(self, projected_field):
        with pytest.raises(ValueError):
            gevrey.norm(projected_field(), "Linfty", GevreyParams(1.0, 1.0, 0.0))


class TestGevreyParams:
    @pytest.mark.parametrize("sigma,s,phi", [(0.0, 1.0, 0.0), (1.0, 1.5, 0.0),
                                             (1.0, 0.5, -0.1), (-1.0, 0.5, 0.1)])
    def test_validation(self, sigma, s, phi):
        with pytest.raises(ValueError):
            GevreyParams(sigma, s, phi)
