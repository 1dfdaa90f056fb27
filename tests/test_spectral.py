"""Structural identities of the truncated velocity representation.

Oracles are independent of the implementation path: physical-grid averages
for the vertical split of the ``m3 = 0`` slab, per-mode checkers for
divergence conditions, a hand-computed convolution for one interacting mode
pair, a full-grid complex FFT reference for the real-transform grid kernel
and the advective transport, full ``irfftn``/``rfftn`` references for the
pruned passes, and the boolean-mask vertical velocity for its bitwise form.
"""

import numpy as np
import pytest

from hydrostat import gevrey, spectral
from hydrostat.gevrey import GevreyParams
from hydrostat.spectral import (
    ProjectionRequiredError,
    SpectralScalar,
    SpectralVelocity,
)

from conftest import check_invariants

L2 = GevreyParams(1.0, 1.0, 0.0)


def cos_cos_mode(N, comp, m_h, m3, amplitude=1.0):
    """amplitude * cos(2*pi*m_h.x')*cos(2*pi*m3*z) placed on one component."""
    u = SpectralVelocity.zeros(N)
    for sh in (1, -1):
        for sv in (1, -1):
            u.coeffs[comp, N + sh * m_h[0], N + sh * m_h[1], N + sv * m3] += amplitude / 4
    return u


class TestProjectConstraints:
    def test_valid_field_unchanged(self, projected_field):
        f = projected_field(seed=3)
        again = spectral.project_constraints(f)
        np.testing.assert_allclose(again.coeffs, f.coeffs, rtol=0, atol=1e-15)

    def test_mean_zeroed(self):
        f = SpectralVelocity.zeros(4)
        f.coeffs[0, 4, 4, 4] = 2.0 + 1.0j
        out = spectral.project_constraints(f)
        assert out.coeffs[0, 4, 4, 4] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_field_projected_and_idempotent(self, seed):
        f = spectral.random_coefficients(8, seed)
        p1 = spectral.project_constraints(f)
        check_invariants(p1)
        p2 = spectral.project_constraints(p1)
        scale = np.abs(p1.coeffs).max()
        assert np.abs(p2.coeffs - p1.coeffs).max() <= 1e-14 * scale


def split_barotropic(f):
    """Vertical average (the m3 = 0 slab, ``coeffs[..., N]``) and the rest."""
    bar = np.zeros_like(f.coeffs)
    bar[..., f.N] = f.coeffs[..., f.N]
    return SpectralVelocity(bar, f.N), SpectralVelocity(f.coeffs - bar, f.N)


class TestSplitBarotropic:
    def test_z_independent_field(self):
        f = cos_cos_mode(4, 0, (0, 1), 0)
        bar, bcl = split_barotropic(f)
        np.testing.assert_array_equal(bar.coeffs, f.coeffs)
        assert np.abs(bcl.coeffs).max() == 0.0

    def test_pure_baroclinic(self):
        f = cos_cos_mode(4, 0, (1, 0), 2)
        bar, bcl = split_barotropic(f)
        assert np.abs(bar.coeffs).max() == 0.0
        np.testing.assert_array_equal(bcl.coeffs, f.coeffs)

    def test_parts_sum_and_match_grid_average(self, projected_field):
        f = projected_field(seed=5)
        bar, bcl = split_barotropic(f)
        np.testing.assert_allclose(bar.coeffs + bcl.coeffs, f.coeffs, atol=0)
        # physical-space oracle: average the sampled field over the z axis
        M = 2 * f.N + 4
        phys = spectral._to_grid(f.coeffs, f.N, M)
        zmean = phys.mean(axis=-1)[..., None] * np.ones(M)
        bar_phys = spectral._to_grid(bar.coeffs, bar.N, M)
        np.testing.assert_allclose(bar_phys, zmean, atol=1e-12 * np.abs(phys).max())


class TestLerayProjections:
    def test_gradient_field_annihilated(self):
        N = 4
        g = SpectralVelocity.zeros(N)
        # horizontal gradient of cos(2*pi*(x1+x2)): u_hat parallel to k'
        for s in (1, -1):
            g.coeffs[0, N + s, N + s, N] = 0.5 * s
            g.coeffs[1, N + s, N + s, N] = 0.5 * s
        out = spectral.hydrostatic_leray(g)
        assert np.abs(out.coeffs).max() <= 1e-15

    def test_divergence_free_unchanged(self):
        N = 4
        g = SpectralVelocity.zeros(N)
        for s in (1, -1):
            g.coeffs[0, N + s, N + s, N] = 0.5
            g.coeffs[1, N + s, N + s, N] = -0.5
        out = spectral.hydrostatic_leray(g)
        np.testing.assert_allclose(out.coeffs, g.coeffs, atol=1e-15)

    def test_random_slab_divergence_free_and_idempotent(self):
        N = 6
        rng = np.random.default_rng(9)
        g = SpectralVelocity.zeros(N)
        g.coeffs[:, :, :, N] = rng.standard_normal((2, 2 * N + 1, 2 * N + 1)) \
            + 1j * rng.standard_normal((2, 2 * N + 1, 2 * N + 1))
        out = spectral.hydrostatic_leray(g)
        m1, m2, _ = spectral.lattice(N)
        div = m1[:, :, N] * out.coeffs[0, :, :, N] + m2[:, :, N] * out.coeffs[1, :, :, N]
        assert np.abs(div).max() <= 1e-13 * np.abs(g.coeffs).max()
        again = spectral.hydrostatic_leray(out)
        np.testing.assert_allclose(again.coeffs, out.coeffs, atol=1e-14)

    def test_hydrostatic_identity_on_baroclinic(self):
        f = cos_cos_mode(6, 1, (2, 1), 3)
        out = spectral.hydrostatic_leray(f)
        np.testing.assert_allclose(out.coeffs, f.coeffs, atol=1e-15)

    def test_hydrostatic_kills_barotropic_gradient(self):
        N = 4
        g = SpectralVelocity.zeros(N)
        for s in (1, -1):
            g.coeffs[0, N + 2 * s, N, N] = 0.5 * 2 * s
        out = spectral.hydrostatic_leray(g)
        assert np.abs(out.coeffs).max() <= 1e-15

    def test_hydrostatic_contracts_and_idempotent(self):
        f = spectral.random_coefficients(8, 12)
        out = spectral.hydrostatic_leray(f)
        assert gevrey.norm(out, "L2", L2) <= gevrey.norm(f, "L2", L2) * (1 + 1e-14)
        again = spectral.hydrostatic_leray(out)
        np.testing.assert_allclose(again.coeffs, out.coeffs, atol=1e-14)


class TestVerticalVelocity:
    def test_closed_form_sine_mode(self):
        # (sin(2*pi*x1) cos(2*pi*z), 0) -> w = -cos(2*pi*x1) sin(2*pi*z)
        N = 4
        v = SpectralVelocity.zeros(N)
        for sv in (1, -1):
            v.coeffs[0, N + 1, N, N + sv] = 1 / 4j
            v.coeffs[0, N - 1, N, N + sv] = -1 / 4j
        w = spectral.vertical_velocity(v)
        expect = np.zeros_like(w.coeffs)
        for sh in (1, -1):
            expect[N + sh, N, N + 1] = -0.5 / 2j
            expect[N + sh, N, N - 1] = 0.5 / 2j
        np.testing.assert_allclose(w.coeffs, expect, atol=1e-15)
        assert w.parity == "odd"

    def test_z_independent_divergence_free_gives_zero(self):
        N = 4
        v = SpectralVelocity.zeros(N)
        for s in (1, -1):
            v.coeffs[0, N, N + s, N] = 0.5
        w = spectral.vertical_velocity(v)
        assert np.abs(w.coeffs).max() == 0.0

    def test_divergence_compatibility_and_parity(self, projected_field):
        v = projected_field(seed=8)
        w = spectral.vertical_velocity(v)
        m1, m2, m3 = spectral.lattice(v.N)
        resid = m3 * w.coeffs + (m1 * v.coeffs[0] + m2 * v.coeffs[1])
        assert np.abs(resid).max() <= 1e-13 * np.abs(v.coeffs).max()
        assert np.abs(w.coeffs + w.coeffs[:, :, ::-1]).max() \
            <= 1e-13 * max(np.abs(w.coeffs).max(), 1e-300)

    def test_rejects_unprojected_input(self):
        N = 4
        v = SpectralVelocity.zeros(N)
        v.coeffs[0, N + 1, N, N] = 1.0  # slab mode with divergence
        v.coeffs[0, N - 1, N, N] = 1.0
        with pytest.raises(ProjectionRequiredError):
            spectral.vertical_velocity(v)

    @pytest.mark.parametrize("N", [2, 3, 4, 8])
    def test_bitwise_masked_reference(self, N):
        # reference: boolean-mask division by m3, then the slab as minus the
        # sum of the other modes; equal bytes, signed zeros included
        m1, m2, m3 = spectral.lattice(N)
        for seed in range(3):
            v = spectral.project_constraints(spectral.random_coefficients(N, seed))
            s = m1 * v.coeffs[0] + m2 * v.coeffs[1]
            ref = np.zeros_like(s)
            nz = m3 != 0
            ref[nz] = -s[nz] / m3[nz]
            ref[:, :, N] = -np.sum(np.delete(ref, N, axis=2), axis=2)
            assert spectral.vertical_velocity(v).coeffs.tobytes() == ref.tobytes()


class TestTransportBilinear:
    def test_steady_shear_is_steady(self):
        N = 6
        v = SpectralVelocity.zeros(N)
        v.coeffs[0, N, N + 1, N] = 1 / 2j
        v.coeffs[0, N, N - 1, N] = -1 / 2j
        v = spectral.project_constraints(v)
        assert np.abs(v.coeffs).max() > 0.1  # shear survives projection
        q = spectral.transport_bilinear(v)
        assert np.abs(q.coeffs).max() <= 1e-15

    def test_hand_convolution_single_pair(self):
        # u = (cos(2*pi*x1)cos(2*pi*z), 0):
        # advection + vertical transport collapse to (-pi*sin(4*pi*x1), 0)
        N = 8
        u = cos_cos_mode(N, 0, (1, 0), 1)
        q = spectral.transport_bilinear(u)
        expect = np.zeros_like(q.coeffs)
        expect[0, N + 2, N, N] = np.pi * 0.5j
        expect[0, N - 2, N, N] = -np.pi * 0.5j
        np.testing.assert_allclose(q.coeffs, expect, atol=1e-13)

    def test_transport_cancellation(self, projected_field):
        for seed in range(5):
            v = projected_field(seed=seed)
            q = spectral.transport_bilinear(v)
            l2 = gevrey.norm(v, "L2", L2)
            assert abs(spectral.inner_product(q, v)) <= 1e-10 * l2 ** 3

    def test_parity_closure(self, projected_field):
        q = spectral.transport_bilinear(projected_field(seed=4)).coeffs
        assert np.abs(q - q[:, :, :, ::-1]).max() <= 1e-13 * np.abs(q).max()


class TestScalarProduct:
    def test_two_cosines(self):
        N = 4
        f = SpectralScalar.zeros(N)
        f.coeffs[N + 1, N, N] = 1.0
        f.coeffs[N - 1, N, N] = 1.0  # 2 cos(2 pi x1)
        fg = spectral.scalar_product(f, f)
        # (2 cos a)^2 = 2 + 2cos(2a): modes 0 and +-2 at the doubled truncation
        n2 = fg.N
        assert fg.N == 2 * N
        assert abs(fg.coeffs[n2, n2, n2] - 2.0) < 1e-13
        assert abs(fg.coeffs[n2 + 2, n2, n2] - 1.0) < 1e-13
        assert abs(fg.coeffs[n2 - 2, n2, n2] - 1.0) < 1e-13
        assert np.abs(fg.coeffs).sum() == pytest.approx(4.0, abs=1e-12)


def full_grid_samples(c, N, M):
    """Reference synthesis: the whole centered spectrum, complex ifftn on M^3."""
    p = np.arange(-N, N + 1) % M
    full = np.zeros(c.shape[:-3] + (M, M, M), dtype=complex)
    full[..., p[:, None, None], p[None, :, None], p[None, None, :]] = c
    return np.fft.ifftn(full, axes=(-3, -2, -1)) * M ** 3


def full_grid_coeffs(phys, N_out, M):
    """Reference analysis: complex fftn on M^3, modes with |m| <= N_out."""
    full = np.fft.fftn(phys, axes=(-3, -2, -1)) / M ** 3
    p = np.arange(-N_out, N_out + 1) % M
    return full[..., p[:, None, None], p[None, :, None], p[None, None, :]]


def half_spectrum_samples(c, N, M):
    """Reference synthesis on the real path: the ``m3 >= 0`` half scattered
    by fancy index into the full ``M x M x (M//2+1)`` box, then ``irfftn``."""
    p = np.arange(-N, N + 1) % M
    half = np.zeros(c.shape[:-3] + (M, M, M // 2 + 1), dtype=complex)
    half[..., p[:, None], p, : N + 1] = c[..., N:]
    return np.fft.irfftn(half, s=(M, M, M), axes=(-3, -2, -1), norm="forward")


def half_spectrum_coeffs(phys, N_out, M):
    """Reference analysis on the real path: full ``rfftn``, fancy-index
    gather of ``m3 >= 0``, conjugate symmetry for ``m3 < 0``."""
    p = np.arange(-N_out, N_out + 1) % M
    half = np.fft.rfftn(phys, axes=(-3, -2, -1), norm="forward")
    half = half[..., p[:, None], p, : N_out + 1]
    return np.concatenate([np.conj(half[..., ::-1, ::-1, :0:-1]), half], axis=-1)


def reference_transport(u):
    """u.grad u + w d_z u from complex samples on an alias-free 3N+1 grid."""
    N = u.N
    M = 3 * N + 1
    m = 2j * np.pi * np.arange(-N, N + 1)
    grads = [u.coeffs * m[:, None, None], u.coeffs * m[None, :, None],
             u.coeffs * m[None, None, :]]  # each (2, n, n, n)
    adv = full_grid_samples(np.concatenate(
        [u.coeffs, spectral.vertical_velocity(u).coeffs[None]]), N, M)
    dg = [full_grid_samples(g, N, M) for g in grads]
    q = sum(adv[j] * dg[j] for j in range(3))
    return full_grid_coeffs(q, N, M)


def rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestRealTransformOracle:
    """The kernel against full-grid complex transforms and the advective
    form ``u.grad' f + w d_z f``.  The kernel pads N=3 to M=10 (even: the
    Nyquist bin is present) and N=4 to M=15 (odd)."""

    TOL = 1e-13

    @pytest.mark.parametrize("N", [3, 4])
    def test_self_transport(self, projected_field, N):
        v = projected_field(N=N, seed=13)
        q = spectral.transport_bilinear(v).coeffs
        assert rel_diff(q, reference_transport(v)) <= self.TOL

    @pytest.mark.parametrize("N", [3, 4])
    def test_scalar_product(self, projected_field, N):
        v = projected_field(N=N, seed=14)
        f = SpectralScalar(v.coeffs[0], N)
        w = spectral.vertical_velocity(v)  # odd parity
        fw = spectral.scalar_product(f, w)
        M = 4 * N + 1
        expect = full_grid_coeffs(
            full_grid_samples(f.coeffs, N, M) * full_grid_samples(w.coeffs, N, M), 2 * N, M)
        assert fw.N == 2 * N and fw.parity == "odd"
        assert rel_diff(fw.coeffs, expect) <= self.TOL

    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_physical_samples(self, projected_field, N, extra):
        v = projected_field(N=N, seed=15)
        w = spectral.vertical_velocity(v)
        M = 2 * N + 1 + extra
        for field in (v, w):
            expect = full_grid_samples(field.coeffs, N, M)
            assert np.abs(expect.imag).max() <= 1e-14 * np.abs(expect).max()
            got = spectral._to_grid(field.coeffs, N, M)
            assert got.dtype == float and got.shape == expect.shape
            assert rel_diff(got, expect.real) <= self.TOL


class TestPrunedTransforms:
    """The pruned one-axis passes against full ``irfftn``/``rfftn`` with a
    fancy-index scatter and gather: the same 1-D lines in the same axis
    order, so the results are bitwise equal."""

    @pytest.mark.parametrize("N", [3, 4])
    def test_grid_round_trip(self, projected_field, N):
        v = projected_field(N=N, seed=16)
        stack = np.concatenate([v.coeffs, spectral.vertical_velocity(v).coeffs[None]])
        M = spectral.dealias_pad_size(N, N)
        assert M == {3: 10, 4: 15}[N]
        g = spectral._to_grid(stack, N, M)
        np.testing.assert_array_equal(g, half_spectrum_samples(stack, N, M))
        prods = np.stack([g[0] * g[1], g[1] * g[2]])
        np.testing.assert_array_equal(spectral._from_grid(prods, N, M),
                                      half_spectrum_coeffs(prods, N, M))

    @pytest.mark.parametrize("N", [3, 4])
    def test_scalar_product(self, projected_field, N):
        v = projected_field(N=N, seed=17)
        f = SpectralScalar(v.coeffs[1], N)
        w = spectral.vertical_velocity(v)
        M = spectral.dealias_pad_size(N, 2 * N)
        expect = half_spectrum_coeffs(
            half_spectrum_samples(f.coeffs, N, M) * half_spectrum_samples(w.coeffs, N, M),
            2 * N, M)
        np.testing.assert_array_equal(spectral.scalar_product(f, w).coeffs, expect)

    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_physical_samples(self, projected_field, N, extra):
        v = projected_field(N=N, seed=18)
        M = 2 * N + 1 + extra
        for field in (v, spectral.vertical_velocity(v)):
            np.testing.assert_array_equal(spectral._to_grid(field.coeffs, N, M),
                                          half_spectrum_samples(field.coeffs, N, M))

    @pytest.mark.parametrize("N", [3, 4])
    def test_transport_makes_six_fft_calls(self, projected_field, monkeypatch, N):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        spectral.transport_bilinear(projected_field(N=N, seed=19))
        assert len(calls) == 6
