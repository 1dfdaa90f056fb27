"""Exponent feasibility, inequality ratio probes, and empirical constants."""

import math

import numpy as np
import pytest
from dataclasses import replace

from hydrostat import analysis as an
from hydrostat import dynamics, initial_data, spectral
from hydrostat.analysis import ExponentPair
from hydrostat.spectral import SpectralScalar


class TestExponentFeasibility:
    def test_feasible_above_boundary(self):
        pair = an.feasible_exponents(1.9, 1.0)
        assert pair is not None
        assert pair.p == pytest.approx(1.25)
        assert 1.0 / pair.p + 1.0 / pair.q == pytest.approx(1.5)

    def test_boundary_excluded(self):
        assert an.feasible_exponents(1.6, 1.0) is None

    def test_fractional_s_arithmetic(self):
        # sigma*s = 1.71: at p = 5/4, q = 10/7 the two summability margins
        # are (10/3)*0.71 > 2 and 5*0.71 > 3
        pair = an.feasible_exponents(1.9, 0.9)
        assert pair is not None
        excess = 1.9 * 0.9 - 1.0
        assert (2 * pair.p / (2 - pair.p)) * excess > 2.0
        assert (2 * pair.q / (2 - pair.q)) * excess > 3.0

    def test_sigma_two_rejected(self):
        with pytest.raises(ValueError):
            an.feasible_exponents(2.0, 1.0)
        with pytest.raises(ValueError):
            an.exponent_grid_search(2.0, 1.0)

    def test_agrees_with_grid_search(self):
        for ss in np.arange(1.0, 2.0, 0.01):
            ss = float(round(ss, 10))
            constructive = an.feasible_exponents(ss, 1.0) is not None
            oracle = an.exponent_grid_search(ss, 1.0) is not None
            assert constructive == oracle, f"disagreement at sigma*s = {ss}"

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ExponentPair(p=2.5, q=1.1)
        with pytest.raises(ValueError):
            ExponentPair(p=1.3, q=1.3)


class TestProductInequalityRatio:
    def test_zero_field(self):
        f = SpectralScalar.zeros(4)
        g = an.decayed_random_scalar(4, 3.0, 1)
        assert an.product_inequality_ratio(f, g, 1.0, 0.0, 0.1) == 0.0

    def test_single_mode_hand_value(self):
        # f = g = 2cos(2*pi*x1): product = 2 + 2cos(4*pi*x1)
        N = 4
        f = SpectralScalar.zeros(N)
        f.coeffs[N + 1, N, N] = 1.0
        f.coeffs[N - 1, N, N] = 1.0
        r, eta = 1.0, 0.1
        got = an.product_inequality_ratio(f, f, r, 0.0, eta)
        k1 = 2.0 * np.pi
        lhs = math.sqrt(2.0) * (2.0 * k1) ** r  # modes +-(2,0,0), value 1 each
        nf_r = math.sqrt(2.0) * k1 ** r
        nf_high = math.sqrt(2.0) * k1 ** (1.5 + eta)
        expect = lhs / (2.0 * nf_r * nf_high)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_scale_invariance(self):
        f = an.decayed_random_scalar(6, 3.5, 2)
        g = an.decayed_random_scalar(6, 3.5, 3)
        base = an.product_inequality_ratio(f, g, 2.0, 0.05, 0.1)
        scaled = an.product_inequality_ratio(
            replace(f, coeffs=7.0 * f.coeffs),
            replace(g, coeffs=0.2 * g.coeffs), 2.0, 0.05, 0.1)
        assert scaled == pytest.approx(base, rel=1e-11)

    def test_stability_under_truncation_growth(self):
        # supports finiteness of the constant: doubling N moves the sampled
        # max by less than 2x
        def batch_max(N):
            vals = []
            for i in range(30):
                f = an.decayed_random_scalar(N, 3.5, np.random.SeedSequence(
                    entropy=55, spawn_key=(i,)))
                g = an.decayed_random_scalar(N, 3.5, np.random.SeedSequence(
                    entropy=56, spawn_key=(i,)))
                vals.append(an.product_inequality_ratio(f, g, 1.0, 0.0, 0.1))
            return max(vals)
        m8, m16 = batch_max(8), batch_max(16)
        assert 0.5 < m16 / m8 < 2.0


class TestNonlinearEstimateRatio:
    def test_zero_field(self):
        z = spectral.SpectralVelocity.zeros(4)
        assert an.nonlinear_estimate_ratio(z, 2.6, 0.0) == 0.0

    def test_steady_shear_gives_zero(self):
        N = 6
        v = spectral.SpectralVelocity.zeros(N)
        v.coeffs[0, N, N + 1, N] = 1 / 2j
        v.coeffs[0, N, N - 1, N] = -1 / 2j
        v = spectral.project_constraints(v)
        assert an.nonlinear_estimate_ratio(v, 2.6, 0.0) <= 1e-14

    def test_requires_sigma_above_two(self, projected_field):
        with pytest.raises(ValueError):
            an.nonlinear_estimate_ratio(projected_field(), 1.8, 0.0)

    def test_nonfinite_right_side_rejected(self):
        # a NaN right side read as ratio 0.0, so that a non-finite probe
        # dropped out of the sampled maximum
        u = initial_data.random_decay(4, 2.6, 1.0, seed=1)
        u.coeffs[0, 5, 4, 5] = np.nan
        with pytest.raises(ValueError, match="^pairing ratio needs a finite right side, got nan$"):
            an.nonlinear_estimate_ratio(u, 2.6, 0.0)

    def test_scale_invariance(self, projected_field):
        u = projected_field(seed=4, decay=4.6)
        base = an.nonlinear_estimate_ratio(u, 2.6, 0.05)
        scaled = an.nonlinear_estimate_ratio(11.0 * u, 2.6, 0.05)
        assert scaled == pytest.approx(base, rel=1e-10)


class TestEstimators:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            an.estimate_c_sigma(2.6, N=8, n_samples=0, seed=0)

    def test_max_monotone_in_samples(self):
        a = an.estimate_c_sigma(2.6, N=6, n_samples=10, seed=4)
        b = an.estimate_c_sigma(2.6, N=6, n_samples=20, seed=4)
        assert b.value >= a.value

    def test_deterministic(self):
        a = an.estimate_c_star(1.9, 1.0, N=6, n_samples=10, seed=4)
        b = an.estimate_c_star(1.9, 1.0, N=6, n_samples=10, seed=4)
        assert a == b

    def test_c_star_cli_estimate_value(self):
        # the value `c_star = estimate` resolves to in the CLI
        est = an.estimate_c_star(1.9, 1.0, N=8, n_samples=64, seed=2026)
        assert est.value == pytest.approx(5.7518363639843796e-05, rel=1e-12)

    def test_c_sigma_cli_estimate_value(self):
        # the value `c_sigma = estimate` resolves to in the CLI; numpy's
        # AVX2 kernels round its last bits differently from its AVX-512 ones
        est = an.estimate_c_sigma(2.6, N=8, n_samples=64, seed=2026)
        assert est.value == pytest.approx(float.fromhex("0x1.f88318974e29fp-12"), rel=1e-12)

    def test_c_sigma_one_transport_per_sample(self, transport_calls):
        # Q(u, u) does not depend on the radius: one transport per sample,
        # and the value is bitwise the per-radius maximum of the public ratio
        k = 5
        est = an.estimate_c_sigma(2.6, N=6, n_samples=k, seed=4)
        assert len(transport_calls) == k
        expect = max(
            an.nonlinear_estimate_ratio(u, 2.6, phi) for i in range(k)
            for u in [initial_data.random_decay(
                6, 2.6, 1.0, seed=np.random.SeedSequence(entropy=4, spawn_key=(i,)))]
            for phi in an.PHIS)
        assert est.value == expect

    def test_c_star_one_transport_per_exponent(self, monkeypatch):
        # the frozen exponents nu*W = fraction * phi take the distinct values
        # 0 and 0.05: two twisted transports per sample, whatever the radius
        calls = []
        transport = dynamics.twisted_transport

        def counted(u, nu, w, s):
            calls.append(w)
            return transport(u, nu, w, s)

        monkeypatch.setattr(dynamics, "twisted_transport", counted)
        k = 3
        an.estimate_c_star(1.9, 0.9, N=4, n_samples=k, seed=4)
        assert sorted(calls) == [0.0] * k + [0.05] * k

    def test_estimates_do_not_depend_on_cpu_count(self, set_cpus):
        estimates = []
        for cpus in (1, 2):
            set_cpus(cpus)
            estimates.append((an.estimate_c_sigma(2.6, N=6, n_samples=9, seed=4),
                              an.estimate_c_star(1.9, 1.0, N=6, n_samples=9, seed=4)))
        assert estimates[0] == estimates[1]

    def test_truncation_stability(self, c_sigma_est):
        small = an.estimate_c_sigma(2.6, N=6, n_samples=50, seed=2026)
        assert 0.25 < c_sigma_est.value / small.value < 4.0

    def test_p95_below_max(self, c_sigma_est):
        assert c_sigma_est.p95 <= c_sigma_est.value


class TestTwistedCancellation:
    def test_zero_noise_matches_transport_cancellation(self, projected_field):
        u = projected_field(seed=5)
        assert an.twisted_cancellation_residual(u, 1.0, 0.0, 1.0) <= 1e-10

    def test_scalar_noise_factors_out(self, projected_field):
        u = projected_field(seed=6)
        base = an.twisted_cancellation_residual(u, 1.0, 0.0, 0.0)
        shifted = an.twisted_cancellation_residual(u, 1.0, 2.0, 0.0)
        assert shifted <= math.exp(2.0) * max(base, 1e-16) * 10 + 1e-10

    def test_diffusion_twist_reported(self, projected_field):
        u = projected_field(seed=7, decay=4.0)
        val = an.twisted_cancellation_residual(u, 1.0, 0.1, 1.0)
        assert math.isfinite(val) and val >= 0.0

    def test_zero_field(self):
        z = spectral.SpectralVelocity.zeros(4)
        assert an.twisted_cancellation_residual(z, 1.0, 0.5, 1.0) == 0.0
