"""Steppers, radius schedules, run statuses, and back-transforms."""

import math
import multiprocessing
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hydrostat import dynamics as dy
from hydrostat import checks, gevrey, initial_data, spectral, stochastic
from hydrostat.dynamics import RadiusSchedule, RadiusViolationError, SimConfig
from hydrostat.gevrey import GevreyParams
from hydrostat.spectral import SpectralVelocity
from hydrostat.stochastic import BrownianPath, GoodSetParams

from conftest import check_invariants


def small_two_mode(N, amplitude=0.05):
    return initial_data.two_mode(N, amplitude=amplitude, mode_a=(1, 0, 1),
                                 component_a=0, ratio=1.0, mode_b=(0, 1, 1),
                                 component_b=1)


def diffusion_cfg(N=8, nu=2.0, dt=1e-3, T=0.05, alpha=0.3, beta=0.1, **kw):
    return SimConfig(noise="diffusion", nu=nu, s=1.0, sigma=1.9,
                     radius=RadiusSchedule.linear(alpha, beta), n_modes=N,
                     dt=dt, horizon=T, **kw)


def damping_cfg(N=8, nu=3.0, dt=1e-3, T=0.05, phi=0.5, **kw):
    return SimConfig(noise="damping", nu=nu, s=0.0, sigma=2.6,
                     radius=RadiusSchedule.constant(phi), n_modes=N,
                     dt=dt, horizon=T, **kw)


class TestRadiusSchedule:
    def test_linear_example(self):
        assert RadiusSchedule.linear(1.0, 2.0).value(3.0) == pytest.approx(7.0)

    def test_damping_initial_value(self):
        sched = RadiusSchedule.damping(phi0=0.8, alpha=1.0, beta=1.0, nu=3.0,
                                       c_sigma=0.5, v0_norm=0.1)
        assert sched.value(0.0) == pytest.approx(0.8)

    def test_damping_long_time_limit(self):
        phi0, alpha, beta, nu, c_sig, v0n = 0.8, 1.0, 1.0, 3.0, 0.5, 0.1
        sched = RadiusSchedule.damping(phi0, alpha, beta, nu, c_sig, v0n)
        expect = phi0 - (4 * c_sig / (nu ** 2 - 2 * beta)) * (math.exp(alpha) * v0n + 1)
        assert sched.value(1e9) == pytest.approx(expect)
        assert sched.limit() == pytest.approx(expect)

    def test_linear_limit_by_sign_of_beta(self):
        assert RadiusSchedule.linear(1.0, 0.5).limit() == math.inf
        assert RadiusSchedule.linear(1.0, 0.0).limit() == 1.0
        decreasing = RadiusSchedule.linear(1.0, -0.5)
        assert decreasing.value(10.0) == pytest.approx(-4.0)
        assert decreasing.limit() == -math.inf

    # phi0 = 1, beta = 1, alpha = 0, |V0| = 0.5, c_sigma = 1: the limit
    # 1 - 4*1.5/(nu^2 - 2), which the globality experiment needs >= 0, on
    # either side of nu^2 = 8
    @pytest.mark.parametrize("nu2,limit", [(10.0, 0.25), (6.0, -0.5)],
                             ids=["nonnegative", "negative"])
    def test_damping_limit_sign(self, nu2, limit):
        sched = RadiusSchedule.damping(1.0, 0.0, 1.0, math.sqrt(nu2), 1.0, 0.5)
        assert sched.limit() == pytest.approx(limit)

    def test_damping_needs_beta_below_half_nu_squared(self):
        with pytest.raises(ValueError, match=r"needs beta < nu\^2/2"):
            RadiusSchedule.damping(1.0, 0.0, 0.6, 1.0, 1.0, 0.1)

    def test_monotone_decreasing(self):
        sched = RadiusSchedule.damping(1.0, 0.5, 1.0, 2.5, 0.3, 0.2)
        ts = np.linspace(0, 5, 50)
        vals = [sched.value(t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_eta_offset(self):
        sched = RadiusSchedule.linear(1.0, 2.0, eta=0.25)
        assert sched.value(0.0) == pytest.approx(1.25)
        assert sched.value(0.0) - sched.eta == pytest.approx(1.0)


class TestSimConfigValidation:
    def test_diffusion_exponent_ranges(self):
        with pytest.raises(ValueError, match="s in"):
            SimConfig(noise="diffusion", nu=1.0, s=0.7, sigma=1.9,
                      radius=RadiusSchedule.linear(1.0, 0.1), n_modes=4,
                      dt=1e-3, horizon=1.0)
        with pytest.raises(ValueError, match="sigma in"):
            SimConfig(noise="diffusion", nu=1.0, s=1.0, sigma=1.5,
                      radius=RadiusSchedule.linear(1.0, 0.1), n_modes=4,
                      dt=1e-3, horizon=1.0)

    def test_damping_requires_s_zero_and_sigma(self):
        with pytest.raises(ValueError, match="s = 0"):
            SimConfig(noise="damping", nu=1.0, s=0.5, sigma=2.6,
                      radius=RadiusSchedule.constant(1.0), n_modes=4,
                      dt=1e-3, horizon=1.0)
        with pytest.raises(ValueError, match="sigma > 5/2"):
            SimConfig(noise="damping", nu=1.0, s=0.0, sigma=2.0,
                      radius=RadiusSchedule.constant(1.0), n_modes=4,
                      dt=1e-3, horizon=1.0)

    def test_none_requires_zero_nu(self):
        with pytest.raises(ValueError, match="nu = 0"):
            SimConfig(noise="none", nu=0.5, s=0.0, sigma=2.6,
                      radius=RadiusSchedule.constant(1.0), n_modes=4,
                      dt=1e-3, horizon=1.0)

    @pytest.mark.parametrize("s", [0.5, math.nan])
    def test_none_requires_s_zero(self, s):
        with pytest.raises(ValueError, match=f"noise 'none' requires s = 0, got {s}"):
            SimConfig(noise="none", nu=0.0, s=s, sigma=2.6,
                      radius=RadiusSchedule.constant(1.0), n_modes=4,
                      dt=1e-3, horizon=1.0)

    @pytest.mark.parametrize("dt,horizon", [(math.nan, 1.0), (math.inf, 1.0),
                                            (1e-3, math.nan), (1e-3, math.inf)])
    def test_non_finite_step_or_horizon(self, dt, horizon):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                      radius=RadiusSchedule.constant(1.0), n_modes=4,
                      dt=dt, horizon=horizon)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["nu", "sigma", "blowup_factor"])
    @pytest.mark.parametrize("make_cfg", [diffusion_cfg, damping_cfg],
                             ids=["diffusion", "damping"])
    def test_non_finite_model_parameter(self, make_cfg, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            replace(make_cfg(), **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta", "phi0", "nu", "c_sigma",
                                       "v0_norm", "eta"])
    def test_non_finite_radius_parameter(self, field, value):
        base = dict(phi0=0.8, alpha=1.0, beta=1.0, nu=3.0, c_sigma=0.5, v0_norm=0.1)
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            RadiusSchedule.damping(**{**base, field: value})


class TestSteppers:
    def test_zero_state_stays_zero(self):
        cfg = diffusion_cfg(N=4)
        path = stochastic.sample_path(cfg.horizon, cfg.dt, 0)
        out = dy.step_diffusion(SpectralVelocity.zeros(4), 0.0, cfg.dt, path, cfg)
        assert np.abs(out.coeffs).max() == 0.0
        out = dy.step_damping(SpectralVelocity.zeros(4), cfg.dt)
        assert np.abs(out.coeffs).max() == 0.0

    def test_linear_exactness_diffusion(self, no_transport):
        N = 6
        u0 = small_two_mode(N)
        cfg = diffusion_cfg(N=N)
        path = stochastic.sample_path(cfg.horizon, cfg.dt, 1)
        u = u0
        for k in range(20):
            u = dy.step_diffusion(u, k * cfg.dt, cfg.dt, path, cfg)
        kk = spectral.abs_k(N)
        expect = u0.coeffs * np.exp(-0.5 * cfg.nu ** 2 * 20 * cfg.dt * kk ** 2)
        np.testing.assert_allclose(u.coeffs, expect, rtol=0,
                                   atol=1e-13 * np.abs(expect).max())

    def test_linear_exactness_damping(self, no_transport, run_states):
        # a damping run applies exp(-nu^2 t/2) to the clocked nu = 0 solve
        N = 6
        u0 = small_two_mode(N)
        cfg = damping_cfg(N=N, T=0.02)
        path = dy._zero_path(cfg.horizon, cfg.dt)
        states = run_states(u0, cfg, path)
        assert sorted(states) == list(range(1, 21))
        for k, u in states.items():
            expect = u0.coeffs * math.exp(-0.5 * cfg.nu ** 2 * path.times[k])
            np.testing.assert_allclose(u.coeffs, expect, rtol=1e-13)

    def test_richardson_self_convergence(self):
        # one-step local error of the four-stage scheme: halving the step
        # shrinks the full-vs-two-half-steps gap by ~2^5 away from stiffness
        N = 6
        u0 = spectral.project_constraints(
            spectral.random_coefficients(N, 5, decay=4.0, amplitude=0.5))
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            full = dy.step_damping(u0, h)
            half = dy.step_damping(dy.step_damping(u0, h / 2), h / 2)
            errs.append(np.abs(full.coeffs - half.coeffs).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 3.5), f"observed orders {orders}"

    def test_structural_preservation(self):
        N = 6
        u = spectral.project_constraints(
            spectral.random_coefficients(N, 3, decay=4.0, amplitude=0.3))
        cfg = diffusion_cfg(N=N, nu=1.0)
        path = stochastic.sample_path(cfg.horizon, cfg.dt, 2)
        for k in range(5):
            u = dy.step_diffusion(u, k * cfg.dt, cfg.dt, path, cfg)
        check_invariants(u)


class TestTwistedTransport:
    @pytest.mark.parametrize("w, s", [(0.1, 1.0), (0.7, 0.0)])
    def test_output_slab_divergence_free(self, projected_field, w, s):
        # the unprojected transport of this field has O(1) slab divergence
        check_invariants(dy.twisted_transport(projected_field(N=6, seed=7), 2.0, w, s))

    @pytest.mark.parametrize("w", [0.7, -1.3])
    def test_scalar_noise_is_a_factor(self, projected_field, w):
        # at s = 0 the conjugation multipliers are the scalars exp(-+nu*w)
        u = projected_field(N=6, seed=7)
        expect = math.exp(2.0 * w) * spectral.hydrostatic_leray(spectral.transport_bilinear(u))
        got = dy.twisted_transport(u, 2.0, w, 0.0)
        assert relative_error(got, expect) <= 1e-13


class TestRecoverSolution:
    def test_zero_noise_identity(self, projected_field):
        u = projected_field(seed=1)
        cfg = diffusion_cfg()
        v = dy.recover_solution(u, 0.0, cfg, t=0.0)
        np.testing.assert_array_equal(v.coeffs, u.coeffs)

    def test_damping_scalar(self, projected_field):
        u = projected_field(seed=2)
        cfg = damping_cfg(nu=1.0)
        v = dy.recover_solution(u, math.log(3.0), cfg)
        np.testing.assert_allclose(v.coeffs, 3.0 * u.coeffs, rtol=1e-14)

    def test_radius_violation_raises(self, projected_field):
        cfg = diffusion_cfg(alpha=0.3, beta=0.1)
        with pytest.raises(RadiusViolationError):
            dy.recover_solution(projected_field(), 0.2, cfg, t=0.0)  # nu*W = 0.4 > 0.3

    def test_back_transform_norm_inequality(self):
        # |V|_{G_eta} <= sqrt(2) |U|_{G_{phi+eta}} while nu*W <= phi
        N = 8
        u = initial_data.random_analytic(N, radius=0.5, seed=4)
        eta, w = 0.1, 0.25  # nu*W = 0.25 <= phi(0) = 0.3
        cfg2 = SimConfig(noise="diffusion", nu=1.0, s=1.0, sigma=1.9,
                         radius=RadiusSchedule.linear(0.3, 0.1, eta=eta),
                         n_modes=N, dt=1e-3, horizon=0.05)
        v = dy.recover_solution(u, w, cfg2, t=0.0)
        left = gevrey.norm(v, "Gevrey", GevreyParams(1.9, 1.0, eta))
        right = gevrey.norm(u, "Gevrey_dot", GevreyParams(1.9, 1.0, 0.3 + eta))
        assert left <= math.sqrt(2.0) * right * (1 + 1e-12)


class TestRun:
    def test_zero_data_completes(self):
        cfg = damping_cfg(N=4, T=0.02)
        rec = dy.run(SpectralVelocity.zeros(4), cfg)
        assert rec.status == "completed"
        assert np.all(rec.gevrey_norm_u == 0.0)

    def test_conservation_baseline(self):
        N = 6
        cfg = SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                        radius=RadiusSchedule.constant(0.3), n_modes=N,
                        dt=1e-3, horizon=0.2)
        rec = dy.run(small_two_mode(N), cfg)
        assert rec.status == "completed"
        drift = abs(rec.l2_norm_u[-1] - rec.l2_norm_u[0]) / rec.l2_norm_u[0]
        assert drift <= 1e-8

    def test_goodset_exit_on_crafted_path(self):
        N = 4
        dt = 0.01
        times = dt * np.arange(11)
        values = np.linspace(0.0, 2.0, 11)  # nu*W passes alpha quickly
        path = BrownianPath(times=times, values=values, seed=None, dt=dt)
        cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.5, 0.05), n_modes=N,
                        dt=dt, horizon=0.1)
        rec = dy.run(small_two_mode(N, amplitude=1e-3), cfg, path)
        assert rec.status == "goodset_exit"
        # exit at first grid point with nu*W > alpha + beta*t
        margin = 2.0 * values - (0.5 + 0.05 * times)
        expect_t = times[np.nonzero(margin > 0)[0][0]]
        assert rec.t_final == pytest.approx(expect_t)
        assert rec.summary()["goodset"] is False

    @pytest.mark.parametrize("noise, values, goodset", [
        # damping records the crossing and runs on: exp(nu*W) stays finite
        ("damping", np.linspace(0.0, 2.0, 11), False),
        # a crossing at the last grid point leaves no step to stop
        ("diffusion", np.append(np.zeros(10), 1.0), False),
        # the deterministic baseline has no barrier
        ("none", np.linspace(0.0, 2.0, 11), True),
    ], ids=["damping-crosses", "diffusion-crosses-at-end", "none"])
    def test_goodset_verdict_on_crafted_path(self, noise, values, goodset):
        # barrier 0.5 + 0.05*t; nu = 2 (0 for the baseline)
        N, dt = 4, 0.01
        times = dt * np.arange(11)
        path = BrownianPath(times=times, values=values, seed=None, dt=dt)
        s, sigma, nu = {"damping": (0.0, 2.6, 2.0), "diffusion": (1.0, 1.9, 2.0),
                        "none": (0.0, 2.6, 0.0)}[noise]
        cfg = SimConfig(noise=noise, nu=nu, s=s, sigma=sigma,
                        radius=RadiusSchedule.linear(0.5, 0.05), n_modes=N,
                        dt=dt, horizon=0.1)
        rec = dy.run(small_two_mode(N, amplitude=1e-3), cfg, path)
        assert rec.status == "completed"
        assert rec.t_final == pytest.approx(0.1)
        assert rec.summary()["goodset"] is goodset

    def test_damping_exits_at_exponent_cap(self):
        # the scalar (s = 0) twisted transport checks the cap up front:
        # from t = 0.02 on, nu*W = 3*300 exceeds the cap, where math.exp
        # alone would raise an uncaught OverflowError
        N, dt = 4, 0.01
        times = dt * np.arange(11)
        values = np.full(11, 300.0)
        values[:2] = 0.0
        assert 3.0 * 300.0 > gevrey.EXPONENT_CAP
        path = BrownianPath(times=times, values=values, seed=None, dt=dt)
        cfg = SimConfig(noise="damping", nu=3.0, s=0.0, sigma=2.6,
                        radius=RadiusSchedule.constant(0.01), n_modes=N,
                        dt=dt, horizon=0.1)
        rec = dy.run(small_two_mode(N, amplitude=1e-6), cfg, path)
        assert rec.status == "exponent_cap"
        assert rec.t_final == 0.02

    def test_diffusion_exits_at_exponent_cap_inside_good_set(self):
        # W = -9 from t = 0.01 keeps nu*W far under the barrier, but
        # nu*|W|*|k|_max = 2*9*43.5 exceeds the cap: the stop is the cap's,
        # and the good-set verdict still reads the barrier
        N, dt = 4, 0.01
        times = dt * np.arange(11)
        values = np.full(11, -9.0)
        values[0] = 0.0
        assert 2.0 * 9.0 * gevrey.max_abs_k(N) > gevrey.EXPONENT_CAP
        path = BrownianPath(times=times, values=values, seed=None, dt=dt)
        cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.5, 0.05), n_modes=N,
                        dt=dt, horizon=0.1)
        rec = dy.run(small_two_mode(N, amplitude=1e-3), cfg, path)
        assert rec.status == "exponent_cap"
        assert rec.t_final == 0.01
        assert rec.summary()["goodset"] is True

    def test_truncation_mismatch_rejected(self):
        cfg = damping_cfg(N=4, T=0.02)
        with pytest.raises(spectral.TruncationMismatchError):
            dy.run(small_two_mode(6), cfg)

    def test_blowup_status(self):
        N = 6
        v0 = initial_data.two_mode(N, amplitude=3.0, mode_a=(0, 0, 1),
                                   component_a=0, ratio=0.5, mode_b=(1, 0, 1),
                                   component_b=0)
        cfg = SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                        radius=RadiusSchedule.constant(0.5), n_modes=N,
                        dt=2e-3, horizon=2.0, blowup_factor=50.0)
        rec = dy.run(v0, cfg)
        assert rec.status == "blowup"
        assert rec.t_final < 2.0
        assert rec.max_gevrey_norm > 50.0 * rec.gevrey_norm_u[0]

    def test_radius_exhausted(self):
        N = 4
        sched = RadiusSchedule.damping(phi0=0.2, alpha=1.0, beta=1.0, nu=2.0,
                                       c_sigma=1.0, v0_norm=1.0)
        assert sched.limit() < 0.0
        cfg = SimConfig(noise="damping", nu=2.0, s=0.0, sigma=2.6,
                        radius=sched, n_modes=N, dt=5e-3, horizon=5.0)
        rec = dy.run(small_two_mode(N, amplitude=1e-4), cfg,
                     dy._zero_path(5.0, 5e-3))
        assert rec.status == "radius_exhausted"

    def test_record_grid(self):
        cfg = damping_cfg(N=4, T=0.05, dt=1e-3)
        rec = dy.run(small_two_mode(4, amplitude=1e-3), cfg,
                     dy._zero_path(0.05, 1e-3))
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(0.05)
        assert np.all(np.diff(rec.times) > 0)
        assert len(rec.times) == len(rec.gevrey_norm_u) == len(rec.gevrey_norm_v)


class TestDampingGronwallStep:
    def test_compensated_norm_decreases_per_step(self, c_sigma_est):
        # on a good-set path with the thresholds satisfied, each step keeps
        # exp(nu^2 t / 2)|U|_{G_phi(t)} within the per-step tolerance band
        N = 4
        nu2, alpha, phi0 = 40.0, 1.0, 1.0
        nu, beta = math.sqrt(nu2), nu2 / 4.0
        u0 = initial_data.normalize_to(small_two_mode(N), 0.05,
                                       GevreyParams(2.6, 1.0, phi0))
        sched = RadiusSchedule.damping(phi0, alpha, beta, nu,
                                       c_sigma_est.value, 0.05)
        cfg = SimConfig(noise="damping", nu=nu, s=0.0, sigma=2.6,
                        radius=sched, n_modes=N, dt=2e-3, horizon=0.2)
        goodset = GoodSetParams(alpha, beta, nu)
        for i in range(40):
            path = stochastic.sample_path(0.2, 2e-3, stochastic.path_seed(21, i))
            if stochastic.good_set_indicator(path, goodset)[0]:
                break
        rec = dy.run(u0, cfg, path)
        assert rec.status == "completed"
        y = np.exp(0.5 * nu2 * rec.times) * rec.gevrey_norm_u
        band = 10.0 * cfg.dt * y[0]
        assert np.all(np.diff(y) <= band), np.diff(y).max()


class TestDiffusionMonotonicity:
    def test_norm_non_increasing_for_dominant_dissipation(self, c_star_est):
        # smallness condition measured with the empirical constant: with
        # c*|U0| << nu^2 - 2*beta the tracked norm must decrease
        N = 6
        u0 = initial_data.random_analytic(N, radius=0.5, seed=6)
        p = GevreyParams(1.9, 1.0, 0.3)
        u0 = initial_data.normalize_to(u0, 0.01, p)
        assert c_star_est.value * 0.01 < 2.0 ** 2 - 2 * 0.1
        cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.3, 0.1), n_modes=N,
                        dt=1e-3, horizon=0.05)
        rec = dy.run(u0, cfg, dy._zero_path(0.05, 1e-3))
        assert rec.status == "completed"
        assert np.all(np.diff(rec.gevrey_norm_u) <= 1e-9 * rec.gevrey_norm_u[0])


class MemberFailure(RuntimeError):
    """A member's error; at module level, so a pool worker can send it back."""


class TestEnsembleAndGlobal:
    def test_ensemble_deterministic_and_ordered(self):
        N = 4
        cfg = damping_cfg(N=N, nu=1.0, T=0.02, dt=2e-3, seed=5)
        u0 = small_two_mode(N, amplitude=1e-3)
        recs1 = dy.run_ensemble(u0, cfg, 4)
        recs2 = dy.run_ensemble(u0, cfg, 4)
        for a, b in zip(recs1, recs2):
            np.testing.assert_array_equal(a.gevrey_norm_u, b.gevrey_norm_u)

    @pytest.mark.parametrize("noise", ["diffusion", "damping"])
    def test_member_layout_contract(self, noise):
        # member i is run() on the path of substream (seed, i), bitwise,
        # and a smaller ensemble is a prefix of a larger one
        N, seed = 4, 9
        cfg = (diffusion_cfg(N=N, T=0.02, dt=2e-3) if noise == "diffusion"
               else damping_cfg(N=N, nu=1.0, T=0.02, dt=2e-3))
        u0 = small_two_mode(N, amplitude=1e-3)
        four = dy.run_ensemble(u0, replace(cfg, seed=seed), 4)
        two = dy.run_ensemble(u0, replace(cfg, seed=seed), 2)
        alone = [dy.run(u0, cfg, stochastic.sample_path(
            cfg.horizon, cfg.dt, stochastic.path_seed(seed, i))) for i in range(4)]
        assert not np.array_equal(four[0].w_values, four[1].w_values)
        for a, b in zip(four + two, alone + alone[:2]):
            for field in ("times", "w_values", "phi", "gevrey_norm_u",
                          "l2_norm_u", "gevrey_norm_v"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            assert {**a.summary(), "name": ""} == b.summary()

    def test_member_error_reaches_caller_and_no_worker_remains(self, monkeypatch):
        # patched before the pool forks, so workers run the patched member;
        # the error keeps its type and message, and no worker outlives the
        # call, after a normal ensemble or a failed one
        N = 4
        cfg = diffusion_cfg(N=N, T=0.02, dt=2e-3)
        u0 = small_two_mode(N, amplitude=1e-3)
        assert len(dy.run_ensemble(u0, cfg, 4)) == 4
        assert multiprocessing.active_children() == []
        real = dy.run

        def failing(u0_, cfg_, path, name=""):
            if name == "path3":
                raise MemberFailure("member 3 failed")
            return real(u0_, cfg_, path, name=name)

        monkeypatch.setattr(dy, "run", failing)
        with pytest.raises(MemberFailure, match="^member 3 failed$"):
            dy.run_ensemble(u0, cfg, 6)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("noise", ["diffusion", "damping"])
    @pytest.mark.parametrize("n_paths", [0, -1, -2])
    def test_path_count_below_one_rejected(self, noise, n_paths):
        # these divided by zero, reported -0.0 of an empty ensemble or
        # returned no records
        N = 4
        cfg = (diffusion_cfg(N=N, nu=0.1, T=0.02, dt=2e-3) if noise == "diffusion"
               else damping_cfg(N=N, nu=1.0, T=0.02, dt=2e-3))
        u0 = small_two_mode(N, amplitude=1e-3)
        message = f"^need at least one path, got n_paths = {n_paths}$"
        with pytest.raises(ValueError, match=message):
            dy.run_ensemble(u0, cfg, n_paths)
        with pytest.raises(ValueError, match=message):
            dy.run_global_experiment(u0, 0.5, cfg, n_paths, c_star=1.0, c_sigma=1.0)

    def test_none_ensemble_refused(self, monkeypatch):
        # its members are one deterministic run; this forked n_paths copies
        # of it, and it is refused before any member runs
        N = 4
        cfg = SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                        radius=RadiusSchedule.constant(0.3), n_modes=N,
                        dt=2e-3, horizon=0.02)
        monkeypatch.setattr(dy, "run", None)
        with pytest.raises(ValueError, match="one deterministic run; use run$"):
            dy.run_ensemble(small_two_mode(N, amplitude=1e-3), cfg, 3)

    def test_global_experiment_threshold_error(self):
        N = 4
        cfg = diffusion_cfg(N=N, nu=0.01, T=0.02, dt=2e-3)
        u0 = initial_data.normalize_to(small_two_mode(N),
                                       1.0, GevreyParams(1.9, 1.0, 2.8))
        with pytest.raises(dy.ThresholdError):
            dy.run_global_experiment(u0, 0.5, cfg, 4, c_star=10.0)

    def test_global_experiment_sets_theorem_parameters(self, c_star_est):
        N = 4
        eps = 0.5
        cfg = diffusion_cfg(N=N, nu=0.1, T=0.02, dt=2e-3, seed=11)
        u0 = initial_data.single_mode(N, amplitude=1.0)
        u0 = initial_data.normalize_to(
            u0, 0.5, GevreyParams(1.9, 1.0, -4 * math.log(eps) * 1.1))
        res = dy.run_global_experiment(u0, eps, cfg, 6, c_star=c_star_est.value)
        assert res.alpha == pytest.approx(-4 * math.log(eps))
        assert res.beta == pytest.approx(cfg.nu ** 2 / 4)
        assert res.target == pytest.approx(0.5)
        assert 0.0 <= res.completed_fraction <= 1.0
        assert res.n_completed_goodset == sum(
            r.status == "completed" and r.goodset for r in res.records)


RECORD_FIELDS = ("times", "w_values", "phi", "gevrey_norm_u", "l2_norm_u",
                 "gevrey_norm_v")


def nonlinear_two_mode(N):
    # (1,0,1) + (1,0,2) on u_1: the transport moves this datum by a large
    # fraction of its size over the clock range of the runs below
    return initial_data.two_mode(N, amplitude=1.5, mode_a=(1, 0, 1),
                                 component_a=0, ratio=0.5, mode_b=(1, 0, 2),
                                 component_b=0)


def frozen_w_rk4(u0, path, nu, m):
    """States at the grid times of u' = -nu^2/2 u - exp(nu*W_k) P Q(u, u),
    W held at W_k over step k, by explicit RK4 at m substeps per step with
    a projection after each substep."""
    def rhs(u, scale):
        pq = spectral.hydrostatic_leray(spectral.transport_bilinear(u))
        return (-0.5 * nu ** 2) * u - scale * pq

    u, states = u0, [u0]
    for k in range(len(path.times) - 1):
        scale = math.exp(nu * path.values[k])
        h = (path.times[k + 1] - path.times[k]) / m
        for _ in range(m):
            a = rhs(u, scale)
            b = rhs(u + (0.5 * h) * a, scale)
            c = rhs(u + (0.5 * h) * b, scale)
            d = rhs(u + h * c, scale)
            u = spectral.project_constraints(u + (h / 6.0) * (a + 2.0 * (b + c) + d))
        states.append(u)
    return states


def relative_error(u, ref):
    return float(np.linalg.norm((u - ref).coeffs) / np.linalg.norm(ref.coeffs))


def criterion_08_damping(c_sigma):
    """The base-nu damping ensemble of acceptance criterion 08, on 8 paths
    of seed 1."""
    u0, cfg = checks.globality_ensemble("damping", 0.5)
    return dy.run_global_experiment(u0, 0.5, replace(cfg, seed=1), 8, c_sigma=c_sigma)


class TestClockedDamping:
    N, NU, T, DT = 4, 1.15, 0.4, 1e-2

    def cfg(self, **kw):
        return damping_cfg(N=self.N, nu=self.NU, T=self.T, dt=self.DT, **kw)

    def paths(self, seed, n):
        return [stochastic.sample_path(self.T, self.DT, stochastic.path_seed(seed, i))
                for i in range(n)]

    def test_accuracy_against_substepped_oracle(self, monkeypatch, run_states):
        # reference: the frozen-W equation the clock solves exactly, stepped
        # per path for u itself, not on the clock, by explicit RK4 at 16
        # substeps per step; the error of run()'s states follows the
        # tolerance of its clocked solve
        cfg, nu = self.cfg(), self.NU
        paths = self.paths(77, 4)
        datum = nonlinear_two_mode(self.N)
        u0 = spectral.project_constraints(datum)
        refs = [frozen_w_rk4(u0, path, nu, 16) for path in paths]
        moved = max(relative_error(math.exp(0.5 * nu ** 2 * self.T) * s[-1], u0)
                    for s in refs)
        assert moved > 0.3

        worst, l2_first = [], None
        module_tol = dy.SWEEP_TOL
        for tol in (module_tol, module_tol / 10, module_tol / 100):
            monkeypatch.setattr(dy, "SWEEP_TOL", tol)
            err = np.zeros(len(paths))
            for p, path in enumerate(paths):
                states = run_states(datum, cfg, path)
                assert sorted(states) == list(range(1, len(path.times)))
                err[p] = max(relative_error(u, refs[p][k]) for k, u in states.items())
                if tol == module_tol and p == 0:
                    l2_first = [gevrey.norm(states[k], "L2", GevreyParams(2.6, 1.0))
                                for k in sorted(states)]
            worst.append(err)
        monkeypatch.undo()
        assert np.all(worst[0] <= 1e-3), worst[0]
        # about 10x per decade of tolerance, as the distance and the error
        # are both O(h^4)
        assert np.all(worst[0] >= 5.0 * worst[1]), (worst[0], worst[1])
        assert np.all(worst[1] >= 5.0 * worst[2]), (worst[1], worst[2])
        # the record samples the states that run() checks
        rec = dy.run(datum, cfg, paths[0])
        np.testing.assert_array_equal(rec.l2_norm_u[1:], l2_first)

    def test_members_do_not_depend_on_the_ensemble(self):
        # member i of a damping ensemble, and of an ensemble over a reordered
        # subset of the paths, is run() on its path alone, bitwise
        cfg = self.cfg(seed=31)
        u0 = nonlinear_two_mode(self.N)
        paths = self.paths(31, 5)
        clock_ends = [stochastic.damping_clock(p, self.NU)[-1] for p in paths]
        assert max(clock_ends) > 1.5 * min(clock_ends)
        alone = [dy.run(u0, cfg, p) for p in paths]
        members = dy.run_ensemble(u0, cfg, 5)
        subset = dy._run_clocked(u0, cfg, [paths[i] for i in (3, 0, 4)], ["", "", ""])
        for a, b in zip(members + subset, alone + [alone[i] for i in (3, 0, 4)]):
            for field in RECORD_FIELDS:
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            assert {**a.summary(), "name": ""} == {**b.summary(), "name": ""}

    def test_good_set_runs_share_one_solve(self, monkeypatch):
        # the good-set runs of criteria 07 and 09 read all their paths off
        # one clocked solve: 16 steps here for the six paths, where a solve
        # per path took 91; each record is still run() on its path alone
        cfg = replace(self.cfg(seed=3), horizon=0.1)
        u0 = nonlinear_two_mode(self.N)
        goodset = GoodSetParams(alpha=0.5, beta=0.25 * self.NU ** 2, nu=self.NU)
        real, calls = dy.step_damping, []

        def counted(u, dt):
            calls.append(dt)
            return real(u, dt)

        monkeypatch.setattr(dy, "step_damping", counted)
        records = checks._good_set_runs(u0, cfg, goodset, n_good=6)
        monkeypatch.undo()
        assert len(records) == 6 and len(calls) <= 20
        paths = (stochastic.sample_path(cfg.horizon, cfg.dt, stochastic.path_seed(3, i))
                 for i in range(48))
        good = [p for p in paths if stochastic.good_set_indicator(p, goodset)[0]][:6]
        for rec, path in zip(records, good):
            alone = dy.run(u0, cfg, path)
            for field in RECORD_FIELDS:
                np.testing.assert_array_equal(getattr(rec, field), getattr(alone, field))
            assert rec.summary() == alone.summary()

    def test_nonfinite_node_reads_blowup(self, monkeypatch):
        # steps turn non-finite from the 8th call on, a trial at 2*dt: it is
        # retried shorter, and a trial no longer than dt ends the sweep; each
        # run whose next query needs a node past the last accepted one reads
        # blowup at that query's time, sampled as infinite, and no
        # RuntimeWarning fires
        cfg = self.cfg(seed=5)
        u0 = nonlinear_two_mode(self.N)
        paths = self.paths(5, 3)
        before = [dy.run(u0, cfg, p) for p in paths]
        real, calls = dy.step_damping, []

        def failing(u, dt):
            calls.append(dt)
            out = real(u, dt)
            return SpectralVelocity(np.full_like(out.coeffs, np.nan), out.N) \
                if len(calls) >= 8 else out

        monkeypatch.setattr(dy, "step_damping", failing)
        node_times = [t for t, _ in dy._damping_nodes(spectral.project_constraints(u0),
                                                       self.DT)]
        node_calls, calls[:] = calls[:], []
        retries = node_calls[7:]
        assert retries[0] > self.DT >= retries[-1]
        assert all(h > self.DT for h in retries[:-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            recs = dy.run_ensemble(u0, cfg, 3)
        assert calls == node_calls  # nothing is stepped past the last node
        for path, rec, ref in zip(paths, recs, before):
            # the query at tau needs the node after the first one past tau
            tau = stochastic.damping_clock(path, self.NU)
            k = int(np.argmax(tau >= node_times[-2]))
            assert k >= 1
            assert rec.status == "blowup" and rec.t_final == path.times[k]
            assert rec.gevrey_norm_u[-1] == math.inf
            np.testing.assert_array_equal(rec.gevrey_norm_u[:-1], ref.gevrey_norm_u[:k])

    def test_unresolvable_solve_ends_where_the_step_is_lost(self, monkeypatch):
        # a stepper whose error does not shrink with h: every checked trial
        # is rejected until tau + h rounds to tau, and the nodes end there
        real, calls = dy.step_damping, []

        def noisy(u, dt):
            calls.append(dt)
            return (1.0 + 1e-2 * (-1) ** len(calls)) * real(u, dt)

        monkeypatch.setattr(dy, "step_damping", noisy)
        u0 = spectral.project_constraints(nonlinear_two_mode(self.N))
        nodes = list(dy._damping_nodes(u0, self.DT))
        assert len(nodes) == 4 and len(calls) < 100
        assert calls[-1] < 1e-15 * nodes[-1][0]

    def test_every_transport_is_inside_step_damping(self, monkeypatch, c_sigma_est):
        # the benchmark's traced cross-check, transports == 4 x steps, at
        # unit level: a damping ensemble transports only inside step_damping
        step, transport = dy.step_damping, spectral.transport_bilinear
        inside, steps, transports = [], [], []

        def counted_step(u, dt):
            steps.append(dt)
            inside.append(True)
            try:
                return step(u, dt)
            finally:
                inside.pop()

        def counted_transport(u):
            transports.append(bool(inside))
            return transport(u)

        monkeypatch.setattr(dy, "step_damping", counted_step)
        monkeypatch.setattr(spectral, "transport_bilinear", counted_transport)
        criterion_08_damping(c_sigma_est.value)
        assert steps and transports == [True] * (4 * len(steps))

    def test_criterion_08_step_budget(self, monkeypatch, c_sigma_est):
        # the error-controlled nodes take 13 steps here; the fixed grid n*dt
        # took 46
        step, steps = dy.step_damping, []

        def counted_step(u, dt):
            steps.append(dt)
            return step(u, dt)

        monkeypatch.setattr(dy, "step_damping", counted_step)
        res = criterion_08_damping(c_sigma_est.value)
        assert res.n_completed == 8
        assert len(steps) <= 16, len(steps)


def worker_id():
    return os.getpid(), threading.get_ident()


def workers_alive():
    return threading.active_count(), len(multiprocessing.active_children())


@pytest.mark.parametrize("fork", [False, True], ids=["threads", "fork"])
class TestParallelMap:
    """The contract of both backends of ``parallel_map``."""

    def test_one_cpu_runs_in_the_calling_thread(self, set_cpus, fork):
        set_cpus(1)
        assert dy.parallel_map(lambda x: worker_id(), range(3), fork=fork) \
            == [worker_id()] * 3

    def test_item_order_first_error_and_no_worker_remains(self, set_cpus, fork):
        # results come in item order; the last item fails first and item 0
        # after it, and the map raises item 0's error with its type and
        # message, as the loop would; every worker has ended either way
        set_cpus(2)
        before = workers_alive()
        assert dy.parallel_map(abs, range(-3, 3), fork=fork) == [3, 2, 1, 0, 1, 2]
        assert dy.parallel_map(abs, range(-4, 4), fork=fork) == [4, 3, 2, 1, 0, 1, 2, 3]
        assert workers_alive() == before
        for n in (4, 8, 40):  # forked chunks of 1, 1 and 5 items
            last_failed = multiprocessing.get_context("fork").Event()

            def work(i):
                if i == 0:
                    last_failed.wait(10.0)
                    raise MemberFailure("item 0 failed")
                if i == n - 1:
                    last_failed.set()
                    raise MemberFailure(f"item {i} failed")
                return i

            with pytest.raises(MemberFailure, match="^item 0 failed$"):
                dy.parallel_map(work, range(n), fork=fork)
            assert workers_alive() == before

    def test_closure_runs_in_the_workers(self, set_cpus, fork):
        # a closure over local state, which pickling would refuse, runs off
        # the calling thread (in other processes, with fork)
        set_cpus(2)
        scale = {"by": 3}
        out = dy.parallel_map(lambda x: (scale["by"] * x, worker_id()), range(4),
                              fork=fork)
        assert [x for x, _ in out] == [0, 3, 6, 9]
        assert worker_id() not in {w for _, w in out}
        if fork:
            assert os.getpid() not in {pid for _, (pid, _) in out}


def test_forked_map_sends_contiguous_chunks(set_cpus):
    # 40 items on 2 workers go out in chunks of ceil(40 / (4 * 2)) = 5, each
    # computed by one worker
    set_cpus(2)
    before = workers_alive()
    pids = dy.parallel_map(lambda x: os.getpid(), range(40), fork=True)
    assert all(len(set(pids[a:a + 5])) == 1 for a in range(0, 40, 5))
    assert os.getpid() not in pids
    assert workers_alive() == before
