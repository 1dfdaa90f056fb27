"""Steppers, radius schedules, run statuses, and back-transforms."""

import math

import numpy as np
import pytest

from hydrostat import dynamics as dy
from hydrostat import gevrey, initial_data, spectral, stochastic
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

    @pytest.mark.parametrize("dt,horizon", [(math.nan, 1.0), (math.inf, 1.0),
                                            (1e-3, math.nan), (1e-3, math.inf)])
    def test_non_finite_step_or_horizon(self, dt, horizon):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                      radius=RadiusSchedule.constant(1.0), n_modes=4,
                      dt=dt, horizon=horizon)


class TestSteppers:
    def test_zero_state_stays_zero(self):
        cfg = diffusion_cfg(N=4)
        path = stochastic.sample_path(cfg.horizon, cfg.dt, 0)
        out = dy.step_diffusion(SpectralVelocity.zeros(4), 0.0, cfg.dt, path, cfg)
        assert np.abs(out.coeffs).max() == 0.0
        cfgd = damping_cfg(N=4)
        out = dy.step_damping(SpectralVelocity.zeros(4), 0.0, cfgd.dt, path, cfgd)
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

    def test_linear_exactness_damping(self, no_transport):
        N = 6
        u0 = small_two_mode(N)
        cfg = damping_cfg(N=N)
        path = stochastic.sample_path(cfg.horizon, cfg.dt, 1)
        u = u0
        for k in range(20):
            u = dy.step_damping(u, k * cfg.dt, cfg.dt, path, cfg)
        expect = u0.coeffs * math.exp(-0.5 * cfg.nu ** 2 * 20 * cfg.dt)
        np.testing.assert_allclose(u.coeffs, expect, rtol=1e-13)

    def test_richardson_self_convergence(self):
        # one-step local error of the four-stage scheme: halving the step
        # shrinks the full-vs-two-half-steps gap by ~2^5 away from stiffness
        N = 6
        u0 = spectral.project_constraints(
            spectral.random_coefficients(N, 5, decay=4.0, amplitude=0.5))
        cfg = SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                        radius=RadiusSchedule.constant(0.3), n_modes=N,
                        dt=1e-3, horizon=1.0)
        path = dy._zero_path(1.0, 1e-3)
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            full = dy.step_damping(u0, 0.0, h, path, cfg)
            half = dy.step_damping(dy.step_damping(u0, 0.0, h / 2, path, cfg),
                                   h / 2, h / 2, path, cfg)
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
        four = dy.run_ensemble(u0, cfg, 4, seed)
        two = dy.run_ensemble(u0, cfg, 2, seed)
        alone = [dy.run(u0, cfg, stochastic.sample_path(
            cfg.horizon, cfg.dt, stochastic.path_seed(seed, i))) for i in range(4)]
        assert not np.array_equal(four[0].w_values, four[1].w_values)
        for a, b in zip(four + two, alone + alone[:2]):
            for field in ("times", "w_values", "phi", "gevrey_norm_u",
                          "l2_norm_u", "gevrey_norm_v"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            assert {**a.summary(), "name": ""} == b.summary()

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
