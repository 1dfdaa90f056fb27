"""Mild-solution map and fixed-point machinery."""

import math
import threading

import numpy as np
import pytest

from hydrostat import dynamics as dy
from hydrostat import gevrey, initial_data, picard, spectral, stochastic
from hydrostat.dynamics import RadiusSchedule, SimConfig
from hydrostat.gevrey import GevreyParams
from hydrostat.picard import MildProblem, PicardDivergenceError
from hydrostat.spectral import SpectralVelocity
from hydrostat.stochastic import BrownianPath


def make_cfg(N=8, nu=2.0, alpha=0.2, beta=0.5):
    return SimConfig(noise="diffusion", nu=nu, s=1.0, sigma=1.9,
                     radius=RadiusSchedule.linear(alpha, beta), n_modes=N,
                     dt=1e-3, horizon=0.05)


def small_data(N=8, target=1e-2, alpha=0.2, seed=11):
    u0 = initial_data.random_analytic(N, radius=0.3, seed=seed)
    return initial_data.normalize_to(u0, target, GevreyParams(1.9, 1.0, alpha))


class TestDuhamelMap:
    def test_t_zero_returns_data(self):
        u0 = small_data()
        prob = MildProblem(u0=u0, cfg=make_cfg(), horizon=0.05, n_nodes=9)
        path = dy._zero_path(0.05, 1e-3)
        traj = [u0.copy() for _ in prob.times]
        out = picard.duhamel_map(traj, prob, path)
        np.testing.assert_allclose(out[0].coeffs, u0.coeffs, atol=1e-16)

    def test_linear_only_heat_semigroup(self, no_transport):
        # transport disabled: the map returns the heat-propagated data
        # independently of the trajectory argument
        u0 = small_data()
        cfg = make_cfg()
        prob = MildProblem(u0=u0, cfg=cfg, horizon=0.05, n_nodes=9)
        path = dy._zero_path(0.05, 1e-3)
        junk = [2.0 * u0.copy() for _ in prob.times]
        out = picard.duhamel_map(junk, prob, path)
        kk = spectral.abs_k(u0.N)
        for t, ut in zip(prob.times, out):
            expect = u0.coeffs * np.exp(-0.5 * cfg.nu ** 2 * t * kk ** 2)
            np.testing.assert_allclose(ut.coeffs, expect, rtol=0,
                                       atol=1e-14 * np.abs(u0.coeffs).max())

    def test_single_pair_matches_scalar_quadrature(self):
        # one interacting mode pair on both components: the projected
        # transport term is a single output mode with a hand convolution
        # (component 0 sits along the slab gradient and is annihilated;
        # component 1 survives in full); reproduce the trapezoid integral
        # in scalar arithmetic
        N = 4
        amp = 0.3
        u0v = SpectralVelocity.zeros(N)
        for sh in (1, -1):
            for sv in (1, -1):
                u0v.coeffs[0, N + sh, N, N + sv] = amp / 4
                u0v.coeffs[1, N + sh, N, N + sv] = amp / 4
        cfg = make_cfg(N=N)
        prob = MildProblem(u0=u0v, cfg=cfg, horizon=0.05, n_nodes=9)
        path = dy._zero_path(0.05, 1e-3)
        traj = [u0v.copy() for _ in prob.times]
        out = picard.duhamel_map(traj, prob, path)

        # hand values: transport of the constant trajectory is
        # -pi*amp^2*sin(4*pi*x1)*(1,1); its (2,0,0) coefficient is
        # i*pi*amp^2/2 per component, and the slab Leray keeps (0, 1) only
        q_coeff = 1j * np.pi * amp ** 2 / 2.0
        rate = 0.5 * cfg.nu ** 2 * (2.0 * np.pi * 2.0) ** 2
        times = prob.times
        h = times[1] - times[0]
        for i, t in enumerate(times):
            heat_data = u0v.coeffs[0, N + 1, N, N + 1] * math.exp(
                -0.5 * cfg.nu ** 2 * t * (2 * np.pi * math.sqrt(2.0)) ** 2)
            assert out[i].coeffs[0, N + 1, N, N + 1] == pytest.approx(heat_data, rel=1e-12)
            if i == 0:
                continue
            integral = 0.0
            for j in range(i + 1):
                wgt = 0.5 if j in (0, i) else 1.0
                integral += wgt * h * math.exp(-rate * (t - times[j]))
            expect_out = -q_coeff * integral
            assert out[i].coeffs[1, N + 2, N, N] == pytest.approx(expect_out, rel=1e-12)
            assert abs(out[i].coeffs[0, N + 2, N, N]) <= 1e-14

    def test_matches_explicit_double_loop_trapezoid(self):
        # the running-sum quadrature against the trapezoid written out per
        # node, with heat factors exp(-nu^2/2 (t_i - t_j) |k|^2s) built
        # directly, on a time-varying trajectory under a Brownian W
        N, n_nodes, horizon = 6, 17, 0.05
        a, b = small_data(N=N, seed=4), small_data(N=N, seed=5)
        cfg = make_cfg(N=N)
        prob = MildProblem(u0=a, cfg=cfg, horizon=horizon, n_nodes=n_nodes)
        path = stochastic.sample_path(horizon, 1e-3, seed=21)
        traj = [(1.0 + 3.0 * t) * a + math.sin(40.0 * t) * b for t in prob.times]
        got = picard.duhamel_map(traj, prob, path)

        times = prob.times
        h = times[1] - times[0]
        kk2s = spectral.abs_k(N) ** (2.0 * cfg.s)
        integrand = [dy.twisted_transport(u, cfg.nu, path.value_at(float(t)), cfg.s).coeffs
                     for t, u in zip(times, traj)]
        for i in range(n_nodes):
            expect = np.exp(-0.5 * cfg.nu ** 2 * (i * h) * kk2s) * a.coeffs
            for j in range(i + 1):
                wgt = 0.0 if i == 0 else 0.5 if j in (0, i) else 1.0
                heat = np.exp(-0.5 * cfg.nu ** 2 * ((i - j) * h) * kk2s)
                expect = expect - h * wgt * heat * integrand[j]
            expect[:, N, N, N] = 0.0
            err = np.abs(got[i].coeffs - expect).max()
            assert err <= 1e-13 * np.abs(expect).max(), (i, err)

    def test_zero_mean_output(self):
        u0 = small_data()
        prob = MildProblem(u0=u0, cfg=make_cfg(), horizon=0.05, n_nodes=9)
        out = picard.duhamel_map([u0.copy() for _ in prob.times], prob,
                                 dy._zero_path(0.05, 1e-3))
        for ut in out:
            assert np.abs(ut.coeffs[:, ut.N, ut.N, ut.N]).max() == 0.0

    def test_grid_mismatch_rejected(self):
        u0 = small_data()
        prob = MildProblem(u0=u0, cfg=make_cfg(), horizon=0.05, n_nodes=9)
        with pytest.raises(ValueError, match="nodes"):
            picard.duhamel_map([u0.copy()] * 5, prob, dy._zero_path(0.05, 1e-3))


class TestThreadedTransports:
    def test_solve_does_not_depend_on_cpu_count(self, set_cpus):
        # on a Brownian path every node is its own transport; alpha = 0.4
        # keeps this path's nu*W (at most 0.23) inside the radius
        horizon = 0.05
        prob = MildProblem(u0=small_data(), cfg=make_cfg(alpha=0.4), horizon=horizon,
                           n_nodes=17, tol=1e-12)
        path = stochastic.sample_path(horizon, horizon / 16, seed=3)
        results = []
        for cpus in (1, 2):
            set_cpus(cpus)
            before = threading.active_count()
            results.append(picard.fixed_point_solve(prob, path))
            assert threading.active_count() == before
        one, two = results
        assert one.iterations == two.iterations > 2
        assert one.contraction_estimate == two.contraction_estimate
        assert one.difference_history == two.difference_history
        assert [u.coeffs.tobytes() for u in one.trajectory] == \
            [u.coeffs.tobytes() for u in two.trajectory]

    def test_transport_error_reaches_caller(self, set_cpus):
        # nu*W passes the exponent cap from node 5 on, at a different W on
        # each node: the error is the one node 5 raises, as in the loop
        prob = MildProblem(u0=small_data(), cfg=make_cfg(), horizon=0.05, n_nodes=9)
        times = prob.times
        values = np.where(np.arange(len(times)) < 5, 0.0, 1e3 * np.arange(len(times)))
        path = BrownianPath(times=times, values=values, seed=None, dt=float(times[1]))
        trajectory = [prob.u0] * len(times)
        messages = []
        for cpus in (1, 2):
            set_cpus(cpus)
            before = threading.active_count()
            with pytest.raises(gevrey.ExponentCapError) as info:
                picard.duhamel_map(trajectory, prob, path)
            assert threading.active_count() == before
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "(phi=10000," in messages[0]  # nu * W at node 5


def weak_cfg(horizon):
    """N = 4 with little dissipation, where large data contract slowly."""
    return SimConfig(noise="diffusion", nu=0.3, s=1.0, sigma=1.9,
                     radius=RadiusSchedule.linear(0.2, 0.02), n_modes=4,
                     dt=1e-3, horizon=horizon)


def difference_rule_iterates(prob, path):
    """Every iterate of the map up to the first whose difference from the
    one before is below ``prob.tol``: the stop rule without the error bound."""
    traj = [spectral.project_constraints(prob.u0)] * prob.n_nodes
    iterates = []
    for _ in range(prob.max_iter):
        nxt = picard.duhamel_map(traj, prob, path)
        d = picard._sup_norm((a - b for a, b in zip(nxt, traj)), prob)
        iterates.append(nxt)
        traj = nxt
        if d < prob.tol:
            return iterates
    raise AssertionError("the difference rule did not converge")


class TestFixedPoint:
    def test_zero_data_converges_immediately(self):
        prob = MildProblem(u0=SpectralVelocity.zeros(4), cfg=make_cfg(N=4),
                           horizon=0.05, n_nodes=9)
        res = picard.fixed_point_solve(prob, dy._zero_path(0.05, 1e-3))
        assert res.iterations == 1
        assert math.isnan(res.error_bound)  # no ratio of differences yet
        assert all(np.abs(u.coeffs).max() == 0.0 for u in res.trajectory)

    def test_probes_datum_stops_at_error_bound(self):
        # the criterion-06 datum: theta is about 8e-7, so after two maps
        # theta/(1 - theta)*d_2 is about 1e-14 while d_2 is about 1e-8
        prob = MildProblem(u0=small_data(), cfg=make_cfg(), horizon=0.05, n_nodes=33,
                           tol=1e-13)
        path = dy._zero_path(0.05, 1e-3)
        res = picard.fixed_point_solve(prob, path)
        theta, d = res.contraction_estimate, res.difference_history[-1]
        assert res.iterations == 2
        assert theta < 0.5 and d >= prob.tol
        assert res.error_bound == theta / (1.0 - theta) * d < prob.tol
        again = picard.duhamel_map(res.trajectory, prob, path)
        assert picard._sup_norm((a - b for a, b in zip(again, res.trajectory)),
                                prob) <= 2.0 * prob.tol

    def test_weak_contraction_stops_at_difference_rule(self):
        # the first ratio of differences is about 0.64, so the error bound
        # is never used and the solve stops where the difference rule does
        prob = MildProblem(u0=small_data(N=4, target=400.0), cfg=weak_cfg(0.2),
                           horizon=0.2, n_nodes=9, tol=1e-10)
        path = dy._zero_path(0.2, 1e-3)
        res = picard.fixed_point_solve(prob, path)
        assert res.contraction_estimate >= 0.5
        assert res.iterations == len(difference_rule_iterates(prob, path))
        assert res.error_bound > prob.tol

    @pytest.mark.parametrize("target,horizon", [(1e-2, 0.05), (2.0, 0.2), (40.0, 0.05),
                                                (200.0, 0.2), (200.0, 0.5)])
    def test_never_stops_later_than_difference_rule(self, target, horizon):
        # the returned trajectory is the difference rule's iterate at the
        # same count, and within tol of that rule's last iterate
        prob = MildProblem(u0=small_data(N=4, target=target), cfg=weak_cfg(horizon),
                           horizon=horizon, n_nodes=9, tol=1e-10)
        path = dy._zero_path(horizon, 1e-3)
        res = picard.fixed_point_solve(prob, path)
        iterates = difference_rule_iterates(prob, path)
        assert res.iterations <= len(iterates)
        assert [u.coeffs.tobytes() for u in res.trajectory] == \
            [u.coeffs.tobytes() for u in iterates[res.iterations - 1]]
        assert picard._sup_norm((a - b for a, b in zip(res.trajectory, iterates[-1])),
                                prob) <= prob.tol

    def test_small_data_contracts_geometrically(self):
        u0 = small_data()
        prob = MildProblem(u0=u0, cfg=make_cfg(), horizon=0.05, n_nodes=17,
                           tol=1e-12)
        res = picard.fixed_point_solve(prob, dy._zero_path(0.05, 1e-3))
        assert res.contraction_estimate < 1.0
        drops = [b / a for a, b in zip(res.difference_history,
                                       res.difference_history[1:]) if a > 0]
        assert all(r < 0.5 for r in drops)

    def test_fixed_point_consistency_and_ball(self):
        u0 = small_data()
        prob = MildProblem(u0=u0, cfg=make_cfg(), horizon=0.05, n_nodes=17,
                           tol=1e-11)
        res = picard.fixed_point_solve(prob, dy._zero_path(0.05, 1e-3))
        again = picard.duhamel_map(res.trajectory, prob, dy._zero_path(0.05, 1e-3))
        assert picard._sup_norm((a - b for a, b in zip(res.trajectory, again)),
                                prob) <= 2.0 * prob.tol
        assert res.contraction_estimate < 1.0
        assert res.stayed_in_ball
        assert res.sup_norm <= prob.default_ball_radius()

    def test_zero_path_shares_first_iteration_transport(self, transport_calls):
        # iteration 1 maps one shared constant trajectory under W = 0 at
        # every node: one transport, then one per node per iteration
        u0 = small_data()
        prob = MildProblem(u0=u0, cfg=make_cfg(), horizon=0.05, n_nodes=17,
                           tol=1e-12)
        path = dy._zero_path(0.05, 1e-3)
        res = picard.fixed_point_solve(prob, path)
        assert len(transport_calls) == 1 + (res.iterations - 1) * prob.n_nodes
        u0p = spectral.project_constraints(u0)
        traj = [u0p.copy() for _ in prob.times]
        for _ in range(res.iterations):
            traj = picard.duhamel_map(traj, prob, path)
        for a, b in zip(res.trajectory, traj):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_brownian_path_shares_nothing(self, transport_calls):
        # no two nodes of a sampled path share a W value; alpha = 0.4 keeps
        # this path's nu*W (at most 0.33) inside the radius
        horizon = 0.05
        prob = MildProblem(u0=small_data(), cfg=make_cfg(alpha=0.4), horizon=horizon,
                           n_nodes=9, tol=1e-12)
        path = stochastic.sample_path(horizon, horizon / 8, seed=3)
        res = picard.fixed_point_solve(prob, path)
        assert res.iterations > 2
        assert len(transport_calls) == res.iterations * prob.n_nodes

    def test_path_outside_radius_refused(self, transport_calls):
        # nu*W passes the radius at node 2 and reaches 0.73: the solve
        # overflowed in a RuntimeWarning before its first divergence check
        horizon = 0.05
        prob = MildProblem(u0=small_data(N=6, seed=6), cfg=make_cfg(N=6),
                           horizon=horizon, n_nodes=33, tol=1e-12)
        path = stochastic.sample_path(horizon, horizon / 32, seed=6)
        with pytest.raises(dy.RadiusViolationError,
                           match=r"nu\*W = 0.2237 exceeds tracked radius 0.201563 "
                                 r"at t = 0.003125, node 2"):
            picard.fixed_point_solve(prob, path)
        assert transport_calls == []

    def test_quadrature_second_order_on_smooth_problem(self):
        # mild dissipation keeps the kernel smooth on the grid: halving the
        # node spacing shrinks the converged trajectory change by ~4
        u0 = small_data(target=5e-3, seed=3)
        cfg = SimConfig(noise="diffusion", nu=0.3, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.2, 0.02), n_modes=8,
                        dt=1e-3, horizon=0.05)
        path = dy._zero_path(0.05, 1e-3)
        sols = {}
        for n in (17, 33, 65):
            prob = MildProblem(u0=u0, cfg=cfg, horizon=0.05, n_nodes=n, tol=1e-13)
            sols[n] = picard.fixed_point_solve(prob, path)
        p_ref = MildProblem(u0=u0, cfg=cfg, horizon=0.05, n_nodes=17, tol=1e-13)
        d1 = max(gevrey.norm(a - b, "Gevrey", GevreyParams(1.9, 1.0, 0.25))
                 for a, b in zip(sols[17].trajectory, sols[33].trajectory[::2]))
        d2 = max(gevrey.norm(a - b, "Gevrey", GevreyParams(1.9, 1.0, 0.25))
                 for a, b in zip(sols[33].trajectory, sols[65].trajectory[::2]))
        assert d2 <= d1 / 3.0, (d1, d2)

    def test_divergence_reported_for_large_horizon(self):
        N = 6
        u0 = initial_data.two_mode(N, amplitude=40.0, mode_a=(0, 0, 1),
                                   component_a=0, ratio=0.5, mode_b=(1, 0, 1),
                                   component_b=0)
        cfg = SimConfig(noise="diffusion", nu=1.0, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.2, 0.1), n_modes=N,
                        dt=1e-2, horizon=2.0)
        prob = MildProblem(u0=u0, cfg=cfg, horizon=2.0, n_nodes=33,
                           tol=1e-10, max_iter=12)
        with pytest.raises(PicardDivergenceError):
            picard.fixed_point_solve(prob, dy._zero_path(2.0, 1e-2))

    @pytest.mark.parametrize("max_iter,tol", [(0, 1e-10), (-1, 1e-10), (40, math.nan),
                                              (40, 0.0), (40, -1e-10), (40, math.inf)])
    def test_iteration_budget_and_tolerance_validated(self, max_iter, tol):
        # max_iter = 0 raised IndexError from an empty difference history, and
        # tol = nan reported no convergence with a last difference of 0
        with pytest.raises(ValueError, match="need max_iter >= 1 and 0 < tol < inf"):
            MildProblem(u0=small_data(), cfg=make_cfg(), horizon=0.05, n_nodes=9,
                        tol=tol, max_iter=max_iter)

    def test_truncation_mismatch_rejected(self):
        # data at N = 6 under n_modes = 4 converged at N = 6, while
        # dynamics.run refuses the same pairing
        with pytest.raises(spectral.TruncationMismatchError,
                           match="data N=6 vs n_modes=4"):
            MildProblem(u0=small_data(N=6), cfg=make_cfg(N=4), horizon=0.05, n_nodes=9)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -0.05])
    def test_horizon_validated(self, horizon):
        # nan failed later in the solve with a message about phi, and inf
        # reached a RuntimeWarning in a multiply
        with pytest.raises(ValueError, match=f"need 0 < horizon < inf, got horizon={horizon}"):
            MildProblem(u0=small_data(), cfg=make_cfg(), horizon=horizon, n_nodes=9)

    @pytest.mark.parametrize("target", [1e4, 1e6, 1e8])
    def test_overflowed_iteration_is_divergence(self, target):
        # large data overflows the iterates: the differences read inf, inf
        # and then 0.0 from norms of NaN, which passed the tolerance as a
        # converged solve with a non-finite trajectory.  The overflow warns
        # on its way; what is checked is the solve's verdict.
        cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.2, 0.5), n_modes=6,
                        dt=1e-3, horizon=0.5)
        prob = MildProblem(u0=small_data(N=6, target=target), cfg=cfg, horizon=0.5,
                           n_nodes=17, tol=1e-10)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(PicardDivergenceError, match="is not finite"):
            picard.fixed_point_solve(prob, dy._zero_path(0.5, 1e-3))


class TestKernelBoundProbe:
    def test_small_tau_limit(self):
        val = picard.kernel_bound_probe(1.9, 1.0, 2.0, 0.5, k_max=100.0,
                                        n_k=50, n_tau=50, tau_min=1e-12,
                                        tau_max=1e-10)
        assert val < 1e-6

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            picard.kernel_bound_probe(1.9, 1.0, 1.0, 0.6, k_max=50.0)
