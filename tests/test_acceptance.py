"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Desk-scale grids, horizons, and steps are chosen for single-core runtimes;
tolerances are the stated ones.
"""

import math

import numpy as np
import pytest

from hydrostat import analysis, dynamics, gevrey, initial_data, picard, spectral, stochastic
from hydrostat.dynamics import RadiusSchedule, SimConfig
from hydrostat.gevrey import GevreyParams
from hydrostat.stochastic import GoodSetParams

from conftest import check_invariants


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_goodset_probability_anchor():
    params = GoodSetParams(alpha=2.0, beta=0.5, nu=1.0)
    est = stochastic.good_set_probability(params, T=50.0, dt=1e-3,
                                          n_paths=10_000, seed=20260810)
    exact = 1.0 - math.exp(-2.0)
    bound = 1.0 - math.exp(-1.0)
    within = abs(est.estimate - exact) <= 3.0 * est.std_error
    above = est.estimate >= bound - (est.ci_high - est.estimate)
    report(1, within and above,
           f"estimate {est.estimate:.4f} vs exact {exact:.4f} "
           f"(3se = {3 * est.std_error:.4f}), paper bound {bound:.4f}")


def test_criterion_02_structural_suite():
    N = 8
    worst_cancel = worst_idem = worst_parity = worst_div = 0.0
    for i in range(100):
        f = spectral.random_coefficients(N, np.random.SeedSequence(
            entropy=7, spawn_key=(i,)), decay=3.5)
        p1 = spectral.project_constraints(f)
        check_invariants(p1)
        scale = np.abs(p1.coeffs).max()
        p2 = spectral.project_constraints(p1)
        worst_idem = max(worst_idem, np.abs(p2.coeffs - p1.coeffs).max() / scale)
        q = spectral.transport_bilinear(p1)
        l2 = gevrey.norm(p1, "L2", GevreyParams(1.0, 1.0, 0.0))
        worst_cancel = max(worst_cancel,
                           abs(spectral.inner_product(q, p1)) / l2 ** 3)
        qc = q.coeffs
        worst_parity = max(worst_parity,
                           np.abs(qc - qc[:, :, :, ::-1]).max()
                           / max(np.abs(qc).max(), 1e-300))
        w = spectral.vertical_velocity(p1)
        m1, m2, m3 = spectral.lattice(N)
        resid = m3 * w.coeffs + (m1 * p1.coeffs[0] + m2 * p1.coeffs[1])
        worst_div = max(worst_div, np.abs(resid).max() / scale)
    ok = (worst_cancel <= 1e-10 and worst_idem <= 1e-12
          and worst_parity <= 1e-12 and worst_div <= 1e-12 * N)
    report(2, ok,
           f"cancellation {worst_cancel:.2e} (<=1e-10), idempotence "
           f"{worst_idem:.2e}, parity {worst_parity:.2e}, divergence "
           f"{worst_div:.2e} (<=1e-12 rel)")


def test_criterion_03_conservation_baseline():
    N = 8
    v0 = initial_data.two_mode(N, amplitude=0.05, mode_a=(1, 0, 1),
                               component_a=0, ratio=1.0, mode_b=(0, 1, 1),
                               component_b=1)
    cfg = SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                    radius=RadiusSchedule.constant(0.3), n_modes=N,
                    dt=1e-3, horizon=1.0)
    rec = dynamics.run(v0, cfg)
    drift = abs(rec.l2_norm_u[-1] - rec.l2_norm_u[0]) / rec.l2_norm_u[0]
    report(3, rec.status == "completed" and drift <= 1e-6,
           f"status {rec.status}, relative L2 drift {drift:.2e} (<= 1e-6)")


def test_criterion_04_exponent_boundary():
    grid = [round(1.55 + 0.05 * i, 2) for i in range(9)]
    verdicts = []
    agree = True
    for ss in grid:
        a = analysis.feasible_exponents(ss, 1.0) is not None
        b = analysis.exponent_grid_search(ss, 1.0) is not None
        agree = agree and a == b
        verdicts.append(a)
    transition = (not verdicts[grid.index(1.6)]) and verdicts[grid.index(1.65)]
    report(4, agree and transition,
           f"verdicts {dict(zip(grid, verdicts))}, oracle agreement {agree}")


def test_criterion_05_linear_exactness(no_transport):
    N = 6
    n_steps = 1000
    dt = 1e-3
    v0 = initial_data.two_mode(N, amplitude=0.1, mode_a=(1, 0, 1),
                               component_a=0, ratio=1.0, mode_b=(0, 1, 1),
                               component_b=1)
    support = np.abs(v0.coeffs) > 0
    path = dynamics._zero_path(n_steps * dt, dt)

    cfg_d = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                      radius=RadiusSchedule.linear(0.3, 0.1), n_modes=N,
                      dt=dt, horizon=n_steps * dt)
    u = v0
    for k in range(n_steps):
        u = dynamics.step_diffusion(u, k * dt, dt, path, cfg_d)
    kk = spectral.abs_k(N)
    expect = v0.coeffs * np.exp(-0.5 * cfg_d.nu ** 2 * n_steps * dt * kk ** 2)
    rel_d = np.abs(u.coeffs[support] / expect[support] - 1.0).max()

    cfg_k = SimConfig(noise="damping", nu=3.0, s=0.0, sigma=2.6,
                      radius=RadiusSchedule.constant(0.5), n_modes=N,
                      dt=dt, horizon=n_steps * dt)
    u = v0
    for k in range(n_steps):
        u = dynamics.step_damping(u, k * dt, dt, path, cfg_k)
    expect_k = v0.coeffs * math.exp(-0.5 * cfg_k.nu ** 2 * n_steps * dt)
    rel_k = np.abs(u.coeffs[support] / expect_k[support] - 1.0).max()

    report(5, rel_d <= 1e-12 and rel_k <= 1e-12,
           f"diffusion rel err {rel_d:.2e}, damping rel err {rel_k:.2e} "
           f"over {n_steps} steps (<= 1e-12)")


def test_criterion_06_picard_stepper_consistency():
    N = 8
    T = 0.05
    u0 = initial_data.random_analytic(N, radius=0.3, seed=11)
    u0 = initial_data.normalize_to(u0, 1e-2, GevreyParams(1.9, 1.0, 0.2))
    path = dynamics._zero_path(T, 1e-4)

    def sup_diff(n_nodes):
        cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.2, 0.5), n_modes=N,
                        dt=T / (n_nodes - 1), horizon=T)
        prob = picard.MildProblem(u0=u0, cfg=cfg, horizon=T, n_nodes=n_nodes,
                                  tol=1e-13)
        res = picard.fixed_point_solve(prob, path)
        u = u0
        t = 0.0
        worst = 0.0
        for k in range(n_nodes - 1):
            u = dynamics.step_diffusion(u, t, cfg.dt, path, cfg)
            t += cfg.dt
            p = GevreyParams(1.9, 1.0, cfg.radius.value(t))
            worst = max(worst, gevrey.norm(u - res.trajectory[k + 1], "Gevrey", p))
        return worst

    d_coarse = sup_diff(33)
    d_fine = sup_diff(65)
    ratio = d_coarse / d_fine
    ok = d_fine < d_coarse and 1.6 <= ratio <= 2.4
    report(6, ok,
           f"sup diff {d_coarse:.3e} -> {d_fine:.3e} under 2x refinement, "
           f"ratio {ratio:.2f} (need [1.6, 2.4])")


def test_criterion_07_damping_gronwall(c_sigma_est):
    N = 5
    sigma, phi0, alpha = 2.6, 1.0, 1.0
    nu2 = 60.0
    nu, beta = math.sqrt(nu2), nu2 / 4.0
    c_sig = c_sigma_est.value
    u0 = initial_data.two_mode(N, amplitude=1.0, mode_a=(1, 0, 1),
                               component_a=0, ratio=1.0, mode_b=(0, 1, 1),
                               component_b=1)
    u0 = initial_data.normalize_to(u0, 0.05, GevreyParams(sigma, 1.0, phi0))
    thresholds = analysis.damping_threshold_check(phi0, sigma, nu, beta, alpha,
                                                  0.05, c_sig)
    assert thresholds.ok, thresholds
    sched = RadiusSchedule.damping(phi0, alpha, beta, nu, c_sig, 0.05)
    T, dt = 0.5, 2.5e-3
    cfg = SimConfig(noise="damping", nu=nu, s=0.0, sigma=sigma, radius=sched,
                    n_modes=N, dt=dt, horizon=T)
    goodset = GoodSetParams(alpha, beta, nu)
    worst_excess = -math.inf
    min_phi = math.inf
    n_good = 0
    i = 0
    while n_good < 50 and i < 400:
        sub = stochastic.path_seed(314, i)
        i += 1
        path = stochastic.sample_path(T, dt, sub)
        if not stochastic.good_set_indicator(path, goodset)[0]:
            continue
        n_good += 1
        rec = dynamics.run(u0, cfg, path)
        assert rec.status == "completed", rec.status
        y = np.exp(alpha + 0.5 * nu2 * rec.times) * rec.gevrey_norm_u
        worst_excess = max(worst_excess, float(y.max()) /
                           (math.exp(alpha) * rec.gevrey_norm_u[0]) - 1.0)
        min_phi = min(min_phi, float(rec.phi.min()))
    ok = n_good == 50 and worst_excess <= 1e-3 and min_phi > 0.0
    report(7, ok,
           f"{n_good} good-set paths, worst compensated-norm excess "
           f"{worst_excess:.2e} (<= 1e-3), min radius {min_phi:.4f} (> 0)")


def _globality_pair(kind, eps, n_paths, c_star, c_sigma):
    N = 4
    T, dt = 0.4, 1e-2
    alpha = -4.0 * math.log(eps)
    if kind == "diffusion":
        nu_base = 0.1
        eta = alpha / 10.0
        u0 = initial_data.single_mode(N, amplitude=1.0, mode=(1, 0, 1))
        u0 = initial_data.normalize_to(u0, 0.5,
                                       GevreyParams(1.9, 1.0, alpha + eta))
        def make_cfg(nu):
            return SimConfig(noise="diffusion", nu=nu, s=1.0, sigma=1.9,
                             radius=RadiusSchedule.linear(alpha, nu ** 2 / 4,
                                                          eta=eta),
                             n_modes=N, dt=dt, horizon=T, seed=99)
    else:
        phi0 = 0.15
        u0 = initial_data.two_mode(N, amplitude=1.0, mode_a=(1, 0, 1),
                                   component_a=0, ratio=1.0, mode_b=(0, 1, 1),
                                   component_b=1)
        u0 = initial_data.normalize_to(u0, 2.0, GevreyParams(2.6, 1.0, phi0))
        required = (8.0 * c_sigma / phi0) * (eps ** -4 * 2.0 + 1.0)
        nu_base = math.sqrt(1.3 * required)
        def make_cfg(nu):
            return SimConfig(noise="damping", nu=nu, s=0.0, sigma=2.6,
                             radius=RadiusSchedule.constant(phi0),
                             n_modes=N, dt=dt, horizon=T, seed=99)
    out = []
    for nu in (nu_base, 2.0 * nu_base):
        res = dynamics.run_global_experiment(u0, eps, make_cfg(nu), n_paths,
                                             c_star=c_star, c_sigma=c_sigma)
        out.append(res)
    return out


def test_criterion_08_high_probability_globality(c_sigma_est, c_star_est):
    eps = 0.5
    n_paths = 200
    msgs = []
    ok = True
    for kind in ("diffusion", "damping"):
        base, doubled = _globality_pair(kind, eps, n_paths,
                                        c_star_est.value, c_sigma_est.value)
        lower = 1.0 - eps - 3.0 * base.std_error
        joint = 3.0 * math.hypot(base.std_error, doubled.std_error)
        cond1 = base.completed_fraction >= lower
        cond2 = doubled.completed_fraction >= base.completed_fraction - joint
        ok = ok and cond1 and cond2
        msgs.append(f"{kind}: fraction {base.completed_fraction:.3f} "
                    f"(target >= {lower:.3f}), doubled-nu fraction "
                    f"{doubled.completed_fraction:.3f}")
    report(8, ok, "; ".join(msgs))


def test_criterion_09_regularization_contrast(c_sigma_est):
    N = 6
    T = 1.0
    sigma = 2.6
    v0 = initial_data.two_mode(N, amplitude=3.0, mode_a=(0, 0, 1),
                               component_a=0, ratio=0.5, mode_b=(1, 0, 1),
                               component_b=0)
    cfg0 = SimConfig(noise="none", nu=0.0, s=0.0, sigma=sigma,
                     radius=RadiusSchedule.constant(0.5), n_modes=N,
                     dt=1e-3, horizon=T, blowup_factor=1e3)
    det = dynamics.run(v0, cfg0)
    growth = det.max_gevrey_norm / det.gevrey_norm_u[0]
    det_ok = det.status == "blowup" and growth >= 1e3 and det.t_final < T

    eps = 0.5
    alpha = -4.0 * math.log(eps)
    phi0 = 0.25
    c_sig = c_sigma_est.value
    v0n = gevrey.norm(v0, "Gevrey", GevreyParams(sigma, 1.0, phi0))
    nu = math.sqrt(1.1 * (8.0 * c_sig / phi0) * (eps ** -4 * v0n + 1.0))
    beta = nu ** 2 / 4.0
    sched = RadiusSchedule.damping(phi0, alpha, beta, nu, c_sig, v0n)
    cfg1 = SimConfig(noise="damping", nu=nu, s=0.0, sigma=sigma, radius=sched,
                     n_modes=N, dt=2.5e-3, horizon=T, blowup_factor=1e6)
    goodset = GoodSetParams(alpha, beta, nu)
    n_good = completed = 0
    i = 0
    while n_good < 25 and i < 200:
        sub = stochastic.path_seed(1618, i)
        i += 1
        path = stochastic.sample_path(T, cfg1.dt, sub)
        if not stochastic.good_set_indicator(path, goodset)[0]:
            continue
        n_good += 1
        rec = dynamics.run(v0, cfg1, path)
        completed += rec.status == "completed"
    frac = completed / n_good if n_good else 0.0
    ok = det_ok and n_good == 25 and frac >= 0.8
    report(9, ok,
           f"deterministic: {det.status} at t={det.t_final:.2f} with growth "
           f"{growth:.3g}x; damping (nu={nu:.1f}): {completed}/{n_good} "
           f"good-set paths completed ({frac:.0%} >= 80%)")


def test_criterion_10_estimator_stability(c_sigma_est, c_star_est):
    cs16 = analysis.estimate_c_sigma(2.6, N=16, n_samples=200, seed=2026)
    cst16 = analysis.estimate_c_star(1.9, 1.0, N=16, n_samples=200, seed=2026)
    r_sigma = cs16.value / c_sigma_est.value
    r_star = cst16.value / c_star_est.value
    ok = 0.5 < r_sigma < 2.0 and 0.5 < r_star < 2.0
    report(10, ok,
           f"c_sigma N8->N16 ratio {r_sigma:.3f}, c_star ratio {r_star:.3f} "
           f"(both within 2x)")
