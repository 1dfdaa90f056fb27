"""The paper's checks, each written once.

``CHECKS`` maps a name to a check: a function of no argument, or of
``seed`` alone when it reads one, returning a JSON-ready dict of its
measured numbers and ``ok``.  The checks that are acceptance criteria
(``CRITERIA`` gives their numbers) also return ``detail``, the text of the
criterion's PASS line.  ``hydrostat verify NAME`` prints one check,
``hydrostat verify paper`` runs them all (``paper``), and
``tests/test_acceptance.py`` prints the PASS lines.  Criterion 05 needs
pytest's monkeypatch and is a test only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from . import analysis, dynamics, gevrey, initial_data, picard, spectral, stochastic
from .dynamics import RadiusSchedule, SimConfig
from .gevrey import GevreyParams
from .stochastic import GoodSetParams

CHECKS = {}
CRITERIA = {}  # check name -> acceptance criterion number


def _check(name: str, criterion: int | None = None):
    def register(check):
        CHECKS[name] = check
        if criterion is not None:
            CRITERIA[name] = criterion
        return check
    return register


def paper() -> dict:
    """Every check once, in ``CHECKS`` order, each at its default seed."""
    results = {name: check() for name, check in CHECKS.items()}
    return {"checks": results, "ok": all(r["ok"] for r in results.values())}


@lru_cache(maxsize=None)
def c_sigma() -> analysis.ConstantEstimate:
    """The damping constant (sigma = 2.6) of criteria 07-10, sampled once."""
    return analysis.estimate_c_sigma(2.6, N=8, n_samples=200, seed=2026)


@lru_cache(maxsize=None)
def c_star() -> analysis.ConstantEstimate:
    """The diffusion constant (sigma = 1.9, s = 1) of criteria 08 and 10,
    sampled once."""
    return analysis.estimate_c_star(1.9, 1.0, N=8, n_samples=200, seed=2026)


def constraint_residuals(f: spectral.SpectralVelocity) -> dict:
    """Hermitian, parity, mean and slab-divergence residuals of ``f``,
    relative to its largest coefficient (times N for the divergence)."""
    c, N = f.coeffs, f.N
    scale = max(float(np.abs(c).max()), 1e-300)
    m1, m2, _ = spectral.lattice(N)
    div = m1[:, :, N] * c[0, :, :, N] + m2[:, :, N] * c[1, :, :, N]
    return {"hermitian": float(np.abs(c - np.conj(c[:, ::-1, ::-1, ::-1])).max()) / scale,
            "parity": float(np.abs(c - c[:, :, :, ::-1]).max()) / scale,
            "mean": float(np.abs(c[:, N, N, N]).max()) / scale,
            "divergence": float(np.abs(div).max()) / (scale * N)}


def _good_set_runs(u0, cfg: SimConfig, goodset: GoodSetParams, seed: int,
                   n_good: int, max_draws: int) -> list:
    """Runs on the first ``n_good`` paths ``path_seed(seed, i)``, i <
    ``max_draws``, that stay in the good set."""
    paths = (stochastic.sample_path(cfg.horizon, cfg.dt, stochastic.path_seed(seed, i))
             for i in range(max_draws))
    good = (path for path in paths if stochastic.good_set_indicator(path, goodset)[0])
    return [dynamics.run(u0, cfg, path) for path in itertools.islice(good, n_good)]


def globality_ensemble(kind: str, eps: float) -> tuple:
    """Criterion 08's datum and base-nu config for the ``kind`` noise."""
    alpha = -4.0 * math.log(eps)
    if kind == "diffusion":
        nu, eta = 0.1, alpha / 10.0
        u0 = initial_data.normalize_to(initial_data.single_mode(4), 0.5,
                                       GevreyParams(1.9, 1.0, alpha + eta))
        s, sigma, radius = 1.0, 1.9, RadiusSchedule.linear(alpha, nu ** 2 / 4, eta=eta)
    else:
        phi0 = 0.15
        u0 = initial_data.normalize_to(initial_data.two_mode(4), 2.0,
                                       GevreyParams(2.6, 1.0, phi0))
        required = (8.0 * c_sigma().value / phi0) * (eps ** -4 * 2.0 + 1.0)
        nu, s, sigma = math.sqrt(1.3 * required), 0.0, 2.6
        radius = RadiusSchedule.constant(phi0)
    return u0, SimConfig(noise=kind, nu=nu, s=s, sigma=sigma, radius=radius,
                         n_modes=4, dt=1e-2, horizon=0.4, seed=99)


# ------------------------------------------------------------- criteria ---

@_check("goodset-anchor", criterion=1)
def goodset_anchor() -> dict:
    """Good-set survival of 10 000 paths against the exact value and the paper's bound."""
    params = GoodSetParams(alpha=2.0, beta=0.5, nu=1.0)
    est = stochastic.good_set_probability(params, T=50.0, dt=1e-3,
                                          n_paths=10_000, seed=20260810)
    exact, bound = stochastic.survival_exact(params), stochastic.survival_paper_bound(params)
    ok = (abs(est.estimate - exact) <= 3.0 * est.std_error
          and est.estimate >= bound - (est.ci_high - est.estimate))
    return {"estimate": est.estimate, "std_error": est.std_error, "exact": exact,
            "paper_bound": bound, "ok": bool(ok),
            "detail": f"estimate {est.estimate:.4f} vs exact {exact:.4f} "
                      f"(3se = {3 * est.std_error:.4f}), paper bound {bound:.4f}"}


@_check("cancellation", criterion=2)
def cancellation(seed=7) -> dict:
    """Structural identities of the transport on 100 projected fields."""
    N = 8
    m1, m2, m3 = spectral.lattice(N)
    cancel = idem = parity = div = constraints = 0.0
    for i in range(100):
        u = spectral.project_constraints(spectral.random_coefficients(
            N, np.random.SeedSequence(entropy=seed, spawn_key=(i,)), decay=3.5))
        constraints = max(constraints, *constraint_residuals(u).values())
        scale = np.abs(u.coeffs).max()
        again = spectral.project_constraints(u)
        idem = max(idem, float(np.abs(again.coeffs - u.coeffs).max() / scale))
        q = spectral.transport_bilinear(u)
        l2 = gevrey.norm(u, "L2", GevreyParams(1.0, 1.0, 0.0))
        cancel = max(cancel, abs(spectral.inner_product(q, u)) / l2 ** 3)
        qc = q.coeffs
        parity = max(parity, float(np.abs(qc - qc[:, :, :, ::-1]).max()
                                   / max(np.abs(qc).max(), 1e-300)))
        w = spectral.vertical_velocity(u)
        resid = m3 * w.coeffs + (m1 * u.coeffs[0] + m2 * u.coeffs[1])
        div = max(div, float(np.abs(resid).max() / scale))
    ok = (cancel <= 1e-10 and idem <= 1e-12 and parity <= 1e-12
          and div <= 1e-12 * N and constraints <= 1e-12)
    return {"cancellation": cancel, "idempotence": idem, "parity": parity,
            "divergence": div, "ok": bool(ok),
            "detail": f"cancellation {cancel:.2e} (<=1e-10), idempotence {idem:.2e}, "
                      f"parity {parity:.2e}, divergence {div:.2e} (<=1e-12 rel)"}


@_check("conservation", criterion=3)
def conservation() -> dict:
    """Relative L2 drift of the deterministic (nu = 0) run."""
    cfg = SimConfig(noise="none", nu=0.0, s=0.0, sigma=2.6,
                    radius=RadiusSchedule.constant(0.3), n_modes=8, dt=1e-3, horizon=1.0)
    rec = dynamics.run(initial_data.two_mode(8, amplitude=0.05), cfg)
    drift = float(abs(rec.l2_norm_u[-1] - rec.l2_norm_u[0]) / rec.l2_norm_u[0])
    return {"status": rec.status, "drift": drift,
            "ok": rec.status == "completed" and drift <= 1e-6,
            "detail": f"status {rec.status}, relative L2 drift {drift:.2e} (<= 1e-6)"}


@_check("exponents", criterion=4)
def exponents() -> dict:
    """Constructive exponent verdicts against a grid search, sigma*s 1.55-1.95."""
    table = []
    agree = True
    for ss in [round(1.55 + 0.05 * i, 2) for i in range(9)]:
        constructive = analysis.feasible_exponents(ss, 1.0) is not None
        oracle = analysis.exponent_grid_search(ss, 1.0) is not None
        table.append({"sigma_s": ss, "feasible": constructive, "oracle": oracle})
        agree = agree and constructive == oracle
    boundary = (not table[1]["feasible"]) and table[2]["feasible"]  # 1.60 vs 1.65
    verdicts = {row["sigma_s"]: row["feasible"] for row in table}
    return {"table": table, "boundary_between_1.60_and_1.65": boundary,
            "ok": agree and boundary,
            "detail": f"verdicts {verdicts}, oracle agreement {agree}"}


@_check("picard-consistency", criterion=6)
def picard_consistency() -> dict:
    """Picard fixed point on the zero path, and the stepper converging to it."""
    T = 0.05
    u0 = initial_data.normalize_to(initial_data.random_analytic(8, radius=0.3, seed=11),
                                   1e-2, GevreyParams(1.9, 1.0, 0.2))
    path = dynamics._zero_path(T, 1e-4)
    sup_diff = []
    for n_nodes in (33, 65):
        cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                        radius=RadiusSchedule.linear(0.2, 0.5), n_modes=8,
                        dt=T / (n_nodes - 1), horizon=T)
        prob = picard.MildProblem(u0=u0, cfg=cfg, horizon=T, n_nodes=n_nodes, tol=1e-13)
        res = picard.fixed_point_solve(prob, path)
        if n_nodes == 33:
            coarse, again = res, picard.duhamel_map(res.trajectory, prob, path)
            consistency = picard._sup_norm(
                (a - b for a, b in zip(res.trajectory, again)), prob)
        u, t, worst = u0, 0.0, 0.0
        for k in range(n_nodes - 1):
            u = dynamics.step_diffusion(u, t, cfg.dt, path, cfg)
            t += cfg.dt
            p = GevreyParams(1.9, 1.0, cfg.radius.value(t))
            worst = max(worst, gevrey.norm(u - res.trajectory[k + 1], "Gevrey", p))
        sup_diff.append(worst)
    d_coarse, d_fine = sup_diff
    ratio = d_coarse / d_fine
    ok = (coarse.contraction_estimate < 1.0 and consistency <= 2.0 * prob.tol
          and d_fine < d_coarse and 1.6 <= ratio <= 2.4)
    return {"iterations": coarse.iterations,
            "contraction_estimate": coarse.contraction_estimate,
            "error_bound": coarse.error_bound, "fixed_point_consistency": consistency,
            "sup_diff_33_nodes": d_coarse, "sup_diff_65_nodes": d_fine,
            "refinement_ratio": ratio, "ok": bool(ok),
            "detail": f"sup diff {d_coarse:.3e} -> {d_fine:.3e} under 2x refinement, "
                      f"ratio {ratio:.2f} (need [1.6, 2.4])"}


@_check("damping-gronwall", criterion=7)
def damping_gronwall() -> dict:
    """Compensated-norm bound of the damping form on 50 good-set paths."""
    sigma, phi0, alpha, nu2 = 2.6, 1.0, 1.0, 60.0
    nu, beta = math.sqrt(nu2), nu2 / 4.0
    u0 = initial_data.normalize_to(initial_data.two_mode(5), 0.05,
                                   GevreyParams(sigma, 1.0, phi0))
    sched = RadiusSchedule.damping(phi0, alpha, beta, nu, c_sigma().value, 0.05)
    cfg = SimConfig(noise="damping", nu=nu, s=0.0, sigma=sigma, radius=sched,
                    n_modes=5, dt=2.5e-3, horizon=0.5)
    records = _good_set_runs(u0, cfg, GoodSetParams(alpha, beta, nu), seed=314,
                             n_good=50, max_draws=400)
    excess = max((float((np.exp(alpha + 0.5 * nu2 * rec.times) * rec.gevrey_norm_u).max())
                  / (math.exp(alpha) * rec.gevrey_norm_u[0]) - 1.0 for rec in records),
                 default=-math.inf)
    min_phi = min((float(rec.phi.min()) for rec in records), default=math.inf)
    n_good, completed = len(records), sum(rec.status == "completed" for rec in records)
    ok = (sched.limit() >= 0.0 and completed == n_good == 50
          and excess <= 1e-3 and min_phi > 0.0)
    return {"n_good": n_good, "completed": completed, "worst_excess": excess,
            "min_radius": min_phi, "radius_limit": sched.limit(), "ok": bool(ok),
            "detail": f"{n_good} good-set paths, worst compensated-norm excess "
                      f"{excess:.2e} (<= 1e-3), min radius {min_phi:.4f} (> 0)"}


@_check("globality", criterion=8)
def globality() -> dict:
    """Completed fractions of both noise forms, and at twice their nu."""
    eps, n_paths = 0.5, 200
    result, msgs, ok = {"n_paths": n_paths}, [], True
    for kind in ("diffusion", "damping"):
        u0, cfg = globality_ensemble(kind, eps)
        # the experiment derives its radius from nu, so nu is all that changes
        base, doubled = (dynamics.run_global_experiment(
            u0, eps, replace(cfg, nu=nu), n_paths, c_star=c_star().value,
            c_sigma=c_sigma().value) for nu in (cfg.nu, 2.0 * cfg.nu))
        lower = 1.0 - eps - 3.0 * base.std_error
        joint = 3.0 * math.hypot(base.std_error, doubled.std_error)
        ok = (ok and base.completed_fraction >= lower
              and doubled.completed_fraction >= base.completed_fraction - joint)
        result[kind] = {"fraction": base.completed_fraction, "target": lower,
                        "n_completed_goodset": base.n_completed_goodset,
                        "doubled_nu_fraction": doubled.completed_fraction,
                        "doubled_nu_n_completed_goodset": doubled.n_completed_goodset}
        msgs.append(f"{kind}: fraction {base.completed_fraction:.3f} "
                    f"(target >= {lower:.3f}; n_completed_goodset "
                    f"{base.n_completed_goodset}/{n_paths}), doubled-nu fraction "
                    f"{doubled.completed_fraction:.3f} (n_completed_goodset "
                    f"{doubled.n_completed_goodset}/{n_paths})")
    return {**result, "ok": bool(ok), "detail": "; ".join(msgs)}


@_check("regularization-contrast", criterion=9)
def regularization_contrast() -> dict:
    """A deterministic blowup that good-set damping paths complete."""
    T, sigma = 1.0, 2.6
    v0 = initial_data.two_mode(6, amplitude=3.0, mode_a=(0, 0, 1), ratio=0.5,
                               mode_b=(1, 0, 1), component_b=0)
    det = dynamics.run(v0, SimConfig(noise="none", nu=0.0, s=0.0, sigma=sigma,
                                     radius=RadiusSchedule.constant(0.5), n_modes=6,
                                     dt=1e-3, horizon=T, blowup_factor=1e3))
    growth = float(det.max_gevrey_norm / det.gevrey_norm_u[0])

    eps, phi0 = 0.5, 0.25
    alpha = -4.0 * math.log(eps)
    v0n = gevrey.norm(v0, "Gevrey", GevreyParams(sigma, 1.0, phi0))
    nu = math.sqrt(1.1 * (8.0 * c_sigma().value / phi0) * (eps ** -4 * v0n + 1.0))
    beta = nu ** 2 / 4.0
    sched = RadiusSchedule.damping(phi0, alpha, beta, nu, c_sigma().value, v0n)
    cfg = SimConfig(noise="damping", nu=nu, s=0.0, sigma=sigma, radius=sched,
                    n_modes=6, dt=2.5e-3, horizon=T, blowup_factor=1e6)
    records = _good_set_runs(v0, cfg, GoodSetParams(alpha, beta, nu), seed=1618,
                             n_good=25, max_draws=200)
    n_good, completed = len(records), sum(rec.status == "completed" for rec in records)
    frac = completed / n_good if n_good else 0.0
    ok = (det.status == "blowup" and growth >= 1e3 and det.t_final < T
          and n_good == 25 and frac >= 0.8)
    return {"deterministic_status": det.status, "deterministic_t_final": det.t_final,
            "deterministic_growth": growth, "nu": nu, "n_good": n_good,
            "completed": completed, "ok": bool(ok),
            "detail": f"deterministic: {det.status} at t={det.t_final:.2f} with growth "
                      f"{growth:.3g}x; damping (nu={nu:.1f}): {completed}/{n_good} "
                      f"good-set paths completed ({frac:.0%} >= 80%)"}


@_check("estimator-stability", criterion=10)
def estimator_stability() -> dict:
    """c_sigma and c_star from N = 8 to N = 16."""
    r_sigma = analysis.estimate_c_sigma(2.6, N=16, n_samples=200,
                                        seed=2026).value / c_sigma().value
    r_star = analysis.estimate_c_star(1.9, 1.0, N=16, n_samples=200,
                                      seed=2026).value / c_star().value
    return {"c_sigma_ratio": r_sigma, "c_star_ratio": r_star,
            "ok": bool(0.5 < r_sigma < 2.0 and 0.5 < r_star < 2.0),
            "detail": f"c_sigma N8->N16 ratio {r_sigma:.3f}, c_star ratio {r_star:.3f} "
                      f"(both within 2x)"}


# --------------------------------------------------------------- probes ---

@_check("lemma-a1")
def lemma_a1(seed=0) -> dict:
    """Weighted product inequality ratio: finite and scale-invariant."""
    worst = {}
    for r in (0.0, 1.0, 2.0):
        vals = []
        for i in range(40):
            f = analysis.decayed_random_scalar(8, 3.5, np.random.SeedSequence(
                entropy=seed, spawn_key=(int(2 * r), i)))
            g = analysis.decayed_random_scalar(8, 3.5, np.random.SeedSequence(
                entropy=seed, spawn_key=(int(2 * r), i, 1)))
            vals.append(analysis.product_inequality_ratio(f, g, r, 0.05, 0.1))
        worst[f"r={r}"] = max(vals)
    finite = all(math.isfinite(v) for v in worst.values())
    f0 = analysis.decayed_random_scalar(8, 3.5, seed)
    g0 = analysis.decayed_random_scalar(8, 3.5, seed + 1)
    base = analysis.product_inequality_ratio(f0, g0, 1.0, 0.05, 0.1)
    scaled = analysis.product_inequality_ratio(
        replace(f0, coeffs=3.0 * f0.coeffs), g0, 1.0, 0.05, 0.1)
    invariant = abs(scaled - base) <= 1e-9 * base
    return {"max_ratio": worst, "scale_invariant": invariant,
            "ok": finite and invariant}


@_check("nonlinear-estimate")
def nonlinear_estimate(seed=0) -> dict:
    """The c_sigma estimator is a function of its seed; its ratio is scale-invariant."""
    est1 = analysis.estimate_c_sigma(2.6, N=8, n_samples=60, seed=seed)
    est2 = analysis.estimate_c_sigma(2.6, N=8, n_samples=60, seed=seed)
    u = initial_data.random_decay(8, 2.6, 1.0, seed=seed)
    base = analysis.nonlinear_estimate_ratio(u, 2.6, 0.05)
    scaled = analysis.nonlinear_estimate_ratio(5.0 * u, 2.6, 0.05)
    invariant = abs(scaled - base) <= 1e-9 * max(base, 1e-300)
    return {"estimate_c_sigma": est1.value, "p95": est1.p95,
            "deterministic": est1.value == est2.value,
            "scale_invariant": invariant,
            "ok": math.isfinite(est1.value) and est1.value == est2.value and invariant}


@_check("kernel-bound")
def kernel_bound() -> dict:
    """Smoothing-kernel constant at N = 16: finite, positive, stable under refinement."""
    k_max = gevrey.max_abs_k(16)
    coarse = picard.kernel_bound_probe(1.9, 1.0, 2.0, 0.5, k_max, 200, 200)
    fine = picard.kernel_bound_probe(1.9, 1.0, 2.0, 0.5, k_max, 400, 400)
    stable = abs(fine - coarse) <= 0.25 * coarse
    return {"constant_coarse": coarse, "constant_fine": fine,
            "stable_under_refinement": stable,
            "ok": math.isfinite(fine) and fine > 0.0 and stable}
