"""Fixed-point construction of mild solutions.

Iterates the solution map from the constant trajectory, prints the
geometric decay of successive differences, the measured contraction
factor theta, the a-posteriori error bound theta/(1 - theta)*d on the
distance to the fixed point and which test stopped the solve (the last
difference d below the tolerance, or, with theta < 1/2, the error bound
below it), and cross-checks the converged trajectory against the time
stepper on the same grid.
"""

from hydrostat import dynamics, gevrey, initial_data, picard
from hydrostat.dynamics import RadiusSchedule, SimConfig
from hydrostat.gevrey import GevreyParams

N = 8
T = 0.05
u0 = initial_data.random_analytic(N, radius=0.3, seed=11)
u0 = initial_data.normalize_to(u0, 1e-2, GevreyParams(1.9, 1.0, 0.2))

cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                radius=RadiusSchedule.linear(0.2, 0.5), n_modes=N,
                dt=T / 64, horizon=T)
prob = picard.MildProblem(u0=u0, cfg=cfg, horizon=T, n_nodes=65, tol=1e-12)
path = dynamics._zero_path(T, 1e-3)

res = picard.fixed_point_solve(prob, path)
stop = ("last difference" if res.difference_history[-1] < prob.tol
        else "error bound")
print(f"converged in {res.iterations} iterations; "
      f"contraction estimate {res.contraction_estimate:.3e}")
print(f"stopped by the {stop} below tol {prob.tol:.0e}; "
      f"error bound {res.error_bound:.3e}")
print("successive sup-norm differences:")
for k, d in enumerate(res.difference_history, 1):
    print(f"  iter {k}: {d:.3e}")

u = u0
t = 0.0
sup = 0.0
for k in range(64):
    u = dynamics.step_diffusion(u, t, cfg.dt, path, cfg)
    t += cfg.dt
    p = GevreyParams(1.9, 1.0, cfg.radius.value(t))
    sup = max(sup, gevrey.norm(u - res.trajectory[k + 1], "Gevrey", p))
print(f"\nsup-Gevrey distance to the time stepper on the shared grid: {sup:.3e}")
print(f"ball radius of the construction: {prob.default_ball_radius():.3e}, "
      f"sup norm of the solution: {res.sup_norm:.3e}")
