"""Fixed-point construction of mild solutions.

Criterion 06's experiment (``hydrostat verify picard-consistency``), on the
finer of its two time grids.  Iterates the solution map from the constant
trajectory, prints the geometric decay of successive differences, the
measured contraction factor theta, the a-posteriori error bound
theta/(1 - theta)*d on the distance to the fixed point and which test
stopped the solve (the last difference d below the tolerance, or, with
theta < 1/2, the error bound below it), and the criterion's cross-check of
the converged trajectory against the time stepper on the same grid.
"""

from hydrostat import checks, picard

problems, path = checks.mild_problems()
prob = problems[-1]

res = picard.fixed_point_solve(prob, path)
stop = ("last difference" if res.difference_history[-1] < prob.tol
        else "error bound")
print(f"{prob.n_nodes} time nodes: converged in {res.iterations} iterations; "
      f"contraction estimate {res.contraction_estimate:.3e}")
print(f"stopped by the {stop} below tol {prob.tol:.0e}; "
      f"error bound {res.error_bound:.3e}")
print("successive sup-norm differences:")
for k, d in enumerate(res.difference_history, 1):
    print(f"  iter {k}: {d:.3e}")

sup = checks.picard_consistency()["sup_diff_65_nodes"]
print(f"\nsup-Gevrey distance to the time stepper on the shared grid: {sup:.3e}")
print(f"ball radius of the construction: {prob.default_ball_radius():.3e}, "
      f"sup norm of the solution: {res.sup_norm:.3e}")
