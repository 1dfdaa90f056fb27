"""Inequality machinery at desk scale.

Feasibility of the convolution exponents with the sharp 8/5 boundary, the
smoothing-kernel constant, weighted product ratios, and the empirical
transport constants used by the damping schedule.
"""

import numpy as np

from hydrostat import analysis, gevrey, initial_data, picard
from hydrostat.dynamics import RadiusSchedule

print("convolution exponent feasibility (s = 1):")
for ss in (1.55, 1.60, 1.61, 1.65, 1.80, 1.95):
    pair = analysis.feasible_exponents(ss, 1.0)
    oracle = analysis.exponent_grid_search(ss, 1.0)
    tag = f"feasible at p={pair.p:.4g}" if pair else "infeasible"
    agree = (pair is None) == (oracle is None)
    print(f"  sigma*s = {ss:.2f}: {tag:26s} grid-search agrees: {agree}")

print("\nsmoothing kernel constant (sigma=1.9, s=1, nu=2, beta=0.5):")
for n in (200, 400):
    c = picard.kernel_bound_probe(1.9, 1.0, 2.0, 0.5,
                                  k_max=gevrey.max_abs_k(16), n_k=n, n_tau=n)
    print(f"  scan density {n}: C = {c:.6g}")

print("\nweighted product ratios (sampled empirical constants):")
for r in (0.0, 1.0, 2.0):
    vals = []
    for i in range(40):
        f = analysis.decayed_random_scalar(8, 3.5, np.random.SeedSequence(
            entropy=1, spawn_key=(int(r), i)))
        g = analysis.decayed_random_scalar(8, 3.5, np.random.SeedSequence(
            entropy=2, spawn_key=(int(r), i)))
        vals.append(analysis.product_inequality_ratio(f, g, r, 0.05, 0.1))
    print(f"  r = {r}: max ratio over 40 samples = {max(vals):.4e}")

print("\nempirical transport constants (max over 100 samples):")
cs = analysis.estimate_c_sigma(2.6, N=8, n_samples=100, seed=5)
print(f"  c_sigma(sigma=2.6, N=8)  = {cs.value:.4e}  (p95 {cs.p95:.4e})")
cst = analysis.estimate_c_star(1.9, 1.0, N=8, n_samples=100, seed=5)
print(f"  c_star(sigma=1.9, s=1)   = {cst.value:.4e}  (p95 {cst.p95:.4e})")

print("\ndamping thresholds with the estimated constant "
      "(phi0=1, nu^2=60, beta=15, alpha=1, |U0|=0.05):")
sched = RadiusSchedule.damping(1.0, 1.0, 15.0, np.sqrt(60.0), cs.value, 0.05)
print(f"  limit radius {sched.limit():.4g}, ok (>= 0) = {sched.limit() >= 0.0}")

print("\ntwisted cancellation diagnostic |<B(u,u), u>| / |u|^3:")
u = initial_data.random_decay(8, 2.0, 1.0, seed=9)
for nu_w in (0.0, 0.05, 0.1, 0.2):
    val = analysis.twisted_cancellation_residual(u, 1.0, nu_w, 1.0)
    print(f"  nu*W = {nu_w:4.2f}: {val:.4e}")
