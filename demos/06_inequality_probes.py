"""Inequality machinery at desk scale.

Feasibility of the convolution exponents with the sharp 8/5 boundary
(criterion 04), the smoothing-kernel constant (``verify kernel-bound``),
weighted product ratios (``verify lemma-a1``), and the empirical transport
constants and damping radius of criteria 07-10, each as its registry check
computes it; then the twisted cancellation diagnostic.
"""

from hydrostat import analysis, checks, initial_data

print("convolution exponent feasibility (s = 1), criterion 04:")
for row in checks.exponents()["table"]:
    pair = analysis.feasible_exponents(row["sigma_s"], 1.0)
    tag = f"feasible at p={pair.p:.4g}" if pair else "infeasible"
    agree = row["feasible"] == row["oracle"]
    print(f"  sigma*s = {row['sigma_s']:.2f}: {tag:26s} grid-search agrees: {agree}")

print("\nsmoothing kernel constant, verify kernel-bound:")
kernel = checks.kernel_bound()
print(f"  coarse scan: C = {kernel['constant_coarse']:.6g}")
print(f"  fine scan  : C = {kernel['constant_fine']:.6g}")

print("\nweighted product ratios, verify lemma-a1:")
for r, ratio in checks.lemma_a1()["max_ratio"].items():
    print(f"  {r}: max ratio over the samples = {ratio:.4e}")

print("\nempirical transport constants of criteria 07-10 (sampled maxima):")
cs, cst = checks.c_sigma(), checks.c_star()
print(f"  c_sigma = {cs.value:.4e}  (p95 {cs.p95:.4e})")
print(f"  c_star  = {cst.value:.4e}  (p95 {cst.p95:.4e})")

print("\ndamping threshold of criterion 07 with the estimated c_sigma:")
limit = checks.damping_gronwall()["radius_limit"]
print(f"  limit radius {limit:.4g}, ok (>= 0) = {limit >= 0.0}")

print("\ntwisted cancellation diagnostic |<B(u,u), u>| / |u|^3:")
u = initial_data.random_decay(8, 2.0, 1.0, seed=9)
for nu_w in (0.0, 0.05, 0.1, 0.2):
    val = analysis.twisted_cancellation_residual(u, 1.0, nu_w, 1.0)
    print(f"  nu*W = {nu_w:4.2f}: {val:.4e}")
