"""Structural identities of the truncated state space.

Projects a random coefficient set onto the constraint space, derives the
vertical velocity, and measures the identities that make the energy
arguments work: divergence compatibility, transport cancellation, and
parity closure.  All residuals sit at round-off because products are
evaluated alias-free.
"""

import numpy as np

from hydrostat import gevrey, spectral
from hydrostat.gevrey import GevreyParams

N = 8
rng_seed = 42

f = spectral.random_coefficients(N, rng_seed, decay=3.5)
v = spectral.project_constraints(f)
print(f"random field at N={N}, projected onto the constraint space")

# the projection is idempotent
v2 = spectral.project_constraints(v)
print(f"  idempotence residual      : "
      f"{np.abs(v2.coeffs - v.coeffs).max() / np.abs(v.coeffs).max():.2e}")

# vertical velocity closes the divergence exactly on retained modes
w = spectral.vertical_velocity(v)
m1, m2, m3 = spectral.lattice(N)
resid = np.abs(m3 * w.coeffs + (m1 * v.coeffs[0] + m2 * v.coeffs[1])).max()
print(f"  divergence compatibility  : {resid:.2e}")
print(f"  vertical velocity parity  : {w.parity}")

# the transport term sees a real velocity field: energy flux cancels
q = spectral.transport_bilinear(v)
l2 = gevrey.norm(v, "L2", GevreyParams(1.0, 1.0))
cancel = abs(spectral.inner_product(q, v)) / l2 ** 3
print(f"  transport cancellation    : {cancel:.2e}  (|<Q(v,v), v>| / |v|^3)")

# even vertical parity is closed under the nonlinearity
qc = q.coeffs
closure = np.abs(qc - qc[:, :, :, ::-1]).max() / np.abs(qc).max()
print(f"  parity closure of Q       : {closure:.2e}")

# the hydrostatic projection contracts every multiplier norm
p = GevreyParams(1.9, 1.0, 0.1)
print(f"  projection contraction    : "
      f"{gevrey.norm(spectral.hydrostatic_leray(f), 'Gevrey', p):.6f} <= "
      f"{gevrey.norm(f, 'Gevrey', p):.6f}")
