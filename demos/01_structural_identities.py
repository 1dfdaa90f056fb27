"""Structural identities of the truncated state space.

Criterion 02's experiment (``hydrostat verify cancellation``): random
coefficient sets projected onto the constraint space, their vertical
velocity, and the identities that make the energy arguments work:
divergence compatibility, transport cancellation, and parity closure.  All
residuals sit at round-off because products are evaluated alias-free.
"""

from hydrostat import checks, gevrey, spectral
from hydrostat.gevrey import GevreyParams

result = checks.cancellation()
print("criterion 02's random fields, projected onto the constraint space; "
      "the largest residual over them")

# the projection is idempotent
print(f"  idempotence residual      : {result['idempotence']:.2e}")

# vertical velocity closes the divergence exactly on retained modes
print(f"  divergence compatibility  : {result['divergence']:.2e}")

# the transport term sees a real velocity field: energy flux cancels
print(f"  transport cancellation    : {result['cancellation']:.2e}  "
      f"(|<Q(v,v), v>| / |v|^3)")

# even vertical parity is closed under the nonlinearity
print(f"  parity closure of Q       : {result['parity']:.2e}")

f = next(checks.cancellation_fields())
print("on the first field:")
print(f"  vertical velocity parity  : "
      f"{spectral.vertical_velocity(spectral.project_constraints(f)).parity}")

# the hydrostatic projection contracts every multiplier norm
p = GevreyParams(1.9, 1.0, 0.1)
print(f"  projection contraction    : "
      f"{gevrey.norm(spectral.hydrostatic_leray(f), 'Gevrey', p):.6f} <= "
      f"{gevrey.norm(f, 'Gevrey', p):.6f}")
