"""Mild-formulation fixed-point solver for the diffusion-form equation.

The solution map propagates the data with the exact per-mode heat factor
and subtracts the propagated time integral of the projected twisted
transport term (composite trapezoid on a uniform grid).  Iterating the map
from the constant-in-time trajectory realizes the contraction construction;
the largest measured ratio of successive differences estimates the
contraction factor theta.  The iteration stops at the first difference d_k
below the tolerance, or earlier, once theta < 1/2 and the a-posteriori
bound theta/(1 - theta)*d_k on the distance to the fixed point is below it
(the stopping test for contractive iterations in Hairer & Wanner, Solving
ODEs II, IV.8); the factor is then below 1, so that test never stops later
than the first.  The map evaluates one transport per distinct (trajectory
entry, W) pair, so the first iterate on a zero path costs a single
transport, and runs those transports concurrently on the threads of
``dynamics.parallel_map``, as their FFTs run without the interpreter lock;
each is computed alone, so the trajectory does not depend on the CPU count.

The kernel is smooth on the truncated mode set, so the trapezoid rule is
adequate; node-doubling convergence is the verification.  High dissipation
rates at the largest retained wavenumbers produce an under-resolved kernel
layer near the upper integration endpoint, which degrades the node-spacing
convergence rate from second to first order; both regimes are exercised in
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dynamics, gevrey, spectral, stochastic
from .dynamics import SimConfig
from .gevrey import GevreyParams
from .spectral import SpectralVelocity
from .stochastic import BrownianPath

__all__ = [
    "MildProblem",
    "PicardResult",
    "PicardDivergenceError",
    "duhamel_map",
    "fixed_point_solve",
    "kernel_bound_probe",
]


class PicardDivergenceError(RuntimeError):
    """No convergence within the iteration budget, or an iterate that is not
    finite (horizon too large for the data size)."""


@dataclass(frozen=True)
class MildProblem:
    """Fixed-point problem description."""

    u0: SpectralVelocity
    cfg: SimConfig
    horizon: float
    n_nodes: int = 64
    tol: float = 1e-10
    max_iter: int = 40

    def __post_init__(self):
        if self.cfg.noise != "diffusion":
            raise ValueError("the mild formulation applies to the diffusion form")
        dynamics._check_truncation(self.u0, self.cfg)
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"need 0 < horizon < inf, got horizon={self.horizon}")
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 quadrature nodes, got n_nodes={self.n_nodes}")
        if self.max_iter < 1 or not 0.0 < self.tol < math.inf:
            raise ValueError(f"need max_iter >= 1 and 0 < tol < inf, got "
                             f"max_iter={self.max_iter}, tol={self.tol}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_nodes)

    def default_ball_radius(self) -> float:
        """Twice the sqrt(2)-inflated homogeneous Gevrey size of the data at
        the initial radius: the smallest ball the contraction construction
        can use."""
        alpha = self.cfg.radius.value(0.0)
        p = GevreyParams(self.cfg.sigma, self.cfg.s, alpha)
        return 2.0 * math.sqrt(2.0) * gevrey.norm(self.u0, "Gevrey_dot", p)


@lru_cache(maxsize=4)
def _heat_factors(N: int, s: float, nu: float, h: float, n: int) -> tuple:
    """Per-mode heat factors exp(-0.5*nu^2*(d*h)*|k|^(2s)) for d = 0..n-1,
    read-only and built once per grid, not once per map application."""
    rate = -0.5 * nu ** 2 * spectral.abs_k(N) ** (2.0 * s)
    factors = tuple(np.exp(rate * (d * h)) for d in range(n))
    for f in factors:
        f.setflags(write=False)
    return factors


def duhamel_map(trajectory: list, prob: MildProblem, path: BrownianPath) -> list:
    """Apply the mild solution map to a trajectory on the quadrature grid.

    Element i of the result is the heat-propagated data at t_i minus the
    trapezoid approximation of the propagated integrand over [0, t_i]; the
    output has zero mean at every node.  Nodes that hold the same trajectory
    object under equal W values are one input and share one transport; the
    distinct transports run on the threads of ``dynamics.parallel_map`` in
    node order.
    """
    times = prob.times
    n = len(times)
    if len(trajectory) != n:
        raise ValueError(f"trajectory has {len(trajectory)} nodes, expected {n}")
    cfg = prob.cfg
    N = prob.u0.N
    h = times[1] - times[0]
    heat = _heat_factors(N, cfg.s, cfg.nu, h, n)

    # (id of the trajectory entry, W) per node, and the input of each distinct
    # key; ``trajectory`` keeps every entry alive during the call, so an id
    # names one input
    keys, inputs = [], {}
    for entry, t in zip(trajectory, times):
        w = path.value_at(float(t))
        keys.append((id(entry), w))
        inputs.setdefault(keys[-1], (entry, w))
    transports = dict(zip(inputs, dynamics.parallel_map(
        lambda job: dynamics.twisted_transport(job[0], cfg.nu, job[1], cfg.s).coeffs,
        inputs.values())))
    integrand = [transports[key] for key in keys]

    out = []
    zero_idx = (slice(None), N, N, N)
    # running[i] = sum_{j<i} heat[i-j] * integrand[j], by heat[a+b] = heat[a]*heat[b]
    running = np.zeros_like(prob.u0.coeffs)
    for i in range(n):
        acc = heat[i] * prob.u0.coeffs
        if i > 0:
            running = heat[1] * (running + integrand[i - 1])
            total = running - 0.5 * heat[i] * integrand[0] + 0.5 * integrand[i]
            acc = acc - h * total
        acc[zero_idx] = 0.0
        out.append(SpectralVelocity(acc, N))
    return out


@dataclass
class PicardResult:
    trajectory: list  # on the grid ``prob.times``
    iterations: int
    contraction_estimate: float
    difference_history: list
    sup_norm: float
    # theta/(1 - theta) * d at return: NaN before a ratio exists, inf once theta >= 1
    error_bound: float
    stayed_in_ball: bool = True  # within ``prob.default_ball_radius()``


def _sup_norm(fields, prob: MildProblem) -> float:
    """Largest Gevrey norm of ``fields``, one per node, each at its node's
    radius; NaN or inf when a node norm is.  ``fields`` may be a generator,
    such as one of differences, so that they are not all alive at once."""
    cfg = prob.cfg
    return float(np.max([
        gevrey.norm(u, "Gevrey", GevreyParams(cfg.sigma, cfg.s, cfg.radius.value(float(t))))
        for t, u in zip(prob.times, fields)]))


def fixed_point_solve(prob: MildProblem, path: BrownianPath) -> PicardResult:
    """Iterate the mild solution map from the constant-in-time trajectory.

    The starting trajectory is one projected datum shared by every node.
    Stops at the first iteration where the sup-Gevrey distance d between
    successive trajectories is below ``prob.tol``, or where the contraction
    estimate theta is below 1/2 and the error bound theta/(1 - theta)*d is
    below ``prob.tol``; raises PicardDivergenceError once d is not finite,
    or after ``max_iter`` iterations, mirroring the horizon-smallness
    requirement of the contraction construction.  A path whose nu*W passes
    the radius at a node is refused with ``dynamics.RadiusViolationError``.
    """
    nu_w = prob.cfg.nu * np.interp(prob.times, path.times, path.values)
    radius = np.array([prob.cfg.radius.value(float(t)) for t in prob.times])
    if (k := stochastic.first_exit(nu_w, radius + 1e-12)) is not None:  # as recover_solution
        raise dynamics.RadiusViolationError(
            f"nu*W = {nu_w[k]:.6g} exceeds tracked radius {radius[k]:.6g} at "
            f"t = {prob.times[k]:.6g}, node {k} of the mild problem's grid")
    u0p = spectral.project_constraints(prob.u0)
    current = [u0p] * prob.n_nodes  # one object: one transport per distinct W
    ball = prob.default_ball_radius()
    in_ball = True
    diffs = []
    contraction = math.nan
    for it in range(1, prob.max_iter + 1):
        nxt = duhamel_map(current, prob, path)
        d = _sup_norm((a - b for a, b in zip(nxt, current)), prob)
        if not math.isfinite(d):
            raise PicardDivergenceError(
                f"iteration {it} is not finite (difference {d}); "
                "shrink the horizon or the data")
        diffs.append(d)
        current = nxt
        sup = _sup_norm(current, prob)
        in_ball = in_ball and sup <= ball * (1.0 + 1e-12)
        if len(diffs) >= 2 and diffs[-2] > 0.0:
            ratio = diffs[-1] / diffs[-2]
            contraction = ratio if math.isnan(contraction) else max(contraction, ratio)
        bound = (contraction / (1.0 - contraction) * d if contraction < 1.0
                 else math.inf if contraction >= 1.0 else math.nan)
        if d < prob.tol or (contraction < 0.5 and bound < prob.tol):
            return PicardResult(
                trajectory=current,
                iterations=it,
                contraction_estimate=contraction,
                difference_history=diffs,
                sup_norm=sup,
                error_bound=bound,
                stayed_in_ball=in_ball,
            )
    raise PicardDivergenceError(
        f"no convergence after {prob.max_iter} iterations "
        f"(last difference {diffs[-1]:.3e}); shrink the horizon or the data")


def kernel_bound_probe(sigma: float, s: float, nu: float, beta: float,
                       k_max: float, n_k: int = 400, n_tau: int = 400,
                       tau_min: float = 1e-4, tau_max: float = 1.0) -> float:
    """Empirical constant in the smoothing kernel bound.

    Maximizes |k|^(2*sigma*s) * exp((2*beta*|k|^s - nu^2*|k|^(2s)) * tau)
    * tau^sigma over a (k, tau) scan; finite whenever beta < nu^2/2 and
    |k| >= 2*pi.
    """
    if beta >= 0.5 * nu ** 2:
        raise ValueError(f"need beta < nu^2/2, got beta={beta}, nu={nu}")
    kk = np.linspace(2.0 * np.pi, k_max, n_k)
    tau = np.geomspace(tau_min, tau_max, n_tau)
    ks = kk[:, None] ** s
    k2s = kk[:, None] ** (2.0 * s)
    expo = (2.0 * beta * ks - nu ** 2 * k2s) * tau[None, :]
    vals = kk[:, None] ** (2.0 * sigma * s) * np.exp(expo) * tau[None, :] ** sigma
    return float(vals.max())
