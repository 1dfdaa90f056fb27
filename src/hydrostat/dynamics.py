"""Time integration of the two transformed random PDEs.

Diffusion form: the noise conjugation turns the stochastic equation into a
pathwise random PDE with emergent dissipation -0.5*nu^2*|k|^(2s) and a
twisted transport term evaluated in the original variables.  Each step
freezes W at its left endpoint, applies the linear factor exactly per mode,
advances the twisted nonlinearity with a classical four-stage Runge-Kutta
combination under the integrating factor, and re-projects the structural
constraints.  Pathwise accuracy is therefore limited by the path
regularity; self-convergence (not exact-solution convergence) is the
verifiable property.

Damping form (s = 0, the scalar case of the same conjugation):
u' = -0.5*nu^2 u - exp(nu*W) P Q(u, u).  With W frozen per step,
u(t) = exp(-nu^2 t/2) Z(tau(t)), where Z solves the nu = 0 equation and tau
is the path's clock ``stochastic.damping_clock``, exact per step.  So
damping runs do not step their paths: one Z, stepped by ``step_damping`` on
an error-controlled tau grid, serves every path of an ensemble, and each
u(t_k) is read off it by four-node cubic Lagrange interpolation.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import gevrey, spectral, stochastic
from .gevrey import ExponentCapError, GevreyParams
from .spectral import SpectralVelocity
from .stochastic import BrownianPath

__all__ = [
    "RadiusSchedule",
    "SimConfig",
    "RunRecord",
    "RadiusViolationError",
    "ThresholdError",
    "twisted_transport",
    "step_diffusion",
    "step_damping",
    "run",
    "recover_solution",
    "parallel_map",
    "run_ensemble",
    "run_global_experiment",
    "GlobalExperimentResult",
]

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blowup"
STATUS_RADIUS_EXHAUSTED = "radius_exhausted"
STATUS_GOODSET_EXIT = "goodset_exit"
STATUS_EXPONENT_CAP = "exponent_cap"


class RadiusViolationError(ValueError):
    """Noise exponent exceeds the tracked radius; back-transform unbounded."""


class ThresholdError(ValueError):
    """Experiment parameters violate a required smallness/largeness condition."""


def _check_finite(obj, *names: str) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")


@dataclass(frozen=True)
class RadiusSchedule:
    """Moving Gevrey/analytic radius.

    kinds:
      * 'linear':   phi(t) = alpha + beta*t
      * 'constant': phi(t) = alpha
      * 'damping':  phi(t) = phi0 - (4*c_sigma/(nu^2 - 2*beta))
                    * (exp(alpha)*v0_norm + 1) * (1 - exp(-(nu^2/2 - beta)*t))

    ``eta`` is a uniform offset added to the tracked radius at every time.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    phi0: float = 0.0
    nu: float = 0.0
    c_sigma: float = 0.0
    v0_norm: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "constant", "damping"):
            raise ValueError(f"unknown radius schedule kind {self.kind!r}")
        _check_finite(self, "alpha", "beta", "phi0", "nu", "c_sigma", "v0_norm", "eta")
        if self.eta < 0.0:
            raise ValueError("eta must be non-negative")
        if self.kind == "linear" and self.alpha <= 0.0:
            raise ValueError("linear schedule needs alpha > 0")
        if self.kind == "damping":
            if self.phi0 <= 0.0:
                raise ValueError("damping schedule needs phi0 > 0")
            if not 2.0 * self.beta < self.nu * self.nu:  # inf, not OverflowError, at a huge nu
                raise ValueError("damping schedule needs beta < nu^2/2")
            if self.c_sigma <= 0.0:
                raise ValueError("damping schedule needs c_sigma > 0")

    @classmethod
    def linear(cls, alpha: float, beta: float, eta: float = 0.0) -> "RadiusSchedule":
        return cls(kind="linear", alpha=alpha, beta=beta, eta=eta)

    @classmethod
    def constant(cls, value: float, eta: float = 0.0) -> "RadiusSchedule":
        return cls(kind="constant", alpha=value, eta=eta)

    @classmethod
    def damping(cls, phi0: float, alpha: float, beta: float, nu: float,
                c_sigma: float, v0_norm: float, eta: float = 0.0) -> "RadiusSchedule":
        return cls(kind="damping", phi0=phi0, alpha=alpha, beta=beta, nu=nu,
                   c_sigma=c_sigma, v0_norm=v0_norm, eta=eta)

    def _damping_depth(self) -> float:
        """Total radius loss of the 'damping' schedule as t -> inf."""
        return (4.0 * self.c_sigma / (self.nu ** 2 - 2.0 * self.beta)) \
            * (math.exp(self.alpha) * self.v0_norm + 1.0)

    def value(self, t) -> float:
        """Tracked radius including the eta offset."""
        if self.kind == "linear":
            return self.alpha + self.beta * t + self.eta
        if self.kind == "constant":
            return self.alpha + self.eta
        rate = 0.5 * self.nu ** 2 - self.beta
        return self.phi0 - self._damping_depth() * (1.0 - math.exp(-rate * t)) + self.eta

    def limit(self) -> float:
        """Long-time radius (without eta): finite for 'damping' and 'constant',
        and for 'linear' +inf, alpha or -inf by the sign of beta."""
        if self.kind == "damping":
            return self.phi0 - self._damping_depth()
        if self.kind == "constant":
            return self.alpha
        if self.beta > 0.0:
            return math.inf
        return -math.inf if self.beta < 0.0 else self.alpha


NOISE_KINDS = ("diffusion", "damping", "none")


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description for a single run."""

    noise: str
    nu: float
    s: float
    sigma: float
    radius: RadiusSchedule
    n_modes: int
    dt: float
    horizon: float
    blowup_factor: float = 1e8
    seed: object = 0

    def __post_init__(self):
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        _check_finite(self, "nu", "sigma", "blowup_factor")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be positive, got {self.n_modes}")
        stochastic.grid_steps(self.horizon, self.dt)
        if self.blowup_factor <= 1.0:
            raise ValueError("blowup_factor must exceed 1")
        if self.noise == "diffusion":
            if not 0.8 < self.s <= 1.0:
                raise ValueError(f"diffusion requires s in (4/5, 1], got {self.s}")
            lo = 8.0 / (5.0 * self.s)
            if not lo < self.sigma < 2.0:
                raise ValueError(
                    f"diffusion requires sigma in ({lo:.4f}, 2), got {self.sigma}")
        elif self.noise == "damping":
            if self.s != 0.0:
                raise ValueError(f"damping requires s = 0, got {self.s}")
            if self.sigma <= 2.5:
                raise ValueError(f"damping requires sigma > 5/2, got {self.sigma}")
        else:  # deterministic baseline
            if self.nu != 0.0:
                raise ValueError("noise 'none' requires nu = 0")
            if self.s != 0.0:
                raise ValueError(f"noise 'none' requires s = 0, got {self.s}")
        if self.noise != "none" and not (self.nu > 0.0 and 0.0 < self.nu * self.nu < math.inf):
            raise ValueError(f"{self.noise} requires nu > 0 and finite nu^2 > 0, got {self.nu}")

    @property
    def norm_s(self) -> float:
        """Weight order of the tracked norm: the noise order for diffusion,
        the analytic class (s = 1) for damping and the baseline."""
        return self.s if self.noise == "diffusion" else 1.0

    def norm_params(self, t: float) -> GevreyParams:
        return GevreyParams(self.sigma, self.norm_s, max(self.radius.value(t), 0.0))


@dataclass
class RunRecord:
    """Sampled time series of one run plus its terminal status."""

    times: np.ndarray
    w_values: np.ndarray
    phi: np.ndarray
    gevrey_norm_u: np.ndarray
    l2_norm_u: np.ndarray
    gevrey_norm_v: np.ndarray  # NaN where the back-transform is unrecoverable
    status: str
    t_final: float
    goodset: bool  # nu*W <= alpha + beta*t at every grid point ('none': no barrier)
    seed: object = None
    name: str = ""

    @property
    def max_gevrey_norm(self) -> float:
        finite = self.gevrey_norm_u[np.isfinite(self.gevrey_norm_u)]
        return float(finite.max()) if finite.size else math.nan

    def summary(self) -> dict:
        """JSON-ready fields; ``max_gevrey_norm`` is None (JSON null) when no
        finite norm was recorded, as for a stop at the cap at t = 0."""
        peak = self.max_gevrey_norm
        return {
            "name": self.name,
            "seed": _seed_repr(self.seed),
            "status": self.status,
            "t_final": self.t_final,
            "max_gevrey_norm": None if math.isnan(peak) else peak,
            "goodset": self.goodset,
        }


def _seed_repr(seed):
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": seed.entropy, "spawn_key": list(seed.spawn_key)}
    return seed


def twisted_transport(u: SpectralVelocity, nu: float, w: float,
                      s: float) -> SpectralVelocity:
    """Conjugated transport term with W frozen at ``w``: the projected
    transport of the unconjugated field, conjugated back,
    ``exp(-nu*w*A^s) P Q(v, v)`` with ``v = exp(nu*w*A^s) u``.

    The one implementation shared by the steppers, the mild solution map and
    the twisted-estimate probes; at ``s = 0`` it is ``exp(nu*w) P Q(u, u)``,
    as ``|k|^0 = 1``.  Raises ``ExponentCapError`` when ``|nu*w|`` would
    overflow the weight at the lattice corner.
    """
    gevrey.check_exponent_cap(abs(nu * w), s, u.N)
    if nu * w == 0.0:
        return spectral.hydrostatic_leray(spectral.transport_bilinear(u))
    v = gevrey.noise_transform(u, nu * w, s)
    q = spectral.transport_bilinear(v)
    pq = spectral.hydrostatic_leray(q)
    return gevrey.noise_transform(pq, -nu * w, s)


def _ifrk4_step(u: SpectralVelocity, dt: float, half_factor, nu: float, w: float,
                s: float) -> SpectralVelocity:
    """One integrating-factor RK4 step with W frozen at ``w``: exact linear
    half-step factor ``half_factor`` (array or scalar), explicit RK4 on the
    twisted transport of order ``s``, then re-projection."""

    def nonlin(x: SpectralVelocity) -> SpectralVelocity:
        return -twisted_transport(x, nu, w, s)

    def E(x: SpectralVelocity) -> SpectralVelocity:
        return SpectralVelocity(x.coeffs * half_factor, x.N)

    a = nonlin(u)
    ua = E(u + (0.5 * dt) * a)
    b = nonlin(ua)
    ub = E(u) + (0.5 * dt) * b
    c = nonlin(ub)
    eeu = E(E(u))
    uc = eeu + dt * E(c)
    d = nonlin(uc)
    out = eeu + (dt / 6.0) * (E(E(a)) + 2.0 * E(b + c) + d)
    return spectral.project_constraints(out)


@lru_cache(maxsize=64)
def _diffusion_half_factor(N: int, s: float, nu: float, dt: float) -> np.ndarray:
    eh = np.exp(-0.25 * nu ** 2 * dt * spectral.abs_k(N) ** (2.0 * s))
    eh.setflags(write=False)
    return eh


def step_diffusion(u: SpectralVelocity, t: float, dt: float, path: BrownianPath,
                   cfg: SimConfig) -> SpectralVelocity:
    """One step of the diffusion-form equation with W frozen at time t."""
    eh = _diffusion_half_factor(u.N, cfg.s, cfg.nu, dt)
    return _ifrk4_step(u, dt, eh, cfg.nu, path.value_at(t), cfg.s)


def step_damping(u: SpectralVelocity, dt: float) -> SpectralVelocity:
    """One step of the nu = 0 equation ``u' = -P Q(u, u)``, the step of the
    deterministic baseline and of the clocked solve of damping runs."""
    return _ifrk4_step(u, dt, 1.0, 0.0, 0.0, 0.0)


def recover_solution(u: SpectralVelocity, w: float, cfg: SimConfig,
                     t: float = 0.0) -> SpectralVelocity:
    """Back-transform to the original variables, ``V = exp(nu*W*A^s) U``.

    For diffusion the inverse multiplier is only bounded relative to the
    tracked radius when nu*W <= phi(t) + eta; otherwise raises.
    """
    if cfg.noise == "diffusion" and cfg.nu * w > cfg.radius.value(t) + 1e-12:
        raise RadiusViolationError(
            f"nu*W = {cfg.nu * w:.6g} exceeds tracked radius "
            f"{cfg.radius.value(t):.6g} at t = {t:.6g}")
    return gevrey.noise_transform(u, cfg.nu * w, cfg.s)


def _zero_path(T: float, dt: float) -> BrownianPath:
    times = stochastic._time_grid(T, dt)
    return BrownianPath(times=times, values=np.zeros_like(times), seed=None, dt=dt)


class _Trace:
    """Samples, status rules and terminal checks of one run, applied in step
    order: ``start`` takes the state at t_0, ``advance(k, u)`` the state at
    t_{k+1} after step k; each returns False once the run has stopped."""

    def __init__(self, cfg: SimConfig, path: BrownianPath, name: str):
        if path.horizon < cfg.horizon - 1e-12:
            raise ValueError("path horizon shorter than the configured horizon")
        self.cfg, self.path, self.name = cfg, path, name
        self.times = path.times
        self.n_steps = len(self.times) - 1
        self.exit_k = None if cfg.noise == "none" else stochastic.first_exit(
            cfg.nu * path.values, cfg.radius.alpha + cfg.radius.beta * self.times)
        self.stop_k = self.exit_k if cfg.noise == "diffusion" else None
        self.stride = max(1, int(round(cfg.horizon / (1000.0 * cfg.dt))))
        self.rows = []  # (t, W, phi, |U|_G, |U|_L2, |V|_G) per sample
        self.status = self.t_final = None  # set by stop()
        self.k = 0  # left endpoint of the next step

    def record(self, k: int, uk: SpectralVelocity) -> float:
        cfg = self.cfg
        t = float(self.times[k])
        w = float(self.path.values[k])
        p = cfg.norm_params(t)
        gu = gevrey.norm(uk, "Gevrey", p)
        l2 = gevrey.norm(uk, "L2", p)
        gv_val = math.nan
        try:
            if cfg.noise == "diffusion":
                v = recover_solution(uk, w, cfg, t)
                gv_val = gevrey.norm(
                    v, "Gevrey", GevreyParams(cfg.sigma, cfg.norm_s, cfg.radius.eta))
            else:  # s = 0: the scalar exp(nu*W), 1 for 'none'
                gv_val = math.exp(cfg.nu * w) * gu
        except (RadiusViolationError, ExponentCapError, OverflowError):
            gv_val = math.nan
        self.rows.append((t, w, cfg.radius.value(t), gu, l2, gv_val))
        return gu

    def stop(self, status: str, k: int) -> bool:
        self.status, self.t_final = status, float(self.times[k])
        return False

    def start(self, u: SpectralVelocity) -> bool:
        try:
            self.threshold = self.cfg.blowup_factor * max(self.record(0, u), 1e-300)
        except ExponentCapError:
            return self.stop(STATUS_EXPONENT_CAP, 0)
        return self._check(0)

    def _check(self, k: int) -> bool:
        """Terminal checks at the left endpoint t_k of step k."""
        self.k = k
        if k == self.n_steps:
            return self.stop(STATUS_COMPLETED, k)
        if self.cfg.radius.value(float(self.times[k])) <= 0.0:
            return self.stop(STATUS_RADIUS_EXHAUSTED, k)
        if k == self.stop_k:
            return self.stop(STATUS_GOODSET_EXIT, k)
        return True

    def advance(self, k: int, u: SpectralVelocity) -> bool:
        """The state after step k: its norm, blowup and the norm's cap."""
        t1 = self.times[k + 1]
        try:
            if (k + 1) % self.stride == 0 or k + 1 == self.n_steps:
                gu = self.record(k + 1, u)
            else:
                gu = gevrey.norm(u, "Gevrey", self.cfg.norm_params(float(t1)))
        except ExponentCapError:
            return self.stop(STATUS_EXPONENT_CAP, k)
        if not math.isfinite(gu) or gu > self.threshold:
            if self.rows[-1][0] != t1:
                self.record(k + 1, u)
            return self.stop(STATUS_BLOWUP, k + 1)
        return self._check(k + 1)

    def result(self) -> RunRecord:
        cols = [np.asarray(c) for c in zip(*self.rows)] if self.rows \
            else [np.asarray([])] * 6
        seed = self.path.seed if self.path.seed is not None else self.cfg.seed
        return RunRecord(*cols, status=self.status, t_final=self.t_final,
                         goodset=self.exit_k is None, seed=seed, name=self.name)


def _check_truncation(u0: SpectralVelocity, cfg: SimConfig) -> None:
    if u0.N != cfg.n_modes:
        raise spectral.TruncationMismatchError(
            f"truncation mismatch: data N={u0.N} vs n_modes={cfg.n_modes}")


def run(u0: SpectralVelocity, cfg: SimConfig, path: BrownianPath | None = None,
        name: str = "") -> RunRecord:
    """Integrate to the horizon or to a terminal event.

    Status rules: 'blowup' when the tracked norm exceeds blowup_factor times
    its initial value (or turns non-finite), 'radius_exhausted' when the
    tracked radius reaches zero, 'goodset_exit' when the noise exponent
    crosses alpha + beta*t (diffusion; damping only records the crossing in
    ``goodset``, as exp(nu*W) stays finite), 'exponent_cap' when a step's
    noise conjugation or a tracked norm's squared weight, the one at t = 0
    included, would pass ``gevrey.EXPONENT_CAP`` (``goodset`` still reads
    the barrier; a stop at t = 0 records no sample).  A damping run reads
    its states off the clocked nu = 0 solve (module docstring), with the
    same rules applied in step order.
    Raises ``TruncationMismatchError`` when ``u0.N != cfg.n_modes``.
    """
    _check_truncation(u0, cfg)
    if path is None:
        if cfg.noise == "none":
            path = _zero_path(cfg.horizon, cfg.dt)
        else:
            path = stochastic.sample_path(cfg.horizon, cfg.dt, cfg.seed)
    if cfg.noise == "damping":
        return _run_clocked(u0, cfg, [path], [name])[0]
    trace = _Trace(cfg, path, name)
    times = path.times
    u = spectral.project_constraints(u0)
    running = trace.start(u)
    while running:
        k = trace.k
        dt = float(times[k + 1] - times[k])
        try:
            u = step_diffusion(u, float(times[k]), dt, path, cfg) \
                if cfg.noise == "diffusion" else step_damping(u, dt)
        except ExponentCapError:
            trace.stop(STATUS_EXPONENT_CAP, k)
            break
        running = trace.advance(k, u)
    return trace.result()


# Error control of the clocked nu = 0 solve (Hairer, Norsett & Wanner,
# Solving ODEs I, II.4): a trial node is accepted when its L2 distance from
# the cubic through the four nodes before it, relative to |z0|, is within
# SWEEP_TOL; the next step scales by SAFETY*(tol/distance)^(1/4), that
# distance being O(h^4), clipped to [SHRINK, GROW].  The three steps that
# build the first cubic are unchecked, so they take FIRST*dt, small enough
# that they set no error floor.
SWEEP_TOL = 1e-3
_SWEEP_SAFETY = 0.9
_SWEEP_GROW = 2.0
_SWEEP_SHRINK = 0.2
_SWEEP_FIRST = 0.125


def _cubic(x: float, nodes) -> np.ndarray:
    """Coefficients at x of the cubic through the four nodes ``(t_j, z_j)``,
    by Lagrange weights on their times."""
    return sum(math.prod((x - tm) / (tj - tm) for tm, _ in nodes if tm != tj) * zj.coeffs
               for tj, zj in nodes)


def _damping_nodes(z0: SpectralVelocity, dt: float):
    """Yield the accepted nodes ``(tau, Z(tau))`` of the nu = 0 solution
    from ``z0``, from ``(0, z0)`` on, each stepped by one ``step_damping``
    call from the node before it; a rejected trial costs one call too.

    The sequence depends on ``z0``, ``dt`` and ``SWEEP_TOL`` alone.  A
    trial step longer than ``dt`` that turns non-finite is retried shorter;
    at ``h <= dt`` the sequence ends there.  It also ends where a step is
    lost to round-off in ``tau``, as no trial is ever accepted.
    """
    scale = float(np.linalg.norm(z0.coeffs)) or 1.0
    nodes = deque([(0.0, z0)], maxlen=4)
    yield nodes[0]
    h = _SWEEP_FIRST * dt
    while True:
        t = nodes[-1][0] + h
        if t == nodes[-1][0]:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            # a step into overflow gives a non-finite node or distance
            z = step_damping(nodes[-1][1], h)
            err = 0.0 if len(nodes) < 4 else \
                float(np.linalg.norm(z.coeffs - _cubic(t, nodes))) / scale
        if not (math.isfinite(err) and np.isfinite(z.coeffs).all()):
            if h <= dt:
                return
            h *= _SWEEP_SHRINK
            continue
        if len(nodes) == 4:
            factor = _SWEEP_SAFETY * (SWEEP_TOL / err) ** 0.25 if err > 0.0 \
                else _SWEEP_GROW
            h *= min(max(factor, _SWEEP_SHRINK), _SWEEP_GROW)
            if err > SWEEP_TOL:
                continue
        nodes.append((t, z))
        yield nodes[-1]


def _run_clocked(u0: SpectralVelocity, cfg: SimConfig, paths: list,
                 names: list) -> list[RunRecord]:
    """Damping runs as the deterministic flow on each path's random clock.

    With s = 0 and W frozen per step, ``u(t_k) = exp(-nu^2 t_k/2) Z(tau_k)``
    with ``tau = stochastic.damping_clock(path, nu)`` and Z the nu = 0
    solution from the projected datum, one Z for all the paths.  Z is
    stepped on the error-controlled nodes of ``_damping_nodes``, and the
    queries ``(tau_k, path, k)`` of every path are answered in one
    increasing order: ``tau_k`` is read off the four nodes ``i-1 .. i+2``
    around it, ``t_i <= tau_k < t_{i+1}`` (``0 .. 3`` near 0), by cubic
    Lagrange interpolation, so what a path reads depends on its clock alone,
    never on the other paths.  Four nodes are held, and no node is stepped
    that no running path needs.

    Records and statuses follow ``run``'s rules in step order; a step from
    an index past the clock's end stops at the exponent cap, and a run still
    going where the nodes end (a non-finite node, or a step lost to
    round-off) reads 'blowup' at its next step's end, sampled as infinite.
    """
    z0 = spectral.project_constraints(u0)
    traces = [_Trace(cfg, path, name) for path, name in zip(paths, names)]
    # W(0) = 0, so a clock runs at least to t_1
    clocks = [stochastic.damping_clock(path, cfg.nu).tolist() for path in paths]
    for trace in traces:
        trace.start(z0)
    # sized by the grid's own interval: a dt past T samples one step of T
    stepper = _damping_nodes(z0, min(cfg.dt, cfg.horizon))
    nodes = deque(maxlen=4)
    for tau, p, k in heapq.merge(*([(clock[k], p, k) for k in range(1, len(clock))]
                                   for p, clock in enumerate(clocks))):
        trace = traces[p]
        if trace.status is not None:
            continue
        try:
            while len(nodes) < 4 or nodes[-2][0] <= tau:
                nodes.append(next(stepper))
        except StopIteration:  # the nodes ended
            break
        u = math.exp(-0.5 * cfg.nu ** 2 * trace.times[k]) \
            * SpectralVelocity(_cubic(tau, nodes), z0.N)
        if trace.advance(k - 1, u) and k == len(clocks[p]) - 1:
            trace.stop(STATUS_EXPONENT_CAP, k)
    for trace in traces:
        if trace.status is None:  # the nodes ended
            k = trace.k + 1
            trace.rows.append((float(trace.times[k]), float(trace.path.values[k]),
                               cfg.radius.value(float(trace.times[k])),
                               math.inf, math.inf, math.nan))
            trace.stop(STATUS_BLOWUP, k)
    return [trace.result() for trace in traces]


_fork_fn = None  # a forked worker's function, set by its pool initializer
# Chunks per forked worker: a short list (8 ensemble members on 2 CPUs) keeps
# one item per task, which one chunk per worker slowed, and a long list goes
# in a few round trips per worker, so that the others can balance a slow one.
_CHUNKS_PER_WORKER = 4


def _set_fork_fn(fn) -> None:
    global _fork_fn
    _fork_fn = fn


def _call_fork_fn(x):
    return _fork_fn(x)


def _cpu_count() -> int:
    """CPUs in this process's affinity mask, or 1 on a platform without CPU
    affinity (every platform with it can fork): the worker count of
    ``parallel_map``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def parallel_map(fn, items, fork: bool = False) -> list:
    """``[fn(x) for x in items]`` on ``min(_cpu_count(), len(items))`` workers,
    and in this thread when that is 1.

    The workers are threads by default, for independent transports, whose
    FFTs run without the interpreter lock: two threads run N = 16
    transports at 2.0-2.4x the speed of one.  ``fork=True`` forks worker
    processes instead, for whole N = 4 runs and good-set paths, whose Python
    glue the lock serializes: two threads run those at 0.7-0.8x.  A forked
    worker inherits ``fn``, closures included, from its pool initializer,
    and gets the items in ``_CHUNKS_PER_WORKER`` contiguous chunks per worker.

    Each item is computed alone, so the results do not depend on the worker
    count.  They come back in item order; the first failing item's error is
    raised with its type and message, as the loop would raise it (its chunk
    stops there); and no worker outlives the call, so a later fork copies
    none.
    """
    items = list(items)
    workers = min(_cpu_count(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    import concurrent.futures  # here, so that callers that never pool do not pay for it
    if not fork:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            return list(pool.map(fn, items))
    import multiprocessing
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_fork_fn, initargs=(fn,)) as pool:
        chunk = math.ceil(len(items) / (_CHUNKS_PER_WORKER * workers))
        return list(pool.map(_call_fork_fn, items, chunksize=chunk))


def run_ensemble(u0: SpectralVelocity, cfg: SimConfig, n_paths: int) -> list[RunRecord]:
    """Independent runs named ``path<i>`` over substream-seeded paths, in
    path-index order: member ``i`` runs on ``sample_path(T, dt,
    path_seed(cfg.seed, i))``, and equals ``run`` on that path alone, for
    damping too.

    Damping members share one clocked solve in this process.  Diffusion
    members run on ``parallel_map``'s forked workers.  A 'none' ensemble is
    refused: its members would all be the one deterministic run.
    """
    if cfg.noise == "none":
        raise ValueError("a 'none' ensemble is one deterministic run; use run")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got n_paths = {n_paths}")
    _check_truncation(u0, cfg)
    names = [f"path{i}" for i in range(n_paths)]
    paths = [stochastic.sample_path(cfg.horizon, cfg.dt, stochastic.path_seed(cfg.seed, i))
             for i in range(n_paths)]
    if cfg.noise == "damping":
        return _run_clocked(u0, cfg, paths, names)
    return parallel_map(lambda i: run(u0, cfg, paths[i], names[i]), range(n_paths),
                        fork=True)


@dataclass
class GlobalExperimentResult:
    records: list
    n_completed: int
    n_completed_goodset: int  # completed and never off the grid good set
    completed_fraction: float
    target: float
    std_error: float
    alpha: float
    beta: float
    nu: float


def _experiment_radius(v0: SpectralVelocity, epsilon: float, cfg: SimConfig,
                       c_star: float | None, c_sigma: float | None) -> RadiusSchedule:
    """The experiment's radius, derived and checked in one pass before any
    run (README, "Config reference"): alpha = -4*ln(epsilon), beta = nu^2/4,
    and the damping threshold is the damping radius's limit >= 0.
    ThresholdError for every value it cannot use, ExponentCapError for a
    norm weight past the cap."""
    if not 0.0 < epsilon < 1.0:
        raise ThresholdError(f"epsilon must lie in (0, 1), got {epsilon}")
    if cfg.noise not in ("diffusion", "damping"):
        raise ThresholdError("global experiment needs a stochastic noise kind")
    # a NaN or negative constant would pass the threshold comparison
    name, c = ("c_star", c_star) if cfg.noise == "diffusion" else ("c_sigma", c_sigma)
    if c is None:
        raise ThresholdError(f"{cfg.noise} experiment needs the empirical {name}")
    if not (math.isfinite(c) and c > 0.0):
        raise ThresholdError(f"{name} must be positive and finite, got {c}")
    alpha, nu = -4.0 * math.log(epsilon), cfg.nu
    beta = 0.25 * nu ** 2
    eta = cfg.radius.eta if cfg.radius.eta > 0 else alpha / 10.0
    phi0 = alpha + eta if cfg.noise == "diffusion" else \
        cfg.radius.phi0 if cfg.radius.kind == "damping" else cfg.radius.value(0.0)
    if not phi0 > 0.0:
        raise ThresholdError(f"need phi0 > 0, got {phi0}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        v0n = gevrey.norm(v0, "Gevrey", GevreyParams(cfg.sigma, cfg.norm_s, phi0))
    if not math.isfinite(v0n):
        raise ThresholdError(f"|V0| at radius {phi0:.6g} must be finite, got {v0n}")
    if cfg.noise == "diffusion":
        if nu ** 2 <= 4.0 * c * v0n:
            raise ThresholdError(f"need nu^2 > 4*c_star*|V0| = {4.0 * c * v0n:.6g}, "
                                 f"got nu^2 = {nu ** 2:.6g}")
        return RadiusSchedule.linear(alpha, beta, eta=eta)
    sched = RadiusSchedule.damping(phi0, alpha, beta, nu, c, v0n)
    try:
        limit = sched.limit()
    except OverflowError:
        raise ThresholdError(f"e^alpha overflows at epsilon = {epsilon}") from None
    if not limit >= 0.0:
        raise ThresholdError("need the damping radius's limit phi0 - (8*c_sigma/nu^2)"
                             f"*(e^alpha*|V0| + 1) >= 0, got {limit:.6g}")
    return sched


def run_global_experiment(v0: SpectralVelocity, epsilon: float, cfg: SimConfig,
                          n_paths: int, c_star: float | None = None,
                          c_sigma: float | None = None) -> GlobalExperimentResult:
    """High-probability globality experiment: the ensemble on the radius of
    ``_experiment_radius`` (c_star for diffusion, c_sigma for damping), its
    completed fraction, to compare against 1 - epsilon, and its count of
    completed paths that stayed in the grid good set."""
    if n_paths < 1:
        raise ValueError(f"need at least one path, got n_paths = {n_paths}")
    sched = _experiment_radius(v0, epsilon, cfg, c_star, c_sigma)
    records = run_ensemble(v0, replace(cfg, radius=sched), n_paths)
    completed = [r for r in records if r.status == STATUS_COMPLETED]
    frac = len(completed) / n_paths
    return GlobalExperimentResult(
        records=records,
        n_completed=len(completed),
        n_completed_goodset=sum(r.goodset for r in completed),
        completed_fraction=frac,
        target=1.0 - epsilon,
        std_error=stochastic.binomial_se(frac, n_paths),
        alpha=sched.alpha,
        beta=sched.beta,
        nu=cfg.nu,
    )
