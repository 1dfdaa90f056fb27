"""Time integration of the two transformed random PDEs.

Diffusion form: the noise conjugation turns the stochastic equation into a
pathwise random PDE with emergent dissipation -0.5*nu^2*|k|^(2s) and a
twisted transport term evaluated in the original variables.  Damping form
(s = 0): scalar integrating factor exp(-0.5*nu^2*dt) with scalar prefactor
exp(nu*W) on the transport term.

Each step freezes W at its left endpoint, applies the linear factor exactly
per mode, advances the twisted nonlinearity with a classical four-stage
Runge-Kutta combination under the integrating factor, and re-projects the
structural constraints.  Pathwise accuracy is therefore limited by the path
regularity; self-convergence (not exact-solution convergence) is the
verifiable property.
"""

from __future__ import annotations

import math
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
        if self.eta < 0.0:
            raise ValueError("eta must be non-negative")
        if self.kind == "linear" and self.alpha <= 0.0:
            raise ValueError("linear schedule needs alpha > 0")
        if self.kind == "damping":
            if self.phi0 <= 0.0:
                raise ValueError("damping schedule needs phi0 > 0")
            if self.nu ** 2 <= 2.0 * self.beta:
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
        if self.n_modes < 1 or not (0.0 < self.dt < math.inf and 0.0 < self.horizon < math.inf):
            raise ValueError("n_modes must be positive and dt, horizon positive and "
                             f"finite, got dt={self.dt}, horizon={self.horizon}")
        if self.blowup_factor <= 1.0:
            raise ValueError("blowup_factor must exceed 1")
        if self.noise == "diffusion":
            if not 0.8 < self.s <= 1.0:
                raise ValueError(f"diffusion requires s in (4/5, 1], got {self.s}")
            lo = 8.0 / (5.0 * self.s)
            if not lo < self.sigma < 2.0:
                raise ValueError(
                    f"diffusion requires sigma in ({lo:.4f}, 2), got {self.sigma}")
            if self.nu <= 0.0:
                raise ValueError("diffusion requires nu > 0")
        elif self.noise == "damping":
            if self.s != 0.0:
                raise ValueError(f"damping requires s = 0, got {self.s}")
            if self.sigma <= 2.5:
                raise ValueError(f"damping requires sigma > 5/2, got {self.sigma}")
            if self.nu <= 0.0:
                raise ValueError("damping requires nu > 0")
        else:  # deterministic baseline
            if self.nu != 0.0:
                raise ValueError("noise 'none' requires nu = 0")

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
            "schema": 1,
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
    the twisted-estimate probes.  For ``s = 0`` the conjugation is the scalar
    factor ``exp(nu*w)``.  Raises ``ExponentCapError`` when ``|nu*w|`` would
    overflow the weight at the lattice corner, in both branches.
    """
    gevrey.check_exponent_cap(abs(nu * w), s, u.N)
    if nu * w == 0.0 or s == 0.0:
        scale = math.exp(nu * w) if s == 0.0 else 1.0
        q = spectral.transport_bilinear(u)
        return scale * spectral.hydrostatic_leray(q)
    v = gevrey.noise_transform(u, nu, w, s, "inverse")
    q = spectral.transport_bilinear(v)
    pq = spectral.hydrostatic_leray(q)
    return gevrey.noise_transform(pq, nu, w, s, "forward")


def _ifrk4_step(u: SpectralVelocity, t: float, dt: float, path: BrownianPath,
                cfg: SimConfig, half_factor, s: float) -> SpectralVelocity:
    """One integrating-factor RK4 step with W frozen at time t: exact linear
    half-step factor ``half_factor`` (array or scalar), explicit RK4 on the
    twisted transport of order ``s``, then re-projection."""
    w = path.value_at(t)

    def nonlin(x: SpectralVelocity) -> SpectralVelocity:
        return -twisted_transport(x, cfg.nu, w, s)

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
    return _ifrk4_step(u, t, dt, path, cfg, eh, cfg.s)


def step_damping(u: SpectralVelocity, t: float, dt: float, path: BrownianPath,
                 cfg: SimConfig) -> SpectralVelocity:
    """One step of the damping-form equation (scalar factors; also the
    nu = 0 deterministic baseline)."""
    eh = math.exp(-0.25 * cfg.nu ** 2 * dt)
    return _ifrk4_step(u, t, dt, path, cfg, eh, 0.0)


def recover_solution(u: SpectralVelocity, w: float, cfg: SimConfig,
                     t: float = 0.0) -> SpectralVelocity:
    """Back-transform to the original variables, V = inverse multiplier of U.

    For diffusion the inverse multiplier is only bounded relative to the
    tracked radius when nu*W <= phi(t) + eta; otherwise raises.
    """
    if cfg.noise == "diffusion":
        if cfg.nu * w > cfg.radius.value(t) + 1e-12:
            raise RadiusViolationError(
                f"nu*W = {cfg.nu * w:.6g} exceeds tracked radius "
                f"{cfg.radius.value(t):.6g} at t = {t:.6g}")
        return gevrey.noise_transform(u, cfg.nu, w, cfg.s, "inverse")
    if cfg.noise == "damping":
        return math.exp(cfg.nu * w) * u
    return u.copy()


def _zero_path(T: float, dt: float) -> BrownianPath:
    times = stochastic._time_grid(T, dt)
    return BrownianPath(times=times, values=np.zeros_like(times), seed=None, dt=dt)


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
    the barrier; a stop at t = 0 records no sample).
    Raises ``TruncationMismatchError`` when ``u0.N != cfg.n_modes``.
    """
    if u0.N != cfg.n_modes:
        raise spectral.TruncationMismatchError(
            f"truncation mismatch: data N={u0.N} vs n_modes={cfg.n_modes}")
    if path is None:
        if cfg.noise == "none":
            path = _zero_path(cfg.horizon, cfg.dt)
        else:
            path = stochastic.sample_path(cfg.horizon, cfg.dt, cfg.seed)
    times = path.times
    if path.horizon < cfg.horizon - 1e-12:
        raise ValueError("path horizon shorter than the configured horizon")

    exit_k = None if cfg.noise == "none" else stochastic.first_exit(
        cfg.nu * path.values, cfg.radius.alpha + cfg.radius.beta * times)
    stop_k = exit_k if cfg.noise == "diffusion" else None

    u = spectral.project_constraints(u0)
    stride = max(1, int(round(cfg.horizon / (1000.0 * cfg.dt))))

    rec_t, rec_w, rec_phi, rec_gu, rec_l2, rec_gv = [], [], [], [], [], []

    def record(k, uk):
        t = float(times[k])
        w = float(path.values[k])
        phi_t = cfg.radius.value(t)
        p = cfg.norm_params(t)
        gu = gevrey.norm(uk, "Gevrey", p)
        l2 = gevrey.norm(uk, "L2", p)
        gv_val = math.nan
        try:
            if cfg.noise == "diffusion":
                v = recover_solution(uk, w, cfg, t)
                gv_val = gevrey.norm(
                    v, "Gevrey", GevreyParams(cfg.sigma, cfg.norm_s, cfg.radius.eta))
            elif cfg.noise == "damping":
                gv_val = math.exp(cfg.nu * w) * gu
            else:
                gv_val = gu
        except (RadiusViolationError, ExponentCapError, OverflowError):
            gv_val = math.nan
        rec_t.append(t), rec_w.append(w), rec_phi.append(phi_t)
        rec_gu.append(gu), rec_l2.append(l2), rec_gv.append(gv_val)
        return gu

    status = STATUS_COMPLETED
    t_final = float(times[-1])
    n_steps = len(times) - 1
    try:
        blow_threshold = cfg.blowup_factor * max(record(0, u), 1e-300)
    except ExponentCapError:
        status, t_final, n_steps = STATUS_EXPONENT_CAP, float(times[0]), 0

    for k in range(n_steps):
        t0 = float(times[k])
        t1 = float(times[k + 1])
        h = t1 - t0
        # terminal checks at the left endpoint
        if cfg.radius.value(t0) <= 0.0:
            status, t_final = STATUS_RADIUS_EXHAUSTED, t0
            break
        if k == stop_k:
            status, t_final = STATUS_GOODSET_EXIT, t0
            break
        try:
            if cfg.noise == "diffusion":
                u = step_diffusion(u, t0, h, path, cfg)
            else:
                u = step_damping(u, t0, h, path, cfg)
            last = k + 1 == n_steps
            if (k + 1) % stride == 0 or last:
                gu = record(k + 1, u)
            else:
                gu = gevrey.norm(u, "Gevrey", cfg.norm_params(t1))
        except ExponentCapError:
            status, t_final = STATUS_EXPONENT_CAP, t0
            break
        if not math.isfinite(gu) or gu > blow_threshold:
            status, t_final = STATUS_BLOWUP, t1
            if rec_t[-1] != t1:
                record(k + 1, u)
            break

    return RunRecord(
        times=np.asarray(rec_t),
        w_values=np.asarray(rec_w),
        phi=np.asarray(rec_phi),
        gevrey_norm_u=np.asarray(rec_gu),
        l2_norm_u=np.asarray(rec_l2),
        gevrey_norm_v=np.asarray(rec_gv),
        status=status,
        t_final=t_final,
        goodset=exit_k is None,
        seed=path.seed if path.seed is not None else cfg.seed,
        name=name,
    )


def run_ensemble(u0: SpectralVelocity, cfg: SimConfig, n_paths: int, seed=None,
                 name: str = "") -> list[RunRecord]:
    """Independent runs over substream-seeded paths, in path-index order:
    member ``i`` runs on ``sample_path(T, dt, path_seed(seed, i))``."""
    base_seed = cfg.seed if seed is None else seed

    def one(i: int) -> RunRecord:
        sub = stochastic.path_seed(base_seed, i)
        path = (_zero_path(cfg.horizon, cfg.dt) if cfg.noise == "none"
                else stochastic.sample_path(cfg.horizon, cfg.dt, sub))
        return run(u0, cfg, path, name=f"{name}[{i}]" if name else f"path{i}")

    return [one(i) for i in range(n_paths)]


@dataclass
class GlobalExperimentResult:
    records: list
    n_completed: int
    completed_fraction: float
    target: float
    std_error: float
    alpha: float
    beta: float
    nu: float


def run_global_experiment(v0: SpectralVelocity, epsilon: float, cfg: SimConfig,
                          n_paths: int, seed=None, c_star: float | None = None,
                          c_sigma: float | None = None) -> GlobalExperimentResult:
    """High-probability globality experiment.

    Sets alpha = -4*ln(epsilon) and beta = nu^2/4, verifies the largeness
    condition on nu against the supplied empirical constant (c_star for
    diffusion, c_sigma for damping), runs the ensemble, and reports the
    completed fraction to compare against 1 - epsilon.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    alpha = -4.0 * math.log(epsilon)
    nu = cfg.nu
    beta = 0.25 * nu ** 2

    if cfg.noise == "diffusion":
        if c_star is None:
            raise ThresholdError("diffusion experiment needs the empirical c_star")
        eta = cfg.radius.eta if cfg.radius.eta > 0 else alpha / 10.0
        v0n = gevrey.norm(v0, "Gevrey", GevreyParams(cfg.sigma, cfg.s, alpha + eta))
        if nu ** 2 <= 4.0 * c_star * v0n:
            raise ThresholdError(
                f"need nu^2 > 4*c_star*|V0| = {4.0 * c_star * v0n:.6g}, "
                f"got nu^2 = {nu ** 2:.6g}")
        sched = RadiusSchedule.linear(alpha, beta, eta=eta)
    elif cfg.noise == "damping":
        if c_sigma is None:
            raise ThresholdError("damping experiment needs the empirical c_sigma")
        phi0 = cfg.radius.phi0 if cfg.radius.kind == "damping" else cfg.radius.value(0.0)
        v0n = gevrey.norm(v0, "Gevrey", GevreyParams(cfg.sigma, 1.0, phi0))
        required = (8.0 * c_sigma / phi0) * (math.exp(alpha) * v0n + 1.0)
        if nu ** 2 < required:
            raise ThresholdError(
                f"need nu^2 >= (8*c_sigma/phi0)*(eps^-4*|V0| + 1) = {required:.6g}, "
                f"got nu^2 = {nu ** 2:.6g}")
        sched = RadiusSchedule.damping(phi0, alpha, beta, nu, c_sigma, v0n)
    else:
        raise ThresholdError("global experiment needs a stochastic noise kind")

    records = run_ensemble(v0, replace(cfg, radius=sched), n_paths, seed=seed)
    completed = sum(1 for r in records if r.status == STATUS_COMPLETED)
    frac = completed / n_paths
    return GlobalExperimentResult(
        records=records,
        n_completed=completed,
        completed_fraction=frac,
        target=1.0 - epsilon,
        std_error=stochastic.binomial_se(frac, n_paths),
        alpha=alpha,
        beta=beta,
        nu=nu,
    )
