"""Seeded Brownian path sampling, the drifted-barrier survival set, and
Monte Carlo probability estimation with a reflection-principle oracle.

Determinism contract: every quantity here is a pure function of the seed and
the parameters.  Ensemble members draw from independent substreams keyed by
``(seed, path_index)``, so estimates are independent of evaluation order,
and ``good_set_probability``'s do not depend on its worker count or on the
chunks in which it draws a path.
Refining ``dt`` under the same seed produces a *different* discrete path
(increments are drawn per grid interval, not via bridge refinement).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .gevrey import EXPONENT_CAP

__all__ = [
    "BrownianPath",
    "GoodSetParams",
    "GoodSetEstimate",
    "path_seed",
    "grid_steps",
    "sample_path",
    "first_exit",
    "damping_clock",
    "good_set_indicator",
    "good_set_probability",
    "survival_paper_bound",
    "survival_exact",
]


@dataclass(frozen=True)
class BrownianPath:
    """Discrete sample of a standard Brownian motion with W(0) = 0.

    The final grid interval may be shorter than the nominal step when the
    horizon is not an integer multiple of ``dt``; the increments are always
    exact Gaussians with variance equal to the interval length.
    """

    times: np.ndarray
    values: np.ndarray
    seed: object
    dt: float

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if self.times[0] != 0.0 or self.values[0] != 0.0:
            raise ValueError("paths must start at W(0) = 0")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def value_at(self, t: float) -> float:
        """W at a grid time (linear interpolation between grid points)."""
        if t < 0.0 or t > self.horizon + 1e-12:
            raise ValueError(f"time {t} outside the path horizon {self.horizon}")
        return float(np.interp(t, self.times, self.values))


@dataclass(frozen=True)
class GoodSetParams:
    """Barrier parameters: a path leaves the good set where nu*W(t) > alpha + beta*t."""

    alpha: float
    beta: float
    nu: float

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.alpha, self.beta, self.nu)):
            raise ValueError("alpha, beta, nu must all be positive and finite, got "
                             f"{self.alpha}, {self.beta}, {self.nu}")
        if not 0.0 < self.nu * self.nu < math.inf:  # the survival formulas divide by it
            raise ValueError(f"nu needs a finite nu^2 > 0, got {self.nu}")


def path_seed(seed, index: int) -> np.random.SeedSequence:
    """Independent substream key for ensemble member ``index``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def grid_steps(T: float, dt: float) -> int:
    """Full steps ``floor(T/dt)`` of ``_time_grid(T, dt)``, checked without
    building it: T, dt positive and finite, and T/dt below 2^53, past which
    the index k of ``t_k = k*dt`` is not exact in a double."""
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):
        raise ValueError(
            f"horizon and step must be positive and finite, got T={T}, dt={dt}")
    if not T / dt < 2.0 ** 53:
        raise ValueError(f"T/dt = {T / dt:.3g} steps is past the 2^53 that a time "
                         f"grid indexes exactly, got T={T}, dt={dt}")
    return int(math.floor(T / dt + 1e-9))


def _time_grid(T: float, dt: float) -> np.ndarray:
    """Grid {0, dt, 2dt, ..., T}; the last interval may be shorter than dt."""
    times = dt * np.arange(grid_steps(T, dt) + 1)
    if times[-1] < T - 1e-12 * max(T, 1.0):
        times = np.append(times, T)
    else:
        times[-1] = min(times[-1], T)
    return times


def sample_path(T: float, dt: float, seed) -> BrownianPath:
    """Sample W on the grid {0, dt, 2dt, ..., T} with exact N(0, h) increments."""
    rng = np.random.default_rng(seed)
    times = _time_grid(T, dt)
    incr = rng.standard_normal(len(times) - 1) * np.sqrt(np.diff(times))
    values = np.concatenate([[0.0], np.cumsum(incr)])
    return BrownianPath(times=times, values=values, seed=seed, dt=dt)


def first_exit(nu_w: np.ndarray, levels: np.ndarray) -> int | None:
    """First grid index where ``nu_w`` (nu*W) exceeds ``levels`` (alpha + beta*t),
    or None: the one good-set barrier test."""
    above = nu_w > levels
    i = int(np.argmax(above))
    return i if above[i] else None


def damping_clock(path: BrownianPath, nu: float) -> np.ndarray:
    """Random clock of the damping form at the grid times,
    ``tau(t) = int_0^t exp(nu*W(r) - nu^2 r/2) dr`` with W frozen at each
    step's left endpoint, as the stepper freezes it, so that every increment
    ``exp(nu*W_k - nu^2 t_k/2) (2/nu^2) (1 - exp(-nu^2 h_k/2))`` is exact.

    The sum stops at the first step index k with ``|nu*W_k| > EXPONENT_CAP``,
    where a damping step stops at the exponent cap: the array then holds
    tau(t_0), ..., tau(t_k) and is shorter than ``path.times``.  As t grows,
    tau(t) tends to ``2/(nu^2 E)`` with E ~ Exp(1) (Dufresne 1990; Yor 1992),
    so ``P(tau(inf) < x) = exp(-2/(nu^2 x))``.
    """
    nu_w = nu * path.values
    capped = np.flatnonzero(np.abs(nu_w[:-1]) > EXPONENT_CAP)
    n = int(capped[0]) if capped.size else len(nu_w) - 1
    half = 0.5 * nu ** 2
    times = path.times[:n + 1]
    dtau = np.exp(nu_w[:n] - half * times[:-1]) * (-np.expm1(-half * np.diff(times)) / half)
    return np.concatenate([[0.0], np.cumsum(dtau)])


def good_set_indicator(path: BrownianPath, p: GoodSetParams):
    """Grid-level survival check of nu*W(t) <= alpha + beta*t.

    Returns ``(survived, first_violation_time)``; the time is None when the
    path survives.  Excursions between grid points are invisible to this
    check, which therefore over-estimates survival (quantified by the exact
    infinite-horizon value in :func:`good_set_probability`).
    """
    i = first_exit(p.nu * path.values, p.alpha + p.beta * path.times)
    if i is None:
        return True, None
    return False, float(path.times[i])


def survival_paper_bound(p: GoodSetParams) -> float:
    """Lower bound 1 - exp(-alpha*beta/nu^2) for the survival probability."""
    return 1.0 - math.exp(-p.alpha * p.beta / p.nu ** 2)


def survival_exact(p: GoodSetParams) -> float:
    """Exact infinite-horizon survival probability 1 - exp(-2*alpha*beta/nu^2).

    The running maximum of nu*W(t) - beta*t is exponentially distributed
    with rate 2*beta/nu^2 (reflection principle), so the barrier alpha is
    never reached with probability 1 - exp(-2*alpha*beta/nu^2).
    """
    return 1.0 - math.exp(-2.0 * p.alpha * p.beta / p.nu ** 2)


@dataclass(frozen=True)
class GoodSetEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    std_error: float
    paper_bound: float
    exact_value: float
    n_paths: int
    n_survived: int
    T: float
    dt: float

    def as_dict(self) -> dict:
        """The JSON record of ``hydrostat goodset``."""
        return asdict(self)


def binomial_se(p_hat: float, n: int) -> float:
    """Standard error sqrt(p_hat*(1 - p_hat)/n) of a frequency over n trials,
    with the variance floored at 1/n so that p_hat = 0 or 1 keeps a width."""
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)


def binomial_ci(successes: int, n: int):
    """Normal-approximation 95 % binomial confidence interval (p_hat,
    half-width)."""
    p_hat = successes / n
    return p_hat, 1.96 * binomial_se(p_hat, n)


# Increments a good-set path draws and tests at a time.  Of 2048, 8192 and
# 32768, 8192 ran criterion 01's paths (50 000 steps) fastest on one CPU.
_EXIT_CHUNK = 8192


def good_set_probability(p: GoodSetParams, T: float, dt: float, n_paths: int,
                         seed=0) -> GoodSetEstimate:
    """Monte Carlo survival frequency on [0, T] with the closed-form anchors.

    The finite-horizon estimate approaches the infinite-horizon exact value
    from above as T grows and always dominates the lower bound
    ``survival_paper_bound`` up to sampling error.

    Path ``i`` draws its increments from ``path_seed(seed, i)`` in chunks
    of ``_EXIT_CHUNK`` and stops at its first exit.  Each chunk carries the
    running sum into its first increment before ``cumsum``, so its partial
    sums are bit for bit those of one ``cumsum`` over the whole path.  The
    paths run on ``dynamics.parallel_map``'s forked workers; their survivor
    count, the result, depends on neither the worker count nor the chunk
    lengths.  The fork costs tens of milliseconds per call, which a small
    call feels; one CPU in the affinity mask runs them in this thread.
    """
    from .dynamics import parallel_map  # dynamics imports this module
    if n_paths < 100:
        raise ValueError(f"need at least 100 paths, got {n_paths}")
    times = _time_grid(T, dt)
    nu_sqrt_diffs = p.nu * np.sqrt(np.diff(times))
    levels = p.alpha + p.beta * times[1:]

    def survives(i: int) -> bool:
        rng = np.random.default_rng(path_seed(seed, i))
        nu_w_end = 0.0
        for a in range(0, len(levels), _EXIT_CHUNK):
            b = min(a + _EXIT_CHUNK, len(levels))
            incr = rng.standard_normal(b - a) * nu_sqrt_diffs[a:b]
            incr[0] += nu_w_end
            nu_w = np.cumsum(incr)
            if first_exit(nu_w, levels[a:b]) is not None:
                return False
            nu_w_end = nu_w[-1]
        return True

    survived = sum(parallel_map(survives, range(n_paths), fork=True))
    p_hat, half = binomial_ci(survived, n_paths)
    return GoodSetEstimate(
        estimate=p_hat,
        ci_low=p_hat - half,
        ci_high=p_hat + half,
        std_error=binomial_se(p_hat, n_paths),
        paper_bound=survival_paper_bound(p),
        exact_value=survival_exact(p),
        n_paths=n_paths,
        n_survived=survived,
        T=T,
        dt=dt,
    )
