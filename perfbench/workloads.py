"""The three benchmark workloads.

Each workload class does its set-up in ``__init__`` and exposes ``op``,
which runs one operation from an op seed, checks its output and returns
an :class:`OpResult`.  ``final_check`` holds checks over all ops of a run.
Inputs come only from the seeds, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from hydrostat import analysis, bench_cli, dynamics, gevrey, initial_data, picard, stochastic
from hydrostat.dynamics import RadiusSchedule, SimConfig
from hydrostat.gevrey import GevreyParams
from hydrostat.stochastic import BrownianPath, GoodSetParams


class OpResult(NamedTuple):
    work: int       # paths or probes completed
    digest: str     # hash of every output the op produced
    ok: bool        # the op's output check passed
    detail: str     # what the check saw


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Ensemble:
    """Criterion-08 globality pair through the CLI entry point, in process.

    One op runs ``hydrostat ensemble`` on a diffusion config and then on a
    damping config, each with ``PATHS`` paths.  Set-up estimates c_star and
    c_sigma the way the CLI's ``estimate`` keyword does and writes both
    configs with the values filled in.
    """

    unit = "paths"
    EPS = 0.5
    PATHS = 8

    def __init__(self, work_dir: Path):
        alpha = -4.0 * math.log(self.EPS)
        eta = alpha / 10.0
        c_star = analysis.estimate_c_star(1.9, 1.0, N=8, n_samples=64, seed=2026).value
        c_sigma = analysis.estimate_c_sigma(2.6, N=8, n_samples=64, seed=2026).value
        phi0 = 0.15
        required = (8.0 * c_sigma / phi0) * (self.EPS ** -4 * 2.0 + 1.0)
        common = "N = 4\ndt = 0.01\nT = 0.4\n"
        ensemble = f"[ensemble]\nepsilon = {self.EPS!r}\npaths = {self.PATHS}\n"
        self.dir = Path(tempfile.mkdtemp(prefix="ensemble-", dir=work_dir))
        configs = {
            "diffusion": (
                "[sim]\nnoise = diffusion\nnu = 0.1\ns = 1.0\nsigma = 1.9\n" + common
                + f"radius_kind = linear\nalpha = {alpha!r}\nbeta = {0.1 ** 2 / 4!r}\n"
                f"eta = {eta!r}\n"
                "[initial_data]\nfamily = single_mode\nmode = 1 0 1\n"
                "normalize_target = 0.5\nnormalize_sigma = 1.9\n"
                f"normalize_phi = {alpha + eta!r}\n"
                + ensemble + f"c_star = {c_star!r}\n"),
            "damping": (
                f"[sim]\nnoise = damping\nnu = {math.sqrt(1.3 * required)!r}\ns = 0\n"
                "sigma = 2.6\n" + common
                + f"radius_kind = constant\nalpha = {phi0!r}\nc_sigma = {c_sigma!r}\n"
                "[initial_data]\nfamily = two_mode\nmode = 1 0 1\ncomponent = 0\n"
                "mode_b = 0 1 1\ncomponent_b = 1\n"
                "normalize_target = 2.0\nnormalize_sigma = 2.6\n"
                f"normalize_phi = {phi0!r}\n" + ensemble),
        }
        self.configs = {}
        for name, body in configs.items():
            path = self.dir / f"{name}.ini"
            path.write_text(f"[experiment]\nname = {name}\n" + body)
            self.configs[name] = path

    def op(self, seed: int) -> OpResult:
        parts, details, ok = [], [], True
        for name, config in self.configs.items():
            code = bench_cli.main(["ensemble", "--config", str(config), "--seed", str(seed),
                                   "--out", str(self.dir), "--quiet"])
            runs = (self.dir / f"{name}_runs.jsonl").read_bytes()
            report_bytes = (self.dir / f"{name}_ensemble.json").read_bytes()
            report = json.loads(report_bytes)
            frac, n = report["completed_fraction"], report["n_paths"]
            se = math.sqrt(max(frac * (1.0 - frac), 1.0 / n) / n)
            lower = 1.0 - self.EPS - 3.0 * se
            ok = ok and code == 0 and n == self.PATHS and frac >= lower
            details.append(f"{name} exit {code} fraction {frac:.3f} (>= {lower:.3f})")
            parts += [runs, report_bytes]
        return OpResult(2 * self.PATHS, _sha(*parts), ok, "; ".join(details))

    def final_check(self):
        return True, "per-op checks only"

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Probes:
    """Criterion-06 Picard-vs-stepper check plus one N=16 sample of each
    empirical constant, for one seeded ``random_analytic`` datum per op."""

    unit = "probes"
    N = 8
    T = 0.05
    NODES = 33
    # Over 48 op seeds (workload seeds 0-7, ops 0-5) the stepper-vs-mild sup
    # difference at the commit that introduced this benchmark lay between
    # 4.8e-11 and 6.4e-11; the bound leaves a factor of about 3.
    SUP_DIFF_BOUND = 2e-10

    def __init__(self, work_dir: Path):
        self.cfg = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                             radius=RadiusSchedule.linear(0.2, 0.5), n_modes=self.N,
                             dt=self.T / (self.NODES - 1), horizon=self.T)
        times = np.linspace(0.0, self.T, self.NODES)
        self.path = BrownianPath(times=times, values=np.zeros_like(times), seed=None,
                                 dt=self.cfg.dt)
        self.norm_params = GevreyParams(1.9, 1.0, 0.2)

    def op(self, seed: int) -> OpResult:
        cfg = self.cfg
        u0 = initial_data.random_analytic(self.N, radius=0.3, seed=seed)
        u0 = initial_data.normalize_to(u0, 1e-2, self.norm_params)
        prob = picard.MildProblem(u0=u0, cfg=cfg, horizon=self.T, n_nodes=self.NODES,
                                  tol=1e-13)
        try:
            res = picard.fixed_point_solve(prob, self.path)
        except picard.PicardDivergenceError as exc:
            return OpResult(1, _sha(str(exc)), False, f"no convergence: {exc}")
        u, t, worst = u0, 0.0, 0.0
        for k in range(self.NODES - 1):
            u = dynamics.step_diffusion(u, t, cfg.dt, self.path, cfg)
            t += cfg.dt
            p = GevreyParams(cfg.sigma, cfg.s, cfg.radius.value(t))
            worst = max(worst, gevrey.norm(u - res.trajectory[k + 1], "Gevrey", p))
        c_star = analysis.estimate_c_star(1.9, 1.0, N=16, n_samples=1, seed=seed).value
        c_sigma = analysis.estimate_c_sigma(2.6, N=16, n_samples=1, seed=seed).value
        ok = (res.contraction_estimate < 1.0 and worst < self.SUP_DIFF_BOUND
              and all(math.isfinite(c) and c > 0.0 for c in (c_star, c_sigma)))
        digest = _sha(*(x.coeffs.tobytes() for x in res.trajectory), u.coeffs.tobytes(),
                      res.iterations, worst, c_star, c_sigma)
        return OpResult(1, digest, ok,
                        f"iterations {res.iterations} contraction "
                        f"{res.contraction_estimate:.3g} sup diff {worst:.3e} "
                        f"c_star {c_star:.4g} c_sigma {c_sigma:.4g}")

    def final_check(self):
        return True, "per-op checks only"

    def close(self):
        pass


class Goodset:
    """One criterion-01 survival estimate per op, with fewer paths."""

    unit = "paths"
    PARAMS = GoodSetParams(alpha=2.0, beta=0.5, nu=1.0)
    T = 50.0
    DT = 1e-3
    PATHS = 200
    # z-score limit of the pooled estimate around survival_exact; see the
    # README for why this is 4 and not criterion 01's 3.
    Z_LIMIT = 4.0

    def __init__(self, work_dir: Path):
        self.tally = {}  # op seed -> (survived, paths); a traced rerun of a seed counts once
        self.paper_bound = stochastic.survival_paper_bound(self.PARAMS)
        self.exact = stochastic.survival_exact(self.PARAMS)

    def op(self, seed: int) -> OpResult:
        est = stochastic.good_set_probability(self.PARAMS, self.T, self.DT, self.PATHS,
                                              seed=seed)
        self.tally[seed] = (est.n_survived, est.n_paths)
        ok = (est.n_paths == self.PATHS and 0 <= est.n_survived <= est.n_paths
              and est.estimate >= self.paper_bound)
        return OpResult(est.n_paths, _sha(json.dumps(est.as_dict(), sort_keys=True)), ok,
                        f"estimate {est.estimate:.4f} (paper bound {self.paper_bound:.4f})")

    def final_check(self):
        if not self.tally:
            return False, "no op returned an estimate"
        survived, paths = (sum(x) for x in zip(*self.tally.values()))
        p = survived / paths
        se = math.sqrt(max(p * (1.0 - p), 1.0 / paths) / paths)  # as stochastic.binomial_ci
        z = (p - self.exact) / se
        ok = abs(z) <= self.Z_LIMIT and p >= self.paper_bound
        return ok, (f"pooled estimate {p:.5f} over {paths} paths vs exact "
                    f"{self.exact:.5f}: z = {z:+.2f} (|z| <= {self.Z_LIMIT:g}), "
                    f"paper bound {self.paper_bound:.4f}")

    def close(self):
        pass


WORKLOADS = {"ensemble": Ensemble, "probes": Probes, "goodset": Goodset}
