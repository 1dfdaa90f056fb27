"""Command-line experiment harness.

Subcommands: ``simulate`` (single runs, one per configured seed),
``ensemble`` (high-probability globality experiment), ``goodset``
(survival-probability estimate, flags only), and ``verify`` (one check of
``checks.CHECKS`` as JSON, or ``paper``, every check once in one object);
each takes only the flags it reads.

Config files use a flat ``key = value`` grammar with ``[section]`` headers
and ``#`` comments; ``CONFIG_KEYS`` names every accepted section and key.
Outputs are a fixed-column CSV time series per run and JSON-lines
summaries; identical config and seed reproduce byte-identical files.
Diffusion ensemble members and ``goodset``'s paths run on the forked
worker processes of ``dynamics.parallel_map``, one per CPU in the process's
affinity mask (``taskset -c 0`` runs them one after another), as the
interpreter lock would serialize their Python glue on threads; damping
members share one clocked solve.  No output depends on the worker count:
each member equals its run alone, in path-index order, and the good-set
estimate is a survivor count.
A bad config or argument (an unknown section, key or flag, or a bad value
such as a non-finite step) exits with code 2.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, checks, dynamics, gevrey, initial_data, stochastic
from .dynamics import RadiusSchedule, RunRecord, SimConfig
from .gevrey import GevreyParams
from .stochastic import GoodSetParams

SCHEMA_VERSION = 1
CSV_HEADER = "t,W_t,phi,gevrey_norm_U,l2_norm_U,gevrey_norm_V"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 10
EXIT_RADIUS = 11
EXIT_GOODSET = 12
EXIT_EXPONENT_CAP = 13

STATUS_EXIT_CODES = {
    dynamics.STATUS_COMPLETED: EXIT_OK,
    dynamics.STATUS_BLOWUP: EXIT_BLOWUP,
    dynamics.STATUS_RADIUS_EXHAUSTED: EXIT_RADIUS,
    dynamics.STATUS_GOODSET_EXIT: EXIT_GOODSET,
    dynamics.STATUS_EXPONENT_CAP: EXIT_EXPONENT_CAP,
}


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending section.key."""


# ---------------------------------------------------------------- config ---

def _int(text: str) -> int:
    return int(text, 0)


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split())


def _seed(text: str) -> int:
    """A non-negative integer, as numpy's ``SeedSequence`` takes."""
    if (seed := _int(text)) < 0:
        raise ValueError(f"must be non-negative, got {seed}")
    return seed


def _name(text: str) -> str:
    """An output file prefix: not empty, and no directory part."""
    if not text or "/" in text:
        raise ValueError(f"must be a non-empty file name prefix without '/', got {text!r}")
    return text


def _modes(text: str) -> int:
    """A truncation N >= 1, checked before any datum is built on it."""
    if (n := _int(text)) < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _number_or_estimate(text: str):
    """A float, or ``estimate``, which `_resolve` replaces by an estimate."""
    return text if text == "estimate" else float(text)


def _resolve(section: _Section, key: str, estimator, *args):
    """The value of ``section.key`` (None when unset), or the estimate at fixed
    sampling when it reads ``estimate``; an estimator's ValueError names the
    key."""
    value = section.get(key)
    if value != "estimate":
        return value
    try:
        return estimator(*args, N=8, n_samples=64, seed=2026).value
    except ValueError as exc:
        raise ConfigError(f"{section.name}.{key}: {exc}") from exc


# Every config key some command reads, with its value parser (README: "Config
# reference").  `[initial_data]` keys other than `family` and `normalize_*`
# go to `initial_data.make_initial_data`, which owns their defaults.
CONFIG_KEYS = {
    "experiment": {"name": _name},
    "output": {"dir": str},
    "sim": {"noise": str, "nu": float, "s": float, "sigma": float, "N": _modes,
            "dt": float, "T": float, "seed": _seed,
            "seeds": lambda text: tuple(map(_seed, text.split())),
            "blowup_factor": float, "radius_kind": str, "alpha": float,
            "beta": float, "eta": float, "phi0": float,
            "c_sigma": _number_or_estimate},
    "initial_data": {"family": str, "amplitude": float, "seed": _seed,
                     "sigma": float, "s": float, "radius": float, "poly": float,
                     "mode": _ints, "mode_b": _ints, "ratio": float,
                     "component": _int, "component_b": _int,
                     "normalize_target": float, "normalize_sigma": float,
                     "normalize_s": float, "normalize_phi": float},
    "ensemble": {"epsilon": float, "paths": _int, "c_star": _number_or_estimate},
}


class _Section(dict):
    """Parsed entries of one section; a key the file lacks is required."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, key):
        raise ConfigError(f"{self.name}.{key}: required key is missing")


def load_config(path) -> dict[str, _Section]:
    """One dict per ``CONFIG_KEYS`` section (empty when absent), each entry
    parsed once.  Unknown sections and keys, and keys under ``[DEFAULT]``,
    are config errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       comment_prefixes=("#",))
    parser.optionxform = str  # keys are case-sensitive (N, T, ...)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for key in parser.defaults():  # would leak into every section
        raise ConfigError(f"{parser.default_section}.{key}: unknown key")
    config = {name: _Section(name) for name in CONFIG_KEYS}
    for name in parser.sections():
        if name not in CONFIG_KEYS:
            raise ConfigError(f"{name}: unknown section")
        for key in parser.options(name):
            if key not in CONFIG_KEYS[name]:
                raise ConfigError(f"{name}.{key}: unknown key")
            try:
                config[name][key] = CONFIG_KEYS[name][key](parser.get(name, key))
            except (configparser.Error, ValueError) as exc:
                raise ConfigError(f"{name}.{key}: {exc}") from exc
    return config


def _build_radius(sim: _Section, nu: float, v0_norm: float,
                  c_sigma: float | None) -> RadiusSchedule:
    kind = sim.get("radius_kind", "constant")
    eta = sim.get("eta", 0.0)
    if kind == "linear":
        return RadiusSchedule.linear(sim["alpha"], sim["beta"], eta=eta)
    if kind == "constant":
        return RadiusSchedule.constant(sim["alpha"], eta=eta)
    if kind == "damping":
        if c_sigma is None:
            raise ConfigError("sim.c_sigma: required for the damping radius schedule")
        return RadiusSchedule.damping(
            phi0=sim["phi0"], alpha=sim["alpha"], beta=sim["beta"],
            nu=nu, c_sigma=c_sigma, v0_norm=v0_norm, eta=eta)
    raise ConfigError(f"sim.radius_kind: unknown kind {kind!r}")


def _build_initial_data(section: _Section, N: int):
    family = section.get("family", "zero")
    if family not in initial_data.FAMILIES:
        raise ConfigError(f"initial_data.family: unknown family {family!r}")
    shape = {key: value for key, value in section.items()
             if key != "family" and not key.startswith("normalize_")}
    try:
        u0 = initial_data.make_initial_data(family, N, **shape)
    except ValueError as exc:
        raise ConfigError(f"initial_data: {exc}") from exc
    target = section.get("normalize_target")
    if target is None:
        return u0
    sigma, s = section["normalize_sigma"], section.get("normalize_s", 1.0)
    phi = section.get("normalize_phi", 0.0)
    try:
        return initial_data.normalize_to(u0, target, GevreyParams(sigma, s, phi))
    except gevrey.ExponentCapError as exc:
        raise ConfigError(f"initial_data: normalize_phi past the exponent cap at "
                          f"N = {N}: {exc}") from exc
    except ValueError as exc:  # it names the argument: target, sigma, s or phi
        raise ConfigError(f"initial_data: normalize_{exc}") from exc


def build_sim(config: dict[str, _Section], seed_override=None):
    """SimConfig, initial data and the resolved ``sim.c_sigma`` (None when
    unset) from a loaded config.  ``c_sigma = estimate`` runs the estimator
    here, once."""
    sim = config["sim"]
    noise, nu, sigma, N = sim["noise"], sim["nu"], sim["sigma"], sim["N"]
    u0 = _build_initial_data(config["initial_data"], N)
    c_sigma = _resolve(sim, "c_sigma", analysis.estimate_c_sigma, sigma)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a damping radius refuses it
            v0_norm = gevrey.norm(u0, "Gevrey", GevreyParams(sigma, 1.0, sim.get("phi0", 0.0)))
        radius = _build_radius(sim, nu, v0_norm, c_sigma)
        cfg = SimConfig(
            noise=noise,
            nu=nu,
            s=sim["s"],
            sigma=sigma,
            radius=radius,
            n_modes=N,
            dt=sim["dt"],
            horizon=sim["T"],
            blowup_factor=sim.get("blowup_factor", 1e8),
            seed=seed_override if seed_override is not None else sim.get("seed", 0),
        )
    except ConfigError:
        raise
    except gevrey.ExponentCapError as exc:
        raise ConfigError(f"sim: phi0 past the exponent cap at N = {N}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc
    return cfg, u0, c_sigma


# --------------------------------------------------------------- writers ---

def _ensure_outdir(path_text) -> Path:
    out = Path(path_text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir: cannot create {out}: {exc}") from exc
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(record: RunRecord, path: Path) -> None:
    lines = [CSV_HEADER]
    for i in range(len(record.times)):
        gv_val = record.gevrey_norm_v[i]
        lines.append(",".join([
            _fmt(record.times[i]),
            _fmt(record.w_values[i]),
            _fmt(record.phi[i]),
            _fmt(record.gevrey_norm_u[i]),
            _fmt(record.l2_norm_u[i]),
            "" if math.isnan(gv_val) else _fmt(gv_val),
        ]))
    path.write_text("\n".join(lines) + "\n")


def summary_line(record: RunRecord) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **record.summary()}, sort_keys=True)


# ----------------------------------------------------------- subcommands ---

def _check_initial_norm(config: dict[str, _Section], cfg: SimConfig, u0) -> None:
    """A run's blowup threshold is a multiple of its tracked norm at t = 0,
    so that norm must be finite.  A datum whose own L2 norm overflows names
    the key that sized it; otherwise the weight ``|k|^(sigma*s)
    exp(phi*|k|^s)`` overflows, which names ``sim.sigma``.  A radius past
    the exponent cap is left to the run, which stops at t = 0 and says so."""
    params = cfg.norm_params(0.0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            tracked = gevrey.norm(u0, "Gevrey", params)
            size = gevrey.norm(u0, "L2", params)
    except gevrey.ExponentCapError:
        return
    if math.isfinite(tracked):
        return
    if not math.isfinite(size):
        key = "normalize_target" if "normalize_target" in config["initial_data"] \
            else "amplitude"
        raise ConfigError(f"initial_data.{key}: the datum's L2 norm is {size}, past "
                          f"what a double holds")
    raise ConfigError(f"sim.sigma: the tracked norm at t = 0 is {tracked}: its weight "
                      f"|k|^(sigma*s) exp(phi*|k|^s) overflows at sigma = {params.sigma}, "
                      f"s = {params.s}, phi = {params.phi}, N = {cfg.n_modes}")


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    sim = config["sim"]
    name = config["experiment"].get("name", "run")
    seeds = [args.seed] if args.seed is not None else \
        list(sim.get("seeds") or [sim.get("seed", 0)])
    base_cfg, u0, _ = build_sim(config, seed_override=seeds[0])
    # `ensemble` replaces the radius, so only `simulate` runs on this beta
    radius = base_cfg.radius
    if base_cfg.noise == "diffusion" and radius.kind == "linear" \
            and radius.beta >= 0.5 * base_cfg.nu ** 2:
        raise ConfigError("sim: diffusion requires beta < nu^2/2")
    _check_initial_norm(config, base_cfg, u0)
    # created only once the config is known to be valid
    out = _ensure_outdir(args.out or config["output"].get("dir", "out"))

    worst = EXIT_OK
    summaries = []
    for seed in seeds:
        record = dynamics.run(u0, replace(base_cfg, seed=seed),
                              name=f"{name}_seed{seed}")
        write_csv(record, out / f"{name}_seed{seed}.csv")
        summaries.append(summary_line(record))
        worst = max(worst, STATUS_EXIT_CODES[record.status])
        if not args.quiet:
            print(f"{name} seed={seed}: {record.status} at t={record.t_final:.6g} "
                  f"(max norm {record.max_gevrey_norm:.6g})")
    (out / f"{name}_summary.jsonl").write_text("\n".join(summaries) + "\n")
    return worst


def cmd_ensemble(args) -> int:
    config = load_config(args.config)
    ens = config["ensemble"]
    name = config["experiment"].get("name", "ensemble")
    epsilon = ens["epsilon"]
    n_paths = ens["paths"] if args.paths is None else args.paths
    if n_paths < 1:
        raise ConfigError(f"{'ensemble.paths' if args.paths is None else '--paths'}: "
                          "must be at least 1")

    cfg, u0, c_sigma = build_sim(config, seed_override=args.seed)
    c_star = _resolve(ens, "c_star", analysis.estimate_c_star, cfg.sigma, cfg.s)
    try:
        result = dynamics.run_global_experiment(
            u0, epsilon, cfg, n_paths, c_star=c_star, c_sigma=c_sigma)
    except dynamics.ThresholdError as exc:
        raise ConfigError(f"ensemble: {exc}") from exc
    except gevrey.ExponentCapError as exc:
        raise ConfigError(f"ensemble: radius past the exponent cap at "
                          f"N = {cfg.n_modes}: {exc}") from exc

    # created only after the experiment has derived and checked its radius
    out = _ensure_outdir(args.out or config["output"].get("dir", "out"))
    (out / f"{name}_runs.jsonl").write_text(
        "\n".join(summary_line(r) for r in result.records) + "\n")
    _, half = stochastic.binomial_ci(result.n_completed, n_paths)
    report = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "completed_fraction": result.completed_fraction,
        "ci_half_width": half,
        "target": result.target,
        "epsilon": epsilon,
        "n_paths": n_paths,
        "n_completed_goodset": result.n_completed_goodset,
        "alpha": result.alpha,
        "beta": result.beta,
        "nu": result.nu,
    }
    (out / f"{name}_ensemble.json").write_text(json.dumps(report, sort_keys=True) + "\n")
    if not args.quiet:
        print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_goodset(args) -> int:
    try:
        params = GoodSetParams(alpha=args.alpha, beta=args.beta, nu=args.nu)
        est = stochastic.good_set_probability(params, args.T, args.dt,
                                              args.paths, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"goodset: {exc}") from exc
    record = {"schema": SCHEMA_VERSION, **est.as_dict()}
    print(json.dumps(record, sort_keys=True))
    if args.out:
        out = _ensure_outdir(args.out)
        (out / "goodset.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- verify ---

# the registry's checks, and `paper`, which runs each of them once
VERIFY_SUITES = {**checks.CHECKS, "paper": checks.paper}


def cmd_verify(args) -> int:
    suite = VERIFY_SUITES[args.suite]
    if args.seed is not None and "seed" not in inspect.signature(suite).parameters:
        raise ConfigError(f"--seed: the {args.suite} suite reads no seed")
    result = suite() if args.seed is None else suite(seed=args.seed)
    result.pop("detail", None)  # a criterion's PASS text; `paper` keeps each one
    payload = {"schema": SCHEMA_VERSION, "suite": args.suite, **result}
    print(json.dumps(payload, sort_keys=True, default=float))
    return EXIT_OK if result["ok"] else 1


# ------------------------------------------------------------------ main ---

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hydrostat",
                                 description="Stochastic primitive-equations lab")
    sub = ap.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)  # simulate and ensemble
    config.add_argument("--config", required=True, help="config file path")
    config.add_argument("--seed", type=int, default=None, help="sim.seed override")
    config.add_argument("--out", default=None, help="output.dir override")
    config.add_argument("--quiet", action="store_true", help="suppress progress")

    p = sub.add_parser("simulate", parents=[config], help="run one simulation per seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", parents=[config],
                       help="globality ensemble with completed-fraction report")
    p.add_argument("--paths", type=int, default=None, help="ensemble.paths override")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("goodset", help="survival probability (flags only)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=1000, help="number of paths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write goodset.json here")
    p.set_defaults(func=cmd_goodset)

    p = sub.add_parser("verify", help="one of the paper's checks, or `paper` for all")
    p.add_argument("suite", choices=tuple(VERIFY_SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # every subcommand takes --seed
            raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
