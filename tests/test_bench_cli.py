"""Harness behavior: config grammar, output formats, exit codes,
reproducibility, and the verify batteries."""

import configparser
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from hydrostat import analysis, bench_cli, checks, dynamics


# One base config per noise kind.  `damping` and `diffusion` are the two
# smoke configs of .github/workflows/tier1.yml, cut to one path and two steps
# (`TestConfigFuzz.test_ci_smoke_config_is_the_base` checks it); `none` is a
# noise-free run of ten steps.  No base sets `output.dir`, so a run writes
# to `out` in the working directory unless a test sets it.
BASES = {
    "none": {
        "experiment": {"name": "none"},
        "sim": {"noise": "none", "nu": "0.0", "s": "0.0", "sigma": "2.6", "N": "4",
                "dt": "2e-3", "T": "0.02", "seed": "5", "radius_kind": "constant",
                "alpha": "0.3"},
        "initial_data": {"family": "two_mode", "amplitude": "0.01"},
    },
    "damping": {
        "experiment": {"name": "damping_smoke"},
        "sim": {"noise": "damping", "nu": "1.5", "s": "0", "sigma": "2.6", "N": "4",
                "dt": "5e-3", "T": "0.01", "radius_kind": "constant",
                "alpha": "0.15", "c_sigma": "0.001"},
        "initial_data": {"family": "two_mode", "amplitude": "1.0",
                         "normalize_target": "0.5", "normalize_sigma": "2.6",
                         "normalize_phi": "0.15"},
        "ensemble": {"epsilon": "0.5", "paths": "1"},
    },
    "diffusion": {
        "experiment": {"name": "diffusion_smoke"},
        "sim": {"noise": "diffusion", "nu": "0.1", "s": "1.0", "sigma": "1.9",
                "N": "4", "dt": "0.01", "T": "0.02", "radius_kind": "linear",
                "alpha": "2.772588722239781", "beta": "0.0025",
                "eta": "0.2772588722239781"},
        "initial_data": {"family": "single_mode", "mode": "1 0 1",
                         "normalize_target": "0.5", "normalize_sigma": "1.9",
                         "normalize_phi": "3.0498475944637593"},
        "ensemble": {"epsilon": "0.5", "paths": "1", "c_star": "0.001"},
    },
}
# on `damping`: the ensemble of TestEnsemble, ten steps on seed 2
ENSEMBLE = {"experiment.name": "ens", "sim.T": "0.05", "sim.seed": "2", "sim.phi0": "0.15"}
# On `diffusion`: the diffusion half of the criterion-08 pair as the
# `ensemble` benchmark runs it, N=4 at radius alpha + eta = 3.05, so
# phi*|k|_max ~ 133 and exp(phi*|k|) lifts FFT round-off in the top modes far
# above the resolved norm of 0.5.
ROUNDOFF = {"experiment.name": "diffusion", "sim.T": "0.4",
            "sim.beta": "0.0025000000000000005"}


def config(kind: str, edits: dict | None = None) -> dict:
    """Base config ``kind`` with each ``"section.key": value`` of ``edits``
    set, or dropped where the value is None."""
    sections = {section: dict(entries) for section, entries in BASES[kind].items()}
    for name, value in (edits or {}).items():
        section, key = name.split(".")
        if value is None:
            del sections[section][key]
        else:
            sections.setdefault(section, {})[key] = str(value)
    return sections


def write_config(tmp_path, config) -> str:
    """Writes ``config``, a dict of sections or, for input the builder cannot
    write, the file's bytes, to ``tmp_path / "cfg.ini"``; returns its path."""
    path = tmp_path / "cfg.ini"
    path.write_bytes(config if isinstance(config, bytes) else "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())
        for section, entries in config.items()).encode())
    return str(path)


@pytest.fixture
def cli(tmp_path, capsys, monkeypatch):
    """``cli(argv, config)`` runs ``bench_cli.main(argv.split())`` in the
    empty working directory tmp_path, with ``config`` (unless None) written
    to cfg.ini there, and returns its exit code, stdout, stderr and the
    names it left beside cfg.ini."""
    monkeypatch.chdir(tmp_path)

    def run(argv: str, config=None):
        if config is not None:
            write_config(tmp_path, config)
        code = bench_cli.main(argv.split())
        out, err = capsys.readouterr()
        return code, out, err, sorted(set(os.listdir()) - {"cfg.ini"})
    return run


def assert_config_error(cli, commands, config, message):
    """Each command line exits 2 with exactly ``config error: message`` on
    stderr, nothing on stdout, and no file or directory made."""
    for argv in commands:
        assert cli(argv, config) == (bench_cli.EXIT_CONFIG, "", f"config error: {message}\n", [])


SIM = "simulate --config cfg.ini --quiet"
ENS = "ensemble --config cfg.ini --quiet"
LATTICE = "need three integers, not all zero, with |m_i| <= N = 4, and component 0 or 1"
POSITIVE = "goodset: alpha, beta, nu must all be positive and finite, got"
HORIZON = "horizon and step must be positive and finite, got"
L2_INF = "the datum's L2 norm is inf, past what a double holds"
CAP = "past the exponent cap at N = 4: squared-weight exponent 2*phi*|k|_max^s ="

# The config errors, by the test that runs them: each row is (case id,
# command lines, config written to cfg.ini or None, message), and
# `assert_config_error` checks it.  A test of one row without an id is a
# plain test.
CONFIG_ERRORS = {
    "unknown_input": [
        (case, (SIM,), config("none", {name: value}), message)
        for case, name, value, message in [
            ("experiment", "experiment.nmae", "x", "experiment.nmae: unknown key"),
            ("output", "output.dri", "out", "output.dri: unknown key"),
            ("sim", "sim.eat", "0.1", "sim.eat: unknown key"),
            ("initial_data", "initial_data.amplitud", "2", "initial_data.amplitud: unknown key"),
            ("ensemble", "ensemble.epsilom", "0.5", "ensemble.epsilom: unknown key"),
            ("section", "goodset.alpha", "2", "goodset: unknown section"),
            ("default", "DEFAULT.alpha", "0.3", "DEFAULT.alpha: unknown key"),
            ("linear_only", "sim.linear_only", "true", "sim.linear_only: unknown key"),
            ("normalize_kind", "initial_data.normalize_kind", "L2",
             "initial_data.normalize_kind: unknown key"),
            # a traceback: the files went into a directory never made
            ("name-path", "experiment.name", "a/b", "experiment.name: must be a non-empty "
             "file name prefix without '/' or NUL, got 'a/b'")]],
    # a file the loader cannot open or decode, or text configparser refuses
    "unreadable_config": [
        ("missing", ("simulate --config missing.ini",), None,
         "cannot read config missing.ini: [Errno 2] No such file or directory: 'missing.ini'"),
        ("directory", ("simulate --config .",), None,
         "cannot read config .: [Errno 21] Is a directory: '.'"),
        # a UnicodeDecodeError traceback
        ("not-utf8", (SIM,), b"\xff\xfe[sim]", "cannot read config cfg.ini: 'utf-8' codec "
         "can't decode byte 0xff in position 0: invalid start byte"),
        ("duplicate-key", (SIM,), b"[sim]\nN = 4\nN = 5\n", "cfg.ini: While reading from "
         "'cfg.ini' [line  3]: option 'N' in section 'sim' already exists"),
        ("no-section", (SIM,), b"N = 4\n",
         "cfg.ini: File contains no section headers.\nfile: 'cfg.ini', line: 1\n'N = 4\\n'"),
        ("no-equals", (SIM,), b"[sim]\nN\n",
         "cfg.ini: Source contains parsing errors: 'cfg.ini'\n\t[line  2]: 'N\\n'")],
    # the NUL byte was a ValueError traceback out of mkdir
    "output_dir": [
        ("below-file", (SIM,), config("none", {"output.dir": "cfg.ini/out"}),
         "output.dir: cannot create cfg.ini/out: [Errno 20] Not a directory: 'cfg.ini/out'"),
        ("nul", (SIM,), config("none", {"output.dir": "a\0b"}),
         "output.dir: cannot create a\0b: embedded null byte"),
        # these named output.dir, which the config does not set; goodset
        # reads no config, and cfg.ini is there as a file to create x below
        *((f"--out-{argv.split()[0]}", (f"{argv} --out cfg.ini/x",), config(kind),
           "--out: cannot create cfg.ini/x: [Errno 20] Not a directory: 'cfg.ini/x'")
          for argv, kind in [(SIM, "none"), (ENS, "damping"),
                             ("goodset --alpha 2 --beta 0.5 --nu 1 --T 1 --dt 0.01 "
                              "--paths 100", "none")])],
    "non_positive_paths": [
        row for paths in ("0", "-3") for row in (
            (f"{paths}-goodset",
             (f"goodset --alpha 2 --beta 0.5 --nu 1 --T 1 --dt 0.01 --out out --paths {paths}",),
             None, f"goodset: need at least 100 paths, got {paths}"),
            (f"{paths}-ensemble", (f"{ENS} --paths {paths}",), config("damping"),
             "--paths: must be at least 1"))],
    # every check, the experiment's thresholds included, runs before the
    # output directory is created; a constant that is not positive and
    # finite would pass the threshold
    "no_output_dir": [
        (case, (ENS,), config(kind, edits), message) for case, kind, edits, message in [
            ("ensemble-threshold", "damping", {"sim.c_sigma": "10"},
             "ensemble: need the damping radius's limit phi0 - (8*c_sigma/nu^2)"
             "*(e^alpha*|V0| + 1) >= 0, got -319.85"),
            ("c_sigma-nan", "damping", {"sim.c_sigma": "nan"},
             "ensemble: c_sigma must be positive and finite, got nan"),
            ("c_sigma-negative", "damping", {"sim.c_sigma": "-5"},
             "ensemble: c_sigma must be positive and finite, got -5.0"),
            ("c_star-nan", "diffusion", {"ensemble.c_star": "nan"},
             "ensemble: c_star must be positive and finite, got nan"),
            ("c_star-negative", "diffusion", {"ensemble.c_star": "-5"},
             "ensemble: c_star must be positive and finite, got -5.0"),
            ("c_sigma-estimate", "damping", {"sim.c_sigma": "estimate", "sim.sigma": "2"},
             "sim.c_sigma: transport estimate requires sigma > 2, got 2.0")]],
    # numpy's SeedSequence raised on these, and simulate had already created
    # its output directory
    "negative_seed": [
        (f"{case}-{command.split()[0]}", (command + flags,), config("damping", edits),
         f"{case}: must be non-negative, got -1")
        for case, edits, flags in [("sim.seed", {"sim.seed": "-1"}, ""),
                                   ("sim.seeds", {"sim.seeds": "1 -1"}, ""),
                                   ("--seed", {}, " --seed -1")]
        for command in (SIM, ENS)],
    # verify raised numpy's ValueError; goodset named no flag
    "negative_seed_flag": [
        (argv, (f"{argv} --seed -1",), None, "--seed: must be non-negative, got -1")
        for argv in ("verify cancellation", "goodset --alpha 2 --beta 0.5 --nu 1")],
    # 'none' runs at nu = 0 and ignores s, so any other order is an error
    "none_s": [(value, (SIM,), config("none", {"sim.s": value}),
                f"sim: noise 'none' requires s = 0, got {float(value)}")
               for value in ("0.5", "nan")],
    # these wrote the coefficient by raw index (an IndexError traceback, or a
    # mode on the wrong component), unpacked to a bare ValueError, ran the
    # zero field, or dropped the second mode without a word
    "off_lattice": [
        (case, (SIM,), config("none", {f"initial_data.{key}": value}),
         f"initial_data: mode {placed}: {LATTICE}")
        for case, key, value, placed in [
            ("mode", "mode", "5 0 1", "(5, 0, 1) on component 0"),
            ("component", "component", "2", "(1, 0, 1) on component 2"),
            ("component-negative", "component", "-1", "(1, 0, 1) on component -1"),
            ("mode_b", "mode_b", "0 -5 1", "(0, -5, 1) on component 1"),
            ("mode-two", "mode", "1 0", "(1, 0) on component 0"),
            ("mode-zero", "mode", "0 0 0", "(0, 0, 0) on component 0"),
            ("mode_b-zero", "mode_b", "0 0 0", "(0, 0, 0) on component 1")]],
    # the datum was built on N first: N = 0 read as a mode off the lattice,
    # and N = -1 as numpy's "negative dimensions are not allowed"
    "modes_below_one": [(f"N-{case}", (SIM, ENS), config("damping", {"sim.N": n}),
                         f"sim.N: must be at least 1, got {n}")
                        for case, n in (("zero", "0"), ("negative", "-1"))],
    "unknown_family": [
        (None, (SIM,), config("none", {"initial_data.family": "vortex_soup",
                                       "initial_data.amplitude": "1"}),
         "initial_data.family: unknown family 'vortex_soup'")],
    # checked after the SimConfig's own checks (test_diffusion_beta_below_cap_runs)
    "beta_cap": [(None, (SIM,), config("diffusion", {"sim.nu": "1.0", "sim.beta": "0.5"}),
                  "sim: diffusion requires beta < nu^2/2")],
    # each of these ran on to a blowup, a traceback or a clean exit; a finite
    # radius past the exponent cap at N = 4 is one too, and so is a norm
    # target that is not positive
    "non_finite_model": [
        (f"{kind}-{key.removeprefix('sim.')}-{value}",
         (SIM, ENS) if kind == "damping" else (SIM,), config(kind, {key: value}), message)
        for kind, key, value, message in [
            ("diffusion", "sim.nu", "nan", "sim: nu must be finite, got nan"),
            ("diffusion", "sim.nu", "inf", "sim: nu must be finite, got inf"),
            ("damping", "sim.nu", "nan", "sim: nu must be finite, got nan"),
            ("damping", "sim.sigma", "nan", "sim: sigma must be positive and finite, got nan"),
            ("damping", "sim.sigma", "inf", "sim: sigma must be positive and finite, got inf"),
            ("damping", "sim.alpha", "nan", "sim: alpha must be finite, got nan"),
            ("none", "sim.blowup_factor", "nan", "sim: blowup_factor must be finite, got nan"),
            ("damping", "sim.phi0", "50", f"sim: phi0 {CAP} 4.35e+03 exceeds cap 700 "
             "(phi=50, s=1, N=4)"),
            ("damping", "initial_data.amplitude", "nan",
             "initial_data: amplitude must be finite, got nan"),
            ("damping", "initial_data.normalize_target", "nan",
             "initial_data: normalize_target must be positive and finite, got nan"),
            ("damping", "initial_data.normalize_target", "-0.5",
             "initial_data: normalize_target must be positive and finite, got -0.5"),
            ("damping", "initial_data.normalize_target", "0",
             "initial_data: normalize_target must be positive and finite, got 0.0"),
            ("damping", "initial_data.normalize_phi", "nan",
             "initial_data: normalize_phi must be non-negative and finite, got nan"),
            ("damping", "initial_data.normalize_phi", "inf",
             "initial_data: normalize_phi must be non-negative and finite, got inf"),
            ("damping", "initial_data.normalize_phi", "50", f"initial_data: normalize_phi "
             f"{CAP} 4.35e+03 exceeds cap 700 (phi=50, s=1, N=4)")]],
    # each of these, set to 1e300, overflowed the tracked norm at t = 0 and
    # ran on to a blowup (exit 10)
    "uncomputable_norm": [
        (f"{kind}-{key.split('.')[1]}", (SIM,), config(kind, {key: "1e300"}), f"{key}: {message}")
        for kind, key, message in [
            ("damping", "sim.sigma", "the tracked norm at t = 0 is nan: its weight "
             "|k|^(sigma*s) exp(phi*|k|^s) overflows at sigma = 1e+300, s = 1.0, "
             "phi = 0.15, N = 4"),
            ("damping", "initial_data.normalize_target", L2_INF),
            ("diffusion", "initial_data.normalize_target", L2_INF),
            ("none", "initial_data.amplitude", L2_INF)]],
    "non_finite_step": [(f"{key}-{value}", (SIM,), config("none", {f"sim.{key}": value}),
                         f"sim: {HORIZON} {got}")
                        for key, value, got in [("dt", "nan", "T=0.02, dt=nan"),
                                                ("dt", "inf", "T=0.02, dt=inf"),
                                                ("T", "nan", "T=nan, dt=0.002"),
                                                ("T", "inf", "T=inf, dt=0.002")]],
    "epsilon": [(value, (ENS,), config("damping", {"ensemble.epsilon": value}),
                 f"ensemble: epsilon must lie in (0, 1), got {float(value)}")
                for value in ("1.5", "0", "nan")],
    # epsilon = 0.01 sets alpha = 18.42, so with eta the threshold norm runs
    # at phi = 18.70 and its squared weight at 2*phi*|k|_max = 1628
    "radius_past_cap": [
        (None, (ENS,), config("diffusion", {"ensemble.epsilon": "0.01",
                                            "ensemble.c_star": "0.05"}),
         f"ensemble: radius {CAP} 1.63e+03 exceeds cap 700 (phi=18.6979, s=1, N=4)")],
    "invalid_params": [(None, ("goodset --alpha -1 --beta 1 --nu 1",), None,
                        f"{POSITIVE} -1.0, 1.0, 1.0")],
    "non_finite_param": [
        (flag, (f"goodset {flags} --T 1 --dt 0.01 --paths 100",), None, f"{POSITIVE} {got}")
        for flag, flags, got in [
            ("--alpha", "--alpha nan --beta 0.5 --nu 1", "nan, 0.5, 1.0"),
            ("--beta", "--alpha 2 --beta nan --nu 1", "2.0, nan, 1.0"),
            ("--nu", "--alpha 2 --beta 0.5 --nu nan", "2.0, 0.5, nan")]],
    # the survival formulas divided by nu^2: a ZeroDivisionError and an
    # OverflowError traceback
    "nu_squared": [
        (case, (f"goodset --alpha 2 --beta 0.5 --nu {nu} --T 1 --dt 0.01 --paths 100",), None,
         f"goodset: nu needs a finite nu^2 > 0, got {float(nu)}")
        for case, nu in (("underflow", "1e-200"), ("overflow", "1e200"))],
    "bad_horizon": [
        (case, (f"goodset --alpha 1 --beta 1 --nu 1 --paths 100 {flags}",), None,
         f"goodset: {HORIZON} {got}") for case, flags, got in [
            ("dt0", "--dt 0", "T=50.0, dt=0.0"), ("dt-neg", "--dt -0.01", "T=50.0, dt=-0.01"),
            ("T-neg", "--T -1", "T=-1.0, dt=0.001"), ("T-inf", "--T inf", "T=inf, dt=0.001"),
            ("T0", "--T 0", "T=0.0, dt=0.001")]],
}


def config_error_test(group: str):
    """The test of ``CONFIG_ERRORS[group]``: one case per row, by its id."""
    rows = CONFIG_ERRORS[group]
    if rows[0][0] is None:
        def test(self, cli):
            assert_config_error(cli, *rows[0][1:])
        return test

    @pytest.mark.parametrize("commands,config,message", [row[1:] for row in rows],
                             ids=[row[0] for row in rows])
    def test(self, cli, commands, config, message):
        assert_config_error(cli, commands, config, message)
    return test


class TestStrictInputs:
    test_unknown_input_is_config_error = config_error_test("unknown_input")
    test_unreadable_config_is_config_error = config_error_test("unreadable_config")
    test_uncreatable_output_dir_is_config_error = config_error_test("output_dir")
    test_non_positive_paths_flag_is_config_error = config_error_test("non_positive_paths")
    test_config_error_creates_no_output_dir = config_error_test("no_output_dir")
    test_negative_seed_is_config_error = config_error_test("negative_seed")
    test_negative_seed_flag_is_config_error = config_error_test("negative_seed_flag")
    test_none_noise_requires_s_zero = config_error_test("none_s")
    test_mode_off_the_lattice_is_config_error = config_error_test("off_lattice")
    test_modes_below_one_are_config_error = config_error_test("modes_below_one")

    # each subcommand refuses the flags it does not read; goodset reads flags only
    @pytest.mark.parametrize("argv,flag", [
        ("goodset --alpha 2 --beta 0.5 --nu 1 --T 1 --dt 0.01 --paths 100",
         "--config cfg.ini"),
        ("verify exponents", "--config x"),
        ("verify exponents", "--out x"),
        ("verify exponents", "--paths 5"),
        ("verify exponents", "--quiet"),
        ("simulate --config cfg.ini", "--paths 5"),
        ("goodset --alpha 2 --beta 0.5 --nu 1", "--quiet"),
    ], ids=["goodset-config", "verify-config", "verify-out", "verify-paths",
            "verify-quiet", "simulate-paths", "goodset-quiet"])
    def test_unread_flag_refused(self, cli, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli(f"{argv} {flag}", config("none"))
        assert exc.value.code == bench_cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag}\n" in err
        assert out == "" and os.listdir() == ["cfg.ini"]

    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_readme_config_reference_matches_table(self, tmp_path):
        readme = self.README.read_text()
        documented = re.findall(r"^\| `(\w+)\.(\w+)` \|", readme, re.MULTILINE)
        assert len(documented) == len(set(documented))
        assert set(documented) == {(section, key) for section, keys
                                   in bench_cli.CONFIG_KEYS.items() for key in keys}
        example = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        cfg, u0, _ = bench_cli.build_sim(
            bench_cli.load_config(write_config(tmp_path, example.encode())))
        assert cfg.radius.kind == "linear" and u0.N == cfg.n_modes


class TestConfigFuzz:
    """Every config either runs or names its key: each key of the damping
    and diffusion bases, CI's two smoke ensembles, set one at a time to each
    of a fixed list of values, in the manner of QuickCheck (Claessen & Hughes
    2000) on a hand-written list, and run through both ``simulate`` and
    ``ensemble``.

    No value is left out as too long to run: the huge step counts
    (``sim.dt = 1e-300``, ``sim.T = 1e300``) are refused by the time grid's
    check, and ``sim.N`` and ``ensemble.paths`` parse as integers, so
    ``1e300`` is refused before anything runs.
    """

    NUL = "a\0b"
    VALUES = ("nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "abc", "", "1 2", NUL)
    FLOATS = VALUES[:7]  # the values that float() reads
    FINITE = ("-1", "0", "1e300", "1e-300")
    BOTH = ("damping", "diffusion")
    SIM, ENS = ("simulate",), ("ensemble",)
    COMMANDS = SIM + ENS
    D, F = ("damping",), ("diffusion",)
    LARGER = "a weaker weight, a larger datum, whose |V0| the experiment refuses"
    # (commands, kinds, keys, values, exit code, reason): every case that is
    # not a config error, and why it may end so; `ensemble` exits 0 whatever
    # its members' statuses
    RUNS = [
        (COMMANDS, BOTH, "sim.seeds", ("0", "", "1 2"), 0,
         "non-negative seeds, empty reads sim.seed; ensemble reads sim.seed only"),
        (COMMANDS, BOTH, "initial_data.sigma initial_data.s", FINITE, 0,
         "read by random_decay only"),
        (COMMANDS, BOTH, "initial_data.radius initial_data.poly", FINITE, 0,
         "read by random_analytic only"),
        (COMMANDS, BOTH, "experiment.name", tuple(set(VALUES) - {"", NUL}), 0,
         "any text but empty, or with a '/' or NUL, prefixes the file names"),
        (COMMANDS, BOTH, "initial_data.amplitude", ("-1",), 0, "normalize_target sets the size"),
        (COMMANDS, BOTH, "initial_data.component", ("0",), 0, "the default component"),
        (COMMANDS, BOTH, "initial_data.normalize_target", ("1e-300",), 0, "a positive target"),
        (COMMANDS, BOTH, "initial_data.seed sim.seed", ("0",), 0, "a seed"),
        (COMMANDS, BOTH, "sim.T", ("1e-300",), 0, "one step, to T"),
        (COMMANDS, BOTH, "sim.dt", ("1e300",), 0, "one step, of T"),
        (COMMANDS, BOTH, "sim.blowup_factor", ("1e300",), 0, "a factor > 1"),
        (COMMANDS, BOTH, "sim.eta", ("0", "1e-300"), 0, "an offset >= 0 (ensemble: 0 is alpha/10)"),
        (COMMANDS, BOTH, "sim.phi0", ("0", "1e-300"), 0, "a radius, read by damping radii only"),
        (COMMANDS, D, "sim.beta", FLOATS, 0, "a constant radius has no slope"),
        (COMMANDS, F, "sim.beta", ("-1", "0", "1e-300"), 0, "a slope below the cap nu^2/2"),
        (ENS, F, "sim.beta", ("1e300",), 0, "the experiment's beta is nu^2/4"),
        (ENS, F, "sim.alpha", ("1e300", "1e-300"), 0, "the experiment's alpha is -4 ln(epsilon)"),
        (SIM, D, "sim.alpha", ("1e-300",), 0, "a radius > 0, but the experiment's limit < 0"),
        (SIM, BOTH, "sim.c_sigma", FLOATS, 0, "read by a damping radius only"),
        (ENS, F, "sim.c_sigma", FLOATS, 0, "the damping threshold's constant"),
        (ENS, D, "ensemble.c_star", FLOATS, 0, "the diffusion threshold's constant"),
        (ENS, D, "sim.c_sigma", ("1e-300",), 0, "a positive constant"),
        (ENS, F, "ensemble.c_star", ("1e-300",), 0, "a positive constant"),
        (SIM, BOTH, "ensemble.epsilon ensemble.c_star", FLOATS, 0, "read by ensemble only"),
        (SIM, BOTH, "ensemble.paths", ("-1", "0"), 0, "read by ensemble only"),
        (COMMANDS, F, "initial_data.mode_b", ("-1", "0", "", "1 2"), 0, "single_mode: one mode"),
        (COMMANDS, F, "initial_data.component_b", ("-1", "0"), 0, "single_mode: one mode"),
        (COMMANDS, F, "initial_data.ratio", FINITE, 0, "single_mode: one mode"),
        (COMMANDS, D, "initial_data.ratio", ("-1", "0", "1e-300"), 0,
         "the second mode's share; 0 leaves it out"),
        (COMMANDS, D, "initial_data.component_b", ("0",), 0, "a mode on component 0"),
        (COMMANDS, D, "initial_data.normalize_phi", ("0", "1e-300"), 0, "a radius >= 0"),
        (COMMANDS, D, "sim.s", ("0",), 0, "the damping order"),
        (SIM, BOTH, "initial_data.normalize_sigma", ("1e-300",), 0, LARGER),
        (SIM, D, "initial_data.normalize_s", ("0", "1e-300"), 0, LARGER),
        (SIM, D, "sim.alpha", ("-1", "0"), bench_cli.EXIT_RADIUS, "a radius <= 0 at t = 0"),
        (SIM, BOTH, "sim.alpha sim.eta", ("1e300",), bench_cli.EXIT_EXPONENT_CAP,
         "a radius past the exponent cap at t = 0"),
        (SIM, F, "sim.alpha", ("1e-300",), bench_cli.EXIT_GOODSET,
         "the barrier nu*W <= alpha + beta*t starts at 0, and W(dt) > 0"),
        # measured: with the transport zeroed the norm holds, |P Q(u0, u0)| is
        # 7e-20 against coefficients of 4e-3, and the first step lifts the
        # norm 1e5x / 1e17x / 1e26x at N = 3 / 4 / 5 (N = 3 completes)
        (SIM, F, "initial_data.normalize_phi initial_data.normalize_s", ("0", "1e-300"),
         bench_cli.EXIT_BLOWUP, "round-off: a steady datum, 5e11x larger at a weaker "
         "weight, whose round-off exp(phi*|k|) lifts up to e^133"),
    ]

    @pytest.mark.parametrize("kind", BOTH)
    def test_every_value_runs_or_names_its_key(self, cli, kind):
        runs = {(command, code, key, value) for commands, kinds, keys, values, code, _
                in self.RUNS if kind in kinds for command in commands
                for key in keys.split() for value in values}
        failures, ran = [], set()
        for command, name, value in [
                (command, f"{section}.{key}", value) for command in self.COMMANDS
                for section, keys in bench_cli.CONFIG_KEYS.items()
                for key in keys if (section, key) != ("output", "dir")
                for value in self.VALUES]:
            try:
                code, out, err, left = cli(f"{command} --config cfg.ini --quiet",
                                           config(kind, {name: value}))
            except Exception as exc:
                failures.append((command, name, value, f"{type(exc).__name__}: {exc}"))
                continue
            finally:  # what a run, or a run that raised, wrote
                shutil.rmtree("out", ignore_errors=True)
            if code != bench_cli.EXIT_CONFIG:
                ran.add((command, code, name, value))
            # the key itself, its section, the datum built from it, or the
            # ensemble's quantities derived from it
            elif not err.startswith((f"config error: {name}:", *(
                    f"config error: {s}:" for s in (name.split(".")[0], "initial_data",
                                                    "ensemble")))) or out or left:
                failures.append((command, name, value, err, left))
        assert failures == [] and ran == runs, (failures, ran - runs, runs - ran)

    WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"

    @pytest.mark.parametrize("kind", BOTH)
    def test_ci_smoke_config_is_the_base(self, kind):
        # CI's heredoc config, but for its horizon and path count
        text = re.search(rf"cat > \"\$RUNNER_TEMP/{kind}\.ini\" <<'EOF'\n(.*?)\n *EOF\n",
                         self.WORKFLOW.read_text(), re.DOTALL).group(1)
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read_string(textwrap.dedent(text))
        ci = {section: dict(parser[section]) for section in parser.sections()}
        assert ci == config(kind, {"sim.T": ci["sim"]["T"],
                                   "ensemble.paths": ci["ensemble"]["paths"]})


class TestSimulate:
    test_unknown_family_reported = config_error_test("unknown_family")
    test_diffusion_beta_cap_is_config_error = config_error_test("beta_cap")
    test_non_finite_model_parameter_is_config_error = config_error_test("non_finite_model")
    test_uncomputable_initial_norm_is_config_error = config_error_test("uncomputable_norm")
    test_non_finite_step_or_horizon_is_config_error = config_error_test("non_finite_step")

    def test_zero_data_completes(self, tmp_path):
        # through `python -m`, the module's entry point: exit 0
        cfg = write_config(tmp_path, config("none", {
            "experiment.name": "zero", "initial_data.family": "zero",
            "initial_data.amplitude": "1.0", "output.dir": tmp_path}))
        res = subprocess.run([sys.executable, "-m", "hydrostat.bench_cli", "simulate",
                              "--config", cfg, "--quiet"], capture_output=True, text=True)
        assert res.returncode == 0 and res.stdout == res.stderr == "", res.stderr
        csv = (tmp_path / "zero_seed5.csv").read_text().splitlines()
        assert csv[0] == bench_cli.CSV_HEADER
        row = csv[1].split(",")
        assert float(row[3]) == 0.0  # all-zero series

    def test_summary_schema(self, tmp_path):
        cfg = write_config(tmp_path, config("none", {"experiment.name": "tm",
                                                     "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        line = json.loads((tmp_path / "tm_summary.jsonl").read_text().strip())
        assert set(line) == {"schema", "name", "seed", "status", "t_final",
                             "max_gevrey_norm", "goodset"}
        assert line["schema"] == 1
        assert line["status"] == "completed"
        assert line["goodset"] is True

    def test_l2_drift_reported_small(self, tmp_path):
        cfg = write_config(tmp_path, config("none", {"experiment.name": "cons",
                                                     "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        rows = (tmp_path / "cons_seed5.csv").read_text().splitlines()[1:]
        l2 = [float(r.split(",")[4]) for r in rows]
        assert abs(l2[-1] - l2[0]) <= 1e-9 * l2[0]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, config("none", {"experiment.name": "rep",
                                                     "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        first = (tmp_path / "rep_seed5.csv").read_bytes()
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        assert (tmp_path / "rep_seed5.csv").read_bytes() == first

    def test_blowup_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, config("none", {
            "experiment.name": "boom", "sim.N": "6", "sim.T": "2.0", "sim.blowup_factor": "50",
            "initial_data.amplitude": "3.0", "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_BLOWUP

    def test_radius_exhausted_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, config("none", {
            "experiment.name": "rx", "sim.noise": "damping", "sim.nu": "2.0", "sim.dt": "5e-3",
            "sim.T": "5.0", "sim.seed": "1", "sim.radius_kind": "damping", "sim.phi0": "0.2",
            "sim.alpha": "1.0", "sim.beta": "1.0", "sim.c_sigma": "1.0",
            "initial_data.amplitude": "1e-4", "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_RADIUS

    # diffusion at N = 4 and dt = 1e-3 on seed 1
    DIFFUSION = {"sim.noise": "diffusion", "sim.s": "1.0", "sim.sigma": "1.9", "sim.dt": "1e-3",
                 "sim.seed": "1", "sim.radius_kind": "linear"}

    def test_goodset_exit_code(self, tmp_path):
        # tiny radius, strong noise: the exponent crosses the radius fast
        # for the chosen seed
        cfg = write_config(tmp_path, config("none", {
            **self.DIFFUSION, "experiment.name": "gs", "sim.nu": "4.0", "sim.T": "1.0",
            "sim.seed": "3", "sim.alpha": "0.05", "sim.beta": "0.01",
            "initial_data.amplitude": "1e-6", "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_GOODSET

    def test_exponent_cap_exit_code(self, tmp_path):
        # damping never stops at the barrier, and with nu = 1000 the scalar
        # conjugation exp(nu*W) passes the cap once |W| > 0.7 (t = 0.237
        # for this seed)
        cfg = write_config(tmp_path, config("none", {
            "experiment.name": "cap", "sim.noise": "damping", "sim.nu": "1000.0",
            "sim.dt": "1e-3", "sim.T": "0.3", "sim.seed": "1",
            "initial_data.amplitude": "1e-6", "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == 13
        summary = json.loads((tmp_path / "cap_summary.jsonl").read_text())
        assert summary["status"] == "exponent_cap"
        assert summary["t_final"] == pytest.approx(0.237)

    # phi*|k|_max = 653 passes the weight's own check, but the norm sums
    # squared weights (exponent 1306); at alpha = 20 the weight itself is
    # past the cap (871).  Both stop before the first step.
    @pytest.mark.parametrize("alpha", ["15.0", "20.0"])
    def test_cap_at_t0_reports_exponent_cap(self, tmp_path, capsys, alpha):
        cfg = write_config(tmp_path, config("none", {
            **self.DIFFUSION, "experiment.name": "cap0", "sim.nu": "15.0", "sim.T": "0.01",
            "sim.alpha": alpha, "sim.beta": "100.0", "initial_data.amplitude": "1e-3",
            "output.dir": tmp_path}))
        assert bench_cli.main(["simulate", "--config", cfg]) == bench_cli.EXIT_EXPONENT_CAP
        assert capsys.readouterr().out == "cap0 seed=1: exponent_cap at t=0 (max norm nan)\n"
        summary = json.loads((tmp_path / "cap0_summary.jsonl").read_text())
        assert summary["status"] == "exponent_cap" and summary["t_final"] == 0.0
        assert summary["max_gevrey_norm"] is None and summary["goodset"] is True
        assert (tmp_path / "cap0_seed1.csv").read_text() == bench_cli.CSV_HEADER + "\n"

    def test_config_error_exit_and_message(self, tmp_path):
        # through `python -m`, the module's entry point: exit 2
        cfg = write_config(tmp_path, config("none", {"sim.dt": None, "output.dir": tmp_path}))
        res = subprocess.run([sys.executable, "-m", "hydrostat.bench_cli", "simulate",
                              "--config", cfg, "--quiet"], capture_output=True, text=True)
        assert res.returncode == bench_cli.EXIT_CONFIG
        assert res.stderr == "config error: sim.dt: required key is missing\n"

    def test_diffusion_beta_below_cap_runs(self, cli):
        # beta < nu^2/2 at nu = 1: test_diffusion_beta_cap_is_config_error's 0.5 is refused
        code, out, err, _ = cli(SIM, config("diffusion", {"sim.nu": "1.0", "sim.beta": "0.49"}))
        assert (code, out, err) == (bench_cli.EXIT_OK, "", "")

    def test_damping_step_past_horizon_is_one_step(self, tmp_path):
        # the clocked solve took its first steps as dt/8 from the nominal dt,
        # so dt = 1e300 overflowed its first node and reported a blowup
        csvs = set()
        for dt in ("0.1", "1", "1e300"):
            cfg = write_config(tmp_path, config("damping", {"sim.dt": dt}))
            assert bench_cli.main(["simulate", "--config", cfg, "--quiet",
                                   "--out", str(tmp_path / dt)]) == bench_cli.EXIT_OK
            csvs.add((tmp_path / dt / "damping_smoke_seed0.csv").read_bytes())
        assert len(csvs) == 1

    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_cli.main(["simulate"])
        assert exc.value.code == bench_cli.EXIT_CONFIG
        assert "the following arguments are required: --config" in capsys.readouterr().err


class TestEnsemble:
    test_epsilon_out_of_range_is_config_error = config_error_test("epsilon")
    test_radius_past_cap_is_config_error = config_error_test("radius_past_cap")

    def test_small_ensemble_reports(self, tmp_path):
        cfg = write_config(tmp_path, config("damping", {
            **ENSEMBLE, "ensemble.paths": "4", "output.dir": tmp_path}))
        assert bench_cli.main(["ensemble", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        report = json.loads((tmp_path / "ens_ensemble.json").read_text())
        assert report["target"] == 0.5
        assert 0.0 <= report["completed_fraction"] <= 1.0
        runs = (tmp_path / "ens_runs.jsonl").read_text().strip().splitlines()
        assert len(runs) == 4

    def test_paths_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, config("damping", {
            **ENSEMBLE, "ensemble.paths": "4", "output.dir": tmp_path}))
        assert bench_cli.main(["ensemble", "--config", cfg, "--paths", "2", "--quiet"]) \
            == bench_cli.EXIT_OK
        runs = (tmp_path / "ens_runs.jsonl").read_text().strip().splitlines()
        assert len(runs) == 2

    def test_c_sigma_estimate_runs_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return analysis.ConstantEstimate(value=0.001, p95=0.001)

        monkeypatch.setattr(analysis, "estimate_c_sigma", counted)
        cfg = write_config(tmp_path, config("damping", {
            **ENSEMBLE, "sim.c_sigma": "estimate", "ensemble.paths": "2",
            "output.dir": tmp_path}))
        assert bench_cli.main(["ensemble", "--config", cfg, "--quiet"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_diffusion_reads_no_c_sigma(self, cli, monkeypatch, command):
        # no diffusion run reads c_sigma, so its estimate is not run: at
        # sigma = 1.9 it refused the config with "requires sigma > 2"
        monkeypatch.setattr(analysis, "estimate_c_sigma", None)
        code, _, err, _ = cli(f"{command} --config cfg.ini --quiet",
                              config("diffusion", {"sim.c_sigma": "estimate"}))
        assert (code, err) == (bench_cli.EXIT_OK, "")

    def test_damping_reads_no_c_star(self, cli, monkeypatch):
        # a damping experiment reads c_sigma, so c_star's estimate is not run
        monkeypatch.setattr(analysis, "estimate_c_star", None)
        code, _, err, _ = cli(ENS, config("damping", {"ensemble.c_star": "estimate"}))
        assert (code, err) == (bench_cli.EXIT_OK, "")

    def test_goodset_fraction_matches_stochastic_module(self, tmp_path):
        # ignoring the PDE outcome, the per-run goodset flags reproduce the
        # direct survival estimate path by path; at nu = 6, epsilon = 0.9
        # about half of the damping paths leave the good set
        from hydrostat import stochastic as st
        from hydrostat.stochastic import GoodSetParams

        base = {**ENSEMBLE, "ensemble.paths": "30", "output.dir": tmp_path}
        for edits in (base, {**base, "sim.nu": "6.0", "ensemble.epsilon": "0.9"}):
            cfg = config("damping", edits)
            assert bench_cli.main(["ensemble", "--config", write_config(tmp_path, cfg),
                                   "--quiet"]) == bench_cli.EXIT_OK
            report = json.loads((tmp_path / "ens_ensemble.json").read_text())
            params = GoodSetParams(report["alpha"], report["beta"], report["nu"])
            sim = cfg["sim"]
            expected = []
            for i in range(int(cfg["ensemble"]["paths"])):
                p = st.sample_path(float(sim["T"]), float(sim["dt"]),
                                   st.path_seed(int(sim["seed"]), i))
                expected.append(st.good_set_indicator(p, params)[0])
            runs = [json.loads(l) for l in
                    (tmp_path / "ens_runs.jsonl").read_text().strip().splitlines()]
            got = [r["goodset"] for r in runs]
            assert got == expected, edits
            assert report["n_completed_goodset"] == sum(
                r["goodset"] and r["status"] == "completed" for r in runs)

    def test_roundoff_floor_stays_below_blowup_threshold(self, tmp_path, c_star_est):
        # the tracked norm's round-off floor must stay >= 10x below the
        # blowup threshold, or round-off alone would decide run statuses
        parser = bench_cli.load_config(write_config(tmp_path, config("diffusion", ROUNDOFF)))
        cfg, u0, _ = bench_cli.build_sim(parser, seed_override=7)
        result = dynamics.run_global_experiment(u0, 0.5, cfg, 8,
                                                c_star=c_star_est.value)
        for r in result.records:
            threshold = cfg.blowup_factor * r.gevrey_norm_u[0]
            assert r.status == dynamics.STATUS_COMPLETED, r.name
            assert 10.0 * r.max_gevrey_norm <= threshold, (r.name, r.max_gevrey_norm)

    def test_roundoff_floor_over_48_paths(self, tmp_path, c_star_est):
        # the round-off tail that decides an `ensemble` op: on 48 paths the
        # largest floor read 5.5e6 against a 5e7 threshold
        parser = bench_cli.load_config(write_config(tmp_path, config("diffusion", ROUNDOFF)))
        cfg, u0, _ = bench_cli.build_sim(parser)
        for seed in range(901, 907):
            result = dynamics.run_global_experiment(u0, 0.5, replace(cfg, seed=seed), 8,
                                                    c_star=c_star_est.value)
            for r in result.records:
                threshold = cfg.blowup_factor * r.gevrey_norm_u[0]
                assert r.status == dynamics.STATUS_COMPLETED, (seed, r.name)
                assert 2.0 * r.max_gevrey_norm <= threshold, (seed, r.name,
                                                              r.max_gevrey_norm)

    def test_diffusion_ensemble_ignores_config_beta(self, tmp_path, c_star_est):
        # the experiment replaces the radius, so a beta the diffusion cap
        # would reject changes nothing in the report
        reports = []
        for beta in (ROUNDOFF["sim.beta"], repr(0.1 ** 2)):
            out = tmp_path / beta
            cfg = write_config(tmp_path, config("diffusion", {
                **ROUNDOFF, "sim.beta": beta, "ensemble.paths": "2",
                "ensemble.c_star": c_star_est.value}))
            assert bench_cli.main(["ensemble", "--config", cfg, "--out", str(out),
                                   "--seed", "3", "--quiet"]) == bench_cli.EXIT_OK
            reports.append(((out / "diffusion_ensemble.json").read_bytes(),
                            (out / "diffusion_runs.jsonl").read_bytes()))
        assert reports[0] == reports[1]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs 2 CPUs to compare against a 1-CPU run")
    @pytest.mark.parametrize("noise", ["diffusion", "damping"])
    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, c_star_est, noise):
        # the CLI pinned to one CPU (serial members) and to two (a pool of
        # two workers) writes the same bytes; only the child is pinned
        edits = {**ROUNDOFF, "ensemble.c_star": c_star_est.value} if noise == "diffusion" \
            else ENSEMBLE
        cfg = write_config(tmp_path, config(noise, {**edits, "ensemble.paths": "8"}))
        cpus = sorted(os.sched_getaffinity(0))
        outputs = []
        for pinned in (cpus[:1], cpus[:2]):
            out = tmp_path / f"cpus{len(pinned)}"
            res = subprocess.run(
                [sys.executable, "-c",
                 "import os, sys\n"
                 f"os.sched_setaffinity(0, {set(pinned)!r})\n"
                 "from hydrostat.bench_cli import main\n"
                 "sys.exit(main(sys.argv[1:]))",
                 "ensemble", "--config", cfg, "--seed", "3", "--out", str(out),
                 "--quiet"], capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1]


class TestGoodsetCommand:
    test_invalid_params = config_error_test("invalid_params")
    test_non_finite_param_is_config_error = config_error_test("non_finite_param")
    test_nu_squared_past_a_double_is_config_error = config_error_test("nu_squared")
    test_bad_horizon_or_step_is_config_error = config_error_test("bad_horizon")

    def test_record_fields_and_anchors(self, capsys):
        assert bench_cli.main(["goodset", "--alpha", "2", "--beta", "0.5", "--nu", "1",
                               "--T", "2", "--dt", "0.01", "--paths", "200"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["paper_bound"] == pytest.approx(1 - math.exp(-1.0))
        assert rec["exact_value"] == pytest.approx(1 - math.exp(-2.0))
        assert 0.0 <= rec["estimate"] <= 1.0

    def test_huge_alpha_sure_survival(self, capsys):
        assert bench_cli.main(["goodset", "--alpha", "50", "--beta", "1", "--nu", "1",
                               "--T", "1", "--dt", "0.01", "--paths", "150"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["estimate"] == 1.0

    def test_seed_consistency(self, capsys):
        args = ["goodset", "--alpha", "1.5", "--beta", "0.5", "--nu", "1",
                "--T", "2", "--dt", "0.01", "--paths", "300"]
        records = []
        for seed in ("1", "2"):
            assert bench_cli.main(args + ["--seed", seed]) == bench_cli.EXIT_OK
            records.append(json.loads(capsys.readouterr().out))
        a, b = records
        joint = 1.96 * math.hypot(a["std_error"], b["std_error"])
        assert abs(a["estimate"] - b["estimate"]) <= joint + 0.05


# the seeded checks; every other check, and `paper`, refuses --seed
SEEDED = ("cancellation", "lemma-a1", "nonlinear-estimate")


class TestVerify:
    # every check that is not a criterion (test_acceptance runs those)
    @pytest.mark.parametrize("suite", ["exponents", *(
        name for name in checks.CHECKS if name not in checks.CRITERIA)])
    def test_fast_suites_pass(self, capsys, suite):
        assert bench_cli.main(["verify", suite]) == bench_cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["suite"] == suite

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            bench_cli.main(["verify", "made-up"])
        assert exc.value.code == bench_cli.EXIT_CONFIG

    @pytest.mark.parametrize("suite", [name for name in bench_cli.VERIFY_SUITES
                                       if name not in SEEDED])
    def test_seed_refused_by_unseeded_suite(self, capsys, suite):
        # these suites read no seed, so a --seed would change nothing
        assert bench_cli.main(["verify", suite, "--seed", "7"]) == bench_cli.EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: --seed: the {suite} suite reads no seed\n")

    def test_seed_reaches_seeded_suite(self, capsys):
        # criterion 02's fields come from seed 7
        printed = []
        for argv in ([], ["--seed", "7"], ["--seed", "0"]):
            assert bench_cli.main(["verify", "cancellation", *argv]) == bench_cli.EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] != printed[2]

    @pytest.mark.parametrize("failing", ["", "b"])
    def test_paper_runs_every_check_once(self, capsys, monkeypatch, failing):
        calls = []
        results = {name: {"value": i, "ok": name != failing, "detail": name}
                   for i, name in enumerate("abc")}

        def stub(name):
            calls.append(name)
            return dict(results[name])

        monkeypatch.setattr(checks, "CHECKS", {name: partial(stub, name) for name in results})
        assert bench_cli.main(["verify", "paper"]) == (1 if failing else bench_cli.EXIT_OK)
        assert calls == ["a", "b", "c"]
        assert json.loads(capsys.readouterr().out) == {
            "schema": 1, "suite": "paper", "ok": not failing, "checks": results}

    def test_readme_verify_table_matches_registry(self):
        readme = TestStrictInputs.README.read_text()
        rows = re.findall(r"^\| `verify ([\w-]+)` \| (\d+|—) \| (\d+|—) \|",
                          readme, re.MULTILINE)
        assert [name for name, _, _ in rows] == list(bench_cli.VERIFY_SUITES)
        assert {name: int(number) for name, number, _ in rows
                if number != "—"} == checks.CRITERIA
        assert {name: int(seed) for name, _, seed in rows if seed != "—"} == {
            name: inspect.signature(bench_cli.VERIFY_SUITES[name]).parameters["seed"].default
            for name in SEEDED}
