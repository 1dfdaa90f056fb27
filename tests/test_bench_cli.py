"""Harness behavior: config grammar, output formats, exit codes,
reproducibility, and the verify batteries."""

import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from hydrostat import analysis, bench_cli, checks, dynamics


BASE_CONFIG = """
[experiment]
name = {name}

[sim]
noise = none
nu = 0.0
s = 0.0
sigma = 2.6
N = 4
dt = 2e-3
T = 0.02
seed = 5
radius_kind = constant
alpha = 0.3

[initial_data]
family = {family}
amplitude = {amplitude}

[output]
dir = {outdir}
"""


def write_config(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestStrictInputs:
    @pytest.mark.parametrize("edit,message", [
        (("[experiment]\n", "[experiment]\nnmae = x\n"), "experiment.nmae: unknown key"),
        (("[output]\n", "[output]\ndri = out\n"), "output.dri: unknown key"),
        (("[sim]\n", "[sim]\neat = 0.1\n"), "sim.eat: unknown key"),
        (("[initial_data]\n", "[initial_data]\namplitud = 2\n"),
         "initial_data.amplitud: unknown key"),
        (("[output]\n", "[ensemble]\nepsilom = 0.5\n\n[output]\n"),
         "ensemble.epsilom: unknown key"),
        (("[output]\n", "[goodset]\nalpha = 2\n\n[output]\n"), "goodset: unknown section"),
        (("[experiment]\n", "[DEFAULT]\nalpha = 0.3\n\n[experiment]\n"),
         "DEFAULT.alpha: unknown key"),
        (("[sim]\n", "[sim]\nlinear_only = true\n"), "sim.linear_only: unknown key"),
        (("[initial_data]\n", "[initial_data]\nnormalize_kind = L2\n"),
         "initial_data.normalize_kind: unknown key"),
        # a traceback: the files went into a directory never made
        (("name = strict", "name = a/b"),
         "experiment.name: must be a non-empty file name prefix without '/', got 'a/b'"),
    ], ids=["experiment", "output", "sim", "initial_data", "ensemble", "section",
            "default", "linear_only", "normalize_kind", "name-path"])
    def test_unknown_input_is_config_error(self, tmp_path, capsys, edit, message):
        text = BASE_CONFIG.format(name="strict", family="two_mode", amplitude="0.01",
                                  outdir=tmp_path / "out")
        cfg = write_config(tmp_path, text.replace(*edit))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    # each subcommand refuses the flags it does not read; goodset reads flags only
    @pytest.mark.parametrize("argv,flag", [
        ("goodset --alpha 2 --beta 0.5 --nu 1 --T 1 --dt 0.01 --paths 100",
         "--config CFG"),
        ("verify exponents", "--config x"),
        ("verify exponents", "--out x"),
        ("verify exponents", "--paths 5"),
        ("verify exponents", "--quiet"),
        ("simulate --config CFG", "--paths 5"),
        ("goodset --alpha 2 --beta 0.5 --nu 1", "--quiet"),
    ], ids=["goodset-config", "verify-config", "verify-out", "verify-paths",
            "verify-quiet", "simulate-paths", "goodset-quiet"])
    def test_unread_flag_refused(self, tmp_path, capsys, argv, flag):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="flag", family="zero", amplitude="1.0", outdir=tmp_path / "out"))
        argv, flag = (text.replace("CFG", cfg) for text in (argv, flag))
        with pytest.raises(SystemExit) as exc:
            bench_cli.main(f"{argv} {flag}".split())
        assert exc.value.code == bench_cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag}\n" in err
        assert out == "" and list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    @pytest.mark.parametrize("command", ["goodset", "ensemble"])
    @pytest.mark.parametrize("paths", ["0", "-3"])
    def test_non_positive_paths_flag_is_config_error(self, tmp_path, capsys,
                                                     command, paths):
        if command == "goodset":
            argv = ["goodset", "--alpha", "2", "--beta", "0.5", "--nu", "1",
                    "--T", "1", "--dt", "0.01", "--out", str(tmp_path / "out")]
            message = f"goodset: need at least 100 paths, got {paths}"
        else:
            cfg = write_config(tmp_path, TestEnsemble.ENSEMBLE_CONFIG.format(
                c_sigma="0.001", paths=4, outdir=tmp_path / "out"))
            argv = ["ensemble", "--config", cfg, "--quiet"]
            message = "--paths: must be at least 1"
        assert bench_cli.main(argv + ["--paths", paths]) == bench_cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err == f"config error: {message}\n" and out == ""
        assert not (tmp_path / "out").exists()

    # the damping ensemble below as a diffusion ensemble with c_star = {}
    DIFFUSION = {"noise = damping": "noise = diffusion", "s = 0.0": "s = 1.0",
                 "\nsigma = 2.6\n": "\nsigma = 1.9\n",
                 "epsilon = 0.5": "epsilon = 0.5\nc_star = {}"}

    @pytest.mark.parametrize("command,edits,message", [
        ("ensemble", {"c_sigma = 0.001": "c_sigma = 10"},
         "ensemble: need the damping radius's limit "),
        # a constant that is not positive and finite would pass the threshold
        ("ensemble", {"c_sigma = 0.001": "c_sigma = nan"},
         "ensemble: c_sigma must be positive and finite, got nan\n"),
        ("ensemble", {"c_sigma = 0.001": "c_sigma = -5"},
         "ensemble: c_sigma must be positive and finite, got -5.0\n"),
        ("ensemble", {**DIFFUSION, "c_star = {}": "c_star = nan"},
         "ensemble: c_star must be positive and finite, got nan\n"),
        ("ensemble", {**DIFFUSION, "c_star = {}": "c_star = -5"},
         "ensemble: c_star must be positive and finite, got -5.0\n"),
        ("ensemble", {"c_sigma = 0.001": "c_sigma = estimate",
                      "\nsigma = 2.6\n": "\nsigma = 2\n"},
         "sim.c_sigma: transport estimate requires sigma > 2, got 2.0\n"),
    ], ids=["ensemble-threshold", "c_sigma-nan", "c_sigma-negative", "c_star-nan",
            "c_star-negative", "c_sigma-estimate"])
    def test_config_error_creates_no_output_dir(self, tmp_path, capsys,
                                                command, edits, message):
        # every check, the experiment's thresholds included, runs before the
        # output directory is created
        text = TestEnsemble.ENSEMBLE_CONFIG.format(c_sigma="0.001", paths=2,
                                                   outdir=tmp_path / "config_dir")
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert bench_cli.main([command, "--config", cfg, "--quiet", "--out", str(out)]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    @pytest.mark.parametrize("edit,flags,message", [
        ("seed = -1", [], "sim.seed: must be non-negative, got -1"),
        ("seeds = 1 -1", [], "sim.seeds: must be non-negative, got -1"),
        ("seed = 2", ["--seed", "-1"], "--seed: must be non-negative, got -1"),
    ], ids=["sim.seed", "sim.seeds", "--seed"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command, edit,
                                           flags, message):
        # numpy's SeedSequence raised on these, and simulate had already
        # created its output directory
        text = TestEnsemble.ENSEMBLE_CONFIG.format(c_sigma="0.001", paths=2,
                                                   outdir=tmp_path / "config_dir")
        cfg = write_config(tmp_path, text.replace("seed = 2", edit))
        assert bench_cli.main([command, "--config", cfg, "--quiet",
                               "--out", str(tmp_path / "out"), *flags]) == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    @pytest.mark.parametrize("argv", ["verify cancellation",
                                      "goodset --alpha 2 --beta 0.5 --nu 1"])
    def test_negative_seed_flag_is_config_error(self, capsys, argv):
        # verify raised numpy's ValueError; goodset named no flag
        assert bench_cli.main([*argv.split(), "--seed", "-1"]) == bench_cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: --seed: must be non-negative, got -1\n")

    @pytest.mark.parametrize("value", ["0.5", "nan"])
    def test_none_noise_requires_s_zero(self, tmp_path, capsys, value):
        # 'none' runs at nu = 0 and ignores s, so any other order is an error
        text = BASE_CONFIG.format(name="none_s", family="two_mode", amplitude="0.01",
                                  outdir=tmp_path / "out")
        cfg = write_config(tmp_path, text.replace("s = 0.0", f"s = {value}"))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: sim: noise 'none' requires s = 0, got {float(value)}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    @pytest.mark.parametrize("edit,placed", [
        (("amplitude = 0.01", "amplitude = 0.01\nmode = 5 0 1"), "(5, 0, 1) on component 0"),
        (("amplitude = 0.01", "amplitude = 0.01\ncomponent = 2"), "(1, 0, 1) on component 2"),
        # placed on component 1 without a word
        (("amplitude = 0.01", "amplitude = 0.01\ncomponent = -1"),
         "(1, 0, 1) on component -1"),
        (("amplitude = 0.01", "amplitude = 0.01\nmode_b = 0 -5 1"),
         "(0, -5, 1) on component 1"),
        # these unpacked to a bare ValueError, ran the zero field, or dropped
        # the second mode without a word
        (("amplitude = 0.01", "amplitude = 0.01\nmode = 1 0"), "(1, 0) on component 0"),
        (("amplitude = 0.01", "amplitude = 0.01\nmode = 0 0 0"), "(0, 0, 0) on component 0"),
        (("amplitude = 0.01", "amplitude = 0.01\nmode_b = 0 0 0"),
         "(0, 0, 0) on component 1"),
    ], ids=["mode", "component", "component-negative", "mode_b", "mode-two",
            "mode-zero", "mode_b-zero"])
    def test_mode_off_the_lattice_is_config_error(self, tmp_path, capsys, edit, placed):
        # these wrote the coefficient by raw index: an IndexError traceback,
        # or a mode on the wrong component
        text = BASE_CONFIG.format(name="mode", family="two_mode", amplitude="0.01",
                                  outdir=tmp_path / "out")
        cfg = write_config(tmp_path, text.replace(*edit))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: initial_data: mode {placed}: need three integers, not all "
            f"zero, with |m_i| <= N = 4, and component 0 or 1\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    @pytest.mark.parametrize("n", ["0", "-1"], ids=["N-zero", "N-negative"])
    def test_modes_below_one_are_config_error(self, tmp_path, capsys, n):
        # the datum was built on N first: N = 0 read as a mode off the
        # lattice, and N = -1 as numpy's "negative dimensions are not allowed"
        text = TestEnsemble.ENSEMBLE_CONFIG.format(c_sigma="0.001", paths=2,
                                                   outdir=tmp_path / "out")
        cfg = write_config(tmp_path, text.replace("N = 4", f"N = {n}"))
        for command in ("simulate", "ensemble"):
            assert bench_cli.main([command, "--config", cfg, "--quiet"]) \
                == bench_cli.EXIT_CONFIG
            assert capsys.readouterr().err == \
                f"config error: sim.N: must be at least 1, got {n}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_readme_config_reference_matches_table(self, tmp_path):
        readme = self.README.read_text()
        documented = re.findall(r"^\| `(\w+)\.(\w+)` \|", readme, re.MULTILINE)
        assert len(documented) == len(set(documented))
        assert set(documented) == {(section, key) for section, keys
                                   in bench_cli.CONFIG_KEYS.items() for key in keys}
        example = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        cfg, u0, _ = bench_cli.build_sim(
            bench_cli.load_config(write_config(tmp_path, example)))
        assert cfg.radius.kind == "linear" and u0.N == cfg.n_modes


class TestConfigFuzz:
    """Every config either runs or names its key: each key of CI's two smoke
    ensembles set, one at a time, to each of a fixed list of values, in the
    manner of QuickCheck (Claessen & Hughes 2000) on a hand-written list, and
    run through both ``simulate`` and ``ensemble``.

    No value is left out as too long to run: the huge step counts
    (``sim.dt = 1e-300``, ``sim.T = 1e300``) are refused by the time grid's
    check, and ``sim.N`` and ``ensemble.paths`` parse as integers, so
    ``1e300`` is refused before anything runs.
    """

    # the two smoke configs of .github/workflows/tier1.yml, cut to one path
    # and two steps
    SMOKE = {
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
    VALUES = ("nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "abc", "", "1 2")
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
        (COMMANDS, BOTH, "experiment.name", tuple(filter(None, VALUES)), 0,
         "any text but empty or with a '/' prefixes the file names"),
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

    @classmethod
    def smoke_config(cls, kind: str, section: str, key: str, value: str) -> str:
        """The text of smoke config ``kind`` with ``section.key = value``."""
        config = {s: dict(entries) for s, entries in cls.SMOKE[kind].items()}
        config.setdefault(section, {})[key] = value
        return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                       for s, entries in config.items())

    @pytest.mark.parametrize("kind", BOTH)
    def test_every_value_runs_or_names_its_key(self, tmp_path, capsys, kind):
        runs = {(command, code, key, value) for commands, kinds, keys, values, code, _
                in self.RUNS if kind in kinds for command in commands
                for key in keys.split() for value in values}
        cfg, out = tmp_path / "cfg.ini", tmp_path / "out"
        failures, ran = [], set()
        for command, section, key, value in [
                (command, section, key, value) for command in self.COMMANDS
                for section, keys in bench_cli.CONFIG_KEYS.items()
                for key in keys if (section, key) != ("output", "dir")
                for value in self.VALUES]:
            cfg.write_text(self.smoke_config(kind, section, key, value))
            name = f"{section}.{key}"
            try:
                code = bench_cli.main([command, "--config", str(cfg), "--quiet",
                                       "--out", str(out)])
            except Exception as exc:
                failures.append((command, name, value, f"{type(exc).__name__}: {exc}"))
                continue
            err = capsys.readouterr().err
            if code != bench_cli.EXIT_CONFIG:
                ran.add((command, code, name, value))
            # the key itself, its section, the datum built from it, or the
            # ensemble's quantities derived from it
            elif not err.startswith((f"config error: {name}:", *(
                    f"config error: {s}:" for s in (section, "initial_data", "ensemble")))) \
                    or out.exists():
                failures.append((command, name, value, err, out.exists()))
            shutil.rmtree(out, ignore_errors=True)
        assert failures == [] and ran == runs, (failures, ran - runs, runs - ran)


class TestSimulate:
    def test_zero_data_completes(self, tmp_path):
        # through `python -m`, the module's entry point: exit 0
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="zero", family="zero", amplitude="1.0", outdir=tmp_path))
        res = subprocess.run([sys.executable, "-m", "hydrostat.bench_cli", "simulate",
                              "--config", cfg, "--quiet"], capture_output=True, text=True)
        assert res.returncode == 0 and res.stdout == res.stderr == "", res.stderr
        csv = (tmp_path / "zero_seed5.csv").read_text().splitlines()
        assert csv[0] == bench_cli.CSV_HEADER
        row = csv[1].split(",")
        assert float(row[3]) == 0.0  # all-zero series

    def test_summary_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="tm", family="two_mode", amplitude="0.01", outdir=tmp_path))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        line = json.loads((tmp_path / "tm_summary.jsonl").read_text().strip())
        assert set(line) == {"schema", "name", "seed", "status", "t_final",
                             "max_gevrey_norm", "goodset"}
        assert line["schema"] == 1
        assert line["status"] == "completed"
        assert line["goodset"] is True

    def test_l2_drift_reported_small(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="cons", family="two_mode", amplitude="0.01", outdir=tmp_path))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        rows = (tmp_path / "cons_seed5.csv").read_text().splitlines()[1:]
        l2 = [float(r.split(",")[4]) for r in rows]
        assert abs(l2[-1] - l2[0]) <= 1e-9 * l2[0]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="rep", family="two_mode", amplitude="0.01", outdir=tmp_path))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        first = (tmp_path / "rep_seed5.csv").read_bytes()
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        assert (tmp_path / "rep_seed5.csv").read_bytes() == first

    def test_blowup_exit_code(self, tmp_path):
        text = BASE_CONFIG.format(name="boom", family="two_mode",
                                  amplitude="3.0", outdir=tmp_path)
        text = text.replace("T = 0.02", "T = 2.0").replace("N = 4", "N = 6")
        text = text.replace("[initial_data]",
                            "blowup_factor = 50\n\n[initial_data]")
        cfg = write_config(tmp_path, text)
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_BLOWUP

    def test_radius_exhausted_exit_code(self, tmp_path):
        text = """
[experiment]
name = rx

[sim]
noise = damping
nu = 2.0
s = 0.0
sigma = 2.6
N = 4
dt = 5e-3
T = 5.0
seed = 1
radius_kind = damping
phi0 = 0.2
alpha = 1.0
beta = 1.0
c_sigma = 1.0

[initial_data]
family = two_mode
amplitude = 1e-4

[output]
dir = {outdir}
""".format(outdir=tmp_path)
        cfg = write_config(tmp_path, text)
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_RADIUS

    def test_goodset_exit_code(self, tmp_path):
        # tiny radius, strong noise: the exponent crosses the radius fast
        # for the chosen seed
        text = """
[experiment]
name = gs

[sim]
noise = diffusion
nu = 4.0
s = 1.0
sigma = 1.9
N = 4
dt = 1e-3
T = 1.0
seed = 3
radius_kind = linear
alpha = 0.05
beta = 0.01

[initial_data]
family = two_mode
amplitude = 1e-6

[output]
dir = {outdir}
""".format(outdir=tmp_path)
        cfg = write_config(tmp_path, text)
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == bench_cli.EXIT_GOODSET

    def test_exponent_cap_exit_code(self, tmp_path):
        # damping never stops at the barrier, and with nu = 1000 the scalar
        # conjugation exp(nu*W) passes the cap once |W| > 0.7 (t = 0.237
        # for this seed)
        text = """
[experiment]
name = cap

[sim]
noise = damping
nu = 1000.0
s = 0
sigma = 2.6
N = 4
dt = 1e-3
T = 0.3
seed = 1
radius_kind = constant
alpha = 0.3

[initial_data]
family = two_mode
amplitude = 1e-6

[output]
dir = {outdir}
""".format(outdir=tmp_path)
        cfg = write_config(tmp_path, text)
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) == 13
        summary = json.loads((tmp_path / "cap_summary.jsonl").read_text())
        assert summary["status"] == "exponent_cap"
        assert summary["t_final"] == pytest.approx(0.237)

    CAP_CONFIG = """
[experiment]
name = cap0

[sim]
noise = diffusion
nu = 15.0
s = 1.0
sigma = 1.9
N = 4
dt = 1e-3
T = 0.01
seed = 1
radius_kind = linear
alpha = {alpha}
beta = 100.0

[initial_data]
family = two_mode
amplitude = 1e-3

[output]
dir = {outdir}
"""

    # phi*|k|_max = 653 passes the weight's own check, but the norm sums
    # squared weights (exponent 1306); at alpha = 20 the weight itself is
    # past the cap (871).  Both stop before the first step.
    @pytest.mark.parametrize("alpha", ["15.0", "20.0"])
    def test_cap_at_t0_reports_exponent_cap(self, tmp_path, capsys, alpha):
        cfg = write_config(tmp_path, self.CAP_CONFIG.format(alpha=alpha, outdir=tmp_path))
        assert bench_cli.main(["simulate", "--config", cfg]) == bench_cli.EXIT_EXPONENT_CAP
        assert capsys.readouterr().out == "cap0 seed=1: exponent_cap at t=0 (max norm nan)\n"
        summary = json.loads((tmp_path / "cap0_summary.jsonl").read_text())
        assert summary["status"] == "exponent_cap" and summary["t_final"] == 0.0
        assert summary["max_gevrey_norm"] is None and summary["goodset"] is True
        assert (tmp_path / "cap0_seed1.csv").read_text() == bench_cli.CSV_HEADER + "\n"

    def test_config_error_exit_and_message(self, tmp_path):
        # through `python -m`, the module's entry point: exit 2
        text = BASE_CONFIG.format(name="bad", family="two_mode",
                                  amplitude="0.01", outdir=tmp_path)
        cfg = write_config(tmp_path, text.replace("dt = 2e-3", ""))
        res = subprocess.run([sys.executable, "-m", "hydrostat.bench_cli", "simulate",
                              "--config", cfg, "--quiet"], capture_output=True, text=True)
        assert res.returncode == bench_cli.EXIT_CONFIG
        assert res.stderr == "config error: sim.dt: required key is missing\n"

    def test_unknown_family_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="bad2", family="vortex_soup", amplitude="1", outdir=tmp_path))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: initial_data.family: unknown family 'vortex_soup'\n"

    DIFFUSION_CONFIG = """
[sim]
noise = diffusion
nu = 1.0
s = 1.0
sigma = 1.9
N = 4
dt = 1e-3
T = 0.01
radius_kind = linear
alpha = 1.0
beta = {beta}
"""

    def test_diffusion_beta_cap_is_config_error(self, tmp_path, capsys):
        # beta < nu^2/2 is input validation of a diffusion config with a
        # linear radius, checked after the SimConfig's own checks
        cfg = write_config(tmp_path, self.DIFFUSION_CONFIG.format(beta=0.5))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: sim: diffusion requires beta < nu^2/2\n"
        ok = write_config(tmp_path, self.DIFFUSION_CONFIG.format(beta=0.49), "ok.ini")
        cfg, _, _ = bench_cli.build_sim(bench_cli.load_config(ok))
        assert cfg.radius.beta == 0.49

    @pytest.mark.parametrize("noise,key,value", [
        ("diffusion", "nu", "nan"), ("diffusion", "nu", "inf"),
        ("damping", "nu", "nan"), ("damping", "sigma", "nan"),
        ("damping", "sigma", "inf"), ("damping", "alpha", "nan"),
        ("none", "blowup_factor", "nan"), ("damping", "phi0", "50"),
        ("damping", "initial_data.amplitude", "nan"),
        ("damping", "initial_data.normalize_target", "nan"),
        ("damping", "initial_data.normalize_target", "-0.5"),
        ("damping", "initial_data.normalize_target", "0"),
        ("damping", "initial_data.normalize_phi", "nan"),
        ("damping", "initial_data.normalize_phi", "inf"),
        ("damping", "initial_data.normalize_phi", "50")])
    def test_non_finite_model_parameter_is_config_error(self, tmp_path, capsys,
                                                        noise, key, value):
        # each of these ran on to a blowup, a traceback or a clean exit; a
        # finite radius past the exponent cap at N = 4 is one too, and so is
        # a norm target that is not positive
        section, _, key = key.rpartition(".")
        section = section or "sim"
        text = {"diffusion": self.DIFFUSION_CONFIG.format(beta=0.1),
                "damping": TestEnsemble.ENSEMBLE_CONFIG.format(
                    c_sigma="0.001", paths=2, outdir=tmp_path / "out"),
                "none": BASE_CONFIG.format(name="nan", family="two_mode",
                                           amplitude="0.01", outdir=tmp_path / "out")}[noise]
        text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        cfg, out = write_config(tmp_path, text), tmp_path / "out"
        # sigma is read by the datum's norm before the SimConfig checks it
        expect = rf"config error: {section}: {key} past the exponent cap at N = 4: .*\n" \
            if value == "50" else \
            rf"config error: {section}: {key} must be (positive and |non-negative and )?" \
            rf"finite, got {float(value)}\n"
        for command in ("simulate", "ensemble") if noise == "damping" else ("simulate",):
            assert bench_cli.main([command, "--config", cfg, "--quiet", "--out", str(out)]) \
                == bench_cli.EXIT_CONFIG
            assert re.fullmatch(expect, capsys.readouterr().err) and not out.exists()

    @pytest.mark.parametrize("kind,key,message", [
        ("damping", "sim.sigma", "the tracked norm at t = 0 is nan: its weight "),
        ("damping", "initial_data.normalize_target", "the datum's L2 norm is inf"),
        ("diffusion", "initial_data.normalize_target", "the datum's L2 norm is inf"),
        ("none", "initial_data.amplitude", "the datum's L2 norm is inf")],
        ids=["damping-sigma", "damping-normalize_target", "diffusion-normalize_target",
             "none-amplitude"])
    def test_uncomputable_initial_norm_is_config_error(self, tmp_path, capsys, kind,
                                                       key, message):
        # each of these, set to 1e300 on CI's smoke configs or, unnormalized,
        # on the 'none' config, overflowed the tracked norm at t = 0 and ran
        # on to a blowup (exit 10)
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="amplitude", family="two_mode", amplitude="1e300", outdir=tmp_path / "out")
            if kind == "none" else TestConfigFuzz.smoke_config(kind, *key.split("."), "1e300"))
        out = tmp_path / "out"
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet", "--out", str(out)]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: {message}")
        assert not out.exists()

    def test_damping_step_past_horizon_is_one_step(self, tmp_path):
        # the clocked solve took its first steps as dt/8 from the nominal dt,
        # so dt = 1e300 overflowed its first node and reported a blowup
        csvs = set()
        for dt in ("0.1", "1", "1e300"):
            cfg = write_config(tmp_path, TestConfigFuzz.smoke_config("damping", "sim", "dt", dt))
            assert bench_cli.main(["simulate", "--config", cfg, "--quiet",
                                   "--out", str(tmp_path / dt)]) == bench_cli.EXIT_OK
            csvs.add((tmp_path / dt / "damping_smoke_seed0.csv").read_bytes())
        assert len(csvs) == 1

    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_cli.main(["simulate"])
        assert exc.value.code == bench_cli.EXIT_CONFIG
        assert "the following arguments are required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("dt", "nan"), ("dt", "inf"),
                                           ("T", "nan"), ("T", "inf")])
    def test_non_finite_step_or_horizon_is_config_error(self, tmp_path, capsys, key, value):
        text = BASE_CONFIG.format(name="bad", family="two_mode",
                                  amplitude="0.01", outdir=tmp_path / "out")
        old = {"dt": "dt = 2e-3", "T": "T = 0.02"}[key]
        cfg = write_config(tmp_path, text.replace(old, f"{key} = {value}"))
        assert bench_cli.main(["simulate", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: sim: horizon and step must be positive and finite")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]


class TestEnsemble:
    ENSEMBLE_CONFIG = """
[experiment]
name = ens

[sim]
noise = damping
nu = 1.5
s = 0.0
sigma = 2.6
N = 4
dt = 5e-3
T = 0.05
seed = 2
radius_kind = constant
alpha = 0.15
phi0 = 0.15
c_sigma = {c_sigma}

[initial_data]
family = two_mode
amplitude = 1.0
normalize_target = 0.5
normalize_sigma = 2.6
normalize_phi = 0.15

[ensemble]
paths = {paths}
epsilon = 0.5

[output]
dir = {outdir}
"""

    def test_small_ensemble_reports(self, tmp_path):
        cfg = write_config(tmp_path, self.ENSEMBLE_CONFIG.format(
            c_sigma="0.001", paths=4, outdir=tmp_path))
        assert bench_cli.main(["ensemble", "--config", cfg, "--quiet"]) == bench_cli.EXIT_OK
        report = json.loads((tmp_path / "ens_ensemble.json").read_text())
        assert report["target"] == 0.5
        assert 0.0 <= report["completed_fraction"] <= 1.0
        runs = (tmp_path / "ens_runs.jsonl").read_text().strip().splitlines()
        assert len(runs) == 4

    def test_paths_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, self.ENSEMBLE_CONFIG.format(
            c_sigma="0.001", paths=4, outdir=tmp_path))
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
        cfg = write_config(tmp_path, self.ENSEMBLE_CONFIG.format(
            c_sigma="estimate", paths=2, outdir=tmp_path))
        assert bench_cli.main(["ensemble", "--config", cfg, "--quiet"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("epsilon", ["1.5", "0", "nan"])
    def test_epsilon_out_of_range_is_config_error(self, tmp_path, capsys, epsilon):
        text = self.ENSEMBLE_CONFIG.format(c_sigma="0.001", paths=2,
                                           outdir=tmp_path / "out")
        cfg = write_config(tmp_path, text.replace("epsilon = 0.5", f"epsilon = {epsilon}"))
        assert bench_cli.main(["ensemble", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: ensemble: epsilon must lie in (0, 1), got {float(epsilon)}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    def test_radius_past_cap_is_config_error(self, tmp_path, capsys):
        # epsilon = 0.01 sets alpha = 18.42, so with eta the threshold norm
        # runs at phi = 18.70 and its squared weight at 2*phi*|k|_max = 1628
        text = TestEnsemble.ROUNDOFF_CONFIG + (
            "[ensemble]\nepsilon = 0.01\npaths = 2\nc_star = 0.05\n\n"
            f"[output]\ndir = {tmp_path / 'out'}\n")
        cfg = write_config(tmp_path, text)
        assert bench_cli.main(["ensemble", "--config", cfg, "--quiet"]) \
            == bench_cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ensemble: radius past the exponent cap "
                              "at N = 4: ")
        assert "phi=18.6979" in err

    def test_goodset_fraction_matches_stochastic_module(self, tmp_path):
        # ignoring the PDE outcome, the per-run goodset flags reproduce the
        # direct survival estimate path by path; at nu = 6, epsilon = 0.9
        # about half of the damping paths leave the good set
        from hydrostat import stochastic as st
        from hydrostat.stochastic import GoodSetParams

        base = self.ENSEMBLE_CONFIG.format(c_sigma="0.001", paths=30, outdir=tmp_path)
        strong = base.replace("nu = 1.5", "nu = 6.0").replace("epsilon = 0.5",
                                                              "epsilon = 0.9")
        for i_cfg, text in enumerate((base, strong)):
            cfg_path = write_config(tmp_path, text, f"cfg{i_cfg}.ini")
            assert bench_cli.main(["ensemble", "--config", cfg_path, "--quiet"]) \
                == bench_cli.EXIT_OK
            report = json.loads((tmp_path / "ens_ensemble.json").read_text())
            params = GoodSetParams(report["alpha"], report["beta"], report["nu"])
            expected = []
            for i in range(30):
                p = st.sample_path(0.05, 5e-3, st.path_seed(2, i))
                expected.append(st.good_set_indicator(p, params)[0])
            runs = [json.loads(l) for l in
                    (tmp_path / "ens_runs.jsonl").read_text().strip().splitlines()]
            got = [r["goodset"] for r in runs]
            assert got == expected, text
            assert report["n_completed_goodset"] == sum(
                r["goodset"] and r["status"] == "completed" for r in runs)

    # The diffusion half of the criterion-08 pair as the `ensemble` benchmark
    # runs it: N=4 at radius alpha + eta = 3.05, so phi*|k|_max ~ 133 and
    # exp(phi*|k|) lifts FFT round-off in the top modes far above the
    # resolved norm of 0.5.
    ROUNDOFF_CONFIG = """
[experiment]
name = diffusion

[sim]
noise = diffusion
nu = 0.1
s = 1.0
sigma = 1.9
N = 4
dt = 0.01
T = 0.4
radius_kind = linear
alpha = 2.772588722239781
beta = 0.0025000000000000005
eta = 0.2772588722239781

[initial_data]
family = single_mode
mode = 1 0 1
normalize_target = 0.5
normalize_sigma = 1.9
normalize_phi = 3.0498475944637593
"""

    def test_roundoff_floor_stays_below_blowup_threshold(self, tmp_path, c_star_est):
        # the tracked norm's round-off floor must stay >= 10x below the
        # blowup threshold, or round-off alone would decide run statuses
        parser = bench_cli.load_config(write_config(tmp_path, self.ROUNDOFF_CONFIG))
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
        parser = bench_cli.load_config(write_config(tmp_path, self.ROUNDOFF_CONFIG))
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
        ensemble = f"[ensemble]\nepsilon = 0.5\npaths = 2\nc_star = {c_star_est.value!r}\n"
        valid_beta = "beta = 0.0025000000000000005"
        assert valid_beta in self.ROUNDOFF_CONFIG
        reports = []
        for beta in (valid_beta, f"beta = {0.1 ** 2!r}"):
            out = tmp_path / beta.split()[-1]
            cfg = write_config(tmp_path, self.ROUNDOFF_CONFIG.replace(valid_beta, beta)
                               + ensemble)
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
        if noise == "diffusion":
            text = self.ROUNDOFF_CONFIG + (
                f"[ensemble]\nepsilon = 0.5\npaths = 8\nc_star = {c_star_est.value!r}\n")
        else:
            text = self.ENSEMBLE_CONFIG.format(c_sigma="0.001", paths=8, outdir=tmp_path)
        cfg = write_config(tmp_path, text)
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

    def test_invalid_params(self, capsys):
        assert bench_cli.main(["goodset", "--alpha", "-1", "--beta", "1", "--nu", "1"]) \
            == bench_cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: goodset: alpha, beta, nu must "
                                       "all be positive and finite, got -1.0, 1.0, 1.0\n")

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--nu"])
    def test_non_finite_param_is_config_error(self, capsys, flag):
        argv = {"--alpha": "2", "--beta": "0.5", "--nu": "1"}
        argv[flag] = "nan"
        assert bench_cli.main(["goodset", *(x for kv in argv.items() for x in kv),
                               "--T", "1", "--dt", "0.01", "--paths", "100"]) \
            == bench_cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("config error: goodset: alpha, beta, nu must all be "
                              "positive and finite") and out == ""

    @pytest.mark.parametrize("flags", [["--dt", "0"], ["--dt", "-0.01"],
                                       ["--T", "-1"], ["--T", "inf"], ["--T", "0"]],
                             ids=["dt0", "dt-neg", "T-neg", "T-inf", "T0"])
    def test_bad_horizon_or_step_is_config_error(self, capsys, flags):
        assert bench_cli.main(["goodset", "--alpha", "1", "--beta", "1", "--nu", "1",
                               "--paths", "100", *flags]) == bench_cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("config error: goodset:") and out == ""


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
