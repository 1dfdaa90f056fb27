"""Harness behavior: config grammar, output formats, exit codes,
reproducibility, and the verify batteries."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hydrostat import analysis, bench_cli, dynamics


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hydrostat.bench_cli", *args],
                          capture_output=True, text=True, env=env)


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
    ], ids=["experiment", "output", "sim", "initial_data", "ensemble", "section",
            "default", "linear_only", "normalize_kind"])
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


class TestSimulate:
    def test_zero_data_completes(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="zero", family="zero", amplitude="1.0", outdir=tmp_path))
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == 0, res.stderr
        csv = (tmp_path / "zero_seed5.csv").read_text().splitlines()
        assert csv[0] == bench_cli.CSV_HEADER
        row = csv[1].split(",")
        assert float(row[3]) == 0.0  # all-zero series

    def test_summary_schema(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="tm", family="two_mode", amplitude="0.01", outdir=tmp_path))
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == 0, res.stderr
        line = json.loads((tmp_path / "tm_summary.jsonl").read_text().strip())
        assert set(line) == {"schema", "name", "seed", "status", "t_final",
                             "max_gevrey_norm", "goodset"}
        assert line["schema"] == 1
        assert line["status"] == "completed"
        assert line["goodset"] is True

    def test_l2_drift_reported_small(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="cons", family="two_mode", amplitude="0.01", outdir=tmp_path))
        run_cli(["simulate", "--config", cfg, "--quiet"])
        rows = (tmp_path / "cons_seed5.csv").read_text().splitlines()[1:]
        l2 = [float(r.split(",")[4]) for r in rows]
        assert abs(l2[-1] - l2[0]) <= 1e-9 * l2[0]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="rep", family="two_mode", amplitude="0.01", outdir=tmp_path))
        run_cli(["simulate", "--config", cfg, "--quiet"])
        first = (tmp_path / "rep_seed5.csv").read_bytes()
        run_cli(["simulate", "--config", cfg, "--quiet"])
        assert (tmp_path / "rep_seed5.csv").read_bytes() == first

    def test_blowup_exit_code(self, tmp_path):
        text = BASE_CONFIG.format(name="boom", family="two_mode",
                                  amplitude="3.0", outdir=tmp_path)
        text = text.replace("T = 0.02", "T = 2.0").replace("N = 4", "N = 6")
        text = text.replace("[initial_data]",
                            "blowup_factor = 50\n\n[initial_data]")
        cfg = write_config(tmp_path, text)
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == bench_cli.EXIT_BLOWUP

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
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == bench_cli.EXIT_RADIUS

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
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == bench_cli.EXIT_GOODSET

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

    def test_config_error_exit_and_message(self, tmp_path):
        text = BASE_CONFIG.format(name="bad", family="two_mode",
                                  amplitude="0.01", outdir=tmp_path)
        cfg = write_config(tmp_path, text.replace("dt = 2e-3", ""))
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == bench_cli.EXIT_CONFIG
        assert "sim.dt" in res.stderr

    def test_unknown_family_reported(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(
            name="bad2", family="vortex_soup", amplitude="1", outdir=tmp_path))
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == bench_cli.EXIT_CONFIG
        assert "initial_data.family" in res.stderr

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

    def test_missing_config_flag(self):
        res = run_cli(["simulate"])
        assert res.returncode == bench_cli.EXIT_CONFIG

    @pytest.mark.parametrize("key,value", [("dt", "nan"), ("dt", "inf"),
                                           ("T", "nan"), ("T", "inf")])
    def test_non_finite_step_or_horizon_is_config_error(self, tmp_path, key, value):
        text = BASE_CONFIG.format(name="bad", family="two_mode",
                                  amplitude="0.01", outdir=tmp_path)
        old = {"dt": "dt = 2e-3", "T": "T = 0.02"}[key]
        cfg = write_config(tmp_path, text.replace(old, f"{key} = {value}"))
        res = run_cli(["simulate", "--config", cfg, "--quiet"])
        assert res.returncode == bench_cli.EXIT_CONFIG, res.stderr
        assert "config error" in res.stderr and "finite" in res.stderr


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
        res = run_cli(["ensemble", "--config", cfg, "--quiet"])
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "ens_ensemble.json").read_text())
        assert report["target"] == 0.5
        assert 0.0 <= report["completed_fraction"] <= 1.0
        runs = (tmp_path / "ens_runs.jsonl").read_text().strip().splitlines()
        assert len(runs) == 4

    def test_paths_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, self.ENSEMBLE_CONFIG.format(
            c_sigma="0.001", paths=4, outdir=tmp_path))
        res = run_cli(["ensemble", "--config", cfg, "--paths", "2", "--quiet"])
        assert res.returncode == 0, res.stderr
        runs = (tmp_path / "ens_runs.jsonl").read_text().strip().splitlines()
        assert len(runs) == 2

    def test_c_sigma_estimate_runs_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return analysis.ConstantEstimate(value=0.001, p95=0.001, n_samples=64)

        monkeypatch.setattr(analysis, "estimate_c_sigma", counted)
        cfg = write_config(tmp_path, self.ENSEMBLE_CONFIG.format(
            c_sigma="estimate", paths=2, outdir=tmp_path))
        assert bench_cli.main(["ensemble", "--config", cfg, "--quiet"]) == 0
        assert len(calls) == 1

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
            res = run_cli(["ensemble", "--config", cfg_path, "--quiet"])
            assert res.returncode == 0, res.stderr
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
        result = dynamics.run_global_experiment(u0, 0.5, cfg, 8, seed=cfg.seed,
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
            result = dynamics.run_global_experiment(u0, 0.5, cfg, 8, seed=seed,
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


class TestGoodsetCommand:
    def test_record_fields_and_anchors(self):
        res = run_cli(["goodset", "--alpha", "2", "--beta", "0.5", "--nu", "1",
                       "--T", "2", "--dt", "0.01", "--paths", "200"])
        assert res.returncode == 0, res.stderr
        rec = json.loads(res.stdout.strip())
        assert rec["paper_bound"] == pytest.approx(1 - math.exp(-1.0))
        assert rec["exact_value"] == pytest.approx(1 - math.exp(-2.0))
        assert 0.0 <= rec["estimate"] <= 1.0

    def test_huge_alpha_sure_survival(self):
        res = run_cli(["goodset", "--alpha", "50", "--beta", "1", "--nu", "1",
                       "--T", "1", "--dt", "0.01", "--paths", "150"])
        rec = json.loads(res.stdout.strip())
        assert rec["estimate"] == 1.0

    def test_seed_consistency(self):
        args = ["goodset", "--alpha", "1.5", "--beta", "0.5", "--nu", "1",
                "--T", "2", "--dt", "0.01", "--paths", "300"]
        a = json.loads(run_cli(args + ["--seed", "1"]).stdout.strip())
        b = json.loads(run_cli(args + ["--seed", "2"]).stdout.strip())
        joint = 1.96 * math.hypot(a["std_error"], b["std_error"])
        assert abs(a["estimate"] - b["estimate"]) <= joint + 0.05

    def test_invalid_params(self):
        res = run_cli(["goodset", "--alpha", "-1", "--beta", "1", "--nu", "1"])
        assert res.returncode == bench_cli.EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--dt", "0"], ["--dt", "-0.01"],
                                       ["--T", "-1"], ["--T", "inf"], ["--T", "0"]],
                             ids=["dt0", "dt-neg", "T-neg", "T-inf", "T0"])
    def test_bad_horizon_or_step_is_config_error(self, flags):
        res = run_cli(["goodset", "--alpha", "1", "--beta", "1", "--nu", "1",
                       "--paths", "100", *flags])
        assert res.returncode == bench_cli.EXIT_CONFIG, res.stderr
        assert res.stderr.startswith("config error: goodset:"), res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""


class TestVerify:
    @pytest.mark.parametrize("suite", ["exponents", "kernel-bound"])
    def test_fast_suites_pass(self, suite):
        res = run_cli(["verify", suite])
        assert res.returncode == 0, res.stdout + res.stderr
        payload = json.loads(res.stdout.strip())
        assert payload["ok"] is True
        assert payload["suite"] == suite

    def test_unknown_suite(self):
        res = run_cli(["verify", "made-up"])
        assert res.returncode == bench_cli.EXIT_CONFIG

    def test_cancellation_suite_inprocess(self):
        result = bench_cli.VERIFY_IMPL["cancellation"]()
        assert result["ok"] and result["max_residual"] <= 1e-10

    def test_lemma_suite_inprocess(self):
        result = bench_cli.VERIFY_IMPL["lemma-a1"]()
        assert result["ok"]

    def test_nonlinear_estimate_suite_inprocess(self):
        result = bench_cli.VERIFY_IMPL["nonlinear-estimate"]()
        assert result["ok"]

    def test_picard_suite_inprocess(self):
        result = bench_cli.VERIFY_IMPL["picard-consistency"]()
        assert result["ok"]
