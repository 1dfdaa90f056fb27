"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 01-04 and 06-10 are checks of the registry in ``hydrostat.checks``,
where ``hydrostat verify NAME`` also runs them; each test here runs its
check and prints the check's ``detail``.  Criterion 05 replaces the
transport through pytest's monkeypatch, so it is written here.
"""

import math

import numpy as np

from hydrostat import checks, dynamics, initial_data, spectral
from hydrostat.dynamics import RadiusSchedule, SimConfig


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def criterion_test(name):
    """The test of a registry criterion: run its check, print its PASS line."""
    def test():
        result = checks.CHECKS[name]()
        report(checks.CRITERIA[name], result["ok"], result["detail"])
    return test


def test_every_criterion_is_one_check_with_its_test():
    assert sorted(checks.CRITERIA.values()) == [1, 2, 3, 4, 6, 7, 8, 9, 10]
    assert sorted(int(name[15:17]) for name in globals()
                  if name.startswith("test_criterion_")) == list(range(1, 11))


test_criterion_01_goodset_probability_anchor = criterion_test("goodset-anchor")
test_criterion_02_structural_suite = criterion_test("cancellation")
test_criterion_03_conservation_baseline = criterion_test("conservation")
test_criterion_04_exponent_boundary = criterion_test("exponents")


def test_criterion_05_linear_exactness(no_transport, run_states):
    N = 6
    n_steps = 1000
    dt = 1e-3
    v0 = initial_data.two_mode(N, amplitude=0.1, mode_a=(1, 0, 1),
                               component_a=0, ratio=1.0, mode_b=(0, 1, 1),
                               component_b=1)
    support = np.abs(v0.coeffs) > 0
    path = dynamics._zero_path(n_steps * dt, dt)

    cfg_d = SimConfig(noise="diffusion", nu=2.0, s=1.0, sigma=1.9,
                      radius=RadiusSchedule.linear(0.3, 0.1), n_modes=N,
                      dt=dt, horizon=n_steps * dt)
    u = v0
    for k in range(n_steps):
        u = dynamics.step_diffusion(u, k * dt, dt, path, cfg_d)
    kk = spectral.abs_k(N)
    expect = v0.coeffs * np.exp(-0.5 * cfg_d.nu ** 2 * n_steps * dt * kk ** 2)
    rel_d = np.abs(u.coeffs[support] / expect[support] - 1.0).max()

    # damping applies its factor exp(-nu^2 t_k/2) to the clocked nu = 0 solve
    cfg_k = SimConfig(noise="damping", nu=3.0, s=0.0, sigma=2.6,
                      radius=RadiusSchedule.constant(0.5), n_modes=N,
                      dt=dt, horizon=n_steps * dt)
    states = run_states(v0, cfg_k, path)
    assert len(states) == n_steps
    rel_k = max(np.abs(u.coeffs[support] / v0.coeffs[support]
                       / math.exp(-0.5 * cfg_k.nu ** 2 * path.times[k]) - 1.0).max()
                for k, u in states.items())

    report(5, rel_d <= 1e-12 and rel_k <= 1e-12,
           f"diffusion rel err {rel_d:.2e}, damping rel err {rel_k:.2e} "
           f"over {n_steps} steps (<= 1e-12)")


test_criterion_06_picard_stepper_consistency = criterion_test("picard-consistency")
test_criterion_07_damping_gronwall = criterion_test("damping-gronwall")
test_criterion_08_high_probability_globality = criterion_test("globality")
test_criterion_09_regularization_contrast = criterion_test("regularization-contrast")
test_criterion_10_estimator_stability = criterion_test("estimator-stability")
