import os

import pytest

from hydrostat import checks, dynamics, spectral


@pytest.fixture(scope="session")
def c_sigma_est():
    """Empirical transport-estimate constant shared across the suite."""
    return checks.c_sigma()


@pytest.fixture(scope="session")
def c_star_est():
    """Empirical twisted-estimate constant shared across the suite."""
    return checks.c_star()


@pytest.fixture
def transport_calls(monkeypatch):
    """List that gains one entry per ``spectral.transport_bilinear`` call."""
    calls = []
    transport = spectral.transport_bilinear

    def counted(u):
        calls.append(1)
        return transport(u)

    monkeypatch.setattr(spectral, "transport_bilinear", counted)
    return calls


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(n)`` puts n CPUs in the affinity mask that
    ``dynamics._cpu_count`` reads, so that ``dynamics.parallel_map`` takes n
    workers."""
    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_count


@pytest.fixture
def no_transport(monkeypatch):
    """Twisted transport replaced by zeros: the steppers and the mild map
    keep only their exact linear factors."""
    monkeypatch.setattr(dynamics, "twisted_transport",
                        lambda u, nu, w, s: spectral.SpectralVelocity.zeros(u.N))


@pytest.fixture
def run_states(monkeypatch):
    """``run_states(u0, cfg, path)`` runs ``dynamics.run`` and returns the
    states it checks after each step, ``{k: u(t_k)}`` for k >= 1."""
    advance = dynamics._Trace.advance

    def collect(u0, cfg, path):
        states = {}

        def spy(trace, k, u):
            states[k + 1] = u
            return advance(trace, k, u)

        monkeypatch.setattr(dynamics._Trace, "advance", spy)
        dynamics.run(u0, cfg, path)
        return states
    return collect


@pytest.fixture
def projected_field():
    def make(N=8, seed=0, decay=3.5, amplitude=1.0):
        return spectral.project_constraints(
            spectral.random_coefficients(N, seed, decay=decay, amplitude=amplitude))
    return make


def check_invariants(f, rtol=1e-12):
    """Asserts the four structural constraints of ``f`` to ``rtol``."""
    for name, residual in checks.constraint_residuals(f).items():
        assert residual <= rtol, f"{name} residual {residual}"
