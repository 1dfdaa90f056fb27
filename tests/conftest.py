import numpy as np
import pytest

from hydrostat import analysis, dynamics, spectral


@pytest.fixture(scope="session")
def c_sigma_est():
    """Empirical transport-estimate constant shared across the suite."""
    return analysis.estimate_c_sigma(2.6, N=8, n_samples=200, seed=2026)


@pytest.fixture(scope="session")
def c_star_est():
    """Empirical twisted-estimate constant shared across the suite."""
    return analysis.estimate_c_star(1.9, 1.0, N=8, n_samples=200, seed=2026)


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
def no_transport(monkeypatch):
    """Twisted transport replaced by zeros: the steppers and the mild map
    keep only their exact linear factors."""
    monkeypatch.setattr(dynamics, "twisted_transport",
                        lambda u, nu, w, s: spectral.SpectralVelocity.zeros(u.N))


@pytest.fixture
def projected_field():
    def make(N=8, seed=0, decay=3.5, amplitude=1.0):
        return spectral.project_constraints(
            spectral.random_coefficients(N, seed, decay=decay, amplitude=amplitude))
    return make


def check_invariants(f, rtol=1e-12):
    """Direct checker for the four structural constraints (test oracle)."""
    c = f.coeffs
    N = f.N
    scale = max(float(np.abs(c).max()), 1e-300)
    herm = float(np.abs(c - np.conj(c[:, ::-1, ::-1, ::-1])).max())
    parity = float(np.abs(c - c[:, :, :, ::-1]).max())
    mean = float(np.abs(c[:, N, N, N]).max())
    m1, m2, _ = spectral.lattice(N)
    div = float(np.abs(m1[:, :, N] * c[0, :, :, N] + m2[:, :, N] * c[1, :, :, N]).max())
    assert herm <= rtol * scale, f"hermitian residual {herm}"
    assert parity <= rtol * scale, f"parity residual {parity}"
    assert mean <= rtol * scale, f"mean residual {mean}"
    assert div <= rtol * scale * N, f"slab divergence {div}"
