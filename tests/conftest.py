from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad


def pytest_configure(config):
    config._acceptance_report = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = getattr(config, "_acceptance_report", None)
    if report:
        terminalreporter.section("acceptance criteria")
        for line in sorted(report):
            terminalreporter.write_line(line)


@lru_cache(maxsize=8)
def _hopping_eigh(config):
    """Eigenpairs of h = delta + J * (periodic M x N nearest-neighbour adjacency).

    Each of the four hops adds J to its target, so on M = 1 or 2 the
    wrapped hops pile up exactly as 2J cos L does in the mode frequencies.
    """
    M, N = config.M, config.N
    h = config.delta * np.eye(M * N)
    for m in range(M):
        for n in range(N):
            for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                h[m * N + n, ((m + dm) % M) * N + (n + dn) % N] += config.J
    return np.linalg.eigh(h)


def _realspace_gamma(config, tau, dm, dn):
    """Gamma_ab = 4 int_0^tau (tau - u) Im[exp(i h u)]_ab du, a = (0, 0), b = (dm, dn),
    in units of g (g = 1).

    Built in real space from the hopping matrix and integrated by
    quadrature, so it shares nothing with the Fourier mode sum of
    :mod:`cavitycluster.geomphase` beyond the physics.
    """
    lam, vecs = _hopping_eigh(config)
    b = (dm % config.M) * config.N + dn % config.N
    weights = vecs[0] * vecs[b]  # Im[exp(i h u)]_ab = sum_j weights_j sin(lam_j u)
    integral, _ = quad(
        lambda u: (tau - u) * np.dot(weights, np.sin(lam * u)),
        0.0, tau, epsabs=1e-14, epsrel=1e-12, limit=200,
    )
    return 4.0 * integral


@pytest.fixture(scope="session")
def realspace_gamma():
    """Independent real-space reference for the pairwise phase Gamma(dm, dn)."""
    return _realspace_gamma
