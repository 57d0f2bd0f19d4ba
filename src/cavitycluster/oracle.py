"""Brute-force validation of the driven qubit-cavity dynamics.

Propagates the time-dependent interaction Hamiltonian

    H(t) = 1/sqrt(MN) sum_sites sigma_x_{m,n}
           sum_modes [ g e^{-i(omega t + L m + K n)} a_{L,K} + h.c. ]

on truncated Fock spaces for tiny arrays, applies the sigma_z echo
S_z U(tau) S_z U(tau), and extracts the realized pairwise phases for
comparison against the analytic mode sums in
:mod:`cavitycluster.geomphase`.  Both drive intervals U(tau) start from
t = 0: that is the echo whose displacements close the loop and leave only
the geometric phase.

In the per-site sigma_x eigenbasis every collective operator J_X is
diagonal, so a qubit configuration c is never mixed with another and sees

    H_c(t) = sum_modes [ lambda_{m,c} e^{-i omega_m t} a_m + h.c. ],

a sum of commuting single-mode drives.  Started in the field vacuum, the
field of configuration c therefore stays exactly a product over modes, and
the oracle propagates one (n_max+1)-dimensional state per (mode,
configuration) pair, batched as one array psi[mode, configuration, f].
The joint vacuum amplitude of a configuration is the product of its
factors' vacuum amplitudes.

Each factor's drive obeys H(t) = R(t) H(0) R(t)^dag, R(t) = diag(e^{i omega t
f}) over the Fock number f, in the truncated space too.  In the frame of R
the generator H(0) + omega f is constant, so u(tau) = R(tau) exp(-i (H(0) +
omega f) tau) solves the truncated dynamics exactly; one batched eigh of the
tridiagonal generator applies it to vectors, and u is never formed.  The
size cap counts the generator and its eigenvectors: 2^{MN} configurations x
MN modes x (n_max+1)^2 Fock matrix elements.

S_z flips every x bit, and lambda_{m,~c} = -lambda_{m,c}; the photon parity
P = (-1)^f maps a to -a, so the second interval's propagator is P u P, u the
first's, and each factor's echo is P u P u|0>.

check_identities uses the qubit basis, site s at bit nq-1-s of the index c.
sigma_x of site s flips that bit, so J_X[c ^ (1 << (nq-1-s)), c] =
e^{i(L m + K n)}; distinct sites flip distinct bits, so each entry holds
exactly one site's phase, bit for bit the sum of Kronecker products
sigma_x (x) 1 that it replaces.  S_z = diag((-1)^popcount(c)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeConfig, mode_grid

__all__ = [
    "MAX_ORACLE_QUBITS",
    "MAX_TOTAL_DIMENSION",
    "EvolutionReport",
    "InvalidExtractionError",
    "echo_evolve",
    "extract_pair_phase",
    "check_identities",
    "collective_x_operator",
    "sz_operator",
]

MAX_ORACLE_QUBITS = 4
MAX_TOTAL_DIMENSION = 200_000
# largest residual field excitation at which a pair phase is still read out
_RESIDUAL_THRESHOLD = 1e-6


class InvalidExtractionError(RuntimeError):
    """Field not disentangled: residual excitation too large for phase readout."""


def total_dimension(config: LatticeConfig, n_max: int) -> int:
    """Elements of the field generator: configurations x modes x Fock levels^2."""
    nq = config.n_sites
    return 2**nq * nq * (n_max + 1) ** 2


def _check_dims(config: LatticeConfig, n_max: int) -> None:
    if config.n_sites > MAX_ORACLE_QUBITS:
        raise ValueError(
            f"oracle arrays are capped at {MAX_ORACLE_QUBITS} sites, got {config.n_sites}"
        )
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dim = total_dimension(config, n_max)
    if dim > MAX_TOTAL_DIMENSION:
        raise ValueError(f"total dimension {dim} exceeds cap {MAX_TOTAL_DIMENSION} "
                         f"(n_max = {n_max} on the {config.M}x{config.N} lattice)")


def _sites(config: LatticeConfig) -> list[tuple[int, int]]:
    return [(m, n) for m in range(config.M) for n in range(config.N)]


def collective_x_operator(config: LatticeConfig, l: int, k: int) -> np.ndarray:
    """J_X = sum_sites sigma_x_{m,n} e^{i(L m + K n)} on the qubit space."""
    nq = config.n_sites
    L = 2.0 * math.pi * l / config.M
    K = 2.0 * math.pi * k / config.N
    c = np.arange(2**nq)
    out = np.zeros((2**nq, 2**nq), dtype=complex)
    for s, (m, n) in enumerate(_sites(config)):
        out[c ^ (1 << (nq - 1 - s)), c] = np.exp(1j * (L * m + K * n))
    return out


def sz_operator(config: LatticeConfig) -> np.ndarray:
    """S_z = prod_sites sigma_z on the qubit space."""
    c = np.arange(2**config.n_sites)
    popcount = sum((c >> s) & 1 for s in range(config.n_sites))
    return np.diag((-1.0) ** popcount).astype(complex)


def _drive(config: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mode frequencies omega[m] and drive coefficients lam[m, c].

    lam[m, c] = g/sqrt(MN) * conj(eigenvalue of J_X(m) on configuration c),
    configurations indexed like the qubit basis with bit 1 = |-x>, so that
    H_c(t) = sum_m lam[m, c] e^{-i omega_m t} a_m + h.c.
    """
    nq = config.n_sites
    L, K, ws = mode_grid(config)
    m_idx, n_idx = np.array(_sites(config), dtype=float).T
    site_phase = np.exp(1j * (np.outer(L, m_idx) + np.outer(K, n_idx)))
    bits = (np.arange(2**nq) >> (nq - 1 - np.arange(nq))[:, None]) & 1
    lam = config.g / math.sqrt(nq) * np.conj(site_phase @ (1.0 - 2.0 * bits))
    return ws, lam


def _generator(ws: np.ndarray, lam: np.ndarray, n_max: int) -> np.ndarray:
    """Rotating-frame generator H(0) + omega f of every factor, as
    gen[mode, configuration, f, f'] (f: Fock number)."""
    fock = np.arange(n_max + 1)
    root = np.sqrt(fock[1:])
    gen = np.zeros(lam.shape + (fock.size, fock.size), dtype=complex)
    gen[..., fock[:-1], fock[1:]] = lam[..., None] * root  # a
    gen[..., fock[1:], fock[:-1]] = np.conj(lam)[..., None] * root  # a^dagger
    gen[..., fock, fock] = np.multiply.outer(ws, fock)[:, None]
    return gen


def _propagator(ws: np.ndarray, lam: np.ndarray, tau: float, n_max: int):
    """The drive interval's propagator u = R(tau) V e^{-i E tau} V^dag, as a
    function applying it to x[mode, configuration, f]; u is never formed."""
    energy, vec = np.linalg.eigh(_generator(ws, lam, n_max))
    phase = np.exp(-1j * tau * energy)
    rot = np.exp(1j * tau * np.multiply.outer(ws, np.arange(n_max + 1)))[:, None]

    def u(x: np.ndarray) -> np.ndarray:
        coef = phase * (x[..., None, :] @ np.conj(vec))[..., 0, :]
        return rot * (vec @ coef[..., None])[..., 0]

    return u


def _echo(ws: np.ndarray, lam: np.ndarray, tau: float, n_max: int) -> np.ndarray:
    """Echoed field factors psi[mode, configuration, f] = P u P u|0>."""
    u = _propagator(ws, lam, tau, n_max)
    parity = (-1.0) ** np.arange(n_max + 1)
    vacuum = np.zeros(lam.shape + (n_max + 1,), dtype=complex)
    vacuum[..., 0] = 1.0
    return parity * u(parity * u(vacuum))


@dataclass
class EvolutionReport:
    """Echoed-evolution result restricted to the field vacuum.

    The evolution never mixes sigma_x configurations, so the vacuum block is
    diagonal: vacuum[c] is the joint vacuum amplitude of configuration c,
    indexed like the qubit basis with bit 1 = |-x>; residual_excitation is
    the worst-case population left outside the joint field vacuum.
    error_estimate is the largest norm defect |prod_m |psi_mc|^2 - 1|, the
    exact propagator's rounding; truncation_estimate is the largest change
    of vacuum[c] when the Fock cut drops to n_max - 1.  steps is always 0,
    as the propagator takes no time steps; perfbench's span counter
    oracle.echo_evolve.rk4_steps reads it.
    """

    config: LatticeConfig
    vacuum: np.ndarray
    residual_excitation: float
    steps: int
    error_estimate: float
    truncation_estimate: float


def echo_evolve(config: LatticeConfig, tau: float, n_max: int) -> EvolutionReport:
    """S_z U(tau) S_z U(tau) applied to sigma_x basis states x field vacuum,
    as P u P u|0> per factor with the exact truncated propagator u."""
    _check_dims(config, n_max)
    ws, lam = _drive(config)
    psi = _echo(ws, lam, tau, n_max)
    # a configuration's joint vacuum amplitude and norm are products over modes
    vacuum = np.prod(psi[..., 0], axis=0)
    norm2 = np.prod(np.linalg.norm(psi, axis=-1) ** 2, axis=0)
    coarse = np.prod(_echo(ws, lam, tau, n_max - 1)[..., 0], axis=0)
    # |1 - norm^2| so that norm inflation (pure rounding error) is
    # reported as a defect instead of being silently clipped away
    residual = float(np.max(np.abs(1.0 - np.abs(vacuum) ** 2)))
    return EvolutionReport(config=config, vacuum=vacuum, residual_excitation=residual, steps=0,
                           error_estimate=float(np.max(np.abs(norm2 - 1.0))),
                           truncation_estimate=float(np.max(np.abs(vacuum - coarse))))


def _site_index(config: LatticeConfig, site: tuple[int, int]) -> int:
    m, n = site
    if not (0 <= m < config.M and 0 <= n < config.N):
        raise ValueError(f"site {site} out of range")
    return m * config.N + n


def extract_pair_phase(
    report: EvolutionReport,
    site_a: tuple[int, int],
    site_b: tuple[int, int],
) -> float:
    """Realized pairwise phase between two sites, others held in |+x>.

    Gamma = (phi(++) + phi(--) - phi(+-) - phi(-+)) / 4 over the sigma_x
    eigenbasis of the pair, computed from a phase product so that global
    and single-qubit phases drop out exactly.  The four amplitudes fix Gamma
    only modulo pi/2, since Gamma + pi/2 is Gamma followed by the local
    X_a X_b; the value returned lies in (-pi/4, pi/4].
    """
    if report.residual_excitation > _RESIDUAL_THRESHOLD:
        raise InvalidExtractionError(
            f"residual field excitation {report.residual_excitation:g} "
            f"exceeds {_RESIDUAL_THRESHOLD:g}"
        )
    cfg = report.config
    sa, sb = _site_index(cfg, site_a), _site_index(cfg, site_b)
    if sa == sb:
        raise ValueError("sites must be distinct")
    nq = cfg.n_sites

    def amp(bits_a: int, bits_b: int) -> complex:
        return report.vacuum[(bits_a << (nq - 1 - sa)) | (bits_b << (nq - 1 - sb))]

    prod = amp(0, 0) * amp(1, 1) * np.conj(amp(0, 1)) * np.conj(amp(1, 0))
    return float(np.angle(prod)) / 4.0


def check_identities(M: int, N: int) -> dict[str, float]:
    """Exact operator identities behind the echo cancellation.

    Returns max-abs defects for: [S_z, J_X^dag J_X], {S_z, J_X},
    {S_z, J_X^dag}, and mutual commutation of all J_X modes.
    """
    config = LatticeConfig(M=M, N=N, J=0.1)
    if config.n_sites > MAX_ORACLE_QUBITS:
        raise ValueError(f"identity checks capped at {MAX_ORACLE_QUBITS} sites")
    sz = sz_operator(config)
    jxs = [collective_x_operator(config, l, k) for l in range(M) for k in range(N)]

    def maxabs(x: np.ndarray) -> float:
        return float(np.max(np.abs(x)))

    com_jj = max(maxabs(sz @ (j.conj().T @ j) - (j.conj().T @ j) @ sz) for j in jxs)
    anti_j = max(maxabs(sz @ j + j @ sz) for j in jxs)
    anti_jd = max(maxabs(sz @ j.conj().T + j.conj().T @ sz) for j in jxs)
    mutual = 0.0
    for i, ja in enumerate(jxs):
        for jb in jxs[i + 1 :]:
            mutual = max(mutual, maxabs(ja @ jb - jb @ ja))
    return {
        "commutator_sz_jxdag_jx": com_jj,
        "anticommutator_sz_jx": anti_j,
        "anticommutator_sz_jxdag": anti_jd,
        "mutual_commutator_jx": mutual,
    }
