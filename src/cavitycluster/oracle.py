"""Brute-force validation of the driven qubit-cavity dynamics.

Propagates the time-dependent interaction Hamiltonian

    H(t) = 1/sqrt(MN) sum_sites sigma_x_{m,n}
           sum_modes [ g e^{-i(omega t + L m + K n)} a_{L,K} + h.c. ]

on truncated Fock spaces for tiny arrays, applies the sigma_z echo
S_z U(tau) S_z U(tau), and extracts the realized pairwise phases for
comparison against the FFT phase table of :mod:`cavitycluster.geomphase`.
Both drive intervals U(tau) start from t = 0: that is the echo whose
displacements close the loop and leave only the geometric phase.

In the per-site sigma_x eigenbasis every collective operator J_X is
diagonal, so a qubit configuration c is never mixed with another and sees

    H_c(t) = sum_modes [ lambda_{m,c} e^{-i omega_m t} a_m + h.c. ],

a sum of commuting single-mode drives; lambda_{m,c} is 1/sqrt(MN) times the
FFT2 of the +-1 spins of c, the phase table's transform (frequencies are in
units of g, so g = 1 here).  Started in the
field vacuum, the field of configuration c therefore stays exactly a product
over modes, and the oracle propagates one (n_max+1)-dimensional state per
(mode, configuration) pair, batched as one array psi[mode, configuration, f].
The joint vacuum amplitude of a configuration is the product of its
factors' vacuum amplitudes.

Each factor's drive obeys H(t) = R(t) H(0) R(t)^dag, R(t) = diag(e^{i omega t
f}) over the Fock number f, in the truncated space too, so u(tau) = R(tau)
exp(-i (H(0) + omega f) tau) solves the truncated dynamics exactly.  With
lambda = |lambda| e^{i theta}, the diagonal unitary e^{i theta f} maps H(0) +
omega f to the real omega f + |lambda| (a + a^dag); it fixes |0>, keeps norms
and commutes with R and the parity P = (-1)^f, so every number reported here
depends on |lambda| alone.  One batched real eigh of that tridiagonal applies
u, which is never formed.  The size cap counts the generator and its
eigenvectors: 2^{MN} configurations x MN modes x (n_max+1)^2 elements.

S_z flips every x bit, and lambda_{m,~c} = -lambda_{m,c}: in the same gauge
the second interval drives with -|lambda|, and as P maps a to -a its
propagator is P u P.  Each factor's echo is P u P u|0>.

check_identities uses the qubit basis, site s at bit nq-1-s of the index c.
sigma_x of site s flips that bit, so J_X[c ^ (1 << (nq-1-s)), c] =
e^{i(L m + K n)}; distinct sites flip distinct bits, so each entry holds
exactly one site's phase, bit for bit the sum of Kronecker products
sigma_x (x) 1 that it replaces.  S_z = diag((-1)^popcount(c)).
"""

from __future__ import annotations

import itertools
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


def _site_bits(nq: int) -> tuple[np.ndarray, np.ndarray]:
    """Every configuration c as a column, and each site's mask: site s is bit nq-1-s of c."""
    return np.arange(2**nq)[:, None], 1 << (nq - 1 - np.arange(nq))


def collective_x_operator(config: LatticeConfig, l: int, k: int) -> np.ndarray:
    """J_X = sum_sites sigma_x_{m,n} e^{i(L m + K n)} on the qubit space."""
    nq = config.n_sites
    L, K = 2.0 * math.pi * l / config.M, 2.0 * math.pi * k / config.N
    m, n = np.divmod(np.arange(nq), config.N)
    c, mask = _site_bits(nq)
    out = np.zeros((2**nq, 2**nq), dtype=complex)
    out[c ^ mask, c] = np.exp(1j * (L * m + K * n))
    return out


def sz_operator(config: LatticeConfig) -> np.ndarray:
    """S_z = prod_sites sigma_z on the qubit space."""
    c, mask = _site_bits(config.n_sites)
    return np.diag((-1.0) ** np.count_nonzero(c & mask, axis=1)).astype(complex)


def _drive(config: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mode frequencies omega[m] and drive strengths lam[m, c] = |lambda_{m,c}|.

    lambda_{m,c} = 1/sqrt(MN) * conj(eigenvalue of J_X(m) on configuration c),
    configurations indexed like the qubit basis with bit 1 = |-x>.  The
    eigenvalue sums e^{i(L m + K n)} over the M x N spins +-1, so lam is the
    modulus of their FFT2 over sqrt(MN).
    """
    nq = config.n_sites
    c, mask = _site_bits(nq)
    spins = np.where(c & mask, -1.0, 1.0).reshape(-1, config.M, config.N)
    return mode_grid(config), 1.0 / math.sqrt(nq) * np.abs(np.fft.fft2(spins)).reshape(-1, nq).T


def _echo(ws: np.ndarray, lam: np.ndarray, tau: float, n_max: int) -> np.ndarray:
    """Echoed field factors psi[mode, configuration, f] = P u P u|0>, with
    u = R(tau) V e^{-i E tau} V^T from the eigenpairs (E, V) of the real
    generator omega f + lam (a + a^dag) of every factor."""
    fock = np.arange(n_max + 1)
    gen = np.zeros(lam.shape + (fock.size, fock.size))
    gen[..., fock[:-1], fock[1:]] = gen[..., fock[1:], fock[:-1]] = lam[..., None] * np.sqrt(fock[1:])
    gen[..., fock, fock] = np.multiply.outer(ws, fock)[:, None]
    energy, vec = np.linalg.eigh(gen)
    phase = np.exp(-1j * tau * energy)
    step = (-1.0) ** fock * np.exp(1j * tau * np.multiply.outer(ws, fock))[:, None]  # P R(tau)
    once = step * (vec @ (phase * vec[..., 0, :])[..., None])[..., 0]  # P u|0>
    return step * (vec @ (phase * (once[..., None, :] @ vec)[..., 0, :])[..., None])[..., 0]


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


def extract_pair_phase(
    report: EvolutionReport,
) -> dict[tuple[tuple[int, int], tuple[int, int]], float]:
    """Realized phase Gamma of every site pair a before b in row-major order,
    others held in |+x>: {((m_a, n_a), (m_b, n_b)): Gamma}.

    Gamma = (phi(++) + phi(--) - phi(+-) - phi(-+)) / 4 over the sigma_x
    eigenbasis of the pair, computed from a phase product so that global
    and single-qubit phases drop out exactly.  The four amplitudes fix Gamma
    only modulo pi/2, since Gamma + pi/2 is Gamma followed by the local
    X_a X_b; each value lies in (-pi/4, pi/4].  It reads vacuum only at
    c = 0, each single-site mask and each pair's mask, not the whole state.
    """
    if report.residual_excitation > _RESIDUAL_THRESHOLD:
        raise InvalidExtractionError(
            f"residual field excitation {report.residual_excitation:g} "
            f"exceeds {_RESIDUAL_THRESHOLD:g}"
        )
    amp, nq = report.vacuum, report.config.n_sites
    mask = _site_bits(nq)[1]
    site = [divmod(s, report.config.N) for s in range(nq)]
    phases = {}
    for a, b in itertools.combinations(range(nq), 2):
        # one scalar product per pair: a vectorized product over all pairs rounds differently
        prod = amp[0] * amp[mask[a] | mask[b]] * np.conj(amp[mask[b]]) * np.conj(amp[mask[a]])
        phases[site[a], site[b]] = float(np.angle(prod)) / 4.0
    return phases


def check_identities(M: int, N: int) -> dict[str, float]:
    """Exact operator identities behind the echo cancellation.

    Returns max-abs defects for: [S_z, J_X^dag J_X], {S_z, J_X},
    {S_z, J_X^dag}, and mutual commutation of all J_X modes.
    """
    config = LatticeConfig(M=M, N=N, J=0.1)
    if config.n_sites > MAX_ORACLE_QUBITS:
        raise ValueError(f"identity checks capped at {MAX_ORACLE_QUBITS} sites")
    sz = sz_operator(config)
    jx = np.stack([collective_x_operator(config, l, k) for l in range(M) for k in range(N)])
    jd = jx.conj().swapaxes(-1, -2)
    jdj = jd @ jx
    a, b = np.triu_indices(len(jx), 1)  # every pair of modes once
    return {name: float(np.max(np.abs(defect), initial=0.0)) for name, defect in [
        ("commutator_sz_jxdag_jx", sz @ jdj - jdj @ sz),
        ("anticommutator_sz_jx", sz @ jx + jx @ sz),
        ("anticommutator_sz_jxdag", sz @ jd + jd @ sz),
        ("mutual_commutator_jx", jx[a] @ jx[b] - jx[b] @ jx[a]),
    ]}
