"""Brute-force validation of the driven qubit-cavity dynamics.

Integrates the time-dependent interaction Hamiltonian

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
the oracle integrates one (n_max+1)-dimensional state per (mode,
configuration) pair, batched as one array psi[f, mode, configuration].
The joint vacuum amplitude of a configuration is the product of its
factors' vacuum amplitudes.

Each factor's drive obeys H(t) = R(t) H(0) R(t)^dag, R(t) = diag(e^{i omega t
f}) over the Fock number f, in the truncated space too; so an RK4 run of N
steps over [0, tau] is one matrix power of the step from t = 0, O(log N)
batched products.
The size cap counts the largest array, that propagator: 2^{MN}
configurations x MN modes x (n_max+1)^2 Fock matrix elements.

Because [H(t1), H(t2)] is a qubit-only operator that commutes with H, the
propagator closes at second Magnus order and the integrated dynamics must
match the analytic displacement-plus-phase construction to integrator
tolerance.
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
    "IntegratorError",
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
# step budget of one drive interval's RK4 halving
_MAX_STEPS = 1 << 19


class IntegratorError(RuntimeError):
    """Step-halving did not reach the requested tolerance within budget."""


class InvalidExtractionError(RuntimeError):
    """Field not disentangled: residual excitation too large for phase readout."""


def total_dimension(config: LatticeConfig, n_max: int) -> int:
    """Elements of the field propagator: configurations x modes x Fock levels^2."""
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
        raise ValueError(f"total dimension {dim} exceeds cap {MAX_TOTAL_DIMENSION}")


def _sites(config: LatticeConfig) -> list[tuple[int, int]]:
    return [(m, n) for m in range(config.M) for n in range(config.N)]


def _sigma_x_site(nq: int, s: int) -> np.ndarray:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    out = np.array([[1]], dtype=complex)
    for i in range(nq):
        out = np.kron(out, sx if i == s else np.eye(2))
    return out


def collective_x_operator(config: LatticeConfig, l: int, k: int) -> np.ndarray:
    """J_X = sum_sites sigma_x_{m,n} e^{i(L m + K n)} on the qubit space."""
    nq = config.n_sites
    L = 2.0 * math.pi * l / config.M
    K = 2.0 * math.pi * k / config.N
    out = np.zeros((2**nq, 2**nq), dtype=complex)
    for s, (m, n) in enumerate(_sites(config)):
        out += np.exp(1j * (L * m + K * n)) * _sigma_x_site(nq, s)
    return out


def sz_operator(config: LatticeConfig) -> np.ndarray:
    """S_z = prod_sites sigma_z on the qubit space."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    out = np.array([[1]], dtype=complex)
    for _ in range(config.n_sites):
        out = np.kron(out, sz)
    return out


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


def _apply_h(ws: np.ndarray, lam: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """H(t) applied to psi[f, ..., mode, configuration] (f: Fock number)."""
    coef = lam * np.exp(-1j * ws * t)[:, None]
    root = np.sqrt(np.arange(1.0, psi.shape[0])).reshape((-1,) + (1,) * (psi.ndim - 1))
    out = np.empty_like(psi)
    out[:-1] = root * coef * psi[1:]  # a
    out[-1] = 0.0
    out[1:] += root * np.conj(coef) * psi[:-1]  # a^dagger
    return out


def _rk4_run(
    ws: np.ndarray, lam: np.ndarray, tau: float, block: np.ndarray, steps: int
) -> np.ndarray:
    """`steps` RK4 steps over [0, tau] applied to block.  The step from t is
    R(t) Q R(t)^dag, Q the step from 0, so the run telescopes to
    R(tau - dt) (Q R(-dt))^steps R(dt)."""
    dt = tau / steps
    fock = np.arange(block.shape[0])
    eye = np.eye(fock.size, dtype=complex)[:, :, None, None] * np.ones(lam.shape)
    k1 = -1j * _apply_h(ws, lam, 0.0, eye)
    k2 = -1j * _apply_h(ws, lam, 0.5 * dt, eye + 0.5 * dt * k1)
    k3 = -1j * _apply_h(ws, lam, 0.5 * dt, eye + 0.5 * dt * k2)
    k4 = -1j * _apply_h(ws, lam, dt, eye + dt * k3)
    q = np.moveaxis(eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (0, 1), (2, 3))

    def rot(t: float) -> np.ndarray:  # R(t) diagonals, [mode, 1, f]
        return np.exp(1j * np.multiply.outer(ws * t, fock))[:, None]

    power = np.linalg.matrix_power(q * rot(-dt)[..., None, :], steps)
    u = rot(tau - dt)[..., :, None] * power * rot(dt)[..., None, :]
    return np.einsum("mcfj,j...mc->f...mc", u, block)


def _integrate_block(
    ws: np.ndarray, lam: np.ndarray, g: float, tau: float, block: np.ndarray, tolerance: float
) -> tuple[np.ndarray, int, float]:
    """Fixed-step RK4 with step halving until the Richardson estimate and the
    norm defect both drop below tolerance.  Returns (states, steps, err).

    block[f, ..., mode, configuration] holds single-mode field factors; its
    trailing axes match lam.  The joint field of one configuration is the
    product of its mode factors, so its Richardson error is bounded by the
    sum of the factors' errors and its norm is the product of their norms.
    """
    if not 0 < tolerance < math.inf:  # NaN fails both comparisons
        raise ValueError("tolerance must be positive and finite")
    if tau == 0:
        return block.copy(), 0, 0.0
    scale = max(1.0, float(np.max(np.abs(ws))) * tau, g * tau)
    # RK4 error is roughly 0.03 (scale/steps)^4 for these drives; start one
    # halving below the predicted requirement so the doubling loop is short
    predicted = scale * (0.03 / tolerance) ** 0.25
    steps = 64
    while steps * 4 < predicted:
        steps *= 2
    coarse = _rk4_run(ws, lam, tau, block, steps)
    while True:
        steps *= 2
        if steps > _MAX_STEPS:
            raise IntegratorError(
                f"no convergence to tolerance {tolerance:g} within {_MAX_STEPS} steps"
            )
        fine = _rk4_run(ws, lam, tau, block, steps)
        factor_err = np.linalg.norm(fine - coarse, axis=0)
        err = float(np.max(np.sum(factor_err, axis=-2))) / 15.0
        norm2 = np.prod(np.linalg.norm(fine, axis=0) ** 2, axis=-2)
        defect = float(np.max(np.abs(norm2 - 1.0)))
        if err < tolerance and defect < tolerance:
            return fine, steps, err
        coarse = fine


@dataclass
class EvolutionReport:
    """Echoed-evolution result restricted to the field vacuum.

    The evolution never mixes sigma_x configurations, so the vacuum block is
    diagonal: vacuum[c] is the joint vacuum amplitude of configuration c,
    indexed like the qubit basis with bit 1 = |-x>; residual_excitation is
    the worst-case population left outside the joint field vacuum.
    """

    config: LatticeConfig
    vacuum: np.ndarray
    residual_excitation: float
    steps: int
    error_estimate: float


def echo_evolve(config: LatticeConfig, tau: float, n_max: int, tolerance: float) -> EvolutionReport:
    """S_z U(tau) S_z U(tau) applied to sigma_x basis states x field vacuum.

    Each interval integrates the drive from t = 0, so the second undoes the
    first's displacement of every mode and only the geometric phase stays.
    """
    _check_dims(config, n_max)
    ws, lam = _drive(config)
    block = np.zeros((n_max + 1,) + lam.shape, dtype=complex)
    block[0] = 1.0

    psi, steps1, err1 = _integrate_block(ws, lam, config.g, tau, block, tolerance)
    # S_z complements every x bit, leaving the field untouched: the factors
    # started in configuration c now sit in ~c, so the second interval runs
    # with the drive coefficients in complemented (reversed) order
    psi, steps2, err2 = _integrate_block(ws, lam[:, ::-1], config.g, tau, psi, tolerance)
    # the trailing S_z returns every factor to its original configuration

    # the joint vacuum amplitude is the product of the per-mode ones
    vacuum = np.prod(psi[0], axis=0)
    # |1 - norm^2| so that norm inflation (pure integrator error) is
    # reported as a defect instead of being silently clipped away
    residual = float(np.max(np.abs(1.0 - np.abs(vacuum) ** 2)))
    return EvolutionReport(
        config=config,
        vacuum=vacuum,
        residual_excitation=residual,
        steps=steps1 + steps2,
        error_estimate=err1 + err2,
    )


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
    and single-qubit phases drop out exactly.  Valid for |Gamma| < pi/4.
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
