"""Per-mode displacement loops and the pairwise geometric phase shift.

During one evolution interval tau every cavity mode is driven around a
loop in phase space; the per-mode displacement is

    beta_{L,K} = g / (sqrt(MN) omega) * (1 - e^{i omega tau})

and the per-mode geometric phase accumulated by a single interval is

    gamma_{L,K} = g^2 / (MN omega) * [tau - sin(omega tau)/omega].

A sigma_z echo (one sigma_z on every qubit between two intervals) cancels
the displacements and doubles the phases, leaving a pure pairwise qubit
coupling exp[sum_pairs i Gamma sigma_x sigma_x] with

    Gamma(dm, dn) = sum_modes 4 gamma_{L,K} cos(L dm + K dn).

Note the g^2 prefactor in gamma_{L,K}: it is fixed by direct integration
of the driven interaction Hamiltonian (see the brute-force checks in
:mod:`cavitycluster.oracle`), and Gamma above is the echoed pair
coefficient that those checks reproduce.

In real space Gamma_ab = 4 g^2 int_0^tau (tau - u) Im[exp(i h u)]_ab du,
with h = delta + J * (periodic nearest-neighbour adjacency), and the
bracket expands as (w tau - sin w tau)/w^2 = w tau^3/6 - w^3 tau^5/120 + ...
At delta = 0 this promises:

- even-parity separations (dm + dn even) vanish, since the odd powers of h
  only connect sites of opposite parity: exactly on even M and N; on an
  odd periodic lattice only the odd walks the other way round the lattice
  remain, below rounding for short separations on 19x19 but not on 5x5,
  where (2,0) is the odd separation (-3,0);
- the nearest-neighbour term is Gamma_nn = 2 J tau^3/3 at leading order;
- odd separations beyond nearest neighbour first appear through hopping
  walks of length 3 and scale as J^3 tau^5, e.g. Gamma(2,1) ~ -J^3 tau^5/10.

So "only nearest neighbours" holds to leading order in J tau, not exactly:
the worst beyond-nearest-neighbour phase is about 0.15 (J tau)^2 Gamma_nn.
On 19x19 with J = 0.1 g, |Gamma(2,1)| is 2.3e-2 at g tau = 3 and 6.2e-3 at
the gate time, where Gamma_nn = pi/4.

:func:`pairwise_phase`, every sweep row and the gate-time bisection are one
float64 dot of the per-mode phases with the separation's weights
4 cos(L dm + K dn); the scan that brackets the gate time multiplies
(tau x modes) blocks by the same weights.  :func:`build_phase_table` keeps
the M x N array 4 Re FFT2(gamma) itself, Gamma(dm, dn) being its cell
[dm mod M, dn mod N].  Each agrees with the exact (compensated) mode sum to
~1e-15.  The FFT's real part is even only to rounding: cells [d] and [-d]
may differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeConfig, mode_grid

__all__ = [
    "gamma_mode",
    "pairwise_phase",
    "nn_separation",
    "PhaseShiftTable",
    "build_phase_table",
    "GateTimeNotFoundError",
    "solve_gate_time",
    "sweep_delta",
    "sweep_tau",
    "HardwarePreset",
    "PRESETS",
    "FeasibilityReport",
    "feasibility_report",
]

# below this |omega*tau| the bracket tau - sin(omega tau)/omega is evaluated
# by its Taylor series; direct evaluation loses ~(omega tau)^-2 digits
_SERIES_THRESHOLD = 0.05
# the gate-time search: tau in (0, _WINDOW], scanned every _GRID_STEP
_WINDOW = 20.0
_GRID_STEP = 0.01
# elements of one (tau x modes) block of the gate-time scan: a few 128 kB
# temporaries, so the scan's peak memory does not grow with the window
_SCAN_BLOCK = 16384


def _gamma_bracket(w: np.ndarray, tau: float) -> np.ndarray:
    """(1/w) * [tau - sin(w tau)/w], series-protected near w = 0.

    Direct evaluation loses roughly (w tau)^-2 digits to cancellation, so
    small arguments use the Taylor series
    (1/w^2)(w tau - sin(w tau)) = w tau^3/6 - w^3 tau^5/120 + ...
    """
    w = np.asarray(w, dtype=float)
    x = w * tau
    small = np.abs(x) < _SERIES_THRESHOLD
    x2 = x * x
    series = w * tau**3 * (1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0 - x2 * x2 * x2 / 362880.0)
    w_safe = np.where(small, 1.0, w)
    direct = (tau - np.sin(x) / w_safe) / w_safe
    return np.where(small, series, direct)


def gamma_mode(config: LatticeConfig, omega: np.ndarray, tau: float) -> np.ndarray:
    """Geometric phase over one interval of the modes at frequencies ``omega``."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return config.g**2 / config.n_sites * _gamma_bracket(omega, tau)


def _check_separation(config: LatticeConfig, dm: int, dn: int) -> None:
    if dm % config.M == 0 and dn % config.N == 0:
        raise ValueError(f"separation ({dm}, {dn}) is zero on the {config.M}x{config.N} lattice")


def _weights(config: LatticeConfig, dm: int, dn: int) -> np.ndarray:
    """Per-mode weights 4 cos(L dm + K dn) of the separation (dm, dn)."""
    _check_separation(config, dm, dn)
    L, K, _ = mode_grid(config)
    return 4.0 * np.cos(L * dm + K * dn)


def nn_separation(config: LatticeConfig) -> tuple[int, int]:
    """The nearest-neighbour separation: (1, 0), or (0, 1) on a single row."""
    if config.M > 1:
        return (1, 0)
    if config.N > 1:
        return (0, 1)
    raise ValueError("a 1x1 lattice has no pairs")


def pairwise_phase(config: LatticeConfig, tau: float, dm: int, dn: int) -> float:
    """Echoed pairwise phase Gamma between sites separated by (dm, dn)."""
    return float(gamma_mode(config, mode_grid(config)[2], tau) @ _weights(config, dm, dn))


@dataclass(frozen=True)
class PhaseShiftTable:
    """Pairwise phases at a fixed tau: Gamma(dm, dn) = grid[dm % M, dn % N].

    grid is the read-only M x N array 4 Re FFT2(gamma); cell [0, 0] is the
    mode-summed self term, not a pair phase.
    """

    config: LatticeConfig
    grid: np.ndarray

    def gamma(self, dm: int, dn: int) -> float:
        _check_separation(self.config, dm, dn)
        return float(self.grid[dm % self.config.M, dn % self.config.N])

    def max_beyond_nearest_neighbor(self) -> float:
        """Largest |Gamma| over separations of lattice distance 2 or more (0 if none)."""
        M, N = self.grid.shape
        dm, dn = np.arange(M), np.arange(N)
        distance = np.minimum(dm, M - dm)[:, None] + np.minimum(dn, N - dn)
        return float(np.max(np.abs(self.grid[distance >= 2]), initial=0.0))


def build_phase_table(config: LatticeConfig, tau: float) -> PhaseShiftTable:
    """Gamma over every separation of the lattice, by one FFT."""
    gam = gamma_mode(config, mode_grid(config)[2], tau)
    grid = 4.0 * np.fft.fft2(gam.reshape(config.M, config.N)).real
    grid.flags.writeable = False
    return PhaseShiftTable(config=config, grid=grid)


class GateTimeNotFoundError(RuntimeError):
    """No interaction time in the search window reaches the target phase."""

    def __init__(self, target: float, achieved_max: float, window: float):
        self.achieved_max = achieved_max
        super().__init__(
            f"no tau in (0, {window:g}] reaches Gamma_nn = {target:g}; "
            f"max |Gamma_nn| achieved = {achieved_max:g}"
        )


def solve_gate_time(config: LatticeConfig, target: float = math.pi / 4) -> float:
    """Smallest tau in (0, _WINDOW] with Gamma_nn(tau) = target.

    Scans a coarse grid in (tau x modes) blocks up to the first block with a
    sign change or exact zero (the whole window only when there is no root),
    then bisects the bracketing interval with :func:`pairwise_phase`.
    """
    if target <= 0:
        raise ValueError("target phase must be positive")
    sep = nn_separation(config)

    def f(tau: float) -> float:
        return pairwise_phase(config, tau, *sep) - target

    W = mode_grid(config)[2]
    weights = config.g**2 / config.n_sites * _weights(config, *sep)
    taus = np.arange(_GRID_STEP, _WINDOW + _GRID_STEP / 2, _GRID_STEP)
    rows = max(1, _SCAN_BLOCK // W.size)
    achieved = 0.0
    vals = np.empty(0)
    for start in range(0, taus.size, rows):
        gamma_nn = _gamma_bracket(W, taus[start:start + rows, None]) @ weights
        achieved = max(achieved, float(np.max(np.abs(gamma_nn))))
        # carry the previous block's last point so a straddling root counts
        first = start - vals[-1:].size
        vals = np.concatenate((vals[-1:], gamma_nn - target))
        idx = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        exact = np.nonzero(vals == 0.0)[0]
        if exact.size and (not idx.size or exact[0] <= idx[0]):
            return float(taus[first + exact[0]])
        if idx.size:
            break
    else:
        raise GateTimeNotFoundError(target, achieved, _WINDOW)
    lo, hi = float(taus[first + idx[0]]), float(taus[first + idx[0] + 1])
    flo = f(lo)
    while (hi - lo) > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_delta(
    config: LatticeConfig, tau: float, delta_grid: list[float]
) -> list[tuple[float, float]]:
    """Rows (delta, Gamma_nn) over a detuning grid."""
    if len(delta_grid) == 0:
        raise ValueError("delta grid must be non-empty")
    sep = nn_separation(config)
    return [
        (float(d), pairwise_phase(replace(config, delta=float(d)), tau, *sep))
        for d in delta_grid
    ]


def sweep_tau(
    config: LatticeConfig,
    tau_grid: list[float],
    separations: list[tuple[int, int]],
) -> list[tuple[float, dict[tuple[int, int], float]]]:
    """Rows (tau, {separation: Gamma}) over an interaction-time grid."""
    if len(tau_grid) == 0 or len(separations) == 0:
        raise ValueError("tau grid and separation list must be non-empty")
    weights = {s: _weights(config, *s) for s in separations}
    W = mode_grid(config)[2]
    rows = []
    for tau in tau_grid:
        gam = gamma_mode(config, W, float(tau))
        rows.append((float(tau), {s: float(gam @ w) for s, w in weights.items()}))
    return rows


@dataclass(frozen=True)
class HardwarePreset:
    """Physical parameter set for feasibility arithmetic.

    Frequencies are angular (rad/s), times in seconds.  A preset fixes only
    the coupling scale g and the coherence times; J/g and delta/g come from
    the lattice configuration.
    """

    name: str
    g_phys: float
    T_cavity: float
    T_qubit: float

    def __post_init__(self) -> None:
        if self.T_cavity <= 0 or self.T_qubit <= 0:
            raise ValueError("coherence times must be positive")
        if self.g_phys <= 0:
            raise ValueError("coupling must be positive")


# Cooper-pair boxes / quantum dots in circuit cavities, and Raman-coupled
# atoms in microtoroid arrays (effective coupling after the Raman process).
PRESETS: dict[str, HardwarePreset] = {
    "cpb": HardwarePreset(
        name="cpb",
        g_phys=2 * math.pi * 50e6,
        T_cavity=20e-6,
        T_qubit=1e-6,
    ),
    "qdot": HardwarePreset(
        name="qdot",
        g_phys=2 * math.pi * 125e6,
        T_cavity=50e-6,
        T_qubit=1e-6,
    ),
    "toroid": HardwarePreset(
        name="toroid",
        g_phys=1e8,
        T_cavity=25e-6,
        T_qubit=6e-6,
    ),
}


@dataclass(frozen=True)
class FeasibilityReport:
    preset: str
    gate_time_g_units: float
    gate_time_seconds: float
    ratio_cavity: float
    ratio_qubit: float


def feasibility_report(preset: HardwarePreset, config: LatticeConfig) -> FeasibilityReport:
    """Gate time in physical units and coherence-time ratios for a preset."""
    gtau = config.g * solve_gate_time(config)
    t_phys = gtau / preset.g_phys
    return FeasibilityReport(
        preset=preset.name,
        gate_time_g_units=gtau,
        gate_time_seconds=t_phys,
        ratio_cavity=t_phys / preset.T_cavity,
        ratio_qubit=t_phys / preset.T_qubit,
    )
