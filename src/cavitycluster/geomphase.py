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

:func:`pairwise_phase`, the sweeps and the gate-time solve sum the quarter
Brillouin zone with folded weights (see :func:`_modes`);
:func:`build_phase_table` takes one FFT of the full mode grid (see
:class:`PhaseShiftTable`).  For short separations both agree with the exact
full-grid mode sum to ~1e-15.  :func:`solve_gate_time` states why its walk
may skip grid points.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import MAX_FREQUENCY_OVER_G, LatticeConfig, band_frequencies, mode_angles, mode_grid

__all__ = [
    "MAX_G_TAU",
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
# the gate-time search: g*tau in (0, _WINDOW], walked every _GRID_STEP
_WINDOW = 20.0
_GRID_STEP = 0.01
# g*tau at most this: tau**3 stays finite down to g = 1e-100 (it overflows
# past g*tau = 563 there), with room to spare over the search window
MAX_G_TAU = 100.0


def _gamma_bracket(w: np.ndarray, tau: float) -> np.ndarray:
    """(1/w) * [tau - sin(w tau)/w], series-protected near w = 0.

    Direct evaluation loses roughly (w tau)^-2 digits to cancellation, so
    small arguments use the Taylor series
    (1/w^2)(w tau - sin(w tau)) = w tau^3/6 - w^3 tau^5/120 + ...
    Each entry evaluates only its own branch.
    """
    w = np.asarray(w, dtype=float)
    x = w * tau
    small = np.abs(x) < _SERIES_THRESHOLD
    out = np.empty_like(x)
    ws, xs = w[small], x[small]
    x2 = xs * xs
    out[small] = ws * tau**3 * (1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0 - x2 * x2 * x2 / 362880.0)
    big = ~small
    wb = w[big]
    out[big] = (tau - np.sin(x[big]) / wb) / wb
    return out


def gamma_mode(config: LatticeConfig, omega: np.ndarray, tau: float) -> np.ndarray:
    """Geometric phase over one interval of the modes at frequencies ``omega``."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if not config.g * tau <= MAX_G_TAU:
        raise ValueError(f"g*tau = {config.g * tau:g} is past the bound {MAX_G_TAU:g}")
    return config.g**2 / config.n_sites * _gamma_bracket(omega, tau)


def _check_separation(config: LatticeConfig, dm: int, dn: int) -> None:
    if dm % config.M == 0 and dn % config.N == 0:
        raise ValueError(f"separation ({dm}, {dn}) is zero on the {config.M}x{config.N} lattice")


def _modes(
    config: LatticeConfig, *separations: tuple[int, int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quarter-zone frequencies omega and each separation's folded weights.

    Modes (+-l, +-k) share one frequency, and their weights 4 cos(L dm + K dn)
    sum to 4 m_l m_k cos(L dm) cos(K dn), the sines cancelling in pairs.  So
    omega covers l = 0..M//2, k = 0..N//2 only, with m_l = 1 where -l is l
    (l = 0, and l = M/2 on even M) and 2 elsewhere.  The weights are even and
    periodic in dm and dn, which enter as their shortest equivalents
    (|dm| <= M/2) to keep the cosines' arguments, and rounding, small.
    """
    for dm, dn in separations:
        _check_separation(config, dm, dn)
    M, N = config.M, config.N
    L, K = mode_angles(M)[: M // 2 + 1], mode_angles(N)[: N // 2 + 1]
    omega = band_frequencies(config, L, K).ravel()
    m_l, m_k = _multiplicity(M), _multiplicity(N)
    weights = []
    for dm, dn in separations:
        along_l = m_l * np.cos(L * min(dm % M, -dm % M))
        along_k = m_k * np.cos(K * min(dn % N, -dn % N))
        weights.append(4.0 * (along_l[:, None] * along_k).ravel())
    return omega, weights


def _multiplicity(size: int) -> np.ndarray:
    """How many of the modes l and size - l, l = 0..size//2, are distinct."""
    m = np.full(size // 2 + 1, 2.0)
    m[0] = 1.0
    if size % 2 == 0:
        m[-1] = 1.0
    return m


def nn_separation(config: LatticeConfig) -> tuple[int, int]:
    """The nearest-neighbour separation: (1, 0), or (0, 1) on a single row."""
    if config.M > 1:
        return (1, 0)
    if config.N > 1:
        return (0, 1)
    raise ValueError("a 1x1 lattice has no pairs")


def pairwise_phase(config: LatticeConfig, tau: float, dm: int, dn: int) -> float:
    """Echoed pairwise phase Gamma between sites separated by (dm, dn)."""
    omega, (weights,) = _modes(config, (dm, dn))
    return float(gamma_mode(config, omega, tau) @ weights)


@dataclass(frozen=True)
class PhaseShiftTable:
    """Pairwise phases at a fixed tau: Gamma(dm, dn) = grid[dm % M, dn % N].

    grid is the read-only M x N array 4 Re FFT2(gamma); cell [0, 0] is the
    mode-summed self term, not a pair phase.  The FFT's real part is even
    only to rounding: cells [d] and [-d] may differ in the last bit.
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

    def __init__(self, target: float, achieved_max: float):
        self.achieved_max = achieved_max
        super().__init__(
            f"no g*tau in (0, {_WINDOW:g}] reaches Gamma_nn = {target:g}; "
            f"max |Gamma_nn| achieved = {achieved_max:g}"
        )


def solve_gate_time(config: LatticeConfig, target: float = math.pi / 4) -> float:
    """Smallest tau with g*tau in (0, _WINDOW] and Gamma_nn(tau) = target.

    Walks from tau = 0, where Gamma_nn = 0 < target, over g*tau = k*_GRID_STEP
    to the first point with Gamma_nn >= target, then bisects that interval.
    The walk skips grid points that a derivative bound proves short of the
    target.  f = Gamma_nn - target has f'(tau) = (g^2/MN) sum w (1 - cos
    omega tau)/omega, and |1 - cos x| <= x^2/2, so |f'(tau)| <= c tau^2 with
    c = (g^2/2MN) sum |w omega| over the quarter zone.  From a walked point
    s with f(s) < 0, every tau with tau^3 < s^3 - 1.5 f(s)/c therefore has
    f(tau) <= f(s)/2 < 0, and the walk moves on to the first grid point past
    that, at least one step.  The f(s)/2 margin keeps rounding out of the
    skip.  So the walk meets the same first point with f >= 0 as a
    point-by-point walk, and bisects the same step to the same tau.  With
    c = 0, Gamma_nn is 0 throughout and the walk goes straight to the end.
    With no root, the error reports the largest |Gamma_nn| over the whole
    grid, so a failing solve evaluates its walked points a second time.
    """
    if target <= 0:
        raise ValueError("target phase must be positive")
    omega, (weights,) = _modes(config, nn_separation(config))
    g = config.g
    # c / g^3, the bound in units of 1/g, so that its size does not follow the scale of g
    c = float(np.abs(weights * omega).sum()) / (2 * config.n_sites * g)

    def f(tau: float) -> float:
        return float(gamma_mode(config, omega, tau) @ weights) - target

    grid = (np.arange(_GRID_STEP, _WINDOW + _GRID_STEP / 2, _GRID_STEP) / g).tolist()
    s, fs, i = 0.0, -target, 0
    while True:
        # every grid point below reach has f <= fs/2 < 0
        reach = ((g * s) ** 3 - 1.5 * fs / c) ** (1.0 / 3.0) / g if c > 0.0 else math.inf
        i = bisect.bisect_left(grid, reach, i)
        if i == len(grid):
            raise GateTimeNotFoundError(target, max(abs(f(t) + target) for t in grid))
        hi = grid[i]
        fhi = f(hi)
        if fhi == 0.0:
            return hi
        if fhi > 0.0:
            break
        s, fs, i = hi, fhi, i + 1
    # f < 0 on every grid point below hi, so the bracket is the step before it
    lo = grid[i - 1] if i else 0.0
    while (hi - lo) > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_delta(
    config: LatticeConfig, tau: float, delta_grid: list[float]
) -> list[tuple[float, float]]:
    """Rows (delta, Gamma_nn) over a detuning grid.

    The modes are built once at delta = 0; each row adds its delta to those
    frequencies, which gives the bits of building them at that delta.
    """
    if len(delta_grid) == 0:
        raise ValueError("delta grid must be non-empty")
    if max(map(abs, delta_grid)) > MAX_FREQUENCY_OVER_G * config.g:
        raise ValueError(f"a delta grid point is past |delta|/g = {MAX_FREQUENCY_OVER_G:g}")
    omega, (weights,) = _modes(replace(config, delta=0.0), nn_separation(config))
    return [
        (float(d), float(gamma_mode(config, omega + float(d), tau) @ weights))
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
    omega, weights = _modes(config, *separations)
    rows = []
    for tau in tau_grid:
        gam = gamma_mode(config, omega, float(tau))
        rows.append((float(tau), {s: float(gam @ w) for s, w in zip(separations, weights)}))
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


def feasibility_report(
    preset: HardwarePreset, config: LatticeConfig, gate_time: float
) -> FeasibilityReport:
    """Physical-unit gate time and coherence-time ratios of a preset.

    gate_time is the lattice's solved gate time, ``solve_gate_time(config)``.
    """
    gtau = config.g * gate_time
    t_phys = gtau / preset.g_phys
    return FeasibilityReport(
        preset=preset.name,
        gate_time_g_units=gtau,
        gate_time_seconds=t_phys,
        ratio_cavity=t_phys / preset.T_cavity,
        ratio_qubit=t_phys / preset.T_qubit,
    )
