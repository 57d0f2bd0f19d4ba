"""Per-mode displacement loops and the pairwise geometric phase shift.

During one evolution interval tau every cavity mode is driven around a
loop in phase space; the per-mode displacement is

    beta_{L,K} = g / (sqrt(MN) omega) * (1 - e^{i omega tau})

and the per-mode geometric phase accumulated by a single interval is

    gamma_{L,K} = g^2 / (MN omega) * [tau - sin(omega tau)/omega].

A sigma_z echo (one sigma_z on every qubit between two intervals, both
started from t = 0) cancels the displacements and doubles the phases,
leaving a pure pairwise qubit coupling exp[sum_pairs i Gamma sigma_x sigma_x]
with

    Gamma(dm, dn) = sum_modes 4 gamma_{L,K} cos(L dm + K dn).

A sigma_z pulse alone does not restart the loops: a device must also undo
each mode's free phase e^{-i omega tau} between the intervals by evolving
the band under -h, qubits decoupled, e.g. between two pi phase flips of one
sublattice's cavities at delta = 0 on a bipartite lattice (not the odd 19x19
periodic default).

Note the g^2 prefactor in gamma_{L,K}: it is fixed by direct integration
of the driven interaction Hamiltonian (see the brute-force checks in
:mod:`cavitycluster.oracle`), and Gamma above is the echoed pair
coefficient that those checks reproduce.  The code works in units of g
(see :mod:`cavitycluster.lattice`), so it evaluates these with g = 1.

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
  walks of length 3 and scale as J^3 tau^5, as in Gamma(2,1) ~ -J^3 tau^5/10.

So "only nearest neighbours" holds to leading order in J tau, not exactly:
the worst beyond-nearest-neighbour phase is about 0.15 (J tau)^2 Gamma_nn.
On 19x19 with J = 0.1 g, |Gamma(2,1)| is 2.3e-2 at g tau = 3 and 6.2e-3 at
the gate time, where Gamma_nn = pi/4.

:func:`pairwise_phase`, the sweeps and the gate-time solve fold the quarter
Brillouin zone, a square lattice's onto one triangle of it (see :func:`_modes`);
a sweep sums a block of rows at once, each row as one point is.  Every
site-resolved Gamma (the cluster, the oracle check, the generated patch) reads
the one FFT table of :func:`build_phase_table`.  Both agree with the exact
full-grid sum to ~1e-15 at short separations; :func:`solve_gate_time` explains its skips.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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
    "feasibility_report",
]

# below this |omega*tau| the bracket tau - sin(omega tau)/omega is evaluated
# by its Taylor series; direct evaluation loses ~(omega tau)^-2 digits
_SERIES_THRESHOLD = 0.05
# the gate-time search: tau (in units of 1/g) in (0, _WINDOW], walked every _GRID_STEP
_WINDOW = 20.0
_GRID_STEP = 0.01
# tau (in units of 1/g, so g*tau) at most this: room to spare over the search
# window, and with |omega| <= 5 MAX_FREQUENCY_OVER_G every omega*tau stays finite
MAX_G_TAU = 100.0
# elements of one block of sweep rows x folded terms: each temporary
# stays in cache (2^13 timed fastest of 2^12..2^16 on the 61x61 sweeps), and
# a wide lattice takes one row at a time
_BLOCK = 1 << 13


def _gamma_bracket(w: np.ndarray, tau) -> np.ndarray:
    """(1/w) * [tau - sin(w tau)/w], series-protected near w = 0.

    Direct evaluation loses roughly (w tau)^-2 digits to cancellation, so
    small arguments use the Taylor series
    (1/w^2)(w tau - sin(w tau)) = w tau^3/6 - w^3 tau^5/120 + ...
    Each entry evaluates both forms, the series only when some entry needs
    it, and takes its own; tau may be a column of times.
    """
    w = np.asarray(w, dtype=float)
    x = w * tau
    small = np.abs(x) < _SERIES_THRESHOLD
    # the direct form reads w = 1 off its branch, where w = 0 would divide by zero
    w_safe = np.where(small, 1.0, w)
    direct = (tau - np.sin(x) / w_safe) / w_safe
    if not small.any():
        return direct
    # a column of times is cubed by Python, as one time is: numpy's power
    # need not round the same way
    column = isinstance(tau, np.ndarray)
    cube = np.array([t**3 for t in tau.ravel().tolist()]).reshape(tau.shape) if column else tau**3
    # the series reads x = 0 off its branch, where x^6 could overflow
    x2 = np.where(small, x, 0.0) ** 2
    x4 = x2 * x2
    series = w * cube * (1.0 / 6.0 - x2 / 120.0 + x4 / 5040.0 - x4 * x2 / 362880.0)
    return np.where(small, series, direct)


def _checked_time(tau: float) -> float:
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if not tau <= MAX_G_TAU:
        raise ValueError(f"g*tau = {tau:g} is past the bound {MAX_G_TAU:g}")
    return tau


def gamma_mode(config: LatticeConfig, omega: np.ndarray, tau: float) -> np.ndarray:
    """Geometric phase over one interval of the modes at frequencies ``omega``."""
    return 1.0 / config.n_sites * _gamma_bracket(omega, _checked_time(tau))


def _phase_sums(config: LatticeConfig, omega: np.ndarray, tau, weights: np.ndarray) -> np.ndarray:
    """Gamma over a row, or a block of rows, of folded terms: numpy's row-wise pairwise
    sum, not a BLAS dot, gives a row the same bits in any block and under any thread count."""
    return np.add.reduce(1.0 / config.n_sites * _gamma_bracket(omega, tau) * weights, -1)


def _block_rows(rows: list[float], width: int, block_sums) -> list:
    """block_sums(block) for rows split into blocks of max(1, _BLOCK // width), concatenated."""
    step = max(1, _BLOCK // width)
    return [s for i in range(0, len(rows), step) for s in block_sums(rows[i : i + step])]


def _check_separation(config: LatticeConfig, dm: int, dn: int) -> None:
    if dm % config.M == 0 and dn % config.N == 0:
        raise ValueError(f"separation ({dm}, {dn}) is zero on the {config.M}x{config.N} lattice")


def _modes(config: LatticeConfig, *separations: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The folded terms' frequencies omega, and each separation's weights on them.

    Modes (+-l, +-k) share one frequency, and their weights 4 cos(L dm + K dn)
    sum to 4 m_l m_k cos(L dm) cos(K dn), the sines cancelling in pairs.  So
    the fold covers l = 0..M//2, k = 0..N//2 only, with m_l = 1 where -l is l
    (l = 0, and l = M/2 on even M) and 2 elsewhere.  The weights are even and
    periodic in dm and dn, which enter as their shortest equivalents
    (|dm| <= M/2) to keep the cosines' arguments, and rounding, small.
    A square lattice has omega(l, k) = omega(k, l) bit for bit and keeps only the
    triangle k >= l, row-major, each mode below it adding its weight to its mirror's.
    """
    M, N = config.M, config.N
    L, K = mode_angles(M)[: M // 2 + 1], mode_angles(N)[: N // 2 + 1]
    below = np.tri(L.size, k=-1, dtype=bool) if M == N else None  # modes l > k
    keep = slice(None) if below is None else ~below.ravel()
    omega = band_frequencies(config, L, K).ravel()[keep]
    m_l, m_k = _multiplicity(M), _multiplicity(N)
    weights = np.empty((len(separations), omega.size))
    for row, (dm, dn) in zip(weights, separations):
        _check_separation(config, dm, dn)
        along_l = m_l * np.cos(L * min(dm % M, -dm % M))
        along_k = m_k * np.cos(K * min(dn % N, -dn % N))
        w = 4.0 * (along_l[:, None] * along_k)
        row[:] = (w if below is None else w + np.where(below.T, w.T, 0.0)).ravel()[keep]
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
    """Echoed pairwise phase Gamma between sites separated by (dm, dn): a one-row tau sweep."""
    return sweep_tau(config, [tau], [(dm, dn)])[0][1][(dm, dn)]


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
    gam = gamma_mode(config, mode_grid(config), tau)
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
    """Smallest tau (in units of 1/g) in (0, _WINDOW] with Gamma_nn(tau) = target.

    Walks from tau = 0, where Gamma_nn = 0 < target, over tau = k*_GRID_STEP
    to the first point with Gamma_nn >= target, then bisects that interval.
    The walk skips grid points that a derivative bound proves short of the
    target.  f = Gamma_nn - target has f'(tau) = (1/MN) sum w (1 - cos
    omega tau)/omega, and |1 - cos x| is at most x^2/2 and at most 2, so
    |f'(tau)| <= min(c tau^2, b) with c = (1/2MN) sum |w omega| and
    b = (2/MN) sum |w/omega| over the folded terms, a term at omega = 0
    adding nothing to f'.  From a walked point s with f(s) < 0, every tau
    with tau^3 < s^3 - 1.5 f(s)/c, and every tau < s - f(s)/(2b), therefore
    has f(tau) <= f(s)/2 < 0, and the walk moves on to the first grid point
    past the larger of the two, at least one step.  The cubic reach carries
    it at small tau; the linear one at a large |delta|, where b is small and
    one jump crosses hundreds of points.  The f(s)/2 margin keeps rounding
    out of the skip.  So the walk meets the same first point with f >= 0 as
    a point-by-point walk, and bisects the same step to the same tau.  With
    c = 0, Gamma_nn is 0 throughout and the walk goes straight to the end;
    an infinite b (w/omega overflowing) only skips nothing more.  With no
    root, the error reports the largest |Gamma_nn| over the whole grid, read
    in row blocks, each row with the bits of its one-point call.
    """
    if target <= 0:
        raise ValueError("target phase must be positive")
    sep = nn_separation(config)
    omega, (weights,) = _modes(config, sep)
    c = float(np.abs(weights * omega).sum()) / (2 * config.n_sites)
    with np.errstate(over="ignore"):  # w/omega may overflow, and b = inf skips nothing
        b = 2.0 * float(np.abs(weights / np.where(omega == 0.0, np.inf, omega)).sum())
    b /= config.n_sites

    def f(tau: float) -> float:
        return float(_phase_sums(config, omega, tau, weights)) - target

    grid = np.arange(_GRID_STEP, _WINDOW + _GRID_STEP / 2, _GRID_STEP).tolist()
    s, fs, i = 0.0, -target, 0
    while True:
        # every grid point below reach has f <= fs/2 < 0
        reach = max((s**3 - 1.5 * fs / c) ** (1.0 / 3.0), s - 0.5 * fs / b) if c > 0.0 else math.inf
        i = bisect.bisect_left(grid, reach, i)
        if i == len(grid):
            gammas = _block_rows(grid, omega.size, lambda block: np.abs(
                _phase_sums(config, omega, np.array(block)[:, None], weights)).tolist())
            raise GateTimeNotFoundError(target, max(gammas))
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
    if max(map(abs, delta_grid)) > MAX_FREQUENCY_OVER_G:
        raise ValueError(f"a delta grid point is past |delta|/g = {MAX_FREQUENCY_OVER_G:g}")
    omega, (weights,) = _modes(replace(config, delta=0.0), nn_separation(config))
    tau, deltas = _checked_time(tau), [float(d) for d in delta_grid]
    return list(zip(deltas, _block_rows(deltas, omega.size, lambda block: _phase_sums(
        config, omega + np.array(block)[:, None], tau, weights).tolist())))


def sweep_tau(
    config: LatticeConfig,
    tau_grid: list[float],
    separations: list[tuple[int, int]],
) -> list[tuple[float, dict[tuple[int, int], float]]]:
    """Rows (tau, {separation: Gamma}) over an interaction-time grid, summed a block at a time."""
    if len(tau_grid) == 0 or len(separations) == 0:
        raise ValueError("tau grid and separation list must be non-empty")
    omega, weights = _modes(config, *separations)
    taus = [_checked_time(float(tau)) for tau in tau_grid]
    # one plane of rows per separation
    sums = _block_rows(taus, omega.size, lambda block: _phase_sums(
        config, omega, np.array(block)[:, None], weights[:, None]).T.tolist())
    return [(tau, dict(zip(separations, row))) for tau, row in zip(taus, sums)]


class HardwarePreset(NamedTuple):
    """A preset's coupling scale g (angular, rad/s) and coherence times (s), named by its
    PRESETS key; J/g and delta/g come from the lattice configuration."""

    g_phys: float
    T_cavity: float
    T_qubit: float


# Cooper-pair boxes / quantum dots in circuit cavities, and Raman-coupled
# atoms in microtoroid arrays (effective coupling after the Raman process).
PRESETS: dict[str, HardwarePreset] = {
    "cpb": HardwarePreset(g_phys=2 * math.pi * 50e6, T_cavity=20e-6, T_qubit=1e-6),
    "qdot": HardwarePreset(g_phys=2 * math.pi * 125e6, T_cavity=50e-6, T_qubit=1e-6),
    "toroid": HardwarePreset(g_phys=1e8, T_cavity=25e-6, T_qubit=6e-6),
}


def feasibility_report(preset: HardwarePreset, gate_time: float) -> dict[str, float]:
    """A preset's feasibility lines in report order, name to value: the gate time in units of
    1/g and in seconds, and that time over each coherence time.  gate_time is a lattice's
    solved gate time, ``solve_gate_time(config)``, in units of 1/g."""
    t = gate_time / preset.g_phys
    return {"gate_time_g_units": gate_time, "gate_time_seconds": t,
            "ratio_T_cavity": t / preset.T_cavity, "ratio_T_qubit": t / preset.T_qubit}
