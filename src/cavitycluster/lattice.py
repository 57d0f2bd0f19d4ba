"""Array geometry, parameters and photon Bloch-mode frequencies.

The M x N cavity array is treated with periodic boundary conditions, so the
photon hopping Hamiltonian diagonalizes in Fourier modes labelled by the
integer pair (l, k) with angles L = 2*pi*l/M, K = 2*pi*k/N and frequency

    omega_{L,K} = delta + 2 J cos L + 2 J cos K.

All frequencies are expressed in units of the qubit-cavity coupling g
(g = 1 internally); physical-unit conversion lives with the hardware
presets in :mod:`cavitycluster.geomphase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LatticeConfig", "Mode", "mode_frequency", "mode_grid", "enumerate_modes", "min_abs_frequency"
]


@dataclass(frozen=True)
class LatticeConfig:
    """Physical parameters of the M x N coupled-cavity array.

    M, N    lattice rows / columns
    g       qubit-cavity coupling (reference frequency unit, > 0)
    J       photon tunneling rate, units of g
    delta   cavity-qubit detuning, units of g
    """

    M: int
    N: int
    J: float
    delta: float = 0.0
    g: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.M, int) and isinstance(self.N, int)):
            raise ValueError("lattice dimensions must be integers")
        if self.M < 1 or self.N < 1:
            raise ValueError(f"lattice dimensions must be >= 1, got {self.M}x{self.N}")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        if self.J < 0:
            raise ValueError("tunneling rate J must be non-negative")

    @property
    def n_sites(self) -> int:
        return self.M * self.N


@dataclass(frozen=True)
class Mode:
    """One Fourier mode of the cavity lattice."""

    l: int
    k: int
    L: float
    K: float
    omega: float


def mode_frequency(config: LatticeConfig, l: int, k: int) -> float:
    """Frequency omega_{L,K} = delta + 2J(cos L + cos K), units of g."""
    if not (0 <= l < config.M and 0 <= k < config.N):
        raise ValueError(
            f"mode index ({l},{k}) out of range for {config.M}x{config.N} lattice"
        )
    return float(mode_grid(config)[2][l * config.N + k])


@lru_cache(maxsize=64)
def mode_grid(config: LatticeConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, K, omega) over all M*N modes, flat in row-major (l, k) order; read-only."""
    L = 2.0 * np.pi * np.arange(config.M) / config.M
    K = 2.0 * np.pi * np.arange(config.N) / config.N
    omega = config.delta + 2.0 * config.J * (np.cos(L)[:, None] + np.cos(K)[None, :])
    grid = (np.repeat(L, config.N), np.tile(K, config.M), omega.ravel())
    for a in grid:
        a.flags.writeable = False
    return grid


def enumerate_modes(config: LatticeConfig) -> list[Mode]:
    """All M*N modes in row-major (l, k) order."""
    L, K, omega = (a.tolist() for a in mode_grid(config))
    return [Mode(i // config.N, i % config.N, *lkw) for i, lkw in enumerate(zip(L, K, omega))]


def min_abs_frequency(config: LatticeConfig) -> float:
    """Smallest |omega| over all modes; 0 signals an exact zero mode."""
    return float(np.min(np.abs(mode_grid(config)[2])))
