"""Array geometry, parameters and photon Bloch-mode frequencies.

The M x N cavity array is treated with periodic boundary conditions, so the
photon hopping Hamiltonian diagonalizes in Fourier modes labelled by the
integer pair (l, k) with angles L = 2*pi*l/M, K = 2*pi*k/N and frequency

    omega_{L,K} = delta + 2 J cos L + 2 J cos K.

g, J, delta and omega are angular frequencies in one common unit and tau
is a time in its inverse; nothing fixes g = 1, so a dimensionless reading
takes the products g tau, J/g and delta/g.  Physical-unit conversion lives
with the hardware presets in :mod:`cavitycluster.geomphase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["LatticeConfig", "mode_grid"]


@dataclass(frozen=True)
class LatticeConfig:
    """Physical parameters of the M x N coupled-cavity array.

    M, N    lattice rows / columns
    g       qubit-cavity coupling (> 0)
    J       photon tunneling rate, same unit as g
    delta   cavity-qubit detuning, same unit as g
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


# small: a detuning sweep builds one grid per delta, and a large cache would
# keep every one of them alive
@lru_cache(maxsize=4)
def mode_grid(config: LatticeConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, K, omega) over all M*N modes, flat in row-major (l, k) order; read-only."""
    L = 2.0 * np.pi * np.arange(config.M) / config.M
    K = 2.0 * np.pi * np.arange(config.N) / config.N
    omega = config.delta + 2.0 * config.J * (np.cos(L)[:, None] + np.cos(K)[None, :])
    grid = (np.repeat(L, config.N), np.tile(K, config.M), omega.ravel())
    for a in grid:
        a.flags.writeable = False
    return grid

