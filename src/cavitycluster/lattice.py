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

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["MAX_FREQUENCY_OVER_G", "LatticeConfig", "mode_angles", "band_frequencies", "mode_grid"]

# the full mode grid takes 24 bytes per mode; a solve or sweep, which reads
# its quarter zone, peaks near 30 bytes per mode and the FFT phase table near
# 50, so this cap holds each near 50 MB
MAX_MODES = 1_000_000
# J/g and |delta|/g at most this, with g in [1e-100, 1e100], keep every mode
# frequency and every omega*tau (g*tau <= geomphase.MAX_G_TAU) far from overflow
MAX_FREQUENCY_OVER_G = 1e150


@dataclass(frozen=True)
class LatticeConfig:
    """Physical parameters of the M x N coupled-cavity array.

    M, N    lattice rows / columns
    g       qubit-cavity coupling, 1e-100 <= g <= 1e100
    J       photon tunneling rate, same unit as g, 0 <= J/g <= MAX_FREQUENCY_OVER_G
    delta   cavity-qubit detuning, same unit as g, |delta|/g <= MAX_FREQUENCY_OVER_G
    """

    M: int
    N: int
    J: float
    delta: float = 0.0
    g: float = 1.0

    def __post_init__(self) -> None:
        for name in ("M", "N"):
            value = getattr(self, name)
            # bool is an Integral too, but True is no lattice dimension
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("lattice dimensions must be integers")
            # a plain int keeps reprs and report headers the same for numpy integers
            object.__setattr__(self, name, int(value))
        if self.M < 1 or self.N < 1:
            raise ValueError(f"lattice dimensions must be >= 1, got {self.M}x{self.N}")
        if self.M * self.N > MAX_MODES:
            raise ValueError(f"a {self.M}x{self.N} lattice has over {MAX_MODES} modes")
        # results depend on g only through J/g, delta/g and g*tau, and far outside
        # this range the g*tau grid points or g**2 overflow a float
        if not 1e-100 <= self.g <= 1e100:
            raise ValueError(f"coupling g must lie in [1e-100, 1e100], got {self.g!r}")
        for name in ("J", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.J < 0:
            raise ValueError("tunneling rate J must be non-negative")
        for name in ("J", "delta"):
            if abs(getattr(self, name)) > MAX_FREQUENCY_OVER_G * self.g:
                raise ValueError(f"|{name}| must be at most {MAX_FREQUENCY_OVER_G:g} g, "
                                 f"got {name} = {getattr(self, name)!r} with g = {self.g!r}")

    @property
    def n_sites(self) -> int:
        return self.M * self.N


def mode_angles(size: int) -> np.ndarray:
    """The Bloch angles 2*pi*l/size, l = 0..size-1, along one lattice axis."""
    return 2.0 * np.pi * np.arange(size) / size


def band_frequencies(config: LatticeConfig, L: np.ndarray, K: np.ndarray) -> np.ndarray:
    """omega = delta + 2 J cos L + 2 J cos K as a len(L) x len(K) array."""
    return config.delta + 2.0 * config.J * (np.cos(L)[:, None] + np.cos(K)[None, :])


def mode_grid(config: LatticeConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, K, omega) over all M*N modes, flat in row-major (l, k) order."""
    L, K = mode_angles(config.M), mode_angles(config.N)
    omega = band_frequencies(config, L, K)
    return np.repeat(L, config.N), np.tile(K, config.M), omega.ravel()
