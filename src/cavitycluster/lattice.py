"""Array geometry, parameters and photon Bloch-mode frequencies.

The M x N cavity array is treated with periodic boundary conditions, so the
photon hopping Hamiltonian diagonalizes in Fourier modes labelled by the
integer pair (l, k) with angles L = 2*pi*l/M, K = 2*pi*k/N and frequency

    omega_{L,K} = delta + 2 J cos L + 2 J cos K.

The geometric phase depends on the qubit-cavity coupling g only through
g tau, J/g and delta/g, so the package works in units of g: J, delta and
omega are angular frequencies in units of g, and tau is a time in units of
1/g.  Physical-unit conversion lives with the hardware presets in
:mod:`cavitycluster.geomphase`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["MAX_FREQUENCY_OVER_G", "LatticeConfig", "mode_angles", "band_frequencies", "mode_grid"]

# the full mode grid takes 8 bytes per mode; a solve, or a sweep of one
# separation, sums its quarter zone one row at a time on a lattice this wide
# and peaks near 33 bytes per mode on a single row, whose quarter zone holds
# half the modes, and near 9 on a square lattice, which keeps a triangle of
# its quarter; a tau sweep adds about 8 (a row) or 2 (a square) per further
# separation, and the FFT phase table peaks near 50, so this cap holds each
# near 50 MB
MAX_MODES = 1_000_000
# |J| and |delta| at most this (in units of g) keep every mode frequency and
# every omega*tau (tau <= geomphase.MAX_G_TAU) far from overflow
MAX_FREQUENCY_OVER_G = 1e150


@dataclass(frozen=True)
class LatticeConfig:
    """Physical parameters of the M x N coupled-cavity array.

    M, N    lattice rows / columns
    J       photon tunneling rate in units of g, 0 <= J <= MAX_FREQUENCY_OVER_G
    delta   cavity-qubit detuning in units of g, |delta| <= MAX_FREQUENCY_OVER_G
    """

    M: int
    N: int
    J: float
    delta: float = 0.0

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
        for name in ("J", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.J < 0:
            raise ValueError("tunneling rate J must be non-negative")
        for name in ("J", "delta"):
            if abs(getattr(self, name)) > MAX_FREQUENCY_OVER_G:
                raise ValueError(f"|{name}| must be at most {MAX_FREQUENCY_OVER_G:g} g, "
                                 f"got {name} = {getattr(self, name)!r}")

    @property
    def n_sites(self) -> int:
        return self.M * self.N


def mode_angles(size: int) -> np.ndarray:
    """The Bloch angles 2*pi*l/size, l = 0..size-1, along one lattice axis."""
    return 2.0 * np.pi * np.arange(size) / size


def band_frequencies(config: LatticeConfig, L: np.ndarray, K: np.ndarray) -> np.ndarray:
    """omega = delta + 2 J cos L + 2 J cos K as a len(L) x len(K) array."""
    return config.delta + 2.0 * config.J * (np.cos(L)[:, None] + np.cos(K)[None, :])


def mode_grid(config: LatticeConfig) -> np.ndarray:
    """omega over all M*N modes, flat in row-major (l, k) order."""
    return band_frequencies(config, mode_angles(config.M), mode_angles(config.N)).ravel()
