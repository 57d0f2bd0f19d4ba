"""Displacement-operator algebra and phase-space path phases.

Two sequential displacements compose as

    D(alpha) D(beta) = D(alpha + beta) exp(i Im(alpha * conj(beta))),

with beta applied first.  A piecewise-linear path picks up the discrete
phase  Im sum_i dalpha_i (sum_{j<i} dalpha_j)^* , which converges to the
line integral Im integral alpha^* dalpha and, for closed paths, equals
twice the signed enclosed area.

Gauge convention: phases are computed from displacement increments
relative to the path's first vertex, so the start point is a pure gauge
choice and whole-path translations do not change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhasePath",
    "compose_displacements",
    "path_phase",
    "closed_path_phase",
    "verify_displacement_law",
    "displacement_matrix",
]

_CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class PhasePath:
    """Piecewise-linear path in single-mode phase space."""

    points: tuple[complex, ...]
    closed: bool = False

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a path needs at least 2 points")
        if any(not (math.isfinite(p.real) and math.isfinite(p.imag)) for p in map(complex, self.points)):
            raise ValueError("path points must be finite")
        if self.closed and abs(complex(self.points[0]) - complex(self.points[-1])) > _CLOSURE_TOL:
            raise ValueError("closed path must end where it starts")


def compose_displacements(alpha: complex, beta: complex) -> tuple[complex, float]:
    """Net displacement and phase of D(alpha)D(beta), beta applied first."""
    alpha = complex(alpha)
    beta = complex(beta)
    return alpha + beta, (alpha * beta.conjugate()).imag


def path_phase(path: PhasePath) -> tuple[complex, float]:
    """Net displacement and accumulated geometric phase of a path.

    The phase is the discrete sum Im sum_{i>=2} dalpha_i (sum_{j<i} dalpha_j)^*
    over the path's straight sections.
    """
    pts = np.asarray(path.points, dtype=complex)
    deltas = np.diff(pts)
    accum = np.cumsum(deltas)
    # section i composes onto the partial sum of sections < i
    gamma = float(np.sum((deltas[1:] * np.conj(accum[:-1])).imag))
    return complex(accum[-1]) if len(accum) else 0j, gamma


def closed_path_phase(path: PhasePath) -> float:
    """Geometric phase of a closed path; equals 2x the signed enclosed area."""
    if not path.closed:
        raise ValueError("path is not closed")
    _, gamma = path_phase(path)
    return gamma


def displacement_matrix(alpha: complex, n_max: int) -> np.ndarray:
    """D(alpha) on the Fock space truncated at photon number n_max.

    D = exp(alpha a^dag - alpha^* a) = exp(-iH) with the Hermitian generator
    H = i(alpha a^dag - alpha^* a), exponentiated through its eigenbasis.
    """
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    lam, v = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    return (v * np.exp(-1j * lam)) @ v.conj().T


def verify_displacement_law(alpha: complex, beta: complex, n_max: int) -> float:
    """Numerically check D(alpha)D(beta) = D(alpha+beta) e^{i Im(alpha beta^*)}.

    Builds truncated-Fock matrix exponentials and returns the maximum
    absolute entry difference on a low-lying comparison window.  The window
    is at most n_max/2 levels and shrinks with the displacement amplitudes,
    since a displacement of total size s corrupts roughly s*sqrt(n_max)
    levels below the truncation cut.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if n_max < 20:
        raise ValueError("n_max must be at least 20")
    size = abs(alpha) + abs(beta)
    if max(abs(alpha), abs(beta)) > math.sqrt(n_max) / 3.0:
        raise ValueError(
            f"|alpha|, |beta| must stay below sqrt(n_max)/3 = {math.sqrt(n_max)/3:.3f} "
            "for the truncated check to be meaningful"
        )
    window = min(n_max // 2, n_max - math.ceil(1.4 * size * math.sqrt(n_max)))
    if window < 5:
        raise ValueError("displacements too large for this truncation")
    lhs = displacement_matrix(alpha, n_max) @ displacement_matrix(beta, n_max)
    net, phase = compose_displacements(alpha, beta)
    rhs = displacement_matrix(net, n_max) * np.exp(1j * phase)
    return float(np.max(np.abs(lhs[:window, :window] - rhs[:window, :window])))
