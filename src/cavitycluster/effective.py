"""Dense qubit-register evolution under the effective pairwise coupling.

The echoed cavity-mediated evolution acts on the qubits alone as
exp[sum_pairs i Gamma_{ab} sigma_x sigma_x].  At Gamma = pi/4 on nearest
neighbors this turns the all-up product state into a 2D cluster state up
to a fixed local correction: on every site, a Hadamard followed by the
z-rotation exp(-i pi/4 deg Z), where deg is the site's number of lattice
neighbors.  (The correction was fixed once by brute force on 2- and
3-qubit instances; see tests.)

Conventions: site (m, n) owns tensor axis m*N + n of the amplitude
vector reshaped to [2]*M*N; bit 0 is |up>, the +1 eigenstate of sigma_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geomphase import PhaseShiftTable

__all__ = [
    "MAX_QUBITS",
    "QubitRegister",
    "PauliOperatorString",
    "product_state",
    "apply_single_qubit",
    "apply_pairwise_xx",
    "grid_edges",
    "reference_cluster",
    "local_correction",
    "cluster_fidelity",
    "stabilizer_expectation",
    "graph_stabilizer",
    "reduced_single_qubit",
    "state_overlap",
]

MAX_QUBITS = 24

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
class QubitRegister:
    """Dense state vector over the 2^(M*N) qubit Hilbert space."""

    M: int
    N: int
    amps: np.ndarray
    measured: set[tuple[int, int]] = field(default_factory=set)

    def __post_init__(self) -> None:
        nq = self.M * self.N
        if nq > MAX_QUBITS:
            raise ValueError(f"{self.M}x{self.N} exceeds the {MAX_QUBITS}-qubit cap")
        self.amps = np.asarray(self.amps, dtype=complex).reshape(2**nq)

    @property
    def n_qubits(self) -> int:
        return self.M * self.N

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def site_axis(self, site: tuple[int, int]) -> int:
        m, n = site
        if not (0 <= m < self.M and 0 <= n < self.N):
            raise ValueError(f"site {site} out of range for {self.M}x{self.N}")
        return m * self.N + n

    def view(self) -> np.ndarray:
        return self.amps.reshape([2] * self.n_qubits)

    def copy(self) -> "QubitRegister":
        return QubitRegister(self.M, self.N, self.amps.copy(), set(self.measured))


@dataclass(frozen=True)
class PauliOperatorString:
    """A tensor product of single-site Paulis with an overall phase."""

    letters: str
    phase: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError("phase must be one of +-1, +-i")


def product_state(M: int, N: int, spin: str = "up") -> QubitRegister:
    """All qubits in |up> (bit 0) or |down> (bit 1)."""
    if spin not in ("up", "down"):
        raise ValueError("spin must be 'up' or 'down'")
    nq = M * N
    if nq > MAX_QUBITS:
        raise ValueError(f"{M}x{N} exceeds the {MAX_QUBITS}-qubit cap")
    amps = np.zeros(2**nq, dtype=complex)
    amps[0 if spin == "up" else 2**nq - 1] = 1.0
    return QubitRegister(M, N, amps)


def apply_single_qubit(reg: QubitRegister, site: tuple[int, int], u: np.ndarray) -> None:
    """Apply a 2x2 operator to one site, in place."""
    ax = reg.site_axis(site)
    t = reg.view()
    t = np.tensordot(np.asarray(u, dtype=complex), t, axes=([1], [ax]))
    reg.amps = np.moveaxis(t, 0, ax).reshape(-1).copy()


def grid_edges(M: int, N: int, periodic: bool) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Distinct nearest-neighbor pairs of the M x N grid graph."""
    edges: set[frozenset[tuple[int, int]]] = set()
    out = []
    for m in range(M):
        for n in range(N):
            steps = [(m + 1, n), (m, n + 1)] if not periodic else [
                ((m + 1) % M, n),
                (m, (n + 1) % N),
            ]
            for mm, nn in steps:
                if not periodic and (mm >= M or nn >= N):
                    continue
                pair = frozenset({(m, n), (mm, nn)})
                if len(pair) == 2 and pair not in edges:
                    edges.add(pair)
                    out.append(((m, n), (mm, nn)))
    return out


def _apply_xx(reg: QubitRegister, a: tuple[int, int], b: tuple[int, int], gamma: float) -> None:
    """exp(i gamma X_a X_b), in place; uses X = axis reversal."""
    t = reg.view()
    flipped = np.flip(t, axis=(reg.site_axis(a), reg.site_axis(b)))
    reg.amps = (math.cos(gamma) * t + 1j * math.sin(gamma) * flipped).reshape(-1)


def apply_pairwise_xx(
    reg: QubitRegister,
    table: PhaseShiftTable,
    nn_only: bool = False,
    periodic: bool = True,
) -> QubitRegister:
    """Apply exp(i Gamma_ab X_a X_b) over site pairs; returns a new register.

    With nn_only, only nearest-neighbor pairs (periodic wrap optional) are
    applied; otherwise every unordered pair of distinct sites, with Gamma
    taken from the table at the pair's canonical separation.  The table's
    separations are periodic on the patch, so the all-pairs form needs
    periodic boundaries: an open patch would alias distant pairs onto
    nearby separations.
    """
    if table.config.M != reg.M or table.config.N != reg.N:
        raise ValueError("phase table dimensions do not match register")
    if not nn_only and not periodic:
        raise ValueError("all-pairs evolution needs periodic boundaries")
    out = reg.copy()
    if nn_only:
        pairs = grid_edges(reg.M, reg.N, periodic)
    else:
        sites = [(m, n) for m in range(reg.M) for n in range(reg.N)]
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1 :]]
    for a, b in pairs:
        gamma = table.gamma(b[0] - a[0], b[1] - a[1])
        _apply_xx(out, a, b, gamma)
    return out


def _apply_cz(reg: QubitRegister, a: tuple[int, int], b: tuple[int, int]) -> None:
    t = reg.view()
    idx: list[object] = [slice(None)] * reg.n_qubits
    idx[reg.site_axis(a)] = 1
    idx[reg.site_axis(b)] = 1
    t[tuple(idx)] *= -1.0


def reference_cluster(M: int, N: int, periodic: bool = True) -> QubitRegister:
    """Standard graph state on the M x N grid: Hadamard-all, then CZ on edges."""
    nq = M * N
    if nq > MAX_QUBITS:
        raise ValueError(f"{M}x{N} exceeds the {MAX_QUBITS}-qubit cap")
    reg = QubitRegister(M, N, np.full(2**nq, 2.0 ** (-nq / 2.0), dtype=complex))
    for a, b in grid_edges(M, N, periodic):
        _apply_cz(reg, a, b)
    return reg


def _degrees(M: int, N: int, periodic: bool) -> dict[tuple[int, int], int]:
    deg: dict[tuple[int, int], int] = {(m, n): 0 for m in range(M) for n in range(N)}
    for a, b in grid_edges(M, N, periodic):
        deg[a] += 1
        deg[b] += 1
    return deg


def local_correction(reg: QubitRegister, periodic: bool = True) -> QubitRegister:
    """Site-local unitary mapping the XX-generated state onto the graph state.

    Per site: Hadamard, then exp(-i pi/4 deg Z) with deg the vertex degree.
    """
    out = reg.copy()
    for site, d in _degrees(reg.M, reg.N, periodic).items():
        rz = np.diag([np.exp(-0.25j * math.pi * d), np.exp(0.25j * math.pi * d)])
        apply_single_qubit(out, site, rz @ HADAMARD)
    return out


def state_overlap(a: QubitRegister, b: QubitRegister) -> complex:
    if a.M != b.M or a.N != b.N:
        raise ValueError("register dimensions do not match")
    return complex(np.vdot(a.amps, b.amps))


def cluster_fidelity(reg: QubitRegister, M: int, N: int, periodic: bool = True) -> float:
    """|<cluster| C_local |reg>|^2 against the M x N grid graph state."""
    if reg.M != M or reg.N != N:
        raise ValueError("register dimensions do not match")
    corrected = local_correction(reg, periodic)
    ref = reference_cluster(M, N, periodic)
    return abs(state_overlap(ref, corrected)) ** 2


def stabilizer_expectation(reg: QubitRegister, pauli: PauliOperatorString) -> float:
    """<psi| P |psi> for a Pauli string P (real part; residue checked)."""
    if len(pauli.letters) != reg.n_qubits:
        raise ValueError("Pauli string length does not match register")
    work = reg.copy()
    for s, letter in enumerate(pauli.letters):
        if letter != "I":
            apply_single_qubit(work, divmod(s, reg.N), PAULI[letter])
    val = pauli.phase * np.vdot(reg.amps, work.amps)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:g}")
    return float(val.real)


def graph_stabilizer(
    M: int, N: int, site: tuple[int, int], periodic: bool = True
) -> PauliOperatorString:
    """The graph-state stabilizer X_site prod_neighbors Z."""
    letters = ["I"] * (M * N)
    letters[site[0] * N + site[1]] = "X"
    for a, b in grid_edges(M, N, periodic):
        if site in (a, b):
            other = b if a == site else a
            letters[other[0] * N + other[1]] = "Z"
    return PauliOperatorString("".join(letters))


def reduced_single_qubit(reg: QubitRegister, site: tuple[int, int]) -> np.ndarray:
    """Single-site reduced density matrix (partial trace over the rest)."""
    ax = reg.site_axis(site)
    psi = np.moveaxis(reg.view(), ax, 0).reshape(2, -1)
    return psi @ psi.conj().T
