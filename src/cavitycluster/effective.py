"""Cluster states of the effective pairwise coupling, as a real phase polynomial.

The echoed cavity-mediated evolution acts on the qubits alone as
U = exp[i sum_pairs Gamma_ab X_a X_b].  The all-up start is the uniform
superposition of X eigenstates, |up...up> = 2^{-n/2} sum_s |s>_X with
s_a = +-1, and U is diagonal in that basis, so it only attaches the phase
sum_pairs Gamma_ab s_a s_b to each |s>_X.  The local correction is, on every
site, a Hadamard (taking |s_a>_X to the bit x_a with s_a = 1 - 2 x_a)
followed by the z-rotation exp(-i pi/4 deg Z), with deg the site's number
of lattice neighbours, which multiplies each bit by exp(-i pi/4 deg s_a).
(The correction was fixed once by brute force on 2- and 3-qubit
instances; the tests rebuild the dense evolution to check this.)  The
corrected state is therefore exactly

    psi(x) = 2^{-n/2} exp(i Phi(x)),
    Phi(x) = sum_pairs Gamma_ab s_a s_b - (pi/4) sum_a deg_a s_a,

a real quadratic form over bitstrings, with nothing truncated.  The graph
state on the same grid is 2^{-n/2} (-1)^{E(x)}, E(x) = sum_edges x_a x_b,
and Gamma = pi/4 on the edges gives Phi = pi E - (pi/4) |edges|: the
cluster up to a global phase.

Verification works on the deviation polynomial D = Phi - pi E.  With
s = 1 - 2x, pi E = (pi/4) sum_edges s_a s_b - (pi/4) sum_a deg_a s_a +
const, so D has coupling eps = W - (pi/4) A (A the grid adjacency) and
field dh = h + (pi/4) deg, and dh is exactly 0 for every cluster_phase
output.  The fidelity is |mean e^{i D}|^2 over bitstrings.  With dh exactly
0, D(s) = D(-s), so the half with s_0 = +1 holds the whole mean, and fixing
s_0 = +1 turns row 0 of eps into a field on the other n - 1 spins (a nonzero
dh, as for a cluster verified under the other boundary, keeps all n).  That
polynomial is built like Phi up to its last spin, A + s t, and the last spin
is summed in closed form, mean_s e^{i(A + s t)} = e^{i A} cos t: 2^(n-2)
numbers with no field, in another order than the full cube, so the
fidelity's last digit can differ from that sum by a few ulp.  The graph
stabilizer X_a prod_{b~a} Z_b flips bit a and takes the sign s_b of each
neighbour; the flip changes pi E by a phase that those signs cancel, so its
expectation is the mean of exp(2 i s_a (dh_a + sum_b eps_ab s_b)), which
factorizes over the spins (mean e^{i w s} = cos w) into cos(2 dh_a)
prod_b cos(2 eps_ab).  A single site's reduced density matrix has diagonal
exactly 1/2 and coherence <0|rho_a|1> = (1/2) e^{2 i h_a} prod_b cos(2 W_ab),
by the same factorization on Phi.

The grid is one boolean adjacency matrix (grid_adjacency) and the pair
phases one table array, Gamma(dm, dn) = grid[dm % Mt, dn % Nt]; W is one
gather from that array and h_a = -(pi/4) deg_a.  W and h are n x n, so only
the dense arrays of 2^n numbers (Phi at every bitstring, a QubitRegister,
the reference graph state) are capped at MAX_QUBITS.  A dense complex
register is kept only where measurement needs one: MBQC patterns on
patches of a few qubits, built from Phi or as the exact reference state.
A register holds only its live sites, so measuring a site removes its axis.

Conventions: site (m, n) owns tensor axis m*N + n of an amplitude or phase
vector reshaped to [2]*M*N (axis 0 the top bit), and in a register its index
in QubitRegister.sites; bit 0 is |up>, the +1 eigenstate of sigma_z.  Phi is
built over reversed site labels, so site 0 lands on the top bit too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "QubitRegister",
    "apply_single_qubit",
    "grid_adjacency",
    "PhasePolynomial",
    "cluster_phase",
    "phase_register",
    "reference_cluster",
    "ClusterReport",
    "verify_cluster",
]

MAX_QUBITS = 24


def _check_cap(M: int, N: int) -> int:
    if M * N > MAX_QUBITS:
        raise ValueError(f"{M}x{N} exceeds the {MAX_QUBITS}-qubit cap")
    return M * N


@dataclass
class QubitRegister:
    """Dense state vector over the live sites of the M x N grid.

    sites lists the live sites, one tensor axis each in that order; it
    defaults to every site in row-major order.  A measured site leaves it.
    """

    M: int
    N: int
    amps: np.ndarray
    sites: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        _check_cap(self.M, self.N)
        if self.sites is None:
            self.sites = tuple(divmod(k, self.N) for k in range(self.M * self.N))
        self.amps = np.asarray(self.amps, dtype=complex).reshape(2**self.n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.sites)

    def site_axis(self, site: tuple[int, int]) -> int:
        if site not in self.sites:
            raise ValueError(f"site {site} is outside the {self.M}x{self.N} grid or measured")
        return self.sites.index(site)

    def view(self) -> np.ndarray:
        return self.amps.reshape([2] * self.n_qubits)


def apply_single_qubit(reg: QubitRegister, site: tuple[int, int], u: np.ndarray) -> None:
    """Apply a 2x2 operator to one site, in place."""
    ax = reg.site_axis(site)
    reg.amps = (np.asarray(u, dtype=complex) @ reg.amps.reshape(2**ax, 2, -1)).reshape(-1)


def grid_adjacency(M: int, N: int, periodic: bool) -> np.ndarray:
    """Boolean adjacency matrix of the M x N grid graph, indexed by site axis.

    Sites are adjacent at lattice distance 1, measured round the wrap when
    periodic.  The diagonal is False, so a wrap onto the site itself (an
    extent of 1) or onto an existing edge (an extent of 2) adds no edge.
    """
    m, n = np.divmod(np.arange(M * N), N)
    dm, dn = np.abs(m[:, None] - m), np.abs(n[:, None] - n)
    if periodic:
        dm, dn = np.minimum(dm, M - dm), np.minimum(dn, N - dn)
    return dm + dn == 1


def _both_set(nq: int, i: int, j: int) -> tuple:
    """Index of the bitstrings with bits i and j both 1, in a [2]*nq tensor."""
    idx: list[object] = [slice(None)] * nq
    idx[i] = idx[j] = 1
    return tuple(idx)


def _double(buf: np.ndarray, size: int, term: np.ndarray | float) -> None:
    """In place, buf[:2 size] = buf[:size] + s_j term over spins 0..j; s_j = -1 fills the top."""
    np.subtract(buf[:size], term, out=buf[size : 2 * size])
    np.add(buf[:size], term, out=buf[:size])


@dataclass(frozen=True)
class PhasePolynomial:
    """Phi(s) = sum_{a<b} W_ab s_a s_b + sum_a h_a s_a on the M x N grid.

    coupling is the symmetric W with zero diagonal and field is h, both
    indexed by site axis m*N + n.
    """

    M: int
    N: int
    coupling: np.ndarray
    field: np.ndarray

    def __post_init__(self) -> None:
        nq = self.M * self.N
        if self.coupling.shape != (nq, nq) or self.field.shape != (nq,):
            raise ValueError(f"coefficients do not match the {self.M}x{self.N} grid")

    def values(self) -> np.ndarray:
        """Phi at every bitstring, indexed like QubitRegister.amps.

        Spin by spin: Phi over spins 0..j is Phi over 0..j-1 plus s_j (h_j +
        sum_{i<j} W_ij s_i), with that linear form built the same way, so the
        cost is a few passes over 2^(M*N) numbers whatever the number of pairs.
        """
        _check_cap(self.M, self.N)
        # the build puts spin j on bit j; over reversed labels spin j is site
        # n-1-j, so site 0 is the top bit, with the terms summed from site n-1 down
        phi, last = _halves(self.coupling[::-1, ::-1], self.field[::-1])
        _double(phi, last.size, last)
        return phi


def _halves(coupling: np.ndarray, field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(buf, t): buf[:t.size] holds the polynomial over every spin but the last, t
    that spin's linear form, both with spin j at bit j; buf[t.size:] is spare."""
    term = np.zeros(2 ** max(field.size - 1, 0))
    buf = np.zeros(2 * term.size)
    for j in range(field.size):
        term[0] = field[j]
        for i, w in enumerate(coupling[j, :j]):
            _double(term, 2**i, w)
        if j < field.size - 1:
            _double(buf, 2**j, term[: 2**j])
    return buf, term


def cluster_phase(
    M: int,
    N: int,
    gamma_grid: np.ndarray,
    nn_only: bool = True,
    periodic: bool = True,
) -> PhasePolynomial:
    """Phi of the XX evolution from |up...up> followed by the local correction.

    gamma_grid is a pair-phase table, Gamma(dm, dn) = gamma_grid[dm % Mt,
    dn % Nt], e.g. PhaseShiftTable.grid.  With nn_only only grid edges couple;
    otherwise every pair does.  Each pair a < b reads Gamma(b - a), mirrored
    into W.  No separation may alias: a periodic patch needs a table of its
    own shape, and an open patch may read no separation past half the table.
    """
    Mt, Nt = gamma_grid.shape
    if periodic and (Mt, Nt) != (M, N):
        raise ValueError(f"a periodic {M}x{N} patch needs a {M}x{N} table, got {Mt}x{Nt}")
    m, n = np.divmod(np.arange(M * N), N)
    dm, dn = m - m[:, None], n - n[:, None]
    adjacency = grid_adjacency(M, N, periodic)
    pairs = np.triu(adjacency if nn_only else np.ones_like(adjacency), 1)
    if not periodic and (np.any(2 * abs(dm[pairs]) > Mt) or np.any(2 * abs(dn[pairs]) > Nt)):
        raise ValueError(
            f"an open {M}x{N} patch reads separations that wrap round the {Mt}x{Nt} table; "
            "use periodic boundaries or a larger table"
        )
    upper = np.where(pairs, gamma_grid[dm % Mt, dn % Nt], 0.0)
    field = -(math.pi / 4) * adjacency.sum(axis=1)
    return PhasePolynomial(M, N, upper + upper.T, field)


def phase_register(phi: PhasePolynomial) -> QubitRegister:
    """The dense state 2^{-n/2} exp(i Phi(x)), for measurement patterns."""
    nq = phi.M * phi.N
    return QubitRegister(phi.M, phi.N, 2.0 ** (-nq / 2.0) * np.exp(1j * phi.values()))


def reference_cluster(M: int, N: int, periodic: bool = True) -> QubitRegister:
    """Standard graph state on the M x N grid, exactly 2^{-n/2} (-1)^{E(x)}."""
    nq = _check_cap(M, N)
    amps = np.full([2] * nq, 2.0 ** (-nq / 2.0), dtype=complex)
    for i, j in zip(*np.nonzero(np.triu(grid_adjacency(M, N, periodic)))):
        amps[_both_set(nq, i, j)] *= -1.0
    return QubitRegister(M, N, amps)


@dataclass(frozen=True)
class ClusterReport:
    """Fidelity with the grid graph state and per-site checks, shape (M, N).

    stabilizers holds <X_a prod_{b~a} Z_b>; coherences holds <0|rho_a|1>,
    whose reduced density matrix has diagonal exactly 1/2.
    """

    fidelity: float
    stabilizers: np.ndarray
    coherences: np.ndarray


def verify_cluster(phi: PhasePolynomial, periodic: bool = True) -> ClusterReport:
    """Check the state 2^{-n/2} exp(i Phi) against the M x N grid graph state."""
    M, N = phi.M, phi.N
    adjacency = grid_adjacency(M, N, periodic)
    # Phi - pi E, constant dropped: coupling W - (pi/4) A, field h + (pi/4) deg,
    # so the field is exactly 0 for cluster_phase's h = -(pi/4) deg
    coupling = phi.coupling - (math.pi / 4) * adjacency
    dev = PhasePolynomial(M, N, coupling, phi.field + (math.pi / 4) * adjacency.sum(axis=1))
    _check_cap(M, N)
    # with no field D(s) = D(-s), so the s_0 = +1 half holds the whole mean;
    # fixing s_0 = +1 turns row 0 of the coupling into a field on the rest
    spins = (coupling, dev.field) if dev.field.any() else (coupling[1:, 1:], coupling[0, 1:])
    buf, term = _halves(*spins)
    # the last spin in closed form: mean_s e^{i(A + s t)} = e^{i A} cos t
    values, sines = np.split(buf, 2)
    np.sin(values, out=sines)
    weight = np.cos(term, out=term)
    real = np.multiply(np.cos(values, out=values), weight, out=values).mean()
    imag = np.multiply(sines, weight, out=sines).mean()
    fidelity = float(real) ** 2 + float(imag) ** 2
    # an entry of 0 (a site's own, or an uncoupled pair) contributes cos 0 = 1
    stabilizers = np.cos(2.0 * dev.field) * np.prod(np.cos(2.0 * dev.coupling), axis=1)
    coherences = 0.5 * np.exp(2j * phi.field) * np.prod(np.cos(2.0 * phi.coupling), axis=1)
    return ClusterReport(fidelity, stabilizers.reshape(M, N), coherences.reshape(M, N))
