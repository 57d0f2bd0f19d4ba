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
s_0 = +1 turns row 0 of eps into a field on the other n' = n - 1 spins (a
nonzero dh, as for a cluster verified under the other boundary, keeps all
n' = n).  A block of the first m <= 13 of them is held as arrays of 2^m
numbers: its polynomial P, built like Phi, and for each of the k = n' - m
spins b past it the linear form t_b, b's field plus its coupling to the
block.  Then D = P + s.t + Q, with Q(s) = sum_{a<b} eps_ab s_a s_b over the
k spins, and Q(s) = Q(-s) pairs each sign pattern with its negation:

    mean_s e^{i(s.t + Q)} = 2^{1-k} sum_{s_last = +1} e^{i Q(s)} cos(s.t).

So the 2^(k-1) patterns are summed one at a time, each through cos(s.t) at
the 2^m block points (k = 1, Q = 0, is the closed last spin e^{i P} cos t),
and no array is longer than 2^13 numbers: 2^(n'-1) + 2^(m+1) cosines and
sines in all.  Each pattern's sum has a fixed order and the pattern sums
are added exactly (math.fsum): the fidelity is the same bits on every run,
though its last digit can differ from the full-cube sum by a few ulp.

The graph stabilizer X_a prod_{b~a} Z_b flips bit a and takes the sign s_b
of each neighbour; the flip changes pi E by a phase that those signs cancel,
so its expectation is the mean of exp(2 i s_a (dh_a + sum_b eps_ab s_b)),
which factorizes over the spins (mean e^{i w s} = cos w) into cos(2 dh_a)
prod_b cos(2 eps_ab).  A single site's reduced density matrix has diagonal
exactly 1/2 and coherence <0|rho_a|1> = (1/2) e^{2 i h_a} prod_b cos(2 W_ab),
by the same factorization on Phi.

The grid is one boolean adjacency matrix (grid_adjacency) and the pair
phases one table array, Gamma(dm, dn) = grid[dm % Mt, dn % Nt]; W is one
gather from that array and h_a = -(pi/4) deg_a.  The arrays of 2^n numbers
(Phi at every bitstring, a QubitRegister, the reference graph state) are
capped at MAX_QUBITS.  verify_cluster's exact sum holds none, so its own
cap, MAX_EXACT_QUBITS, is set by its cost of 2^(n-2) cosines: a few seconds
at 30 qubits.  A dense complex
register is kept only where measurement needs one: MBQC patterns on
patches of a few qubits, built from Phi or as the exact reference state.
A register holds every site of its grid; the pattern walk in mbqc keeps
the live sites of its branches, and measuring a site removes its axis.

Conventions: site (m, n) owns tensor axis m*N + n of an amplitude or phase
vector reshaped to [2]*M*N (axis 0 the top bit); bit 0 is |up>, the +1
eigenstate of sigma_z.  Phi is built over reversed site labels, so site 0
lands on the top bit too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "MAX_EXACT_QUBITS",
    "QubitRegister",
    "grid_adjacency",
    "PhasePolynomial",
    "cluster_phase",
    "phase_register",
    "reference_cluster",
    "ClusterReport",
    "verify_cluster",
]

MAX_QUBITS = 24
# qubits of verify_cluster's exact sum, capped by its time, which doubles per
# qubit: a 5x6 cluster run takes 5-6 s on a 2-vCPU box, at 35 MB peak RSS
MAX_EXACT_QUBITS = 30
# spins that verify_cluster holds as arrays of 2^13 numbers (64 KiB); it sums
# the rest one sign pattern at a time
_BLOCK_SPINS = 13


def _check_cap(M: int, N: int, cap: int = MAX_QUBITS) -> int:
    if M * N > cap:
        raise ValueError(f"{M}x{N} exceeds the {cap}-qubit cap")
    return M * N


@dataclass
class QubitRegister:
    """Dense state vector over the sites of the M x N grid, site (m, n) on axis m*N + n."""

    M: int
    N: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=complex).reshape(2 ** _check_cap(self.M, self.N))


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
        return _polynomial(self.coupling[::-1, ::-1], self.field[::-1])


def _linear(row: np.ndarray, const: float, out: np.ndarray) -> np.ndarray:
    """out[:2^len(row)] = const + sum_i row_i s_i over spins 0..len(row)-1, spin i at bit i."""
    out[0] = const
    for i, w in enumerate(row):
        _double(out, 2**i, w)
    return out[: 2**row.size]


def _polynomial(coupling: np.ndarray, field: np.ndarray) -> np.ndarray:
    """sum_{i<j} W_ij s_i s_j + sum_j h_j s_j at every bitstring, spin j at bit j."""
    buf, term = np.zeros(2**field.size), np.empty(2**field.size // 2)
    for j in range(field.size):
        _double(buf, 2**j, _linear(coupling[j, :j], field[j], term))
    return buf


def cluster_phase(
    M: int,
    N: int,
    gamma_grid: np.ndarray,
    nn_only: bool,
    periodic: bool = True,
) -> PhasePolynomial:
    """Phi of the XX evolution from |up...up> followed by the local correction.

    gamma_grid is a pair-phase table, Gamma(dm, dn) = gamma_grid[dm % Mt,
    dn % Nt], such as PhaseShiftTable.grid.  With nn_only only grid edges couple;
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
    amps = 1j * phi.values()  # the one complex array, exponentiated and scaled in place
    np.exp(amps, out=amps)
    # the scale as first operand keeps the bits of 2^{-n/2} * exp(...): with it second,
    # an imaginary part that underflows to -0.0 comes out +0.0
    np.multiply(2.0 ** (-phi.M * phi.N / 2.0), amps, out=amps)
    return QubitRegister(phi.M, phi.N, amps)


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
    """Check the state 2^{-n/2} exp(i Phi) against the M x N grid graph state; the exact
    sum holds no dense array, so its cap is MAX_EXACT_QUBITS, set by its time."""
    M, N = phi.M, phi.N
    adjacency = grid_adjacency(M, N, periodic)
    # Phi - pi E, constant dropped: coupling W - (pi/4) A, field h + (pi/4) deg,
    # so the field is exactly 0 for cluster_phase's h = -(pi/4) deg
    coupling = phi.coupling - (math.pi / 4) * adjacency
    dev = PhasePolynomial(M, N, coupling, phi.field + (math.pi / 4) * adjacency.sum(axis=1))
    _check_cap(M, N, MAX_EXACT_QUBITS)
    # with no field D(s) = D(-s), so the s_0 = +1 half holds the whole mean;
    # fixing s_0 = +1 turns row 0 of the coupling into a field on the rest
    w, h = (coupling, dev.field) if dev.field.any() else (coupling[1:, 1:], coupling[0, 1:])
    # the block's polynomial P and each later spin b's linear form t_b over it;
    # at least one spin is left past the block, whose cos t costs half the
    # transcendentals that holding it would
    m = min(max(h.size - 1, 0), _BLOCK_SPINS)
    values = _polynomial(w[:m, :m], h[:m])
    sines, cosines = np.sin(values), np.cos(values, out=values)
    forms = [_linear(w[b, :m], h[b], np.empty(2**m)) for b in range(m, h.size)]
    # Q over the spins past the block at the patterns p with the last spin +1;
    # each adds e^{iQ} sum_x e^{iP} cos(s.t) (bit j of p set: s_j = -1)
    qs = _polynomial(w[m:, m:], np.zeros(len(forms)))[: max(2 ** len(forms) // 2, 1)]
    weight, product = np.empty(2**m), np.empty(2**m)
    reals, imags = [], []
    for p, q in enumerate(qs.tolist()):
        weight.fill(0.0)
        for j, form in enumerate(forms):
            (np.subtract if p >> j & 1 else np.add)(weight, form, out=weight)
        np.cos(weight, out=weight)
        c, s = (np.multiply(x, weight, out=product).sum() for x in (cosines, sines))
        reals.append(math.cos(q) * c - math.sin(q) * s)
        imags.append(math.sin(q) * c + math.cos(q) * s)
    # the mean over the block points and the patterns, a power of 2
    fidelity = (math.fsum(reals) ** 2 + math.fsum(imags) ** 2) / (2**m * qs.size) ** 2
    # an entry of 0 (a site's own, or an uncoupled pair) contributes cos 0 = 1
    stabilizers = np.cos(2.0 * dev.field) * np.prod(np.cos(2.0 * dev.coupling), axis=1)
    coherences = 0.5 * np.exp(2j * phi.field) * np.prod(np.cos(2.0 * phi.coupling), axis=1)
    return ClusterReport(fidelity, stabilizers.reshape(M, N), coherences.reshape(M, N))
