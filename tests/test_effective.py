import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitycluster import effective
from cavitycluster.lattice import LatticeConfig
from cavitycluster.geomphase import build_phase_table, solve_gate_time
from cavitycluster.effective import (
    PhasePolynomial,
    cluster_phase,
    grid_adjacency,
    phase_register,
    reference_cluster,
    verify_cluster,
)
from cavitycluster.mbqc import MeasurementPattern, MeasurementStep, run_pattern

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def on_sites(nq, ops):
    """Dense Kronecker product of single-site operators, identity elsewhere."""
    return functools.reduce(np.kron, [ops.get(k, I2) for k in range(nq)])


def grid_edges(M, N, periodic):
    """Distinct nearest-neighbour pairs (a, b), b one step on from a, wrapped
    when periodic; a wrap onto a or onto an earlier pair adds nothing."""
    seen, out = set(), []
    for m in range(M):
        for n in range(N):
            for mm, nn in ((m + 1, n), (m, n + 1)):
                if periodic:
                    mm, nn = mm % M, nn % N
                pair = frozenset({(m, n), (mm, nn)})
                if mm < M and nn < N and len(pair) == 2 and pair not in seen:
                    seen.add(pair)
                    out.append(((m, n), (mm, nn)))
    return out


def dense_cluster(M, N, gamma, nn_only, periodic):
    """The dense pipeline, rebuilt: exp(i Gamma_ab X_a X_b) over the pairs
    from |up...up>, then on each site H followed by Rz(deg) =
    diag(e^{-i pi deg/4}, e^{i pi deg/4})."""
    nq = M * N
    psi = np.zeros(2**nq, dtype=complex)
    psi[0] = 1.0
    sites = [(m, n) for m in range(M) for n in range(N)]
    pairs = grid_edges(M, N, periodic) if nn_only else itertools.combinations(sites, 2)
    for a, b in pairs:
        xx = on_sites(nq, {a[0] * N + a[1]: X, b[0] * N + b[1]: X})
        g = gamma(b[0] - a[0], b[1] - a[1])
        psi = math.cos(g) * psi + 1j * math.sin(g) * (xx @ psi)
    deg = [0] * nq
    for a, b in grid_edges(M, N, periodic):
        deg[a[0] * N + a[1]] += 1
        deg[b[0] * N + b[1]] += 1
    rz = {k: np.diag([np.exp(-0.25j * math.pi * d), np.exp(0.25j * math.pi * d)]) @ H
          for k, d in enumerate(deg)}
    return on_sites(nq, rz) @ psi


def neighbours(M, N, periodic, a):
    site = divmod(a, N)
    edges = [e for e in grid_edges(M, N, periodic) if site in e]
    return {b[0] * N + b[1] for e in edges for b in e if b != site}


def rho(coherence):
    return np.array([[0.5, coherence], [np.conj(coherence), 0.5]])


class TestProductState:
    def test_single_site(self):
        # no neighbours, no pairs: the correction is a bare Hadamard on |up>
        reg = phase_register(cluster_phase(1, 1, np.full((1, 1), 0.3), nn_only=True))
        assert np.allclose(reg.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_two_sites_up(self):
        # without coupling the corrected state is a product of site states
        reg = phase_register(cluster_phase(2, 1, np.full((2, 1), 0.0), nn_only=True, periodic=False))
        assert np.linalg.matrix_rank(reg.amps.reshape(2, 2), tol=1e-12) == 1

    def test_up_down_orthogonal(self):
        # Phi = 0 is |+>|+>; adding pi x_0 (Phi = -pi/2 s_0 up to a constant) is |->|+>
        no_pairs = np.zeros((2, 2))
        up = phase_register(PhasePolynomial(2, 1, no_pairs, np.zeros(2)))
        down = phase_register(PhasePolynomial(2, 1, no_pairs, np.array([-math.pi / 2, 0.0])))
        assert abs(np.vdot(up.amps, down.amps)) < 1e-15

    def test_cap(self):
        # W and h are n x n, so the 19x19 all-pairs Phi builds; only its dense
        # 2^n state is capped
        table = build_phase_table(LatticeConfig(M=19, N=19, J=0.1), 2.0)
        phi = cluster_phase(19, 19, table.grid, nn_only=False)
        assert phi.coupling.shape == (361, 361)
        with pytest.raises(ValueError, match="24-qubit cap"):
            phase_register(phi)


def interleaved_values(coupling, field):
    """Phi bit by bit as it was first built: each spin j is appended as the
    least significant bit of a fresh array, Phi +- s_j (h_j + sum_{i<j} W_ij s_i),
    with the linear form built the same way."""

    def add_bit(values, term):
        out = np.empty((values.size, 2))
        np.add(values, term, out=out[:, 0])
        np.subtract(values, term, out=out[:, 1])
        return out.reshape(-1)

    phi = np.zeros(1)
    for j in range(field.size):
        term = np.full(1, field[j])
        for w in coupling[j, :j]:
            term = add_bit(term, w)
        phi = add_bit(phi, term)
    return phi


def reversed_interleaved_values(coupling, field):
    """interleaved_values over the reversed site labels, its bits reversed
    back so that site 0 is the top bit: Phi's terms summed from site n-1
    down, as values() sums them.  values() must match it bitwise."""
    nq = field.size
    phi = interleaved_values(coupling[::-1, ::-1], field[::-1])
    return phi.reshape([2] * nq).transpose(tuple(range(nq))[::-1]).reshape(-1)


class TestPhaseValues:
    @pytest.mark.parametrize("nq", range(1, 13))
    def test_bits_match_interleaved_build(self, nq):
        # coefficients of mixed scale, some exactly +-0.0, so rounding and the
        # sign of zero both show if the order of operations changes
        rng = np.random.default_rng(100 + nq)
        w = np.triu(rng.uniform(-2, 2, (nq, nq)) * 10.0 ** rng.integers(-8, 3, (nq, nq)), 1)
        w[rng.random((nq, nq)) < 0.2] = 0.0
        w[np.triu(rng.random((nq, nq)) < 0.2, 1)] = -0.0
        w = w + w.T
        field = rng.uniform(-3, 3, nq)
        field[rng.random(nq) < 0.3] = rng.choice([0.0, -0.0])
        want = reversed_interleaved_values(w, field)
        for M, N in {(1, nq), (nq, 1)}:
            got = PhasePolynomial(M, N, w, field).values()
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bits_match_on_benchmark_cluster(self):
        # the open nearest-neighbour 4x4 patch at its gate time, as the cluster
        # snapshot writes it
        cfg = LatticeConfig(M=4, N=4, J=0.1, delta=0.0)
        table = build_phase_table(cfg, solve_gate_time(cfg))
        phi = cluster_phase(4, 4, table.grid, nn_only=True, periodic=False)
        want = reversed_interleaved_values(phi.coupling, phi.field)
        assert np.array_equal(phi.values().view(np.uint64), want.view(np.uint64))

    def test_peak_memory(self):
        # the result and the last spin's half-size linear form, with no
        # reordering copy of the result on top
        nq = 18
        rng = np.random.default_rng(7)
        w = np.triu(rng.uniform(-1, 1, (nq, nq)), 1)
        phi = PhasePolynomial(3, 6, w + w.T, rng.uniform(-1, 1, nq))
        tracemalloc.start()
        try:
            phi.values()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 8 * 2**nq

    def test_register_peak_memory(self):
        # one complex array at a time: Phi (half its size) and the register it
        # becomes, not a second complex copy for exp or the scale
        nq = 18
        rng = np.random.default_rng(7)
        w = np.triu(rng.uniform(-1, 1, (nq, nq)), 1)
        phi = PhasePolynomial(3, 6, w + w.T, rng.uniform(-1, 1, nq))
        tracemalloc.start()
        try:
            phase_register(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 16 * 2**nq


class TestDenseEquivalence:
    @pytest.mark.parametrize(
        "M,N,nn_only,periodic", [(2, 3, True, False), (3, 3, True, True), (2, 3, False, True)]
    )
    def test_phase_polynomial_matches_dense_evolution(self, M, N, nn_only, periodic):
        # off resonance every separation carries a nonzero phase, so each pair counts
        table = build_phase_table(LatticeConfig(M=M, N=N, J=0.1, delta=0.7), 2.0)
        assert np.min(np.abs(table.grid.ravel()[1:])) > 1e-3
        dense = dense_cluster(M, N, table.gamma, nn_only, periodic)
        amps = phase_register(cluster_phase(M, N, table.grid, nn_only, periodic)).amps
        assert np.max(np.abs(amps - dense)) < 1e-12


class TestPairwiseXX:
    def test_zero_phase_identity(self):
        # Gamma = 0 leaves only the local correction: Phi = -(pi/4) sum deg s
        phi = cluster_phase(2, 2, np.full((2, 2), 0.0), nn_only=True)
        assert not phi.coupling.any()
        assert np.allclose(phi.field, -math.pi / 4 * 2)

    def test_half_pi_single_pair(self):
        # exp(i pi/2 XX)|uu> = i|dd>, then H and Rz(1) on both sites
        phi = cluster_phase(1, 2, np.full((1, 2), math.pi / 2), nn_only=True, periodic=False)
        dense = dense_cluster(1, 2, lambda dm, dn: math.pi / 2, True, False)
        assert np.allclose(phase_register(phi).amps, dense, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PhasePolynomial(2, 2, np.zeros((6, 6)), np.zeros(4))

    def test_2x2_quarter_pi_maximally_mixed_sites(self):
        report = verify_cluster(2, 2, np.full((2, 2), math.pi / 4), nn_only=True)
        for c in report.coherences.ravel():
            assert np.allclose(rho(c), np.eye(2) / 2, atol=1e-10)

    @given(
        gammas=st.lists(
            st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=40)
    def test_unitarity(self, gammas):
        # on 2x2 the separations (1, 1) and (1, -1) are one cell of the table
        grid = np.array([[0.0, gammas[0]], [gammas[1], gammas[2]]])
        phi = cluster_phase(2, 2, grid, nn_only=False)
        assert np.linalg.norm(phase_register(phi).amps) == pytest.approx(1.0, abs=1e-10)


class TestReferenceCluster:
    def test_1x2_definition(self):
        reg = reference_cluster(1, 2, periodic=False)
        # CZ|++> = (|00>+|01>+|10>-|11>)/2, exactly and with no imaginary part
        assert np.array_equal(reg.amps, np.array([1, 1, 1, -1]) / 2.0)

    @pytest.mark.parametrize("M,N,periodic", [(2, 2, True), (2, 3, False), (3, 3, True)])
    def test_stabilizers(self, M, N, periodic):
        # exact magnitudes, and every graph stabilizer is +1 on the dense state
        amps = reference_cluster(M, N, periodic).amps
        assert np.array_equal(np.abs(amps), np.full(2 ** (M * N), 2.0 ** (-M * N / 2)))
        for a in range(M * N):
            op = on_sites(M * N, {a: X, **{b: Z for b in neighbours(M, N, periodic, a)}})
            assert np.vdot(amps, op @ amps).real == pytest.approx(1.0, abs=1e-10)

    def test_periodic_vs_open_differ(self):
        # note: on 2x2 the periodic wrap edges coincide with the open
        # edges after deduplication, so the smallest lattice where the
        # boundary condition matters is one with an extent of 3
        per = reference_cluster(3, 3, periodic=True)
        opn = reference_cluster(3, 3, periodic=False)
        assert abs(np.vdot(per.amps, opn.amps)) ** 2 < 1.0 - 1e-6
        assert np.allclose(
            reference_cluster(2, 2, True).amps, reference_cluster(2, 2, False).amps
        )

    def test_grid_adjacency_no_duplicates(self):
        # 2x2 periodic wrap duplicates collapse to the 4 distinct edges, and a
        # wrap onto the site itself (an extent of 1) adds none
        for (M, N, periodic), count in {
            (2, 2, True): 4, (3, 3, True): 18, (3, 3, False): 12, (1, 5, True): 5, (1, 1, True): 0
        }.items():
            adj = grid_adjacency(M, N, periodic)
            assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
            assert np.count_nonzero(np.triu(adj)) == count
            want = np.zeros_like(adj)
            for a, b in grid_edges(M, N, periodic):
                i, j = a[0] * N + a[1], b[0] * N + b[1]
                want[i, j] = want[j, i] = True
            assert np.array_equal(adj, want)


HALF_CUBE_CASES = [(1, 1, True, True), (1, 2, True, False), (2, 1, True, False),
                   (2, 3, True, False), (3, 3, False, True), (4, 4, True, False)]


class TestClusterFidelity:
    def test_1x2_generated(self):
        report = verify_cluster(1, 2, np.full((1, 2), math.pi / 4), nn_only=True, periodic=False)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_gamma_zero_product_state(self):
        fid = verify_cluster(2, 2, np.full((2, 2), 0.0), nn_only=True).fidelity
        assert fid < 1.0

    def test_self_fidelity(self):
        # Gamma = pi/4 on the edges gives the graph state up to a global phase
        phi = cluster_phase(3, 3, np.full((3, 3), math.pi / 4), nn_only=True, periodic=False)
        amps = phase_register(phi).amps
        ref = reference_cluster(3, 3, periodic=False).amps
        assert abs(np.vdot(ref, amps)) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("M,N", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_quarter_pi_nn_only_all_sizes(self, M, N):
        fid = verify_cluster(M, N, np.full((M, N), math.pi / 4), nn_only=True).fidelity
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_full_table_deficit_positive(self):
        cfg = LatticeConfig(M=4, N=4, J=0.1, delta=0.0)
        tau = solve_gate_time(cfg)
        table = build_phase_table(cfg, tau)
        fid = verify_cluster(4, 4, table.grid, nn_only=False).fidelity
        assert 0.0 < fid < 1.0
        assert 1.0 - fid > 1e-6  # distant-pair phases leave a real deficit

    @staticmethod
    def full_cube_fidelity(eps):
        """|mean e^{i D}|^2, D = sum_{a<b} eps_ab s_a s_b evaluated from s at all 2^n bitstrings."""
        nq = len(eps)
        s = 1 - 2 * ((np.arange(2**nq)[:, None] >> np.arange(nq)) & 1)
        d = 0.5 * np.einsum("ka,ab,kb->k", s, eps, s)
        return abs(np.exp(1j * d).mean()) ** 2

    @pytest.mark.parametrize("M,N,nn_only,periodic", HALF_CUBE_CASES)
    def test_half_cube_matches_full_cube(self, M, N, nn_only, periodic):
        # the fidelity is taken over the s_0 = +1 half, whose spins past the block
        # are summed in closed form (1x1 leaves no spin, 1x2 and 2x1 one); Gamma
        # near pi/4 keeps it far from 0
        rng = np.random.default_rng(M * N)
        grid = math.pi / 4 + rng.uniform(-0.3, 0.3, (M, N))
        phi = cluster_phase(M, N, grid, nn_only, periodic)
        eps = phi.coupling - (math.pi / 4) * grid_adjacency(M, N, periodic)
        want = self.full_cube_fidelity(eps)
        assert effective._fidelity(eps) == pytest.approx(want, abs=1e-15)
        assert verify_cluster(M, N, grid, nn_only, periodic).fidelity == effective._fidelity(eps)

    def test_half_cube_random_coupling(self):
        # any symmetric coupling with zero diagonal, not only a generated cluster's
        M, N = 3, 4
        rng = np.random.default_rng(12)
        w = np.triu(rng.uniform(-1.5, 1.5, (M * N, M * N)), 1)
        eps = w + w.T - (math.pi / 4) * grid_adjacency(M, N, True)
        want = self.full_cube_fidelity(eps)
        assert want > 1e-4
        assert effective._fidelity(eps) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("nn_only,periodic", [(True, True), (False, True), (True, False),
                                                  (False, False)])
    def test_generated_deviation_has_no_field(self, nn_only, periodic):
        # cluster_phase's field -(pi/4) deg cancels the linear term of pi E exactly,
        # on any table: so D = Phi - pi E is eps alone, the stabilizers are the bare
        # product of cos 2 eps and the exact sum may fix s_0
        M, N = 3, 4
        rng = np.random.default_rng(34)
        grid = rng.uniform(-1.5, 1.5, (M, N) if periodic else (2 * M, 2 * N))
        phi = cluster_phase(M, N, grid, nn_only, periodic)
        adjacency = grid_adjacency(M, N, periodic)
        assert not (phi.field + (math.pi / 4) * adjacency.sum(axis=1)).any()
        eps = phi.coupling - (math.pi / 4) * adjacency
        report = verify_cluster(M, N, grid, nn_only, periodic)
        assert np.array_equal(report.stabilizers.ravel(), np.prod(np.cos(2.0 * eps), axis=1))
        assert report.fidelity == effective._fidelity(eps)

    @pytest.mark.parametrize("block", [0, 1, 2, 3])
    def test_every_block_size_matches_full_cube(self, block, monkeypatch):
        # with a block of a few spins the small lattices take every path: no spin
        # past the block, one (the closed last spin) and many, with e^{iQ} and the
        # pattern mean
        monkeypatch.setattr(effective, "_BLOCK_SPINS", block)
        for case in HALF_CUBE_CASES:
            self.test_half_cube_matches_full_cube(*case)
        self.test_half_cube_random_coupling()

    @pytest.mark.parametrize("M,N,bound", [(4, 5, 1 << 20), (4, 6, 2 << 20)])
    def test_peak_memory(self, M, N, bound):
        # the block's arrays of 2^13 numbers, one per spin past it plus four,
        # not arrays of 2^(n-2)
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=0.0)
        grid = build_phase_table(cfg, solve_gate_time(cfg)).grid
        tracemalloc.start()
        try:
            verify_cluster(M, N, grid, nn_only=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{peak / 2**20:.2f} MiB"

    def test_full_table_open_boundary_rejected(self):
        # the table's separations are periodic on the patch: on an open 3x3
        # patch the all-pairs form would alias distant pairs onto them
        cfg = LatticeConfig(M=3, N=3, J=0.1, delta=0.0)
        table = build_phase_table(cfg, 1.0)
        with pytest.raises(ValueError, match="periodic"):
            cluster_phase(3, 3, table.grid, nn_only=False, periodic=False)

    def test_exact_sum_cap(self):
        # the exact fidelity sum holds no dense array, so its own cap, 30 qubits, is
        # set by its time; 5x7 is refused before any sign pattern is summed
        table = build_phase_table(LatticeConfig(M=5, N=7, J=0.1), 2.0)
        with pytest.raises(ValueError, match="5x7 exceeds the 30-qubit cap"):
            verify_cluster(5, 7, table.grid, nn_only=False)

    def test_cap_refused_before_any_array(self):
        # on 101x101 the pair gather alone would hold n x n index arrays of
        # 10201^2 int64 (830 MB each); the cap is checked before any is built
        grid = np.full((101, 101), math.pi / 4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="101x101 exceeds the 30-qubit cap"):
                verify_cluster(101, 101, grid, nn_only=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak / 2**20:.2f} MiB"


class TestGather:
    @pytest.mark.parametrize(
        "M,N,nn_only,periodic",
        [
            (2, 3, True, True), (2, 3, False, True), (2, 3, True, False),
            (3, 3, True, True), (3, 3, False, True), (3, 3, True, False),
            (4, 5, True, True), (4, 5, False, True), (4, 5, True, False),
            (4, 6, True, True), (4, 6, False, True), (4, 6, True, False),
        ],
    )
    def test_coupling_reads_table_cells_exactly(self, M, N, nn_only, periodic):
        # every pair a < b holds Gamma(b - a) in both W[a, b] and W[b, a]; an
        # unmirrored gather would read Gamma(a - b) below the diagonal, which
        # the FFT makes differ in the last bit on 4x6 with all pairs
        table = build_phase_table(LatticeConfig(M=M, N=N, J=0.1, delta=0.7), 2.0)
        phi = cluster_phase(M, N, table.grid, nn_only, periodic)
        edges = {frozenset(e) for e in grid_edges(M, N, periodic)}
        sites = [(m, n) for m in range(M) for n in range(N)]
        deg = np.zeros(M * N)
        for (i, a), (j, b) in itertools.combinations(enumerate(sites), 2):
            coupled = not nn_only or frozenset({a, b}) in edges
            want = table.gamma(b[0] - a[0], b[1] - a[1]) if coupled else 0.0
            assert phi.coupling[i, j] == want and phi.coupling[j, i] == want
            if frozenset({a, b}) in edges:
                deg[[i, j]] += 1
        assert not phi.coupling.diagonal().any()
        assert np.array_equal(phi.field, -(math.pi / 4) * deg)

    @pytest.mark.parametrize("M,N", [(1, 5), (3, 2)])
    def test_open_patch_reads_big_table(self, M, N):
        # the MBQC patches: every edge carries the 19x19 table's Gamma(1, 0)
        # (along m) or Gamma(0, 1) (along n), and no other pair couples
        cfg = LatticeConfig(M=19, N=19, J=0.1)
        table = build_phase_table(cfg, solve_gate_time(cfg))
        phi = cluster_phase(M, N, table.grid, nn_only=True, periodic=False)
        want = np.zeros((M * N, M * N))
        for a, b in grid_edges(M, N, periodic=False):
            i, j = a[0] * N + a[1], b[0] * N + b[1]
            want[i, j] = want[j, i] = table.gamma(b[0] - a[0], b[1] - a[1])
        assert np.array_equal(phi.coupling, want)
        assert {table.gamma(1, 0), table.gamma(0, 1)} >= set(want[want != 0])

    def test_periodic_patch_needs_its_own_table(self):
        grid = build_phase_table(LatticeConfig(M=4, N=4, J=0.1), 2.0).grid
        with pytest.raises(ValueError, match="periodic 3x3 patch needs a 3x3 table"):
            cluster_phase(3, 3, grid, nn_only=True, periodic=True)

    def test_open_patch_must_fit_inside_the_table(self):
        # all pairs of an open 4x4 patch reach separation 3, past half of 5
        grid = build_phase_table(LatticeConfig(M=5, N=5, J=0.1), 2.0).grid
        with pytest.raises(ValueError, match="wrap round the 5x5 table"):
            cluster_phase(4, 4, grid, nn_only=False, periodic=False)
        assert cluster_phase(3, 3, grid, nn_only=False, periodic=False).coupling.any()


class TestPauliStrings:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PhasePolynomial(2, 2, np.zeros((4, 4)), np.zeros(2))

    @pytest.mark.parametrize("M,N,periodic", [(2, 3, False), (3, 3, True), (1, 1, True)])
    def test_report_matches_dense_paulis(self, M, N, periodic):
        # X_a as a bit flip and Z_b as a sign, evaluated in closed form, against
        # dense Pauli matrices, partial traces and the graph-state overlap, on a
        # random table with every pair coupled (an open patch reads a table of
        # twice its extent, so that no separation wraps)
        nq = M * N
        rng = np.random.default_rng(nq)
        grid = rng.uniform(-1.5, 1.5, (M, N) if periodic else (2 * M, 2 * N))
        amps = phase_register(cluster_phase(M, N, grid, False, periodic)).amps
        report = verify_cluster(M, N, grid, False, periodic)
        ref = reference_cluster(M, N, periodic).amps
        assert report.fidelity == pytest.approx(abs(np.vdot(ref, amps)) ** 2, abs=1e-12)
        for a in range(nq):
            site = divmod(a, N)
            op = on_sites(nq, {a: X, **{b: Z for b in neighbours(M, N, periodic, a)}})
            assert report.stabilizers[site] == pytest.approx(
                np.vdot(amps, op @ amps).real, abs=1e-12
            )
            psi = np.moveaxis(amps.reshape([2] * nq), a, 0).reshape(2, -1)
            assert np.allclose(rho(report.coherences[site]), psi @ psi.conj().T, atol=1e-12)


class TestReducedDensityMatrix:
    def test_product_state(self):
        # Gamma = 0 leaves |+> on every site, which the correction exp(-i pi/4 deg Z)
        # with deg = 2 on the 2x2 torus turns into |->: every site pure, coherence -1/2
        report = verify_cluster(2, 2, np.zeros((2, 2)), nn_only=True)
        assert np.allclose(report.coherences, -0.5)

    def test_cluster_site_maximally_mixed(self):
        report = verify_cluster(2, 3, np.full((2, 3), math.pi / 4), nn_only=True, periodic=False)
        for c in report.coherences.ravel():
            assert np.allclose(rho(c), np.eye(2) / 2, atol=1e-10)

    def test_unentangled_evolution_pure(self):
        report = verify_cluster(2, 2, np.full((2, 2), 0.0), nn_only=True)
        r = rho(report.coherences[0, 0])
        assert np.trace(r @ r).real == pytest.approx(1.0, abs=1e-12)

    def test_site_out_of_range(self):
        reg = phase_register(cluster_phase(2, 2, np.full((2, 2), 0.1), nn_only=True))
        pattern = MeasurementPattern(steps=(MeasurementStep(site=(2, 0), basis="X"),))
        with pytest.raises(ValueError, match="outside the 2x2 grid"):
            run_pattern(reg, pattern)
