import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitycluster.lattice import LatticeConfig
from cavitycluster.geomphase import PhaseShiftTable, build_phase_table, solve_gate_time
from cavitycluster.effective import (
    PauliOperatorString,
    QubitRegister,
    apply_pairwise_xx,
    apply_single_qubit,
    cluster_fidelity,
    graph_stabilizer,
    grid_edges,
    local_correction,
    product_state,
    reduced_single_qubit,
    reference_cluster,
    stabilizer_expectation,
    state_overlap,
)


def uniform_table(M, N, gamma):
    cfg = LatticeConfig(M=M, N=N, J=0.1)
    entries = {}
    for dm in range(-(M // 2), M // 2 + 1):
        for dn in range(-(N // 2), N // 2 + 1):
            if dm % M == 0 and dn % N == 0:
                continue
            entries[(dm, dn)] = gamma
    return PhaseShiftTable(config=cfg, tau=1.0, entries=entries)


class TestProductState:
    def test_single_site(self):
        reg = product_state(1, 1, "up")
        assert np.allclose(reg.amps, [1, 0])

    def test_two_sites_up(self):
        reg = product_state(2, 1, "up")
        assert reg.amps[0] == 1.0 and np.count_nonzero(reg.amps) == 1

    def test_up_down_orthogonal(self):
        up = product_state(2, 2, "up")
        down = product_state(2, 2, "down")
        assert state_overlap(up, down) == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            product_state(5, 5)

    def test_bad_spin(self):
        with pytest.raises(ValueError):
            product_state(2, 2, "sideways")


class TestPairwiseXX:
    def test_zero_phase_identity(self):
        reg = product_state(2, 2)
        out = apply_pairwise_xx(reg, uniform_table(2, 2, 0.0))
        assert np.allclose(out.amps, reg.amps)

    def test_half_pi_single_pair(self):
        # exp(i pi/2 XX)|uu> = i|dd>
        reg = product_state(1, 2)
        table = uniform_table(1, 2, math.pi / 2)
        out = apply_pairwise_xx(reg, table, nn_only=True, periodic=False)
        expected = np.zeros(4, dtype=complex)
        expected[3] = 1j
        assert np.allclose(out.amps, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        reg = product_state(2, 2)
        with pytest.raises(ValueError):
            apply_pairwise_xx(reg, uniform_table(2, 3, 0.1))

    def test_2x2_quarter_pi_maximally_mixed_sites(self):
        reg = product_state(2, 2)
        out = apply_pairwise_xx(reg, uniform_table(2, 2, math.pi / 4), nn_only=True)
        for m in range(2):
            for n in range(2):
                rho = reduced_single_qubit(out, (m, n))
                assert np.allclose(rho, np.eye(2) / 2, atol=1e-10)

    @given(
        gammas=st.lists(
            st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=40)
    def test_unitarity(self, gammas):
        cfg = LatticeConfig(M=2, N=2, J=0.1)
        entries = {
            (0, 1): gammas[0], (1, 0): gammas[1], (1, 1): gammas[2], (0, -1): gammas[0],
            (-1, 0): gammas[1], (-1, -1): gammas[3], (1, -1): gammas[3], (-1, 1): gammas[2],
        }
        table = PhaseShiftTable(config=cfg, tau=1.0, entries=entries)
        out = apply_pairwise_xx(product_state(2, 2), table)
        assert out.norm == pytest.approx(1.0, abs=1e-10)

    def test_pair_order_irrelevant(self):
        # all sigma_x sigma_x factors commute
        from cavitycluster.effective import _apply_xx

        reg1 = product_state(1, 3)
        reg2 = product_state(1, 3)
        pairs = [((0, 0), (0, 1), 0.3), ((0, 1), (0, 2), 0.7), ((0, 0), (0, 2), -0.4)]
        for a, b, g in pairs:
            _apply_xx(reg1, a, b, g)
        for a, b, g in reversed(pairs):
            _apply_xx(reg2, a, b, g)
        assert np.allclose(reg1.amps, reg2.amps, atol=1e-12)


class TestReferenceCluster:
    def test_1x2_definition(self):
        reg = reference_cluster(1, 2, periodic=False)
        # CZ|++> = (|00>+|01>+|10>-|11>)/2
        assert np.allclose(reg.amps, np.array([1, 1, 1, -1]) / 2.0)

    @pytest.mark.parametrize("M,N,periodic", [(2, 2, True), (2, 3, False), (3, 3, True)])
    def test_stabilizers(self, M, N, periodic):
        reg = reference_cluster(M, N, periodic)
        for m in range(M):
            for n in range(N):
                val = stabilizer_expectation(
                    reg, graph_stabilizer(M, N, (m, n), periodic)
                )
                assert val == pytest.approx(1.0, abs=1e-10)

    def test_periodic_vs_open_differ(self):
        # note: on 2x2 the periodic wrap edges coincide with the open
        # edges after deduplication, so the smallest lattice where the
        # boundary condition matters is one with an extent of 3
        per = reference_cluster(3, 3, periodic=True)
        opn = reference_cluster(3, 3, periodic=False)
        assert abs(state_overlap(per, opn)) ** 2 < 1.0 - 1e-6
        assert np.allclose(
            reference_cluster(2, 2, True).amps, reference_cluster(2, 2, False).amps
        )

    def test_grid_edges_no_duplicates(self):
        edges = grid_edges(2, 2, periodic=True)
        # 2x2 periodic wrap duplicates collapse to the 4 distinct edges
        assert len(edges) == 4
        assert len(grid_edges(3, 3, periodic=True)) == 18
        assert len(grid_edges(3, 3, periodic=False)) == 12


class TestClusterFidelity:
    def test_1x2_generated(self):
        reg = product_state(1, 2)
        out = apply_pairwise_xx(reg, uniform_table(1, 2, math.pi / 4), nn_only=True,
                                periodic=False)
        assert cluster_fidelity(out, 1, 2, periodic=False) == pytest.approx(1.0, abs=1e-10)

    def test_gamma_zero_product_state(self):
        reg = product_state(2, 2)
        out = apply_pairwise_xx(reg, uniform_table(2, 2, 0.0))
        fid = cluster_fidelity(out, 2, 2)
        assert fid < 1.0

    def test_self_fidelity(self):
        # undo the local correction on the reference cluster, then verify
        ref = reference_cluster(2, 2)
        inv = local_correction(ref)  # correction is not self-inverse; use overlap
        assert abs(state_overlap(ref, ref)) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("M,N", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_quarter_pi_nn_only_all_sizes(self, M, N):
        out = apply_pairwise_xx(
            product_state(M, N), uniform_table(M, N, math.pi / 4), nn_only=True
        )
        assert cluster_fidelity(out, M, N) == pytest.approx(1.0, abs=1e-10)

    def test_full_table_deficit_positive(self):
        cfg = LatticeConfig(M=4, N=4, J=0.1, delta=0.0)
        tau = solve_gate_time(cfg)
        table = build_phase_table(cfg, tau)
        out = apply_pairwise_xx(product_state(4, 4), table, nn_only=False)
        fid = cluster_fidelity(out, 4, 4)
        assert 0.0 < fid < 1.0
        assert 1.0 - fid > 1e-6  # distant-pair phases leave a real deficit


    def test_full_table_open_boundary_rejected(self):
        # the table's separations are periodic on the patch: on an open 3x3
        # patch the all-pairs form would alias distant pairs onto them
        cfg = LatticeConfig(M=3, N=3, J=0.1, delta=0.0)
        table = build_phase_table(cfg, 1.0)
        with pytest.raises(ValueError, match="periodic"):
            apply_pairwise_xx(product_state(3, 3), table, nn_only=False, periodic=False)


class TestPauliStrings:
    def test_all_identity(self):
        reg = reference_cluster(2, 2)
        assert stabilizer_expectation(reg, PauliOperatorString("IIII")) == pytest.approx(1.0)

    def test_z_on_up(self):
        reg = product_state(2, 1)
        assert stabilizer_expectation(reg, PauliOperatorString("ZI")) == pytest.approx(1.0)

    def test_invalid_letters(self):
        with pytest.raises(ValueError):
            PauliOperatorString("AB")

    def test_invalid_phase(self):
        with pytest.raises(ValueError):
            PauliOperatorString("XX", phase=2.0)

    def test_length_mismatch(self):
        reg = product_state(2, 2)
        with pytest.raises(ValueError):
            stabilizer_expectation(reg, PauliOperatorString("XX"))


class TestReducedDensityMatrix:
    def test_product_state(self):
        rho = reduced_single_qubit(product_state(2, 2), (0, 1))
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_cluster_site_maximally_mixed(self):
        reg = reference_cluster(2, 3, periodic=False)
        for m in range(2):
            for n in range(3):
                assert np.allclose(
                    reduced_single_qubit(reg, (m, n)), np.eye(2) / 2, atol=1e-10
                )

    def test_unentangled_evolution_pure(self):
        out = apply_pairwise_xx(product_state(2, 2), uniform_table(2, 2, 0.0))
        rho = reduced_single_qubit(out, (0, 0))
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            reduced_single_qubit(product_state(2, 2), (2, 0))


class TestApplySingleQubit:
    def test_x_flips(self):
        reg = product_state(1, 2)
        apply_single_qubit(reg, (0, 1), np.array([[0, 1], [1, 0]]))
        assert reg.amps[1] == 1.0
