import itertools
import math
import re

import numpy as np
import pytest

from cavitycluster.effective import QubitRegister, reference_cluster
from cavitycluster.mbqc import (
    ByproductRule,
    MeasurementPattern,
    MeasurementStep,
    PatternParseError,
    cnot_pattern,
    format_pattern,
    measure_qubit,
    parse_pattern,
    run_pattern,
    wire_rotation_pattern,
)

PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def Rz(t):
    return np.diag([1.0, np.exp(1j * t)])


def Rx(t):
    return HADAMARD @ Rz(t) @ HADAMARD


def input_cluster(M, N, inputs):
    """M x N open grid graph state with chosen sites in arbitrary states."""
    full = None
    for m in range(M):
        for n in range(N):
            v = inputs.get((m, n), PLUS)
            full = v if full is None else np.kron(full, v)
    # CZ on every edge is the graph state's sign pattern (-1)^E
    signs = np.sign(reference_cluster(M, N, periodic=False).amps.real)
    return QubitRegister(M, N, full * signs)


def all_up(M, N):
    amps = np.zeros(2 ** (M * N), dtype=complex)
    amps[0] = 1.0
    return QubitRegister(M, N, amps)


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def assert_equal_up_to_phase(got, want, tol=1e-10):
    ov = np.vdot(want, got)
    assert abs(ov) > 1e-12, "states are orthogonal"
    assert np.linalg.norm(got - want * ov / abs(ov)) < tol


def all_branches(cluster, pattern):
    n = len(pattern.steps)
    for branch in range(2**n):
        forced = [(branch >> i) & 1 for i in range(n)]
        try:
            yield run_pattern(cluster, pattern, forced_outcomes=forced)
        except ValueError:
            continue


class TestMeasureQubit:
    def test_plus_in_x_deterministic(self):
        reg = QubitRegister(1, 1, PLUS.copy())
        outcome, _, out = measure_qubit(reg, (0, 0), "X", forced_outcome=None)
        assert outcome == 0

    def test_up_in_x_both_branches(self):
        for forced in (0, 1):
            reg = all_up(1, 1)
            outcome, probability, out = measure_qubit(reg, (0, 0), "X", forced_outcome=forced)
            assert outcome == forced
            assert probability == pytest.approx(0.5, abs=1e-15)
            assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_measurement_rejected(self):
        reg = all_up(1, 2)
        _, _, out = measure_qubit(reg, (0, 0), "Z", forced_outcome=0)
        with pytest.raises(ValueError):
            measure_qubit(out, (0, 0), "X")

    def test_zero_probability_forced_branch_rejected(self):
        reg = all_up(1, 1)  # |up> has no |down> component
        with pytest.raises(ValueError):
            measure_qubit(reg, (0, 0), "Z", forced_outcome=1)

    def test_z_measurement_detaches_site(self):
        # measuring a cluster site in Z leaves the neighbor graph state
        # with a Z byproduct on former neighbors when the outcome is 1
        for forced, want in ((0, PLUS), (1, np.array([1, -1], dtype=complex) / math.sqrt(2))):
            cl = reference_cluster(1, 2, periodic=False)
            _, _, out = measure_qubit(cl, (0, 1), "Z", forced_outcome=forced)
            assert out.sites == ((0, 0),)  # the measured site left the register
            assert_equal_up_to_phase(out.amps, want)


class TestRunPattern:
    def test_empty_pattern(self):
        pat = MeasurementPattern(steps=(), outputs=((0, 0),))
        reg = all_up(1, 1)
        state, record = run_pattern(reg, pat)
        assert record.outcomes == []
        assert np.allclose(state, [1, 0])

    def test_single_teleport_is_hadamard(self):
        # 1x2 cluster with arbitrary input: X-measuring the input site
        # teleports X^s H |psi> onto the neighbor
        rng = np.random.default_rng(3)
        psi = random_state(rng)
        pat = MeasurementPattern(
            steps=(MeasurementStep(site=(0, 0), basis="X"),),
            byproducts=(ByproductRule(site=(0, 1), pauli="X", steps=(0,)),),
            outputs=((0, 1),),
        )
        expected = HADAMARD @ psi
        for state, record in all_branches(input_cluster(1, 2, {(0, 0): psi}), pat):
            assert_equal_up_to_phase(state, expected)

    def test_branch_probabilities_sum_to_one(self):
        pat = wire_rotation_pattern(0.4, -1.1, 0.9)
        total = 0.0
        for _, record in all_branches(reference_cluster(1, 5, periodic=False), pat):
            p = 1.0
            for q in record.probabilities:
                p *= q
            total += p
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_record_probabilities_pinned(self):
        # each recorded probability is the Born weight of the observed branch
        amps = np.array([1, 2j, -1, 0.5, 3, 1 - 1j, 0, 2], dtype=complex)
        pat = MeasurementPattern(
            steps=(
                MeasurementStep(site=(0, 0), basis="EQ", angle=0.4),
                MeasurementStep(site=(0, 1), basis="Z", adapt=(0,)),
            ),
            outputs=((0, 2),),
        )
        reg = QubitRegister(1, 3, amps / np.linalg.norm(amps))
        _, record = run_pattern(reg, pat, forced_outcomes=[1, 0])
        assert record.outcomes == [1, 0]
        assert record.probabilities == pytest.approx(
            [0.44996304454642483, 0.8217956653108509], rel=1e-14
        )

    def test_input_register_unchanged(self):
        # measurement builds smaller registers; the caller's register is not touched
        cluster = reference_cluster(3, 2, periodic=False)
        amps, sites = cluster.amps.copy(), cluster.sites
        first, _ = run_pattern(cluster, cnot_pattern(), forced_outcomes=[1, 1, 1, 1])
        assert np.array_equal(cluster.amps, amps) and cluster.sites == sites
        again, _ = run_pattern(cluster, cnot_pattern(), forced_outcomes=[1, 1, 1, 1])
        assert np.array_equal(again, first)

    def test_trailing_unmeasured_sites_follow_outputs(self):
        # output (0, 2) first, then the unmeasured non-output (0, 1)
        amps = np.arange(1, 9, dtype=complex)
        pat = MeasurementPattern(
            steps=(MeasurementStep(site=(0, 0), basis="Z"),), outputs=((0, 2),)
        )
        state, _ = run_pattern(QubitRegister(1, 3, amps), pat, forced_outcomes=[1])
        want = amps[4:].reshape(2, 2).T.reshape(-1)
        assert np.allclose(state, want / np.linalg.norm(want), atol=1e-15)

    def test_adapt_on_later_step_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPattern(
                steps=(MeasurementStep(site=(0, 0), basis="EQ", angle=0.1, adapt=(0,)),)
            )

    def test_site_measured_twice_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPattern(
                steps=(
                    MeasurementStep(site=(0, 0), basis="X"),
                    MeasurementStep(site=(0, 0), basis="Z"),
                )
            )

    def test_measured_output_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPattern(
                steps=(MeasurementStep(site=(0, 0), basis="X"),), outputs=((0, 0),)
            )


class TestWirePattern:
    @pytest.mark.parametrize(
        "angles", [(0.0, 0.0, 0.0), (0.3, -0.7, 1.1), (math.pi / 2, 0.2, -0.4)]
    )
    def test_euler_rotation_all_branches(self, angles):
        rng = np.random.default_rng(11)
        psi = random_state(rng)
        t1, t2, t3 = angles
        expected = Rx(t3) @ Rz(t2) @ Rx(t1) @ psi
        pat = wire_rotation_pattern(t1, t2, t3)
        count = 0
        for state, _ in all_branches(input_cluster(1, 5, {(0, 0): psi}), pat):
            assert_equal_up_to_phase(state, expected)
            count += 1
        assert count == 16

    def test_identity_angles_on_reference(self):
        pat = wire_rotation_pattern(0.0, 0.0, 0.0)
        for state, _ in all_branches(reference_cluster(1, 5, periodic=False), pat):
            assert_equal_up_to_phase(state, PLUS)

    def test_composition(self):
        # running one wire then feeding its output into a second wire
        # composes the rotations
        rng = np.random.default_rng(5)
        psi = random_state(rng)
        a = (0.3, 0.5, -0.2)
        b = (-0.9, 0.1, 1.3)
        state1, _ = run_pattern(
            input_cluster(1, 5, {(0, 0): psi}), wire_rotation_pattern(*a),
            forced_outcomes=[0, 1, 1, 0],
        )
        state2, _ = run_pattern(
            input_cluster(1, 5, {(0, 0): state1}), wire_rotation_pattern(*b),
            forced_outcomes=[1, 0, 1, 1],
        )
        expected = (
            Rx(b[2]) @ Rz(b[1]) @ Rx(b[0]) @ Rx(a[2]) @ Rz(a[1]) @ Rx(a[0]) @ psi
        )
        assert_equal_up_to_phase(state2, expected)


class TestCnotPattern:
    CNOT = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )

    def cluster(self, control, target):
        return input_cluster(3, 2, {(1, 0): control, (0, 1): target})

    def test_arbitrary_inputs_all_branches(self):
        rng = np.random.default_rng(17)
        pat = cnot_pattern()
        for _ in range(3):
            a, b = random_state(rng), random_state(rng)
            expected = self.CNOT @ np.kron(a, b)
            count = 0
            for state, _ in all_branches(self.cluster(a, b), pat):
                assert_equal_up_to_phase(state, expected)
                count += 1
            assert count == 16

    def test_computational_basis(self):
        zero = np.array([1, 0], dtype=complex)
        one = np.array([0, 1], dtype=complex)
        pat = cnot_pattern()
        for ctrl, tgt, want in [
            (zero, zero, np.kron(zero, zero)),
            (one, zero, np.kron(one, one)),
            (one, one, np.kron(one, zero)),
        ]:
            state, _ = run_pattern(self.cluster(ctrl, tgt), pat,
                                   forced_outcomes=[0, 1, 1, 0])
            assert_equal_up_to_phase(state, want)

    def test_entangling(self):
        zero = np.array([1, 0], dtype=complex)
        pat = cnot_pattern()
        state, _ = run_pattern(self.cluster(PLUS, zero), pat,
                               forced_outcomes=[1, 0, 0, 1])
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert_equal_up_to_phase(state, bell)
        # entanglement entropy of the control = 1 bit
        rho = state.reshape(2, 2) @ state.reshape(2, 2).conj().T
        evals = np.linalg.eigvalsh(rho)
        entropy = -sum(p * math.log2(p) for p in evals if p > 1e-14)
        assert entropy == pytest.approx(1.0, abs=1e-10)


class TestGeneratedClusterEquivalence:
    def test_wire_on_generated_cluster(self):
        # the dynamically generated nn-only cluster (after its local
        # correction) supports the same patterns as the reference state
        from cavitycluster.effective import cluster_phase, phase_register
        from cavitycluster.geomphase import build_phase_table, solve_gate_time
        from cavitycluster.lattice import LatticeConfig

        cfg = LatticeConfig(M=1, N=5, J=0.1, delta=0.0)
        tau = solve_gate_time(cfg)
        table = build_phase_table(cfg, tau)
        generated = phase_register(cluster_phase(1, 5, table.grid, nn_only=True, periodic=False))
        pat = wire_rotation_pattern(0.6, -0.3, 1.0)
        ref_state, _ = run_pattern(
            reference_cluster(1, 5, periodic=False), pat, forced_outcomes=[0, 0, 0, 0]
        )
        gen_state, _ = run_pattern(generated, pat, forced_outcomes=[0, 0, 0, 0])
        assert_equal_up_to_phase(gen_state, ref_state)


class TestPatternFiles:
    def test_round_trip(self):
        pat = wire_rotation_pattern(0.25, -1.5, 3.0)
        text = format_pattern(pat)
        back = parse_pattern(text)
        assert back == pat

    def test_cnot_round_trip(self):
        assert parse_pattern(format_pattern(cnot_pattern())) == cnot_pattern()

    def test_comments_and_blank_lines(self):
        text = "\n# header\n0 0 X - -   # inline\n\noutput 0 1\n"
        pat = parse_pattern(text)
        assert len(pat.steps) == 1 and pat.outputs == ((0, 1),)

    def test_bad_angle_names_line(self):
        with pytest.raises(PatternParseError) as exc:
            parse_pattern("0 0 X - -\n0 1 EQ oops -\n")
        assert exc.value.line_no == 2

    def test_bad_basis(self):
        with pytest.raises(PatternParseError, match="unknown basis 'W'") as exc:
            parse_pattern("0 0 X - -\n0 1 W - -\n")
        assert exc.value.line_no == 2

    def test_bad_field_count(self):
        with pytest.raises(PatternParseError) as exc:
            parse_pattern("0 0 X -\n")
        assert exc.value.line_no == 1

    def test_bad_byproduct(self):
        with pytest.raises(PatternParseError, match="must be X or Z") as exc:
            parse_pattern("0 0 X - -\noutput 0 1\nbyproduct 0 1 Y 0\n")
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("text", ["a 0 X - -\n", "output 0 b\n", "byproduct 0 x Z 0\n"])
    def test_bad_site(self, text):
        with pytest.raises(PatternParseError, match="line 1: bad site"):
            parse_pattern(text)

    def test_bad_adapt_list(self):
        with pytest.raises(PatternParseError):
            parse_pattern("0 1 EQ 0.5 a,b\n")

    @pytest.mark.parametrize(
        "text,named,line",
        [
            ("0 0 X - -\nbyproduct 0 1 X 3\noutput 0 1\n", "step that does not exist", 2),
            ("0 0 X - -\nbyproduct 0 1 X -1\noutput 0 1\n", "step that does not exist", 2),
            ("0 0 X - -\nbyproduct 3 3 X 0\noutput 0 1\n", "(3, 3) is not an output", 2),
            ("0 0 X - -\nbyproduct 0 0 Z 0\noutput 0 1\n", "(0, 0) is not an output", 2),
            ("0 0 X - -\n0 1 EQ 0.5 -1\noutput 0 2\n", "not an earlier one", 2),
            ("0 -1 X - -\noutput 0 1\n", "(0, -1) has a negative coordinate", 1),
            ("0 0 X - -\noutput -1 0\n", "(-1, 0) has a negative coordinate", 2),
            ("0 0 X - -\noutput 0 1\noutput 0 0\nbyproduct 0 1 Z 0\n", "(0, 0) is measured", 3),
        ],
        ids=[
            "late-step", "negative-step", "off-grid", "measured", "adapt", "step-site", "output",
            "measured-output",
        ],
    )
    def test_invalid_pattern_rejected(self, text, named, line):
        # the error names the line of the offending step, rule or output
        with pytest.raises(PatternParseError, match=re.escape(named)) as exc:
            parse_pattern(text)
        assert exc.value.line_no == line

    def test_site_collision_reported(self):
        with pytest.raises(PatternParseError) as exc:
            parse_pattern("# two steps on one site\n0 0 X - -\n\n0 0 Z - -\n")
        assert exc.value.line_no == 4

    def test_parsed_pattern_runs(self):
        text = format_pattern(wire_rotation_pattern(0.4, 0.0, -0.4))
        pat = parse_pattern(text)
        for state, _ in all_branches(reference_cluster(1, 5, periodic=False), pat):
            pass  # determinism already covered; just confirm it executes
