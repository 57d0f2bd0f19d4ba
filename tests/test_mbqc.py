import itertools
import math
import re
import tracemalloc

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
    """Output states of every branch of nonzero probability."""
    return list(run_pattern(cluster, pattern)[2])


def branch(cluster, pattern, outcomes):
    """Output state of the branch with these outcomes."""
    bits, _, states, _ = run_pattern(cluster, pattern)
    (row,) = np.flatnonzero((bits == outcomes).all(axis=1))
    return states[row]


def sampled(reg, pattern, seed):
    """Outcome bits, as a string, of the branch that run_pattern draws with seed."""
    bits, _, _, drawn = run_pattern(reg, pattern, seed)
    return "".join(map(str, bits[drawn]))


def one_step(site, basis, angle=0.0, outputs=(), byproducts=()):
    return MeasurementPattern(
        steps=(MeasurementStep(site=site, basis=basis, angle=angle),),
        byproducts=byproducts,
        outputs=outputs,
    )


def long_wire(angles):
    """A 1 x (len(angles) + 1) wire measured at angles in turn, its output on the last site.

    Each step adapts on the X byproduct of the steps before it, and the byproducts
    X^x Z^z left at the end are corrected, so the logical output is
    prod_i H Rz(-angles[i]) applied to the input, step 0 first.
    """
    x, z, steps = (), (), []
    for i, t in enumerate(angles):
        steps.append(MeasurementStep(site=(0, i), basis="EQ", angle=t, adapt=x))
        # X^s H X^x Z^z = X^(s+z) Z^x H
        x, z = tuple(sorted(set(z) ^ {i})), x
    out = (0, len(angles))
    rules = (ByproductRule(out, "X", x), ByproductRule(out, "Z", z))
    return MeasurementPattern(steps=tuple(steps), byproducts=rules, outputs=(out,))


def long_wire_circuit(angles, psi):
    for t in angles:
        psi = HADAMARD @ Rz(-t) @ psi
    return psi


# twelve steps, the cap on branch enumeration: 4096 branches on a 1x13 wire
WIRE13_ANGLES = tuple(0.37 * k - 1.9 for k in range(12))


def biased_register():
    # a 1x3 state whose measurements are not 50/50, and the pattern run on it
    amps = np.array([1, 2j, -1, 0.5, 3, 1 - 1j, 0, 2], dtype=complex)
    pat = MeasurementPattern(
        steps=(
            MeasurementStep(site=(0, 0), basis="EQ", angle=0.4),
            MeasurementStep(site=(0, 1), basis="Z", adapt=(0,)),
        ),
        outputs=((0, 2),),
    )
    return QubitRegister(1, 3, amps / np.linalg.norm(amps)), pat


class TestMeasureQubit:
    # one-step patterns: a branch's probability is its Born weight, and its output
    # state is the register contracted with the outcome's eigenvector
    def test_plus_in_x_deterministic(self):
        reg = QubitRegister(1, 1, PLUS.copy())
        bits, probabilities, states, _ = run_pattern(reg, one_step((0, 0), "X"))
        assert bits.tolist() == [[0]] and states.shape == (1, 0)
        assert probabilities[0] == pytest.approx(1.0, abs=1e-15)
        for seed in range(4):
            assert sampled(reg, one_step((0, 0), "X"), seed) == "0"

    def test_up_in_x_both_branches(self):
        pat = one_step((0, 0), "X", outputs=((0, 1),))
        bits, probabilities, states, _ = run_pattern(all_up(1, 2), pat)
        assert bits.tolist() == [[0], [1]]
        assert probabilities == pytest.approx([0.5, 0.5], abs=1e-15)
        assert np.linalg.norm(states, axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_repeated_measurement_rejected(self):
        # a measured site is refused as a second step or as an output; a site
        # off the register is refused by the run
        with pytest.raises(ValueError, match="measured twice"):
            MeasurementPattern(
                steps=(MeasurementStep((0, 0), "Z"), MeasurementStep((0, 0), "X"))
            )
        with pytest.raises(ValueError, match="is measured"):
            one_step((0, 0), "Z", outputs=((0, 0),))
        with pytest.raises(ValueError, match=re.escape("site (0, 2) is outside the 1x2")):
            run_pattern(all_up(1, 2), one_step((0, 2), "X"))
        with pytest.raises(ValueError, match=re.escape("site (1, 0) is outside the 1x2")):
            run_pattern(all_up(1, 2), one_step((0, 0), "X", outputs=((1, 0),)))

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError, match="unknown basis 'W'"):
            MeasurementStep(site=(0, 0), basis="W")

    def test_zero_probability_outcome_has_no_register(self):
        # |up> has no |down> component, so outcome 1 has no branch and is never drawn;
        # nor has an outcome below 1e-24 of its parent's probability
        reg = all_up(1, 1)
        bits, probabilities, _, _ = run_pattern(reg, one_step((0, 0), "Z"))
        assert bits.tolist() == [[0]] and probabilities.tolist() == [1.0]
        for seed in range(4):
            assert sampled(reg, one_step((0, 0), "Z"), seed) == "0"
        for down, kept in ((1e-13, [[0]]), (1e-11, [[0], [1]])):
            reg = QubitRegister(1, 1, [1.0, down])
            assert run_pattern(reg, one_step((0, 0), "Z"))[0].tolist() == kept

    def test_z_measurement_detaches_site(self):
        # measuring a cluster site in Z leaves the neighbor graph state
        # with a Z byproduct on former neighbors when the outcome is 1
        cl = reference_cluster(1, 2, periodic=False)
        minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
        bits, _, states, _ = run_pattern(cl, one_step((0, 1), "Z", outputs=((0, 0),)))
        assert bits.tolist() == [[0], [1]]
        for state, want in zip(states, (PLUS, minus), strict=True):
            assert state.shape == (2,)  # the measured site left the branch
            assert_equal_up_to_phase(state, want)

    def test_x_byproduct_flips(self):
        # |001>: measuring (0, 2) in Z reads 1, so the X on (0, 1) takes |00> to |01>
        reg = QubitRegister(1, 3, [0, 1, 0, 0, 0, 0, 0, 0])
        flip = (ByproductRule(site=(0, 1), pauli="X", steps=(0,)),)
        pat = one_step((0, 2), "Z", outputs=((0, 0), (0, 1)), byproducts=flip)
        bits, _, states, drawn = run_pattern(reg, pat)
        assert bits.tolist() == [[1]] and drawn == 0 and states[0].tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("nq", range(1, 7))
def test_kernels_match_tensordot_reference(nq):
    # a one-step run on every axis, against a contraction over the axis of the
    # register's [2] * nq tensor; and an X or Z byproduct on every axis, against
    # the Pauli contracted onto that axis
    rng = np.random.default_rng(nq)

    def random_register(n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return QubitRegister(1, n, amps / np.linalg.norm(amps))

    reg, full = random_register(nq), random_register(nq + 1)
    view = reg.amps.reshape([2] * nq)
    angle = rng.uniform(-math.pi, math.pi)
    phase = np.exp(1j * angle)
    eigvecs = np.array([[1.0, phase], [1.0, -phase]]) / math.sqrt(2.0)
    for ax in range(nq):
        rest = tuple((0, b) for b in range(nq) if b != ax)
        _, probabilities, states, _ = run_pattern(reg, one_step((0, ax), "EQ", angle, rest))
        for p, state, v in zip(probabilities, states, eigvecs, strict=True):
            contracted = np.tensordot(v.conj(), view, axes=([0], [ax])).reshape(-1)
            assert abs(p - np.linalg.norm(contracted) ** 2) <= 1e-15
            if rest:
                assert np.max(np.abs(state - contracted / math.sqrt(p))) <= 1e-15
    # the pattern measures a last site (0, nq) in Z; outcome 1 fires the byproduct
    outputs = tuple((0, b) for b in range(nq))
    for pauli, u in (("X", np.array([[0, 1], [1, 0]])), ("Z", np.diag([1, -1]))):
        for ax in range(nq):
            rule = (ByproductRule(site=(0, ax), pauli=pauli, steps=(0,)),)
            _, _, states, _ = run_pattern(full, one_step((0, nq), "Z", 0.0, outputs, rule))
            for bit, state in enumerate(states):
                part = full.amps.reshape([2] * (nq + 1))[..., bit]
                if bit:
                    part = np.moveaxis(np.tensordot(u, part, axes=([1], [ax])), 0, ax)
                want = part.reshape(-1) / np.linalg.norm(part)
                assert np.max(np.abs(state - want)) <= 1e-15


class TestRunPattern:
    def test_empty_pattern(self):
        pat = MeasurementPattern(steps=(), outputs=((0, 0),))
        bits, probabilities, states, drawn = run_pattern(all_up(1, 1), pat)
        assert bits.shape == (1, 0) and probabilities.tolist() == [1.0] and drawn == 0
        assert np.allclose(states, [[1, 0]])

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
        for state in all_branches(input_cluster(1, 2, {(0, 0): psi}), pat):
            assert_equal_up_to_phase(state, expected)

    def test_branch_probabilities_sum_to_one(self):
        for pat in (wire_rotation_pattern(0.4, -1.1, 0.9), long_wire(WIRE13_ANGLES)):
            n = len(pat.steps) + 1
            _, probabilities, _, _ = run_pattern(reference_cluster(1, n, periodic=False), pat)
            assert len(probabilities) == 2 ** (n - 1)
            assert sum(probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_branch_probability_pinned(self):
        # a branch's probability is the product of its steps' Born weights
        reg, pat = biased_register()
        _, (p0, p1), _, _ = run_pattern(reg, one_step((0, 0), "EQ", 0.4))
        assert p1 == pytest.approx(0.44996304454642483, rel=1e-14)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)
        bits, branch_probabilities, _, _ = run_pattern(reg, pat)
        probabilities = dict(zip(map(tuple, bits.tolist()), branch_probabilities))
        assert probabilities[(1, 0)] == pytest.approx(
            0.44996304454642483 * 0.8217956653108509, rel=1e-14
        )
        assert sum(probabilities.values()) == pytest.approx(1.0, abs=1e-14)

    def test_branch_order_step_zero_least_significant(self):
        # bit i of a branch's index is the outcome of step i; pruned branches drop out
        for wire in (wire_rotation_pattern(0.4, -1.1, 0.9), long_wire(WIRE13_ANGLES)):
            n = len(wire.steps) + 1
            bits = run_pattern(reference_cluster(1, n, periodic=False), wire)[0]
            assert [sum(b << i for i, b in enumerate(o)) for o in bits.tolist()] == list(
                range(2 ** (n - 1))
            )
        iso = parse_pattern("0 0 Z - -\n0 2 Z - -\n0 1 X - -\n")
        bits, probabilities, _, _ = run_pattern(reference_cluster(1, 3, periodic=False), iso)
        # (0, 1) is left in |+> when the Z outcomes agree and in |-> when they differ
        assert bits.tolist() == [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]]
        assert probabilities == pytest.approx([0.25] * 4, abs=1e-15)

    def test_seeded_outcomes_pinned(self):
        # each step draws outcome 0 when random.Random(seed).random() < p0 / (p0 + p1);
        # on a wire every p0 / (p0 + p1) is 1/2
        reg, pat = biased_register()
        assert [sampled(reg, pat, s) for s in range(8)] == [
            "10", "01", "11", "00", "00", "10", "11", "00"
        ]
        wire13 = reference_cluster(1, 13, periodic=False)
        assert [sampled(wire13, long_wire(WIRE13_ANGLES), s) for s in range(8)] == [
            "110010100111", "011000110010", "110011101110", "010110010010",
            "000000111010", "111111001110", "110001010101", "001010010000",
        ]

    def test_input_register_unchanged(self):
        # measurement writes new branch arrays; the caller's register is not touched
        cluster = reference_cluster(3, 2, periodic=False)
        amps = cluster.amps.copy()
        first = all_branches(cluster, cnot_pattern())
        assert cluster.amps.tobytes() == amps.tobytes()
        again = all_branches(cluster, cnot_pattern())
        assert all(np.array_equal(a, b) for a, b in zip(again, first, strict=True))

    def test_walk_holds_two_branch_arrays(self):
        # each step writes its children into one array and reads their norms in
        # place, so the traced peak stays near a level and its children (the
        # input is allocated before tracing starts)
        cluster = reference_cluster(1, 16, periodic=False)
        tracemalloc.start()
        try:
            run_pattern(cluster, long_wire(WIRE13_ANGLES))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * cluster.amps.nbytes

    def test_trailing_unmeasured_sites_follow_outputs(self):
        # output (0, 2) first, then the unmeasured non-output (0, 1)
        amps = np.arange(1, 9, dtype=complex)
        pat = MeasurementPattern(
            steps=(MeasurementStep(site=(0, 0), basis="Z"),), outputs=((0, 2),)
        )
        state = branch(QubitRegister(1, 3, amps), pat, [1])
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
        "angles", [(0.0, 0.0, 0.0), (0.3, -0.7, 1.1), (math.pi / 2, 0.2, -0.4), WIRE13_ANGLES]
    )
    def test_euler_rotation_all_branches(self, angles):
        rng = np.random.default_rng(11)
        psi = random_state(rng)
        if len(angles) == 3:
            t1, t2, t3 = angles
            expected = Rx(t3) @ Rz(t2) @ Rx(t1) @ psi
            pat = wire_rotation_pattern(t1, t2, t3)
        else:  # the twelve-step 1x13 wire
            expected, pat = long_wire_circuit(angles, psi), long_wire(angles)
        states = all_branches(input_cluster(1, len(pat.steps) + 1, {(0, 0): psi}), pat)
        for state in states:
            assert_equal_up_to_phase(state, expected)
        assert len(states) == 2 ** len(pat.steps)

    def test_identity_angles_on_reference(self):
        pat = wire_rotation_pattern(0.0, 0.0, 0.0)
        for state in all_branches(reference_cluster(1, 5, periodic=False), pat):
            assert_equal_up_to_phase(state, PLUS)

    def test_composition(self):
        # running one wire then feeding its output into a second wire
        # composes the rotations
        rng = np.random.default_rng(5)
        psi = random_state(rng)
        a = (0.3, 0.5, -0.2)
        b = (-0.9, 0.1, 1.3)
        state1 = branch(input_cluster(1, 5, {(0, 0): psi}), wire_rotation_pattern(*a), [0, 1, 1, 0])
        state2 = branch(
            input_cluster(1, 5, {(0, 0): state1}), wire_rotation_pattern(*b), [1, 0, 1, 1]
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
            states = all_branches(self.cluster(a, b), pat)
            for state in states:
                assert_equal_up_to_phase(state, expected)
            assert len(states) == 16

    def test_computational_basis(self):
        zero = np.array([1, 0], dtype=complex)
        one = np.array([0, 1], dtype=complex)
        pat = cnot_pattern()
        for ctrl, tgt, want in [
            (zero, zero, np.kron(zero, zero)),
            (one, zero, np.kron(one, one)),
            (one, one, np.kron(one, zero)),
        ]:
            state = branch(self.cluster(ctrl, tgt), pat, [0, 1, 1, 0])
            assert_equal_up_to_phase(state, want)

    def test_entangling(self):
        zero = np.array([1, 0], dtype=complex)
        pat = cnot_pattern()
        state = branch(self.cluster(PLUS, zero), pat, [1, 0, 0, 1])
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
        ref_state = branch(reference_cluster(1, 5, periodic=False), pat, [0, 0, 0, 0])
        gen_state = branch(generated, pat, [0, 0, 0, 0])
        assert_equal_up_to_phase(gen_state, ref_state)


class TestPatternFiles:
    def test_round_trip(self):
        pat = wire_rotation_pattern(0.25, -1.5, 3.0)
        text = format_pattern(pat)
        back = parse_pattern(text)
        assert back == pat

    def test_cnot_round_trip(self):
        assert parse_pattern(format_pattern(cnot_pattern())) == cnot_pattern()

    def test_empty_byproduct_round_trip(self):
        # a rule with no steps is written as "-", the empty index list
        pat = MeasurementPattern(
            steps=(MeasurementStep(site=(0, 0), basis="X"),),
            byproducts=(ByproductRule(site=(0, 1), pauli="X", steps=()),),
            outputs=((0, 1),),
        )
        text = format_pattern(pat)
        assert "byproduct 0 1 X -\n" in text
        assert parse_pattern(text) == pat

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("byproduct 0 1 X\n", "byproduct needs: m n X|Z steps"),
            ("byproduct 0 1 X 0 1\n", "byproduct needs: m n X|Z steps"),
            ("output 0\n", "output needs: m n"),
            ("output 0 1 2\n", "output needs: m n"),
        ],
    )
    def test_directive_field_count(self, text, message):
        with pytest.raises(PatternParseError, match=re.escape(f"line 2: {message}")):
            parse_pattern("0 0 X - -\n" + text)

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
            ("0 0 X - -\n0 1 X - -\noutput 0 2\noutput 0 2\n", "(0, 2) is declared twice", 4),
        ],
        ids=[
            "late-step", "negative-step", "off-grid", "measured", "adapt", "step-site", "output",
            "measured-output", "duplicate-output",
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
        # determinism is covered above; this confirms the parsed pattern runs
        assert len(all_branches(reference_cluster(1, 5, periodic=False), pat)) == 16
