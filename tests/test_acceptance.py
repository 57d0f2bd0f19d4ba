"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints a single summary line (collected in the terminal summary
by conftest) and asserts the same condition, so the suite output doubles
as the acceptance report.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cavitycluster import oracle
from cavitycluster.cli import generated_cluster_patch
from cavitycluster.effective import cluster_phase, reference_cluster, verify_cluster
from cavitycluster.geomphase import (
    PRESETS,
    build_phase_table,
    feasibility_report,
    pairwise_phase,
    solve_gate_time,
    sweep_delta,
)
from cavitycluster.lattice import LatticeConfig
from cavitycluster.mbqc import cnot_pattern, run_pattern, wire_rotation_pattern
from cavitycluster.phasespace import (
    PhasePath,
    closed_path_phase,
    verify_displacement_law,
)

REF19 = LatticeConfig(M=19, N=19, J=0.1, delta=0.0)
GATE_TIME_PIN = 2.2933987105637783  # frozen after the first computation


def _record(request, num, name, ok, detail):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    request.config._acceptance_report.append(line)
    assert ok, line


def test_criterion_01_detuning_suppression(request):
    t0 = time.perf_counter()
    rows = dict(sweep_delta(REF19, 3.0, [0.5 * i for i in range(61)]))
    elapsed = time.perf_counter() - t0
    ratio = abs(rows[20.0]) / abs(rows[0.0])
    ok = ratio <= 0.02 and elapsed < 10.0
    _record(
        request, 1, "detuning suppression", ok,
        f"Gamma_nn(20g)/Gamma_nn(0) = {ratio:.3e} (<= 0.02), sweep {elapsed:.2f} s (< 10 s)",
    )


def _worst_beyond_nn(table):
    """(separation, Gamma) of the largest |Gamma| with |dm| + |dn| >= 2."""
    M, N = table.grid.shape
    seps = [
        (dm, dn)
        for dm in range(-(M // 2), M // 2 + 1)
        for dn in range(-(N // 2), N // 2 + 1)
        if abs(dm) + abs(dn) >= 2
    ]
    return max(((sep, table.gamma(*sep)) for sep in seps), key=lambda item: abs(item[1]))


# The bracket (w tau - sin w tau)/w^2 = w tau^3/6 - w^3 tau^5/120 + ... makes
# Gamma_nn = 2 J tau^3/3 at leading order, while length-3 hopping walks give
# Gamma(2,1) ~ -J^3 tau^5/10, so nearest-neighbour selectivity holds to
# leading order in J tau, not exactly.  REF19 at g tau = 3 (J tau = 0.3) keeps
# -2.345e-2 at (2,1): it is pinned against the real-space sum below.  At the
# gate time (Gamma_nn = pi/4) the worst beyond-nn phase follows
# 0.1 (3 pi/8)^(5/3) J^(4/3), which crosses 1e-4 at J ~ 0.00458 g; the bounds
# are asserted at J = 0.003 g (5.69e-5, a margin of 1.76x).
SELECTIVE_J = 0.003


def test_criterion_02_nearest_neighbor_selectivity(request, realspace_gamma):
    ref_table = build_phase_table(REF19, 3.0)
    ref_sep, ref_beyond = _worst_beyond_nn(ref_table)
    ref_nn = abs(ref_table.gamma(1, 0))
    ref_dev = abs(ref_beyond - realspace_gamma(REF19, 3.0, *ref_sep))

    cfg = replace(REF19, J=SELECTIVE_J)
    tau = solve_gate_time(cfg)
    table = build_phase_table(cfg, tau)
    beyond = table.max_beyond_nearest_neighbor()
    nn = abs(table.gamma(1, 0))

    ok = (
        sorted(map(abs, ref_sep)) == [1, 2]
        and ref_dev <= 1e-12
        and beyond < 1e-4
        and nn >= 100.0 * beyond
    )
    _record(
        request, 2, "nn selectivity", ok,
        f"J = {SELECTIVE_J} g at g tau* = {tau:.2f}: max |Gamma| beyond nn = {beyond:.3e} "
        f"(< 1e-4 required), |Gamma_nn| = {nn:.3e} ({nn / beyond:.1f}x, >= 100x required); "
        f"REF19 at g tau = 3: Gamma{ref_sep} = {ref_beyond:.3e} "
        f"(real-space sum within {ref_dev:.1e}, <= 1e-12), "
        f"|Gamma_nn| = {ref_nn:.3e} ({ref_nn / abs(ref_beyond):.1f}x)",
    )


def test_criterion_03_size_independence(request):
    tau = solve_gate_time(REF19)
    g19 = pairwise_phase(REF19, tau, 1, 0)
    big = LatticeConfig(M=29, N=29, J=0.1, delta=0.0)
    g29 = pairwise_phase(big, tau, 1, 0)
    rel = abs(g29 - g19) / abs(g19)
    ok = rel < 0.01
    _record(
        request, 3, "size independence", ok,
        f"|Gamma_nn(29x29) - Gamma_nn(19x19)| / Gamma_nn = {rel:.3e} (< 1e-2)",
    )


def test_criterion_04_gate_time_scale(request):
    tau = solve_gate_time(REF19)
    ok = 0.0 < tau <= 10.0 and abs(tau - GATE_TIME_PIN) < 1e-8
    _record(
        request, 4, "gate time scale", ok,
        f"g tau* = {tau!r} in (0, 10], pinned to {GATE_TIME_PIN} +- 1e-8",
    )


def test_criterion_05_oracle_equivalence(request):
    # delta = 20 g keeps the field near vacuum; delta = 0 is the operating
    # point of the cluster (zero modes included), at g tau = 1.5 so that
    # Gamma_nn = 0.442 stays inside extraction's |Gamma| < pi/4
    regimes = (("delta = 20 g", 20.0, 3.0, 4), ("delta = 0", 0.0, 1.5, 30))
    t0 = time.perf_counter()
    ok = True
    parts = []
    for label, delta, tau, n_max in regimes:
        worst_phase = 0.0
        worst_resid = 0.0
        worst_trunc = 0.0
        for M, N in ((1, 2), (1, 3), (2, 2)):
            cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
            rep = oracle.echo_evolve(cfg, tau, n_max=n_max)
            worst_resid = max(worst_resid, rep.residual_excitation)
            worst_trunc = max(worst_trunc, rep.truncation_estimate)
            for (a, b), measured in oracle.extract_pair_phase(rep).items():
                analytic = pairwise_phase(cfg, tau, b[0] - a[0], b[1] - a[1])
                worst_phase = max(worst_phase, abs(measured - analytic))
        ok = ok and worst_phase < 1e-6 and worst_resid < 1e-8
        parts.append(
            f"{label} (g tau = {tau:g}, n_max = {n_max}): max |dGamma| = {worst_phase:.2e} "
            f"(< 1e-6), max residual = {worst_resid:.2e} (< 1e-8), "
            f"max truncation estimate = {worst_trunc:.2e}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _record(
        request, 5, "oracle equivalence", ok,
        "; ".join(parts) + f"; runtime {elapsed:.1f} s (< 300 s)",
    )


def test_criterion_06_operator_identities(request):
    worst = 0.0
    for M, N in ((1, 2), (2, 1), (2, 2)):
        for defect in oracle.check_identities(M, N).values():
            worst = max(worst, defect)
    ok = worst <= 1e-14
    _record(
        request, 6, "operator identities", ok,
        f"max defect of [S_z, J_X^. J_X] = 0 and {{S_z, J_X}} = 0 is {worst:.2e} (<= 1e-14)",
    )


def test_criterion_07_cluster_generation(request):
    worst_fid = 0.0
    worst_rho = 0.0
    for M in range(1, 5):
        for N in range(1, 5):
            if M * N < 2:
                continue
            phi = cluster_phase(M, N, np.full((M, N), math.pi / 4), nn_only=True, periodic=True)
            report = verify_cluster(phi, periodic=True)
            worst_fid = max(worst_fid, abs(1.0 - report.fidelity))
            for c in report.coherences.ravel():
                rho = np.array([[0.5, c], [np.conj(c), 0.5]])
                worst_rho = max(worst_rho, float(np.max(np.abs(rho - 0.5 * np.eye(2)))))
    ok = worst_fid < 1e-10 and worst_rho < 1e-10
    _record(
        request, 7, "cluster generation", ok,
        f"max |1 - fidelity| = {worst_fid:.2e}, "
        f"max |rho - I/2| = {worst_rho:.2e} over all lattices up to 4x4 (< 1e-10)",
    )


def test_criterion_08_displacement_algebra(request):
    rng = np.random.default_rng(8)
    worst_law = 0.0
    for _ in range(5):
        a = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 2 / math.sqrt(2)
        b = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 2 / math.sqrt(2)
        worst_law = max(worst_law, verify_displacement_law(a, b, n_max=60))

    r = 1.3
    n_seg = 10**4
    pts = tuple(
        r * np.exp(2j * math.pi * k / n_seg) for k in range(n_seg)
    ) + (complex(r),)
    circle_err = abs(closed_path_phase(PhasePath(pts, closed=True)) - 2 * math.pi * r**2)

    corners = [0.3 + 0.1j, 1.2 - 0.4j, 1.5 + 1.1j, 0.2 + 0.9j]
    shoelace = 0.5 * sum(
        (corners[i].real * corners[(i + 1) % 4].imag
         - corners[(i + 1) % 4].real * corners[i].imag)
        for i in range(4)
    )
    poly_err = abs(
        closed_path_phase(PhasePath(tuple(corners) + (corners[0],), closed=True))
        - 2.0 * shoelace
    )

    ok = worst_law <= 1e-8 and circle_err < 1e-4 and poly_err < 1e-10
    _record(
        request, 8, "displacement algebra", ok,
        f"composition law {worst_law:.2e} (<= 1e-8), circle {circle_err:.2e} (< 1e-4), "
        f"polygon {poly_err:.2e} (< 1e-10)",
    )


def _branch_deviation(cluster, pattern, expected):
    """Worst phase-aligned deviation from `expected` over all branches."""
    worst = 0.0
    _, _, states, _ = run_pattern(cluster, pattern)
    for state in states:
        ov = np.vdot(expected, state)
        worst = max(worst, float(np.linalg.norm(state - expected * ov / abs(ov))))
    return worst, len(states)


def test_criterion_09_mbqc_end_to_end(request):
    def Rz(t):
        return np.diag([1.0, np.exp(1j * t)])

    H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

    def Rx(t):
        return H @ Rz(t) @ H

    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    t1, t2, t3 = 0.7, -0.4, 1.2
    wire = wire_rotation_pattern(t1, t2, t3)
    wire_expected = Rx(t3) @ Rz(t2) @ Rx(t1) @ plus
    cnot = cnot_pattern()
    cnot_expected = np.kron(plus, plus)  # CNOT fixes |+>|+>

    worst = 0.0
    for source in ("reference", "generated"):
        if source == "reference":
            wire_cluster = reference_cluster(1, 5, periodic=False)
            cnot_cluster = reference_cluster(3, 2, periodic=False)
        else:
            wire_cluster = generated_cluster_patch(REF19, 1, 5)
            cnot_cluster = generated_cluster_patch(REF19, 3, 2)
        dev_w, n_w = _branch_deviation(wire_cluster, wire, wire_expected)
        dev_c, n_c = _branch_deviation(cnot_cluster, cnot, cnot_expected)
        assert n_w == 16 and n_c == 16
        worst = max(worst, dev_w, dev_c)
    ok = worst < 1e-10
    _record(
        request, 9, "mbqc end-to-end", ok,
        f"max branch deviation from circuit model = {worst:.2e} (< 1e-10), "
        "wire + CNOT, reference + generated clusters, 16 branches each",
    )


def test_criterion_10_feasibility_arithmetic(request):
    rep = feasibility_report(PRESETS["cpb"], solve_gate_time(REF19))
    t_us = rep.gate_time_seconds * 1e6
    ok = 0.005 <= t_us <= 0.05 and rep.ratio_cavity <= 1e-3
    _record(
        request, 10, "feasibility arithmetic", ok,
        f"CPB gate time {t_us:.4f} us (in [0.005, 0.05]), "
        f"T/T_cavity = {rep.ratio_cavity:.2e} (<= 1e-3)",
    )
