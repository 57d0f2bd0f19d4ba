"""The four workloads: fixed job lists, and the checks on each job's outputs.

Only ``mbqc-demo`` depends on the seed (its wire angles and the CLI's
``--seed``).  The other three are fixed configurations, because their cost
depends only on problem size; the seed does not change them.

Report values are checked against ``reference.json`` (captured from the
package when the benchmark was defined) or, for MBQC and the cluster
snapshot, against values the benchmark computes itself from the circuit and
graph-state models.  Tolerances are per quantity and far above the ~1e-15
digit changes that an exact reformulation (FFT tables, phase polynomials)
may bring.

The open-boundary full-table cluster (nn_only = false, periodic = false) is
deliberately not a job: it looks up patch-periodic separations and aliases
distant pairs onto nearest-neighbor phases (fidelity 0.0625 on 3x3 against
0.999691 with true separations), so committing its output as correct would
turn the fix into a failure.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent

# (abs_tol, rel_tol) per quantity; anything not listed is a phase-like
# number of order one (Gamma, fidelity, stabilizer, RDM deviation)
_TIME_TOL = (0.0, 1e-9)
_PHASE_TOL = (1e-9, 0.0)
TOLERANCES = {
    "tau": _TIME_TOL,
    "g_tau": _TIME_TOL,
    "gate_time_g_units": _TIME_TOL,
    "gate_time_seconds": _TIME_TOL,
    "ratio_T_cavity": _TIME_TOL,
    "ratio_T_qubit": _TIME_TOL,
}
# criterion-5 bounds, stated here so a program cannot loosen its own
ORACLE_BOUNDS = {"identity": 1e-14, "echo": 1e-8, "phase": 1e-6}
ORACLE_TOLERANCE = 1e-9
# deviation of an MBQC output from the circuit model, after phase alignment
MBQC_TOL = 1e-9
MBQC_BRANCH_TOL = 1e-10


@dataclass
class Job:
    """One run of the CLI (``argv``) or of a library job in job.py."""

    name: str
    check: Callable[[Path], list[str]]
    argv: list[str] | None = None
    library: str | None = None
    params: dict = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in items.items())
    return "\n".join(lines) + "\n"


def _cli_job(name: str, command: str, sections: dict, check, extra: tuple[str, ...] = (), files=None) -> Job:
    argv = [command, "--config", "config.ini", "--out", "out", *extra]
    return Job(name=name, check=check, argv=argv, files={"config.ini": _ini(sections), **(files or {})})


def read_report(path: Path) -> dict[str, str]:
    """key = value lines of a CLI report, header comments skipped."""
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#") and " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def compare(got: dict, want: dict, where: str) -> list[str]:
    """Problems where reported values differ from the reference beyond tolerance."""
    problems = []
    for key, ref in want.items():
        if key not in got:
            problems.append(f"{where}: {key} missing")
        elif isinstance(ref, str):
            if got[key] != ref:
                problems.append(f"{where}: {key} = {got[key]!r}, expected {ref!r}")
        else:
            abs_tol, rel_tol = TOLERANCES.get(key, _PHASE_TOL)
            value = float(got[key])
            if not math.isclose(value, ref, rel_tol=rel_tol, abs_tol=abs_tol):
                problems.append(f"{where}: {key} = {value!r}, expected {ref!r}")
    return problems


def compare_csv(path: Path, want: dict) -> list[str]:
    columns, rows = read_csv(path)
    if columns != want["columns"] or len(rows) != len(want["rows"]):
        return [f"{path.name}: shape {columns} x {len(rows)} differs from the reference"]
    got = np.array(rows)
    bad = ~(np.abs(got - np.array(want["rows"])) <= _PHASE_TOL[0])  # NaN is bad too
    if bad.any():
        r, c = np.argwhere(bad)[0]
        return [f"{path.name}: row {r} {columns[c]} = {got[r, c]!r}, expected {want['rows'][r][c]!r}"]
    return []


# ---- cluster-verify -------------------------------------------------------

def _grid_graph_state(M: int, N: int) -> np.ndarray:
    """Open-boundary M x N graph state; site (m, n) is bit M*N-1-(m*N+n) of the index."""
    nq = M * N
    bits = (np.arange(2**nq)[:, None] >> (nq - 1 - np.arange(nq))) & 1
    parity = np.zeros(2**nq, dtype=np.int64)
    for m in range(M):
        for n in range(N):
            a = m * N + n
            if n + 1 < N:
                parity += bits[:, a] * bits[:, a + 1]
            if m + 1 < M:
                parity += bits[:, a] * bits[:, a + N]
    return (1 - 2 * (parity % 2)) / 2 ** (nq / 2)


def _check_snapshot(path: Path, M: int, N: int) -> list[str]:
    columns, rows = read_csv(path)
    data = np.array(rows)
    if columns != ["basis_index", "real", "imag"] or data.shape != (2 ** (M * N), 3):
        return [f"{path.name}: expected {2 ** (M * N)} rows of basis_index,real,imag"]
    if not np.array_equal(data[:, 0], np.arange(2 ** (M * N))):
        return [f"{path.name}: basis indices out of order"]
    amps = data[:, 1] + 1j * data[:, 2]
    overlap = abs(np.vdot(_grid_graph_state(M, N), amps)) ** 2
    if not (abs(np.vdot(amps, amps) - 1.0) < 1e-9 and overlap > 1.0 - 1e-9):
        return [f"{path.name}: |<graph state|snapshot>|^2 = {overlap!r}, expected 1"]
    return []


CLUSTER_JOBS = {
    "4x5-periodic-nn": (4, 5, {"nn_only": "true", "periodic": "true"}),
    "4x5-periodic-full": (4, 5, {"nn_only": "false", "periodic": "true"}),
    "4x4-open-nn-snapshot": (4, 4, {"nn_only": "true", "periodic": "false", "snapshot": "true"}),
}


def _cluster_jobs(reference: dict) -> list[Job]:
    jobs = []
    for name, (M, N, options) in CLUSTER_JOBS.items():
        def check(d: Path, name=name, M=M, N=N, snapshot="snapshot" in options) -> list[str]:
            problems = compare(read_report(d / "out" / "cluster_report.txt"), reference[name], name)
            if snapshot:
                problems += _check_snapshot(d / "out" / "cluster_state.csv", M, N)
            return problems

        jobs.append(_cli_job(name, "cluster", {"lattice": {"M": M, "N": N}, "cluster": options}, check))
    return jobs


# ---- phase-map ------------------------------------------------------------

PHASE_MAP_LATTICE = {"M": 61, "N": 61, "J": 0.1, "delta": 0.0}


def _phase_map_jobs(reference: dict) -> list[Job]:
    def check_sweep(d: Path) -> list[str]:
        want = reference["gamma-sweep"]
        return (
            compare_csv(d / "out" / "gamma_vs_delta.csv", want["gamma_vs_delta"])
            + compare_csv(d / "out" / "gamma_vs_tau.csv", want["gamma_vs_tau"])
            + compare(read_report(d / "out" / "feasibility.txt"), want["feasibility"], "feasibility")
        )

    def check_selectivity(d: Path) -> list[str]:
        got = json.loads((d / "selectivity.json").read_text())
        return compare(got, reference["selectivity"], "selectivity")

    return [
        _cli_job("gamma-sweep", "gamma-sweep", {"lattice": PHASE_MAP_LATTICE}, check_sweep,
                 extra=("--preset", "cpb")),
        Job(name="selectivity", check=check_selectivity, library="selectivity", params=PHASE_MAP_LATTICE),
    ]


# ---- oracle-echo ----------------------------------------------------------

ORACLE_SHAPES = ((1, 2), (1, 3), (2, 2))
_ROW = re.compile(r"^([\w.\-]+): value=(\S+) bound=(\S+) (\S+)$")


def _check_oracle(path: Path, expected_rows: list[str]) -> list[str]:
    text = path.read_text()
    rows = {m[1]: (float(m[2]), m[4]) for m in map(_ROW.match, text.splitlines()) if m}
    report = read_report(path)
    problems = []
    if sorted(rows) != sorted(expected_rows):
        problems.append(f"{path.name}: rows {sorted(rows)} differ from {sorted(expected_rows)}")
    for name, (value, status) in rows.items():
        bound = ORACLE_BOUNDS[name.split(".", 1)[0]]
        if status != "pass" or not value <= bound:
            problems.append(f"{path.name}: {name} = {value!r} ({status}), bound {bound!r}")
    if report.get("verdict") != "pass":
        problems.append(f"{path.name}: verdict {report.get('verdict')!r}")
    if not float(report.get("error_estimate", "inf")) <= ORACLE_TOLERANCE:
        problems.append(f"{path.name}: error_estimate {report.get('error_estimate')!r}")
    return problems


def _oracle_jobs(reference: dict) -> list[Job]:
    jobs = []
    for M, N in ORACLE_SHAPES:
        name = f"{M}x{N}"
        sections = {
            "lattice": {"M": M, "N": N, "delta": 20.0},
            "oracle": {"n_max": 4, "tolerance": ORACLE_TOLERANCE, "tau": 3.0},
        }

        def check(d: Path, name=name) -> list[str]:
            return _check_oracle(d / "out" / "oracle_report.txt", reference[name]["rows"])

        jobs.append(_cli_job(name, "oracle-verify", sections, check))
    return jobs


# ---- mbqc-demo ------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)


def _rz(t: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * t)])


def _rx(t: float) -> np.ndarray:
    return _H @ _rz(t) @ _H


def circuit_wire(t1: float, t2: float, t3: float) -> np.ndarray:
    """Rx(t3) Rz(t2) Rx(t1)|+>, the wire pattern's logical output."""
    return _rx(t3) @ _rz(t2) @ _rx(t1) @ _PLUS


CIRCUIT_CNOT = np.kron(_PLUS, _PLUS)  # CNOT|++> = |++>


def _check_mbqc(path: Path, expected: np.ndarray, shape: str, source: str) -> list[str]:
    report = read_report(path)
    problems = compare(
        report,
        {"source": source, "cluster_shape": shape, "branches_evaluated": "16", "deterministic": "pass"},
        path.name,
    )
    if not float(report.get("max_branch_deviation", "inf")) < MBQC_BRANCH_TOL:
        problems.append(f"{path.name}: max_branch_deviation {report.get('max_branch_deviation')!r}")
    if not re.fullmatch(r"[01]{4}", report.get("sampled_outcomes", "")):
        problems.append(f"{path.name}: sampled_outcomes {report.get('sampled_outcomes')!r}")
    amps = np.array([
        complex(*map(float, report.get(f"logical_amp_{i}", "nan nan").split()))
        for i in range(expected.size)
    ])
    overlap = np.vdot(expected, amps)
    dev = np.linalg.norm(amps - expected * overlap / abs(overlap)) if abs(overlap) > 0 else math.inf
    if not dev < MBQC_TOL:
        problems.append(f"{path.name}: logical state off the circuit model by {dev!r}")
    return problems


def _mbqc_jobs(seed: int) -> list[Job]:
    from cavitycluster.mbqc import format_pattern, wire_rotation_pattern

    rng = random.Random(seed)
    thetas = tuple(rng.uniform(-math.pi, math.pi) for _ in range(3))
    wire = circuit_wire(*thetas)
    angles = {f"theta{i + 1}": t for i, t in enumerate(thetas)}
    plan = [
        ("wire-reference", {"builtin": "wire", "source": "reference", **angles}, wire, "1x5", ()),
        ("wire-generated", {"builtin": "wire", "source": "generated", **angles}, wire, "1x5", ()),
        ("cnot-reference", {"builtin": "cnot", "source": "reference"}, CIRCUIT_CNOT, "3x2", ()),
        ("cnot-generated", {"builtin": "cnot", "source": "generated"}, CIRCUIT_CNOT, "3x2", ()),
        ("wire-pattern-file", {"source": "reference"}, wire, "1x5", ("--pattern", "wire.pat")),
    ]
    files = {"wire.pat": format_pattern(wire_rotation_pattern(*thetas))}
    jobs = []
    for name, options, expected, shape, extra in plan:
        def check(d: Path, expected=expected, shape=shape, source=options["source"]) -> list[str]:
            return _check_mbqc(d / "out" / "mbqc_report.txt", expected, shape, source)

        cli_seed = str(rng.getrandbits(64))
        jobs.append(_cli_job(name, "mbqc", {"mbqc": options}, check,
                             extra=("--seed", cli_seed, *extra), files=files if extra else None))
    return jobs


WORKLOADS = ("cluster-verify", "phase-map", "oracle-echo", "mbqc-demo")


def build(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one pass over ``workload``."""
    reference = json.loads((HERE / "reference.json").read_text())
    if workload == "cluster-verify":
        return _cluster_jobs(reference["cluster-verify"])
    if workload == "phase-map":
        return _phase_map_jobs(reference["phase-map"])
    if workload == "oracle-echo":
        return _oracle_jobs(reference["oracle-echo"])
    if workload == "mbqc-demo":
        return _mbqc_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
