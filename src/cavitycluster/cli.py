"""Command-line front end: sweeps, cluster verification, brute-force
cross-checks and measurement-pattern runs.

Subcommands: gamma-sweep, cluster, oracle-verify, mbqc.  Configuration is
flat INI (sections [lattice], [gamma-sweep], [cluster], [oracle], [mbqc]);
unknown keys are rejected with their line number.  Every output file starts
with a header comment giving the artifact version, the seed, the [lattice]
parameters and the hardware preset (if any), and is byte-identical across
reruns with the same inputs.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .effective import (
    MAX_QUBITS,
    cluster_phase,
    phase_register,
    reference_cluster,
    verify_cluster,
)
from .geomphase import (
    GateTimeNotFoundError,
    PRESETS,
    build_phase_table,
    feasibility_report,
    nn_separation,
    pairwise_phase,
    solve_gate_time,
    sweep_delta,
    sweep_tau,
)
from .lattice import LatticeConfig
from .mbqc import (
    PatternParseError,
    ZeroProbabilityError,
    cnot_pattern,
    parse_pattern,
    run_pattern,
    wire_rotation_pattern,
)
from . import oracle

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

# every key the INI schema accepts, per section
_SCHEMA: dict[str, set[str]] = {
    "lattice": {"m", "n", "j", "delta", "g"},
    "gamma-sweep": {
        "tau",
        "delta_min",
        "delta_max",
        "delta_step",
        "tau_min",
        "tau_max",
        "tau_step",
        "separations",
    },
    "cluster": {"tau", "nn_only", "periodic", "snapshot", "fidelity_min"},
    "oracle": {"n_max", "tolerance", "tau"},
    "mbqc": {"pattern", "builtin", "theta1", "theta2", "theta3", "source"},
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Fully resolved run parameters shared across subcommands."""

    lattice: LatticeConfig = field(
        default_factory=lambda: LatticeConfig(M=19, N=19, J=0.1, delta=0.0, g=1.0)
    )
    seed: int = 0
    preset: str | None = None
    # gamma-sweep
    sweep_tau_value: float = 3.0
    delta_min: float = 0.0
    delta_max: float = 30.0
    delta_step: float = 0.5
    tau_min: float = 0.0
    tau_max: float = 3.0
    tau_step: float = 0.02
    separations: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (1, 1), (2, 0))
    # cluster; a cluster_tau of None solves the gate time
    cluster_tau: float | None = None
    nn_only: bool = True
    periodic: bool = True
    snapshot: bool = False
    fidelity_min: float = 0.0
    # oracle
    n_max: int = 4
    tolerance: float = 1e-9
    oracle_tau: float = 3.0
    # mbqc
    pattern_path: str | None = None
    builtin: str | None = "wire"
    thetas: tuple[float, float, float] = (0.0, 0.0, 0.0)
    source: str = "reference"

    def header_items(self) -> list[tuple[str, str]]:
        lat = self.lattice
        items: list[tuple[str, str]] = [
            ("version", __version__),
            ("seed", str(self.seed)),
            ("lattice.M", str(lat.M)),
            ("lattice.N", str(lat.N)),
            ("lattice.J", repr(lat.J)),
            ("lattice.delta", repr(lat.delta)),
            ("lattice.g", repr(lat.g)),
        ]
        if self.preset:
            items.append(("preset", self.preset))
        return items


def _key_line_number(path: Path, section: str, key: str) -> int:
    current = None
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
        elif current == section and ("=" in line or ":" in line):
            name = line.replace(":", "=").split("=", 1)[0].strip().lower()
            if name == key:
                return line_no
    return 0


def _parse_separations(text: str, where: str) -> tuple[tuple[int, int], ...]:
    out = []
    for chunk in text.replace(";", " ").split():
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{where}: separation {chunk!r} is not 'dm,dn'")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(f"{where}: separation {chunk!r} is not integer") from None
    if not out:
        raise ConfigError(f"{where}: separation list is empty")
    return tuple(out)


def load_run_config(path: Path | None) -> RunConfig:
    """Parse and validate an INI file into a RunConfig (defaults if None)."""
    run = RunConfig()
    if path is None:
        return run
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    def key_error(sec: str, key: str, message: str) -> ConfigError:
        return ConfigError(f"{path}, line {_key_line_number(path, sec, key)}: {message}")

    for section in parser.sections():
        sec = section.lower()
        if sec not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key.lower() not in _SCHEMA[sec]:
                raise key_error(sec, key.lower(), f"unknown key {key!r} in section [{section}]")

    def get(sec: str, key: str, cast, default, non_negative: bool = False):
        """The key's value or default; a float must be finite (and >= 0 if asked)."""
        if not parser.has_option(sec, key):
            return default
        raw = parser.get(sec, key)
        try:
            value = parser.getboolean(sec, key) if cast is bool else cast(raw)
        except (ValueError, TypeError):
            raise key_error(sec, key, f"cannot parse {key} = {raw!r}") from None
        if cast is float and not (math.isfinite(value) and (value >= 0 or not non_negative)):
            rule = "finite and non-negative" if non_negative else "finite"
            raise key_error(sec, key, f"[{sec}] {key} must be {rule}")
        return value

    try:
        run.lattice = LatticeConfig(
            M=get("lattice", "m", int, run.lattice.M),
            N=get("lattice", "n", int, run.lattice.N),
            J=get("lattice", "j", float, run.lattice.J),
            delta=get("lattice", "delta", float, run.lattice.delta),
            g=get("lattice", "g", float, run.lattice.g),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    run.sweep_tau_value = get("gamma-sweep", "tau", float, run.sweep_tau_value, non_negative=True)
    run.delta_min = get("gamma-sweep", "delta_min", float, run.delta_min)
    run.delta_max = get("gamma-sweep", "delta_max", float, run.delta_max)
    run.delta_step = get("gamma-sweep", "delta_step", float, run.delta_step)
    run.tau_min = get("gamma-sweep", "tau_min", float, run.tau_min)
    run.tau_max = get("gamma-sweep", "tau_max", float, run.tau_max)
    run.tau_step = get("gamma-sweep", "tau_step", float, run.tau_step)
    if parser.has_option("gamma-sweep", "separations"):
        run.separations = _parse_separations(
            parser.get("gamma-sweep", "separations"), f"{path} [gamma-sweep] separations"
        )

    if parser.get("cluster", "tau", fallback="auto") != "auto":
        run.cluster_tau = get("cluster", "tau", float, run.cluster_tau, non_negative=True)
    run.nn_only = get("cluster", "nn_only", bool, run.nn_only)
    run.periodic = get("cluster", "periodic", bool, run.periodic)
    run.snapshot = get("cluster", "snapshot", bool, run.snapshot)
    run.fidelity_min = get("cluster", "fidelity_min", float, run.fidelity_min)

    run.n_max = get("oracle", "n_max", int, run.n_max)
    run.tolerance = get("oracle", "tolerance", float, run.tolerance)
    run.oracle_tau = get("oracle", "tau", float, run.oracle_tau, non_negative=True)

    run.pattern_path = get("mbqc", "pattern", str, run.pattern_path)
    run.builtin = get("mbqc", "builtin", str, run.builtin)
    run.thetas = (
        get("mbqc", "theta1", float, run.thetas[0]),
        get("mbqc", "theta2", float, run.thetas[1]),
        get("mbqc", "theta3", float, run.thetas[2]),
    )
    run.source = get("mbqc", "source", str, run.source)
    if run.source not in ("reference", "generated"):
        raise ConfigError(f"{path}: mbqc source must be 'reference' or 'generated'")
    return run


def _fmt(value: float) -> str:
    """Shortest decimal representation that round-trips the float."""
    return repr(float(value))


def _write_report(path: Path, run: RunConfig, command: str, body: list[str]) -> None:
    lines = [f"# cavitycluster {command}"]
    for key, val in run.header_items():
        lines.append(f"# {key} = {val}")
    lines.extend(body)
    path.write_text("\n".join(lines) + "\n")


def _grid(lo: float, hi: float, step: float, what: str) -> list[float]:
    if step <= 0:
        raise ConfigError(f"{what}: step must be positive")
    if hi < lo:
        raise ConfigError(f"{what}: empty grid (max < min)")
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


def _feasibility_lines(run: RunConfig) -> list[str]:
    preset = PRESETS[run.preset]
    rep = feasibility_report(preset, run.lattice)
    return [
        f"feasibility preset = {rep.preset}",
        f"gate_time_g_units = {_fmt(rep.gate_time_g_units)}",
        f"gate_time_seconds = {_fmt(rep.gate_time_seconds)}",
        f"ratio_T_cavity = {_fmt(rep.ratio_cavity)}",
        f"ratio_T_qubit = {_fmt(rep.ratio_qubit)}",
    ]


def cmd_gamma_sweep(run: RunConfig, out: Path) -> int:
    deltas = _grid(run.delta_min, run.delta_max, run.delta_step, "delta grid")
    taus = _grid(run.tau_min, run.tau_max, run.tau_step, "tau grid")

    try:
        rows_d = sweep_delta(run.lattice, run.sweep_tau_value, deltas)
        rows_t = sweep_tau(run.lattice, taus, list(run.separations))
    except ValueError as exc:
        raise ConfigError(f"[gamma-sweep] {exc}") from None
    body = ["delta_over_g,gamma_nn"] + [f"{_fmt(d)},{_fmt(g)}" for d, g in rows_d]
    _write_report(out / "gamma_vs_delta.csv", run, "gamma-sweep", body)

    body = [",".join(["g_tau"] + [f"G_{dm}_{dn}" for dm, dn in run.separations])]
    for tau, row in rows_t:
        body.append(",".join(_fmt(v) for v in [tau] + [row[s] for s in run.separations]))
    _write_report(out / "gamma_vs_tau.csv", run, "gamma-sweep", body)
    if run.preset:
        _write_report(out / "feasibility.txt", run, "gamma-sweep", _feasibility_lines(run))
    return EXIT_OK


def cmd_cluster(run: RunConfig, out: Path) -> int:
    cfg = run.lattice
    if cfg.n_sites > MAX_QUBITS:
        raise ConfigError(f"{cfg.M}x{cfg.N} exceeds the {MAX_QUBITS}-qubit cap")
    try:
        nn_sep = nn_separation(cfg)
    except ValueError as exc:
        raise ConfigError(f"[lattice] {exc}") from None
    tau = run.cluster_tau
    if tau is None:
        try:
            tau = solve_gate_time(cfg)
        except GateTimeNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFY

    table = build_phase_table(cfg, tau)
    try:
        phi = cluster_phase(cfg.M, cfg.N, table.grid, run.nn_only, run.periodic)
    except ValueError:
        raise ConfigError(
            f"[cluster] nn_only = false on an open {cfg.M}x{cfg.N} patch reads separations that "
            "wrap round its own table; set periodic = true or nn_only = true"
        ) from None
    report = verify_cluster(phi, run.periodic)
    fid = report.fidelity

    body = [
        f"tau = {_fmt(tau)}",
        f"g_tau = {_fmt(cfg.g * tau)}",
        f"gamma_nn = {_fmt(table.gamma(*nn_sep))}",
        f"nn_only = {run.nn_only}",
        f"periodic = {run.periodic}",
        f"fidelity = {_fmt(fid)}",
        f"fidelity_deficit = {_fmt(1.0 - fid)}",
    ]
    for m in range(cfg.M):
        for n in range(cfg.N):
            body.append(f"stabilizer_{m}_{n} = {_fmt(report.stabilizers[m, n])}")
    # each site's reduced density matrix is [[1/2, c], [c*, 1/2]]
    max_purity_dev = np.max(np.abs(report.coherences))
    body.append(f"min_stabilizer = {_fmt(np.min(report.stabilizers))}")
    body.append(f"max_single_site_dev_from_maximally_mixed = {_fmt(max_purity_dev)}")
    verdict = fid >= run.fidelity_min
    body.append(f"fidelity_min = {_fmt(run.fidelity_min)}")
    body.append(f"verdict = {'pass' if verdict else 'fail'}")
    if run.preset:
        body.extend(_feasibility_lines(run))
    _write_report(out / "cluster_report.txt", run, "cluster", body)

    if run.snapshot:
        amps = phase_register(phi).amps
        # 2^n rows: format the Python floats directly; f"{i}.0" is _fmt(float(i))
        rows = enumerate(zip(amps.real.tolist(), amps.imag.tolist()))
        body = ["basis_index,real,imag"] + [f"{i}.0,{re!r},{im!r}" for i, (re, im) in rows]
        _write_report(out / "cluster_state.csv", run, "cluster", body)
    return EXIT_OK if verdict else EXIT_VERIFY


def cmd_oracle_verify(run: RunConfig, out: Path) -> int:
    cfg = run.lattice
    if cfg.n_sites > oracle.MAX_ORACLE_QUBITS:
        raise ConfigError(
            f"{cfg.M}x{cfg.N} exceeds the {oracle.MAX_ORACLE_QUBITS}-qubit brute-force cap"
        )
    rows: list[tuple[str, float, float, bool]] = []  # name, value, bound, ok

    ids = oracle.check_identities(cfg.M, cfg.N)
    for name, defect in ids.items():
        rows.append((f"identity.{name}", defect, 1e-14, defect <= 1e-14))

    try:
        rep = oracle.echo_evolve(cfg, run.oracle_tau, run.n_max, run.tolerance)
    except oracle.IntegratorError as exc:
        rows.append(("echo.integrator", math.inf, 0.0, False))
        body = [f"integrator failure: {exc}"] + _report_rows(rows)
        _write_report(out / "oracle_report.txt", run, "oracle-verify", body)
        return EXIT_VERIFY
    except ValueError as exc:
        raise ConfigError(f"[oracle] {exc}") from None

    rows.append(("echo.residual_excitation", rep.residual_excitation, 1e-8,
                 rep.residual_excitation < 1e-8))
    sites = [(m, n) for m in range(cfg.M) for n in range(cfg.N)]
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            measured = oracle.extract_pair_phase(rep, a, b)
            analytic = pairwise_phase(cfg, run.oracle_tau, b[0] - a[0], b[1] - a[1])
            delta = abs(measured - analytic)
            rows.append((f"phase.{a[0]}{a[1]}-{b[0]}{b[1]}", delta, 1e-6, delta < 1e-6))

    body = [f"steps = {rep.steps}", f"error_estimate = {_fmt(rep.error_estimate)}"]
    body += _report_rows(rows)
    ok = all(r[3] for r in rows)
    body.append(f"verdict = {'pass' if ok else 'fail'}")
    _write_report(out / "oracle_report.txt", run, "oracle-verify", body)
    return EXIT_OK if ok else EXIT_VERIFY


def _report_rows(rows: list[tuple[str, float, float, bool]]) -> list[str]:
    return [
        f"{name}: value={_fmt(value)} bound={_fmt(bound)} {'pass' if ok else 'FAIL'}"
        for name, value, bound, ok in rows
    ]


def generated_cluster_patch(lattice: LatticeConfig, M: int, N: int):
    """Cluster state on an MxN patch carved from a large symmetric array.

    The two nearest-neighbor phases are read from the phase table of a big
    MxM == NxN lattice (so both directions carry the same Gamma) at its
    solved gate time, and couple the patch's grid edges with open boundaries,
    followed by the local correction.  A small asymmetric patch solved in
    isolation could not reach Gamma = pi/4 in both directions simultaneously.
    """
    size = max(19, M, N)
    sym = replace(lattice, M=size, N=size)
    table = build_phase_table(sym, solve_gate_time(sym))
    return phase_register(cluster_phase(M, N, table.grid, nn_only=True, periodic=False))


def _builtin_pattern(run: RunConfig):
    if run.builtin == "wire":
        return wire_rotation_pattern(*run.thetas), (1, 5)
    if run.builtin == "cnot":
        return cnot_pattern(), (3, 2)
    raise ConfigError(f"unknown builtin pattern {run.builtin!r}")


def cmd_mbqc(run: RunConfig, out: Path) -> int:
    if run.pattern_path:
        path = Path(run.pattern_path)
        if not path.is_file():
            raise ConfigError(f"pattern file not found: {path}")
        try:
            pattern = parse_pattern(path.read_text())
        except PatternParseError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        sites = [s.site for s in pattern.steps] + list(pattern.outputs)
        shape = (1 + max(s[0] for s in sites), 1 + max(s[1] for s in sites))
    else:
        pattern, shape = _builtin_pattern(run)
    M, N = shape
    if M * N > MAX_QUBITS:
        raise ConfigError(f"pattern needs a {M}x{N} cluster, over the {MAX_QUBITS}-qubit cap")

    if run.source == "reference":
        cluster = reference_cluster(M, N, periodic=False)
    else:
        cluster = generated_cluster_patch(run.lattice, M, N)

    n_meas = len(pattern.steps)
    outputs: list[np.ndarray] = []
    for branch in range(2**n_meas):
        forced = [(branch >> i) & 1 for i in range(n_meas)]
        try:
            state, _ = run_pattern(cluster, pattern, forced_outcomes=forced)
        except ZeroProbabilityError:
            continue
        outputs.append(state)
    if not outputs:
        raise ConfigError("no branch of the pattern has nonzero probability")
    ref = outputs[0]

    def _phase_aligned_dev(st: np.ndarray) -> float:
        ov = np.vdot(ref, st)
        if abs(ov) < 1e-12:
            return float(np.linalg.norm(st - ref))
        return float(np.linalg.norm(st - ref * (ov / abs(ov))))

    max_dev = max(_phase_aligned_dev(st) for st in outputs)
    deterministic = max_dev < 1e-10

    _, record = run_pattern(cluster, pattern, seed=run.seed)
    body = [
        f"source = {run.source}",
        f"cluster_shape = {M}x{N}",
        f"branches_evaluated = {len(outputs)}",
        f"max_branch_deviation = {_fmt(max_dev)}",
        f"deterministic = {'pass' if deterministic else 'fail'}",
        f"sampled_outcomes = {''.join(map(str, record.outcomes))}",
    ]
    for i, amp in enumerate(ref):
        body.append(f"logical_amp_{i} = {_fmt(amp.real)} {_fmt(amp.imag)}")
    _write_report(out / "mbqc_report.txt", run, "mbqc", body)
    return EXIT_OK if deterministic else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitycluster",
        description="Geometric-phase cluster-state generation in coupled-cavity arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gamma-sweep", "cluster", "oracle-verify", "mbqc"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=0, help="random seed (u64)")
        p.add_argument(
            "--preset", choices=sorted(PRESETS), default=None, help="hardware parameter set"
        )
        if name == "mbqc":
            p.add_argument("--pattern", type=Path, default=None, help="pattern file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        run = load_run_config(args.config)
        run.seed = args.seed
        if run.seed < 0 or run.seed >= 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        run.preset = args.preset
        if getattr(args, "pattern", None) is not None:
            run.pattern_path = str(args.pattern)
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "gamma-sweep":
            return cmd_gamma_sweep(run, out)
        if args.command == "cluster":
            return cmd_cluster(run, out)
        if args.command == "oracle-verify":
            return cmd_oracle_verify(run, out)
        return cmd_mbqc(run, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
