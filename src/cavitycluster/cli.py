"""Command-line front end: sweeps, cluster verification, brute-force
cross-checks and measurement-pattern runs.

Subcommands: gamma-sweep, cluster, oracle-verify, mbqc.  Configuration is
flat INI, read key by key through one table: sections [lattice],
[gamma-sweep], [cluster], [oracle] and [mbqc], matched exactly, and no
[DEFAULT].  An unknown section or key, or a value that does not parse or
breaks its key's rule, is refused with its line number.  Every output file
starts with a header comment giving the artifact version, the seed, the
[lattice] parameters and the hardware preset (if any), and is byte-identical
across reruns with the same inputs.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from collections.abc import Callable
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
# points of one gamma-sweep grid
_MAX_GRID_POINTS = 100_000


class ConfigError(ValueError):
    pass


class _BrokenRule(ValueError):
    """A value that parses but breaks its key's rule; the message states the rule."""


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise _BrokenRule("finite")
    return value


def _non_negative(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value >= 0):
        raise _BrokenRule("finite and non-negative")
    return value


def _gate_time(raw: str) -> float | None:
    """[cluster] tau; 'auto' (None) solves the gate time."""
    return None if raw == "auto" else _non_negative(raw)


def _boolean(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]  # KeyError if no boolean


def _separations(raw: str) -> tuple[tuple[int, int], ...]:
    pairs = [chunk.split(",") for chunk in raw.replace(";", " ").split()]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise _BrokenRule("integer pairs 'dm,dn'")
    return tuple((int(dm), int(dn)) for dm, dn in pairs)


def _one_of(*words: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in words:
            raise _BrokenRule(" or ".join(map(repr, words)))
        return raw

    return parse


# every INI key: section -> key -> (field it sets, parser); [lattice] keys set
# LatticeConfig fields, the others RunConfig fields.  A section or key that is
# not here is refused, so none can be accepted and then ignored.
_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "lattice": {
        "m": ("M", int), "n": ("N", int), "j": ("J", _finite), "delta": ("delta", _finite),
        "g": ("g", _finite),
    },
    "gamma-sweep": {
        "tau": ("sweep_tau_value", _non_negative), "separations": ("separations", _separations),
        "delta_min": ("delta_min", _finite), "delta_max": ("delta_max", _finite),
        "delta_step": ("delta_step", _finite), "tau_min": ("tau_min", _finite),
        "tau_max": ("tau_max", _finite), "tau_step": ("tau_step", _finite),
    },
    "cluster": {
        "tau": ("cluster_tau", _gate_time), "fidelity_min": ("fidelity_min", _finite),
        "nn_only": ("nn_only", _boolean), "periodic": ("periodic", _boolean),
        "snapshot": ("snapshot", _boolean),
    },
    "oracle": {
        "n_max": ("n_max", int), "tolerance": ("tolerance", _finite),
        "tau": ("oracle_tau", _non_negative),
    },
    "mbqc": {
        "pattern": ("pattern_path", str), "builtin": ("builtin", _one_of("wire", "cnot")),
        "theta1": ("theta1", _finite), "theta2": ("theta2", _finite), "theta3": ("theta3", _finite),
        "source": ("source", _one_of("reference", "generated")),
    },
}


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
    builtin: str = "wire"
    theta1: float = 0.0
    theta2: float = 0.0
    theta3: float = 0.0
    source: str = "reference"


def _line_number(path: Path, section: str, key: str | None = None) -> int:
    """Line of the [section] header, or of key within it, as configparser reads them."""
    current = None
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        header = configparser.ConfigParser.SECTCRE.match(line)
        if header:
            current = header.group("header")
            if current == section and key is None:
                return line_no
        elif current == section and line.replace(":", "=").split("=", 1)[0].strip().lower() == key:
            return line_no
    return 0


def load_run_config(path: Path | None) -> RunConfig:
    """Parse and validate an INI file into a RunConfig (defaults if None).

    Each key in the file is looked up in _KEYS, parsed, checked and stored.
    Section names match _KEYS exactly, as configparser matches them.
    """
    run = RunConfig()
    if path is None:
        return run
    # no header can name the empty section, so [DEFAULT] reads as an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    def refuse(message: str, section: str, key: str | None = None) -> ConfigError:
        return ConfigError(f"{path}, line {_line_number(path, section, key)}: {message}")

    for section in parser.sections():
        if section not in _KEYS:
            raise refuse(f"unknown section [{section}]", section)
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise refuse(f"unknown key {key!r} in section [{section}]", section, key)
            name, parse = _KEYS[section][key]
            try:
                value = parse(raw)
            except _BrokenRule as exc:
                raise refuse(f"[{section}] {key} must be {exc}", section, key) from None
            except (ValueError, KeyError):
                raise refuse(f"cannot parse {key} = {raw!r}", section, key) from None
            if section != "lattice":
                setattr(run, name, value)
                continue
            try:
                run.lattice = replace(run.lattice, **{name: value})
            except ValueError as exc:
                raise refuse(str(exc), section, key) from None
    return run


def _fmt(value: float) -> str:
    """Shortest decimal representation that round-trips the float."""
    return repr(float(value))


def _write_report(path: Path, run: RunConfig, command: str, body: list[str]) -> None:
    lat = run.lattice
    header = [f"cavitycluster {command}", f"version = {__version__}", f"seed = {run.seed}",
              f"lattice.M = {lat.M}", f"lattice.N = {lat.N}", f"lattice.J = {lat.J!r}",
              f"lattice.delta = {lat.delta!r}", f"lattice.g = {lat.g!r}"]
    if run.preset:
        header.append(f"preset = {run.preset}")
    path.write_text("".join(f"# {line}\n" for line in header) + "\n".join(body) + "\n")


def _grid(lo: float, hi: float, step: float, what: str) -> list[float]:
    if step <= 0:
        raise ConfigError(f"{what}: step must be positive")
    if hi < lo:
        raise ConfigError(f"{what}: empty grid (max < min)")
    span = (hi - lo) / step  # inf when the step underflows the division
    if span >= _MAX_GRID_POINTS - 0.5:  # round(span) + 1 points would pass the cap
        raise ConfigError(f"{what}: more than {_MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(round(span) + 1)]


def _feasibility_lines(run: RunConfig) -> list[str]:
    rep = feasibility_report(PRESETS[run.preset], run.lattice)
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
    g = run.lattice.g
    body = ["delta_over_g,gamma_nn"] + [f"{_fmt(d / g)},{_fmt(gam)}" for d, gam in rows_d]
    _write_report(out / "gamma_vs_delta.csv", run, "gamma-sweep", body)

    body = [",".join(["g_tau"] + [f"G_{dm}_{dn}" for dm, dn in run.separations])]
    for tau, row in rows_t:
        body.append(",".join(_fmt(v) for v in [g * tau] + [row[s] for s in run.separations]))
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
    body += [f"stabilizer_{m}_{n} = {_fmt(s)}" for (m, n), s in np.ndenumerate(report.stabilizers)]
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
    body: list[str] = []
    try:
        rows = [  # name, value, bound, ok
            (f"identity.{name}", defect, 1e-14, defect <= 1e-14)
            for name, defect in oracle.check_identities(cfg.M, cfg.N).items()
        ]
        rep = oracle.echo_evolve(cfg, run.oracle_tau, run.n_max, run.tolerance)
    except oracle.IntegratorError as exc:
        body.append(f"integrator failure: {exc}")
        rows.append(("echo.integrator", math.inf, 0.0, False))
    except ValueError as exc:
        raise ConfigError(f"[oracle] {exc}") from None
    else:
        body += [f"steps = {rep.steps}", f"error_estimate = {_fmt(rep.error_estimate)}"]
        rows.append(("echo.residual_excitation", rep.residual_excitation, 1e-8,
                     rep.residual_excitation < 1e-8))
        sites = [(m, n) for m in range(cfg.M) for n in range(cfg.N)]
        try:
            for i, a in enumerate(sites):
                for b in sites[i + 1:]:
                    measured = oracle.extract_pair_phase(rep, a, b)
                    analytic = pairwise_phase(cfg, run.oracle_tau, b[0] - a[0], b[1] - a[1])
                    delta = abs(measured - analytic)
                    rows.append((f"phase.{a[0]}{a[1]}-{b[0]}{b[1]}", delta, 1e-6, delta < 1e-6))
        except oracle.InvalidExtractionError as exc:
            body.append(f"phase extraction failure: {exc}")

    body += [
        f"{name}: value={_fmt(value)} bound={_fmt(bound)} {'pass' if ok else 'FAIL'}"
        for name, value, bound, ok in rows
    ]
    ok = all(r[3] for r in rows)
    body.append(f"verdict = {'pass' if ok else 'fail'}")
    _write_report(out / "oracle_report.txt", run, "oracle-verify", body)
    return EXIT_OK if ok else EXIT_VERIFY


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


def cmd_mbqc(run: RunConfig, out: Path) -> int:
    if run.pattern_path:
        path = Path(run.pattern_path)
        try:
            pattern = parse_pattern(path.read_text())
        except PatternParseError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    elif run.builtin == "wire":
        pattern = wire_rotation_pattern(run.theta1, run.theta2, run.theta3)
    else:
        pattern = cnot_pattern()
    sites = [s.site for s in pattern.steps] + list(pattern.outputs)
    if not sites:  # only a pattern file can be empty
        raise ConfigError(f"{run.pattern_path}: pattern has no steps and no outputs")
    M, N = 1 + max(s[0] for s in sites), 1 + max(s[1] for s in sites)
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
        phase = ov / abs(ov) if abs(ov) >= 1e-12 else 1.0
        return float(np.linalg.norm(st - ref * phase))

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
    body += [f"logical_amp_{i} = {_fmt(amp.real)} {_fmt(amp.imag)}" for i, amp in enumerate(ref)]
    _write_report(out / "mbqc_report.txt", run, "mbqc", body)
    return EXIT_OK if deterministic else EXIT_VERIFY


_COMMANDS = {
    "gamma-sweep": cmd_gamma_sweep,
    "cluster": cmd_cluster,
    "oracle-verify": cmd_oracle_verify,
    "mbqc": cmd_mbqc,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitycluster",
        description="Geometric-phase cluster-state generation in coupled-cavity arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=0, help="random seed (u64)")
        p.add_argument("--preset", choices=sorted(PRESETS), help="hardware parameter set")
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
        return _COMMANDS[args.command](run, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
