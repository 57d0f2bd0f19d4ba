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
failure or no gate time in the search window, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .effective import (
    MAX_QUBITS,
    PhasePolynomial,
    cluster_phase,
    phase_register,
    reference_cluster,
    verify_cluster,
)
from .geomphase import (
    MAX_G_TAU,
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
from .lattice import MAX_FREQUENCY_OVER_G, LatticeConfig
from .mbqc import (
    PatternParseError,
    cnot_pattern,
    parse_pattern,
    pattern_branches,
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
# measurement steps of an mbqc pattern: its outcome tree has up to 2^steps
# branches, and every branch of nonzero probability is run
_MAX_PATTERN_STEPS = 12
# qubits of a [cluster] snapshot: it writes one CSV row per basis state
_MAX_SNAPSHOT_QUBITS = 20
# snapshot rows formatted and written at a time
_SNAPSHOT_ROWS_PER_WRITE = 1 << 16


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


def _positive(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise _BrokenRule("finite and positive")
    return value


def _at_least_one(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise _BrokenRule("at least 1")
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
        "delta_step": ("delta_step", _positive), "tau_min": ("tau_min", _non_negative),
        "tau_max": ("tau_max", _finite), "tau_step": ("tau_step", _positive),
    },
    "cluster": {
        "tau": ("cluster_tau", _gate_time), "fidelity_min": ("fidelity_min", _finite),
        "nn_only": ("nn_only", _boolean), "periodic": ("periodic", _boolean),
        "snapshot": ("snapshot", _boolean),
    },
    "oracle": {
        "n_max": ("n_max", _at_least_one), "tolerance": ("tolerance", _positive),
        "tau": ("oracle_tau", _non_negative),
    },
    "mbqc": {
        "builtin": ("builtin", _one_of("wire", "cnot")), "theta1": ("theta1", _finite),
        "theta2": ("theta2", _finite), "theta3": ("theta3", _finite),
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
    # mbqc; pattern_path is set by --pattern only
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


# the keys each subcommand reads as a time or a detuning, bounded by g*tau <=
# MAX_G_TAU and |delta|/g <= MAX_FREQUENCY_OVER_G, so checked once g is known
_SCALED_KEYS = {
    "gamma-sweep": [("gamma-sweep", key)
                    for key in ("tau", "tau_min", "tau_max", "delta_min", "delta_max")],
    "cluster": [("cluster", "tau")],
    "oracle-verify": [("oracle", "tau")],
}


def _check_scaled(run: RunConfig, command: str, path: Path | None) -> None:
    """Refuse a time or detuning of the subcommand's keys that is past its bound.

    The defaults at the default g are within bounds, so a refusal has a file.
    """
    g = run.lattice.g
    for section, key in _SCALED_KEYS.get(command, ()):
        value = getattr(run, _KEYS[section][key][0])
        if value is None:  # [cluster] tau = auto
            continue
        if key.startswith("tau"):
            what, scaled, bound = "g*tau", g * value, MAX_G_TAU
        else:
            what, scaled, bound = "|delta|/g", abs(value) / g, MAX_FREQUENCY_OVER_G
        if scaled > bound:
            line = _line_number(path, section, key)
            where, default = (f"{path}, line {line}", "") if line else (f"{path}", " (default)")
            raise ConfigError(f"{where}: [{section}] {key} = {value!r}{default} puts {what} "
                              f"at {scaled:g}, past the bound {bound:g}")


def _fmt(value: float) -> str:
    """Shortest decimal representation that round-trips the float."""
    return repr(float(value))


def _write_report(path: Path, run: RunConfig, command: str, body: Iterable[str]) -> None:
    """Write the header, then each item of body and a newline, item by item."""
    lat = run.lattice
    header = [f"cavitycluster {command}", f"version = {__version__}", f"seed = {run.seed}",
              f"lattice.M = {lat.M}", f"lattice.N = {lat.N}", f"lattice.J = {lat.J!r}",
              f"lattice.delta = {lat.delta!r}", f"lattice.g = {lat.g!r}"]
    if run.preset:
        header.append(f"preset = {run.preset}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("".join(f"# {line}\n" for line in header))
        for item in body:
            fh.write(item + "\n")


def _snapshot_rows(phi: PhasePolynomial) -> Iterator[str]:
    """cluster_state.csv's lines, _SNAPSHOT_ROWS_PER_WRITE rows joined per item.

    Each row holds the amplitude 2^{-n/2} exp(i Phi) of phase_register,
    computed elementwise, so equal bits of Phi give an equal row: each
    distinct Phi, keyed by its bits (which keep -0.0 apart from 0.0), is
    exponentiated and formatted once, and each chunk of rows finds its
    strings by binary search in the sorted keys (an index over all 2^n rows
    would add 24 MB to a 20-qubit snapshot).  "%d.0" of an int i is
    _fmt(float(i)).
    """
    bits = phi.values().view(np.uint64)
    distinct = np.unique(bits)
    amps = 2.0 ** (-phi.M * phi.N / 2.0) * np.exp(1j * distinct.view(np.float64))
    pairs = np.array([f"{re!r},{im!r}" for re, im in zip(amps.real.tolist(), amps.imag.tolist())],
                     dtype=object)
    yield "basis_index,real,imag"
    for start in range(0, bits.size, _SNAPSHOT_ROWS_PER_WRITE):
        chunk = np.searchsorted(distinct, bits[start : start + _SNAPSHOT_ROWS_PER_WRITE])
        flat: list[object] = [None] * (2 * chunk.size)
        flat[0::2] = range(start, start + chunk.size)
        flat[1::2] = pairs[chunk].tolist()
        yield ("%d.0,%s\n" * chunk.size)[:-1] % tuple(flat)


def _grid(lo: float, hi: float, step: float, what: str) -> list[float]:
    if hi < lo:
        raise ConfigError(f"{what}: empty grid (max < min)")
    span = (hi - lo) / step  # inf when the step underflows the division
    if span >= _MAX_GRID_POINTS - 0.5:  # round(span) + 1 points would pass the cap
        raise ConfigError(f"{what}: more than {_MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(round(span) + 1)]


def _feasibility_lines(run: RunConfig, gate_time: float) -> list[str]:
    rep = feasibility_report(PRESETS[run.preset], run.lattice, gate_time)
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
    # a failed gate-time solve exits before any file is written
    feasibility = _feasibility_lines(run, solve_gate_time(run.lattice)) if run.preset else None
    g = run.lattice.g
    body = ["delta_over_g,gamma_nn"] + [f"{_fmt(d / g)},{_fmt(gam)}" for d, gam in rows_d]
    _write_report(out / "gamma_vs_delta.csv", run, "gamma-sweep", body)

    body = [",".join(["g_tau"] + [f"G_{dm}_{dn}" for dm, dn in run.separations])]
    for tau, row in rows_t:
        body.append(",".join(_fmt(v) for v in [g * tau] + [row[s] for s in run.separations]))
    _write_report(out / "gamma_vs_tau.csv", run, "gamma-sweep", body)
    if feasibility:
        _write_report(out / "feasibility.txt", run, "gamma-sweep", feasibility)
    return EXIT_OK


def cmd_cluster(run: RunConfig, out: Path) -> int:
    cfg = run.lattice
    if cfg.n_sites > MAX_QUBITS:
        raise ConfigError(f"{cfg.M}x{cfg.N} exceeds the {MAX_QUBITS}-qubit cap")
    if run.snapshot and cfg.n_sites > _MAX_SNAPSHOT_QUBITS:
        raise ConfigError(
            f"[cluster] snapshot = true on {cfg.M}x{cfg.N} would write 2^{cfg.n_sites} = "
            f"{2**cfg.n_sites} rows, over the {_MAX_SNAPSHOT_QUBITS}-qubit snapshot cap"
        )
    try:
        nn_sep = nn_separation(cfg)
    except ValueError as exc:
        raise ConfigError(f"[lattice] {exc}") from None
    tau = solve_gate_time(cfg) if run.cluster_tau is None else run.cluster_tau
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
        # the feasibility lines report the solved gate time, also under [cluster] tau
        gate_time = tau if run.cluster_tau is None else solve_gate_time(cfg)
        body.extend(_feasibility_lines(run, gate_time))
    _write_report(out / "cluster_report.txt", run, "cluster", body)

    if run.snapshot:
        _write_report(out / "cluster_state.csv", run, "cluster", _snapshot_rows(phi))
    return EXIT_OK if verdict else EXIT_VERIFY


def cmd_oracle_verify(run: RunConfig, out: Path) -> int:
    cfg = run.lattice
    try:
        rows = [  # name, value, bound, ok
            (f"identity.{name}", defect, 1e-14, defect <= 1e-14)
            for name, defect in oracle.check_identities(cfg.M, cfg.N).items()
        ]
        rep = oracle.echo_evolve(cfg, run.oracle_tau, run.n_max)
    except ValueError as exc:
        raise ConfigError(f"[oracle] {exc}") from None
    body = [f"error_estimate = {_fmt(rep.error_estimate)}",
            f"truncation_estimate = {_fmt(rep.truncation_estimate)}"]
    if not rep.error_estimate <= run.tolerance:  # NaN fails too
        rows.append(("echo.error_estimate", rep.error_estimate, run.tolerance, False))
    rows.append(("echo.residual_excitation", rep.residual_excitation, 1e-8,
                 rep.residual_excitation < 1e-8))
    sites = [(m, n) for m in range(cfg.M) for n in range(cfg.N)]
    try:
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                measured = oracle.extract_pair_phase(rep, a, b)
                analytic = pairwise_phase(cfg, run.oracle_tau, b[0] - a[0], b[1] - a[1])
                # the measured phase is known only modulo pi/2 (see extract_pair_phase)
                delta = abs(math.remainder(measured - analytic, math.pi / 2))
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
    if M * N > MAX_QUBITS:  # only a pattern file can span this many sites
        raise ConfigError(
            f"{run.pattern_path}: pattern needs a {M}x{N} cluster, over the {MAX_QUBITS}-qubit cap"
        )
    n_meas = len(pattern.steps)
    if n_meas > _MAX_PATTERN_STEPS:  # only a pattern file can be this long
        raise ConfigError(f"{run.pattern_path}: pattern has {n_meas} measurement steps, over "
                          f"the {_MAX_PATTERN_STEPS}-step cap on branch enumeration")

    if run.source == "reference":
        cluster = reference_cluster(M, N, periodic=False)
    else:
        cluster = generated_cluster_patch(run.lattice, M, N)

    outputs = [state for _, _, state in pattern_branches(cluster, pattern)]
    ref = outputs[0]

    def _phase_aligned_dev(st: np.ndarray) -> float:
        ov = np.vdot(ref, st)
        phase = ov / abs(ov) if abs(ov) >= 1e-12 else 1.0
        return float(np.linalg.norm(st - ref * phase))

    max_dev = max(_phase_aligned_dev(st) for st in outputs)
    deterministic = max_dev < 1e-10

    _, sampled = run_pattern(cluster, pattern, seed=run.seed)
    body = [
        f"source = {run.source}",
        f"cluster_shape = {M}x{N}",
        f"branches_evaluated = {len(outputs)}",
        f"max_branch_deviation = {_fmt(max_dev)}",
        f"deterministic = {'pass' if deterministic else 'fail'}",
        f"sampled_outcomes = {''.join(map(str, sampled))}",
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
        if name in ("gamma-sweep", "cluster"):  # the only reports with feasibility lines
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
        _check_scaled(run, args.command, args.config)
        run.seed = args.seed
        if run.seed < 0 or run.seed >= 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        run.preset = getattr(args, "preset", None)
        if getattr(args, "pattern", None) is not None:
            run.pattern_path = str(args.pattern)
        return _COMMANDS[args.command](run, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GateTimeNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
