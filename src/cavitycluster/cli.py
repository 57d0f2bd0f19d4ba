"""Command-line front end: sweeps, cluster verification, brute-force
cross-checks and measurement-pattern runs.

Subcommands: gamma-sweep, cluster, oracle-verify, mbqc, each declared once
in _COMMANDS.  Configuration is flat INI, read in one pass through one table
of sections ([lattice], [gamma-sweep], [cluster], [oracle], [mbqc], matched
exactly, so no [DEFAULT]) and keys; each key outside [lattice] is declared by
the RunConfig field it sets, with its parser and default.  Frequencies are in
units of g and times in units of 1/g.  Files are read as UTF-8.  Every config
error is built by _refuse in one form, '<file>, line <n>: <what>': a byte that
is not UTF-8, a malformed, unknown or repeated line, a value that breaks its
key's parser or rule, a lattice over the mode cap or with no pair, an mbqc key
set off its default but not read, a bad pattern line, and each refusal at run
time, at the last line among the keys that decide it (the message alone if the
file sets none); a whole pattern file is named alone.  Every output file
starts with a header comment giving the artifact version, the seed (mbqc only,
the one subcommand that samples), the [lattice] parameters and the hardware
preset (if any), and is byte-identical across reruns with the same inputs.
Exit codes: 0 success, 1 verification failure or no gate time in the search
window, 2 usage or configuration error.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .effective import (
    MAX_EXACT_QUBITS,
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
    solve_gate_time,
    sweep_delta,
    sweep_tau,
)
from .lattice import MAX_FREQUENCY_OVER_G, LatticeConfig
from .mbqc import (
    PatternParseError,
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
# measurement steps of an mbqc pattern: its outcome tree has up to 2^steps
# branches, and every branch of nonzero probability is run
_MAX_PATTERN_STEPS = 12
# qubits of a [cluster] snapshot: it writes one CSV row per basis state
_MAX_SNAPSHOT_QUBITS = 20
# snapshot rows formatted and written at a time, a divisor of 10^4: each run is
# a fresh process, which pays for every page it touches first, so a chunk small
# enough to reuse its memory from one write to the next (about 500 KB of rows)
# beats one that touches megabytes once
_SNAPSHOT_ROWS_PER_WRITE = 10**4


class ConfigError(ValueError):
    pass


class _BrokenRule(ValueError):
    """A value that parses but breaks its key's rule; the message states the rule."""


def _rule(parse: Callable[[str], object], ok: Callable[[object], bool], text: str):
    """A parser: parse (a rule itself, perhaps), then refuse a value that is not ok, stating text."""
    def check(raw: str):
        if not ok(value := parse(raw)):
            raise _BrokenRule(text)
        return value

    return check


_finite = _rule(float, math.isfinite, "finite")
_non_negative = _rule(float, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative")
_positive = _rule(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_at_least_one = _rule(int, lambda v: v >= 1, "at least 1")
_u64 = _rule(int, lambda v: 0 <= v < 2**64, "an unsigned 64-bit integer")
# a time in units of 1/g, so g*tau, and a detuning in units of g
_time = _rule(_non_negative, lambda v: v <= MAX_G_TAU, f"at most {MAX_G_TAU:g}")
_detuning = _rule(_finite, lambda v: abs(v) <= MAX_FREQUENCY_OVER_G,
                  f"in [-{MAX_FREQUENCY_OVER_G:g}, {MAX_FREQUENCY_OVER_G:g}]")


def _one_of(*words: str) -> Callable[[str], str]:
    return _rule(str, lambda v: v in words, " or ".join(map(repr, words)))


def _gate_time(raw: str) -> float | None:
    """[cluster] tau; 'auto' (None) solves the gate time."""
    return None if raw == "auto" else _time(raw)


def _boolean(raw: str) -> bool:
    return {"1": True, "yes": True, "true": True, "on": True,  # KeyError if no boolean
            "0": False, "no": False, "false": False, "off": False}[raw.lower()]


def _separations(raw: str) -> tuple[tuple[int, int], ...]:
    pairs = [chunk.split(",") for chunk in raw.replace(";", " ").split()]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise _BrokenRule("integer pairs 'dm,dn'")
    return tuple((int(dm), int(dn)) for dm, dn in pairs)


def _key(section: str, key: str, parse: Callable[[str], object], default: object):
    """A RunConfig field set by INI key [section] key through parse."""
    return field(default=default, metadata={"ini": (section, key, parse)})


@dataclass
class RunConfig:
    """Fully resolved run parameters shared across subcommands; each INI key outside
    [lattice] is declared once, by _key on the field it sets."""

    lattice: LatticeConfig = LatticeConfig(M=19, N=19, J=0.1, delta=0.0)
    # set by --seed, which only mbqc takes; None in every other run
    seed: int | None = None
    preset: str | None = None
    sweep_tau_value: float = _key("gamma-sweep", "tau", _time, 3.0)
    tau_min: float = _key("gamma-sweep", "tau_min", _time, 0.0)
    tau_max: float = _key("gamma-sweep", "tau_max", _time, 3.0)
    tau_step: float = _key("gamma-sweep", "tau_step", _positive, 0.02)
    delta_min: float = _key("gamma-sweep", "delta_min", _detuning, 0.0)
    delta_max: float = _key("gamma-sweep", "delta_max", _detuning, 30.0)
    delta_step: float = _key("gamma-sweep", "delta_step", _positive, 0.5)
    separations: tuple[tuple[int, int], ...] = _key(
        "gamma-sweep", "separations", _separations, ((1, 0), (0, 1), (1, 1), (2, 0)))
    # a cluster_tau of None ('auto') solves the gate time
    cluster_tau: float | None = _key("cluster", "tau", _gate_time, None)
    nn_only: bool = _key("cluster", "nn_only", _boolean, False)
    periodic: bool = _key("cluster", "periodic", _boolean, True)
    snapshot: bool = _key("cluster", "snapshot", _boolean, False)
    fidelity_min: float = _key("cluster", "fidelity_min", _finite, 0.0)
    n_max: int = _key("oracle", "n_max", _at_least_one, 4)
    tolerance: float = _key("oracle", "tolerance", _positive, 1e-9)
    oracle_tau: float = _key("oracle", "tau", _time, 3.0)
    # set by --pattern only
    pattern_path: str | None = None
    builtin: str = _key("mbqc", "builtin", _one_of("wire", "cnot"), "wire")
    theta1: float = _key("mbqc", "theta1", _finite, 0.0)
    theta2: float = _key("mbqc", "theta2", _finite, 0.0)
    theta3: float = _key("mbqc", "theta3", _finite, 0.0)
    source: str = _key("mbqc", "source", _one_of("reference", "generated"), "reference")
    # the config file, and the line of each 'section.key' it sets, named by refusals
    config_path: Path | None = field(default=None, compare=False, repr=False)
    lines: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def refuse(self, message: str, *keys: str) -> ConfigError:
        """A refusal that keys ('section.key') decide: at the last of their lines that the
        config file sets, or the message alone if it sets none of them."""
        line = max(self.lines.get(key, 0) for key in keys)
        return _refuse(self.config_path if line else None, line, message)


# the keys that decide the lattice's size
_MN = ("lattice.m", "lattice.n")


# (field, default, section, key, parser) of each RunConfig field an INI key sets
_INI_FIELDS = [(f.name, f.default, *f.metadata["ini"]) for f in fields(RunConfig) if f.metadata]
# every INI key: section -> key -> (field it sets, parser); [lattice] keys set
# LatticeConfig fields.  A section or key that is not here is refused, so none can
# be accepted and then ignored.
_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {"lattice": {
    "m": ("M", _at_least_one), "n": ("N", _at_least_one),
    "j": ("J", _finite), "delta": ("delta", _finite),
}}
for _name, _, _section, _ini_key, _parse in _INI_FIELDS:
    _KEYS.setdefault(_section, {})[_ini_key] = (_name, _parse)


def _refuse(path: Path | str | None, line: int, message: str) -> ConfigError:
    """Every config error, in one form: '<path>, line <line>: <message>', '<path>: <message>'
    for a whole file (line 0), or the message alone with no path."""
    where = f"{path}, line {line}: " if line else f"{path}: " if path else ""
    return ConfigError(where + message)


def _read_text(path: Path) -> str:
    """path's text as UTF-8, whatever the locale, with each '\\r\\n' or '\\r' read as '\\n', as
    text mode reads them; a byte that is not UTF-8 is refused at its line."""
    data = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise _refuse(path, data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None


def _read_ini(path: Path) -> Iterator[tuple[int, str, str | None, str | None]]:
    """(line, section, key, value) of each '[section]' header (key and value None) and
    'key = value' or 'key: value' line, in file order, with the key lower-cased.  Lines
    are stripped, and blank lines and full-line '#' or ';' comments skipped; a line that
    is neither, an indented one, a key before any header and a repeat are refused."""
    section, seen = None, set()
    for line, raw in enumerate(_read_text(path).split("\n"), start=1):
        text = raw.strip()
        if not text or text[0] in "#;":
            continue
        # a header runs to the line's last ']'; a key line splits at its first '=' or ':'
        match = re.match(r"\[(.+)\]|([^=:]*[^=:\s])\s*[=:]\s*(.*)", text)
        if raw[0].isspace() or not match:
            raise _refuse(path, line, f"expected an unindented '[section]' or 'key = value', got {raw!r}")
        header, key, value = match.groups()
        section, key = header or section, key and key.lower()
        if section is None:
            raise _refuse(path, line, "a key before any [section] header")
        if (section, key) in seen:
            raise _refuse(path, line, f"repeated {f'key {key!r} in ' if key else ''}section [{section}]")
        seen.add((section, key))
        yield line, section, key, value


def load_run_config(path: Path | None) -> RunConfig:
    """Parse and validate an INI file into a RunConfig (defaults if None).

    One _read_ini pass looks each key up in _KEYS, parses, checks and stores it, and
    keeps its line for later refusals.  The lattice's joint rules, the mode cap and a
    lattice with no pair (1x1), wait for both M and N and name the later line.
    """
    run = RunConfig(config_path=path)
    if path is None:
        return run
    dims = {}
    for line, section, key, raw in _read_ini(path):
        if section not in _KEYS:
            raise _refuse(path, line, f"unknown section [{section}]")
        if key is None:
            continue
        if key not in _KEYS[section]:
            raise _refuse(path, line, f"unknown key {key!r} in section [{section}]")
        run.lines[f"{section}.{key}"] = line
        name, parse = _KEYS[section][key]
        try:
            value = parse(raw)
        except _BrokenRule as exc:
            raise _refuse(path, line, f"[{section}] {key} must be {exc}") from None
        except (ValueError, KeyError):
            raise _refuse(path, line, f"cannot parse {key} = {raw!r}") from None
        if section != "lattice":
            setattr(run, name, value)
        elif name in ("M", "N"):  # their joint rules wait for both
            dims[name] = value
        else:
            try:
                run.lattice = replace(run.lattice, **{name: value})
            except ValueError as exc:
                raise _refuse(path, line, str(exc)) from None
    try:
        run.lattice = replace(run.lattice, **dims)
        nn_separation(run.lattice)
    except ValueError as exc:
        raise run.refuse(str(exc), *_MN) from None
    return run


def _check_mbqc(run: RunConfig) -> None:
    """Refuse an [mbqc] key that the run does not read and the file sets off its default,
    and under the reference source a [lattice] key; every other key is read by each run
    of the subcommand that its section names."""
    if run.source == "reference":  # the reference cluster reads no [lattice]
        for key, (name, _) in _KEYS["lattice"].items():
            if (value := getattr(run.lattice, name)) != getattr(RunConfig.lattice, name):
                raise run.refuse(f"[lattice] {name} = {value!r} is not read: source = reference "
                                 "takes no lattice", f"lattice.{key}")
    # a pattern file replaces the builtin, and only the wire builtin takes angles
    if run.pattern_path:
        unread, why = ("builtin", "theta1", "theta2", "theta3"), "--pattern replaces the builtin"
    else:
        unread = ("theta1", "theta2", "theta3") if run.builtin != "wire" else ()
        why = f"builtin = {run.builtin} takes no angles"
    for name, default, section, key, _ in _INI_FIELDS:
        if name in unread and (value := getattr(run, name)) != default:
            raise run.refuse(f"[{section}] {key} = {value!r} is not read: {why}", f"{section}.{key}")


def _fmt(value: float) -> str:
    """Shortest decimal representation that round-trips the float."""
    return repr(float(value))


def _write_report(path: Path, run: RunConfig, command: str, body: Iterable[str | bytes]) -> None:
    """Write the header, then body: a str item UTF-8 encoded with a newline, a bytes item as is."""
    lat = run.lattice
    header = [f"cavitycluster {command}", f"version = {__version__}"]
    if run.seed is not None:
        header.append(f"seed = {run.seed}")
    header += [f"lattice.M = {lat.M}", f"lattice.N = {lat.N}", f"lattice.J = {lat.J!r}",
               f"lattice.delta = {lat.delta!r}"]
    if run.preset:
        header.append(f"preset = {run.preset}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header).encode())
        for item in body:
            fh.write((item + "\n").encode() if isinstance(item, str) else item)


def _snapshot_rows(phi: PhasePolynomial) -> Iterator[bytes]:
    """cluster_state.csv's lines as bytes, _SNAPSHOT_ROWS_PER_WRITE rows per item.

    Each row holds phase_register's amplitude 2^{-n/2} exp(i Phi), computed
    elementwise, so each distinct Phi, keyed by its bits (which keep -0.0 apart
    from 0.0), is formatted once into a NUL-padded table of row tails; one argsort
    of the keys gives each row its tail's number (a uint32 per row).  Each chunk
    gathers its tails into a reused byte matrix, right of the index's digits with
    NUL left of the top one: no repr holds a NUL, so its nonzero bytes are the
    chunk's lines.  An index's low four digits come from one table; the rest are
    the same across a chunk (of a divisor of 10^4 rows) and NUL below 10^4, where
    the table's leading zeros are NUL too.  "%d.0" of i is _fmt(float(i)).
    """
    bits = phi.values().view(np.uint64)
    order = np.argsort(bits)  # np.unique imports numpy.ma (10 ms) on numpy 2
    bits.sort()  # in place: a sorted copy would hold 8 MB more at 20 qubits
    first = np.concatenate(([True], bits[1:] != bits[:-1]))
    distinct, inverse = bits[first], np.empty(bits.size, np.uint32)
    del bits  # 8 MB at 20 qubits, freed before the inverse's 4 MB is written
    inverse[order] = np.cumsum(first, dtype=np.uint32) - 1
    del order, first
    amps = 2.0 ** (-phi.M * phi.N / 2.0) * np.exp(1j * distinct.view(np.float64))
    tails = np.array([f".0,{z.real!r},{z.imag!r}\n" for z in amps.tolist()], dtype=bytes)
    table = tails.view(np.uint8).reshape(tails.size, -1)
    digits = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    lead = digits * (np.arange(10**4)[:, None] >= [1000, 100, 10, 0])  # leading zeros NUL
    high = max(len(str(inverse.size - 1)) - 4, 0)  # columns left of the low four
    rows = np.empty((min(inverse.size, _SNAPSHOT_ROWS_PER_WRITE), high + 4 + table.shape[1]), np.uint8)
    yield b"basis_index,real,imag\n"
    for start in range(0, inverse.size, _SNAPSHOT_ROWS_PER_WRITE):
        block = rows[: min(inverse.size - start, rows.shape[0])]
        top, offset = divmod(start, 10**4)
        block[:, :high] = np.frombuffer(str(top or "").rjust(high, "\0").encode(), np.uint8)
        block[:, high : high + 4] = (digits if top else lead)[offset : offset + len(block)]
        block[:, high + 4 :] = table.take(inverse[start : start + len(block)], axis=0)
        yield block[block != 0].tobytes()


def _grid(run: RunConfig, name: str, bound: float) -> list[float]:
    """The [gamma-sweep] grid from <name>_min in steps of <name>_step to <name>_max; a point
    that passes bound, the rule of those keys, by rounding is the bound itself."""
    lo, hi, step = (getattr(run, f"{name}_{end}") for end in ("min", "max", "step"))
    keys = [f"gamma-sweep.{name}_{end}" for end in ("min", "max", "step")]
    if hi < lo:
        raise run.refuse(f"{name} grid: empty grid (max < min)", *keys)
    # the last point may pass hi by rounding (up to 1e-9 step), not by more
    span = (hi - lo) / step + 1e-9  # inf when the step underflows the division
    if span >= _MAX_GRID_POINTS:  # int(span) + 1 points would pass the cap
        raise run.refuse(f"{name} grid: more than {_MAX_GRID_POINTS} points", *keys)
    return [min(lo + i * step, bound) for i in range(int(span) + 1)]


def _feasibility_lines(run: RunConfig, gate_time: float) -> list[str]:
    rep = feasibility_report(PRESETS[run.preset], gate_time)
    return [
        f"feasibility preset = {rep.preset}",
        f"gate_time_g_units = {_fmt(rep.gate_time_g_units)}",
        f"gate_time_seconds = {_fmt(rep.gate_time_seconds)}",
        f"ratio_T_cavity = {_fmt(rep.ratio_cavity)}",
        f"ratio_T_qubit = {_fmt(rep.ratio_qubit)}",
    ]


def cmd_gamma_sweep(run: RunConfig, out: Path) -> int:
    deltas, taus = _grid(run, "delta", MAX_FREQUENCY_OVER_G), _grid(run, "tau", MAX_G_TAU)
    rows_d = sweep_delta(run.lattice, run.sweep_tau_value, deltas)
    try:
        rows_t = sweep_tau(run.lattice, taus, list(run.separations))
    except ValueError as exc:  # a separation that is zero on the lattice
        raise run.refuse(f"[gamma-sweep] {exc}", "gamma-sweep.separations", *_MN) from None
    # a failed gate-time solve exits before any file is written
    feasibility = _feasibility_lines(run, solve_gate_time(run.lattice)) if run.preset else None
    body = ["delta_over_g,gamma_nn"] + [f"{_fmt(d)},{_fmt(gam)}" for d, gam in rows_d]
    _write_report(out / "gamma_vs_delta.csv", run, "gamma-sweep", body)

    body = [",".join(["g_tau"] + [f"G_{dm}_{dn}" for dm, dn in run.separations])]
    for tau, row in rows_t:
        body.append(",".join(_fmt(v) for v in [tau] + [row[s] for s in run.separations]))
    _write_report(out / "gamma_vs_tau.csv", run, "gamma-sweep", body)
    if feasibility:
        _write_report(out / "feasibility.txt", run, "gamma-sweep", feasibility)
    return EXIT_OK


def cmd_cluster(run: RunConfig, out: Path) -> int:
    cfg = run.lattice
    if cfg.n_sites > MAX_EXACT_QUBITS:
        raise run.refuse(f"{cfg.M}x{cfg.N} exceeds the {MAX_EXACT_QUBITS}-qubit cap on the exact "
                         "sum", *_MN)
    if run.snapshot and cfg.n_sites > _MAX_SNAPSHOT_QUBITS:
        raise run.refuse(f"[cluster] snapshot = true on {cfg.M}x{cfg.N} would write "
                         f"2^{cfg.n_sites} = {2**cfg.n_sites} rows, over the "
                         f"{_MAX_SNAPSHOT_QUBITS}-qubit snapshot cap", "cluster.snapshot", *_MN)
    tau = solve_gate_time(cfg) if run.cluster_tau is None else run.cluster_tau
    table = build_phase_table(cfg, tau)
    try:
        phi = cluster_phase(cfg.M, cfg.N, table.grid, run.nn_only, run.periodic)
    except ValueError:
        raise run.refuse(f"[cluster] nn_only = false on an open {cfg.M}x{cfg.N} patch reads "
                         "separations that wrap round its own table; set periodic = true or "
                         "nn_only = true", "cluster.periodic", "cluster.nn_only") from None
    report = verify_cluster(phi, run.periodic)
    fid = report.fidelity

    body = [
        f"tau = {_fmt(tau)}",
        f"g_tau = {_fmt(tau)}",
        f"gamma_nn = {_fmt(table.gamma(*nn_separation(cfg)))}",
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
        table = build_phase_table(cfg, run.oracle_tau)
    except ValueError as exc:
        raise run.refuse(f"[oracle] {exc}", "oracle.n_max", *_MN) from None
    body = [f"error_estimate = {_fmt(rep.error_estimate)}",
            f"truncation_estimate = {_fmt(rep.truncation_estimate)}"]
    if not rep.error_estimate <= run.tolerance:  # NaN fails too
        rows.append(("echo.error_estimate", rep.error_estimate, run.tolerance, False))
    rows.append(("echo.residual_excitation", rep.residual_excitation, 1e-8,
                 rep.residual_excitation < 1e-8))
    try:
        for (a, b), measured in oracle.extract_pair_phase(rep).items():
            analytic = table.gamma(b[0] - a[0], b[1] - a[1])
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
    """Cluster state on an MxN patch of lattice: its open grid edges take the phases of
    the lattice's table at its solved gate time, then the local correction.  The solve
    puts pi/4 on one axis, so on a small lattice with M != N the other misses it."""
    table = build_phase_table(lattice, solve_gate_time(lattice))
    return phase_register(cluster_phase(M, N, table.grid, nn_only=True, periodic=False))


def cmd_mbqc(run: RunConfig, out: Path) -> int:
    if run.pattern_path:
        try:
            pattern = parse_pattern(_read_text(Path(run.pattern_path)))
        except PatternParseError as exc:
            raise _refuse(run.pattern_path, exc.line_no, exc.message) from None
    elif run.builtin == "wire":
        pattern = wire_rotation_pattern(run.theta1, run.theta2, run.theta3)
    else:
        pattern = cnot_pattern()
    sites = [s.site for s in pattern.steps] + list(pattern.outputs)
    if not sites:  # only a pattern file can be empty
        raise _refuse(run.pattern_path, 0, "pattern has no steps and no outputs")
    M, N = 1 + max(s[0] for s in sites), 1 + max(s[1] for s in sites)
    if M * N > MAX_QUBITS:  # only a pattern file can span this many sites
        raise _refuse(run.pattern_path, 0, f"pattern needs a {M}x{N} cluster, over the "
                      f"{MAX_QUBITS}-qubit cap")
    n_meas = len(pattern.steps)
    if n_meas > _MAX_PATTERN_STEPS:  # only a pattern file can be this long
        raise _refuse(run.pattern_path, 0, f"pattern has {n_meas} measurement steps, over the "
                      f"{_MAX_PATTERN_STEPS}-step cap on branch enumeration")

    if run.source == "reference":
        cluster = reference_cluster(M, N, periodic=False)
    else:
        if M > run.lattice.M or N > run.lattice.N:
            raise run.refuse(f"[lattice] the pattern's {M}x{N} patch does not fit the "
                             f"{run.lattice.M}x{run.lattice.N} lattice", "mbqc.source", *_MN)
        cluster = generated_cluster_patch(run.lattice, M, N)

    outcomes, _, states, drawn = run_pattern(cluster, pattern, seed=run.seed)
    ref = states[0].copy()
    # in place: turn each branch onto ref by the phase of <ref|state> (none where that
    # overlap is below 1e-12), then subtract ref
    overlap = np.einsum("ij,j->i", states, ref.conj())
    size = np.abs(overlap)
    states *= np.where(size >= 1e-12, overlap.conj() / np.maximum(size, 1e-12), 1.0)[:, None]
    states -= ref
    flat = states.view(float)
    max_dev = math.sqrt(np.max(np.einsum("ij,ij->i", flat, flat)))
    deterministic = max_dev < 1e-10

    body = [
        f"source = {run.source}",
        f"cluster_shape = {M}x{N}",
        f"branches_evaluated = {len(states)}",
        f"max_branch_deviation = {_fmt(max_dev)}",
        f"deterministic = {'pass' if deterministic else 'fail'}",
        f"sampled_outcomes = {''.join(map(str, outcomes[drawn]))}",
    ]
    body += [f"logical_amp_{i} = {_fmt(amp.real)} {_fmt(amp.imag)}" for i, amp in enumerate(ref)]
    _write_report(out / "mbqc_report.txt", run, "mbqc", body)
    return EXIT_OK if deterministic else EXIT_VERIFY


# every command-line flag and its value rule
_FLAGS: dict[str, Callable[[str], object]] = {"--config": Path, "--out": Path, "--seed": _u64,
                                              "--preset": _one_of(*sorted(PRESETS)), "--pattern": Path}
# each subcommand: its function and its flags; gamma-sweep and cluster alone write
# feasibility lines, and mbqc alone samples, so it alone takes a seed
_COMMANDS = {name: (command, ("--config", "--out", *extra)) for name, command, *extra in (
    ("gamma-sweep", cmd_gamma_sweep, "--preset"),
    ("cluster", cmd_cluster, "--preset"),
    ("oracle-verify", cmd_oracle_verify),
    ("mbqc", cmd_mbqc, "--seed", "--pattern"))}
_USAGE = "usage: cavitycluster -h | --help\n" + "\n".join(f"       cavitycluster {name}" + "".join(
    f" [{flag} {flag[2:].upper()}]" for flag in flags) for name, (_, flags) in _COMMANDS.items())


def _parse_argv(argv: list[str]) -> tuple[str, dict[str, object]]:
    """(command, {flag: value}) of 'cavitycluster <command> [--flag value | --flag=value]...'."""
    def refuse(message: str) -> ConfigError:
        return ConfigError(f"{message}\n{_USAGE}")

    words = iter(argv)
    command, flags = next(words, None), {}
    if command not in _COMMANDS:
        raise refuse("no command" if command is None else f"unknown command {command!r}")
    for word in words:
        flag, eq, raw = word.partition("=")
        if flag not in _COMMANDS[command][1]:
            raise refuse(f"{command} does not take {word!r}")
        if flag in flags:
            raise refuse(f"{flag} is given twice")
        # the end of argv reads as "--", so both lack a value
        if not eq and (raw := next(words, "--")).startswith("--"):
            raise refuse(f"{flag} needs a value")
        try:
            flags[flag] = _FLAGS[flag](raw)
        except _BrokenRule as exc:
            raise refuse(f"{flag} must be {exc}") from None
        except ValueError:
            raise refuse(f"cannot parse {flag} {raw!r}") from None
    return command, flags


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        if "-h" in argv or "--help" in argv:
            print(_USAGE)
            return EXIT_OK
        name, flags = _parse_argv(argv)
        command = _COMMANDS[name][0]
        run = load_run_config(flags.get("--config"))
        run.preset = flags.get("--preset")
        run.pattern_path = str(flags["--pattern"]) if "--pattern" in flags else None
        if name == "mbqc":
            run.seed = flags.get("--seed", 0)
            _check_mbqc(run)
        return command(run, flags.get("--out", Path(".")))
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
