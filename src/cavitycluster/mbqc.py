"""Measurement patterns with feedforward on cluster-state registers.

Conventions (fixed here and validated against the circuit model in the
test suite):

* An equatorial measurement at angle theta measures cos(theta) X +
  sin(theta) Y; the +1 eigenstate is (|0> + e^{i theta} |1>)/sqrt(2).
  Outcome +1 is recorded as bit s = 0, outcome -1 as s = 1.
* Measuring one wire qubit at angle t teleports the logical state one
  site down the wire and applies X^s H Rz(-t), with Rz(t) = diag(1,
  e^{i t}).  Feedforward therefore flips the sign of a step's angle by
  the outcome parity of the steps listed in its adapt set.
* Every measurement removes its site from the branch: the state is
  contracted with the observed eigenvector and the site's axis is gone.
  A Z measurement detaches the site from the graph; outcome s = 1 leaves
  a Z byproduct on each former neighbor.
* Byproduct rules apply X or Z to an output site when the referenced
  outcome parity is odd.  A pattern is refused if a rule names a site that
  is not an output or a step that does not exist, if an output is declared
  twice, or if any site has a negative coordinate.
* One measurement yields both outcomes, so the outcome tree is one walk:
  each step measures every live branch at once, as the rows of one array,
  and each node is measured once.  run_pattern keeps every child of nonzero
  probability, and its seeded draw follows one row of that same walk.

Pattern files are plain text, one directive per line; see
docs/pattern_format.md for the grammar.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .effective import QubitRegister

__all__ = [
    "MeasurementStep",
    "ByproductRule",
    "MeasurementPattern",
    "PatternParseError",
    "run_pattern",
    "wire_rotation_pattern",
    "cnot_pattern",
    "parse_pattern",
    "format_pattern",
]

Site = tuple[int, int]

# X and Y are the equatorial measurements at these angles
_EQ_ANGLE = {"X": 0.0, "Y": math.pi / 2}


@dataclass(frozen=True)
class MeasurementStep:
    """One projective measurement: site, basis and feedforward rule.

    basis is 'X', 'Y', 'Z' or 'EQ' (equatorial at `angle`); X and Y are
    shorthand for EQ at 0 and pi/2.  adapt lists earlier step indices
    whose outcome parity flips the sign of the angle.
    """

    site: Site
    basis: str
    angle: float = 0.0
    adapt: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.basis not in ("X", "Y", "Z", "EQ"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class ByproductRule:
    """Apply `pauli` ('X' or 'Z') to `site` when the outcome parity of
    `steps` is odd."""

    site: Site
    pauli: str
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.pauli not in ("X", "Z"):
            raise ValueError("byproduct operator must be X or Z")


class _RuleError(ValueError):
    """A broken rule in entry `index` of the 'step', 'byproduct' or 'output' `kind`."""

    def __init__(self, kind: str, index: int, message: str):
        self.kind, self.index = kind, index
        super().__init__(message)


@dataclass(frozen=True)
class MeasurementPattern:
    steps: tuple[MeasurementStep, ...]
    byproducts: tuple[ByproductRule, ...] = ()
    outputs: tuple[Site, ...] = ()

    def __post_init__(self) -> None:
        entries = {"step": self.steps, "byproduct": self.byproducts, "output": self.outputs}
        for kind, items in entries.items():
            for i, site in enumerate(getattr(x, "site", x) for x in items):
                if min(site) < 0:
                    raise _RuleError(kind, i, f"site {site} has a negative coordinate")
        seen: set[Site] = set()
        for i, step in enumerate(self.steps):
            if step.site in seen:
                raise _RuleError("step", i, f"site {step.site} measured twice")
            seen.add(step.site)
            if any(not 0 <= j < i for j in step.adapt):
                raise _RuleError("step", i, f"step {i} adapts on a step that is not an earlier one")
        for i, site in enumerate(self.outputs):
            if site in seen:
                raise _RuleError("output", i, f"output site {site} is measured")
            if site in self.outputs[:i]:
                raise _RuleError("output", i, f"output site {site} is declared twice")
        for i, rule in enumerate(self.byproducts):
            if rule.site not in self.outputs:
                raise _RuleError("byproduct", i, f"byproduct site {rule.site} is not an output")
            if any(not 0 <= j < len(self.steps) for j in rule.steps):
                raise _RuleError(
                    "byproduct", i, f"byproduct on {rule.site} names a step that does not exist"
                )


def _axis(live: list[Site], site: Site, reg: QubitRegister) -> int:
    if site not in live:
        raise ValueError(f"site {site} is outside the {reg.M}x{reg.N} grid")
    return live.index(site)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    # a row's sum does not depend on the other rows, so one branch reads the same
    # bits alone as in the whole tree
    flat = rows.view(float)
    return np.einsum("ij,ij->i", flat, flat)


def _children(amps: np.ndarray, ax: int, step: MeasurementStep, odd) -> np.ndarray:
    """Both outcomes of step on every row of amps, outcome 0's rows first, unnormalized
    (an equatorial step leaves out its 1/sqrt(2)); odd is each row's adapt parity."""
    a = amps.reshape(len(amps), 2**ax, 2, -1)
    children = np.empty((2, *a[:, :, 0].shape), dtype=complex)
    if step.basis == "Z":
        np.copyto(children, np.moveaxis(a, 2, 0))
    else:
        # <v_s|a = (a_0 +- e^{-i theta} a_1)/sqrt(2); an odd parity negates theta,
        # which conjugates the phase
        theta = _EQ_ANGLE.get(step.basis, step.angle)
        phase = complex(math.cos(theta), -math.sin(theta))
        w = np.where(odd, phase.conjugate(), phase).reshape(-1, 1, 1) if step.adapt else phase
        a0, a1, c0, c1 = a[:, :, 0], a[:, :, 1], children[0], children[1]
        np.multiply(a1, w, out=c1)
        np.add(a0, c1, out=c0)
        np.subtract(a0, c1, out=c1)
    return children.reshape(2 * len(amps), -1)


def _apply_byproduct(amps: np.ndarray, ax: int, pauli: str, odd) -> None:
    """In place, X or Z on axis ax of each row of amps where odd is set."""
    a = amps.reshape(len(amps), 2**ax, 2, -1)
    rows = np.flatnonzero(odd)
    part = a[rows]
    if pauli == "X":
        part = part[:, :, ::-1]
    else:
        np.negative(part[:, :, 1], out=part[:, :, 1])
    a[rows] = part


def run_pattern(
    reg: QubitRegister, pattern: MeasurementPattern, seed: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every branch of nonzero probability, and the one random.Random(seed) draws:
    (outcomes, probabilities, output states, drawn row).

    Row b of each array is one branch: outcomes[b, i] is the outcome bit of step
    i, and the rows are ordered by the integer whose bit i is that outcome.  Each
    output state is normalized, with pattern.outputs first in their order, then any
    other unmeasured site in row-major order; it is empty when the pattern names no
    outputs.  reg is not changed.

    Each step measures every branch at once.  A branch is a row of unnormalized
    amplitudes over the live sites, so its squared norm is its probability, times 2
    per equatorial step.  Each step writes both children of every row into one
    array, and reads an outcome below 1e-24 of its parent's probability as p = 0.
    The draw follows one row: its outcome is 0 when rng.random() < p0 / (p0 + p1).
    """
    rng = random.Random(seed)
    live = [divmod(k, reg.N) for k in range(reg.M * reg.N)]
    bits = np.zeros((1, len(pattern.steps)), dtype=np.uint8)
    amps = reg.amps[None]
    drawn = 0

    def odd(steps: tuple[int, ...]):
        return np.bitwise_xor.reduce(bits[:, steps], axis=1) if steps else 0

    for i, step in enumerate(pattern.steps):
        amps = _children(amps, _axis(live, step.site, reg), step, odd(step.adapt))
        live.remove(step.site)
        p = _squared_norms(amps).reshape(2, -1)
        p[p < 1e-24 * (p[0] + p[1])] = 0.0
        p0, p1 = p[:, drawn].tolist()
        child = drawn if rng.random() < p0 / (p0 + p1) else drawn + p.shape[1]
        keep = p.ravel() > 0.0
        # the drawn child's row among the kept ones
        drawn = int(np.count_nonzero(keep[:child]))
        bits = np.concatenate([bits, bits])
        bits[len(bits) // 2 :, i] = 1
        bits = bits[keep]
        if np.count_nonzero(keep) < keep.size:
            amps = amps[keep]
    # an equatorial step leaves out its 1/sqrt(2), so it doubles the squared norms
    sq = p.ravel()[keep] if pattern.steps else _squared_norms(amps)
    probabilities = sq * 0.5 ** sum(step.basis != "Z" for step in pattern.steps)
    # with no steps no rule's parity is odd, so the caller's register is never changed
    for rule in pattern.byproducts:
        _apply_byproduct(amps, _axis(live, rule.site, reg), rule.pauli, odd(rule.steps))
    if not pattern.outputs:
        return bits, probabilities, np.empty((len(bits), 0), dtype=complex), drawn
    # outputs first, then the other live sites; one pass transposes and normalizes
    first = [_axis(live, site, reg) for site in pattern.outputs]
    order = first + [ax for ax in range(len(live)) if ax not in first]
    shape = (len(bits), *[2] * len(live))
    states = np.empty(shape, dtype=complex)
    norms = np.sqrt(sq).reshape(-1, *[1] * len(live))
    np.divide(amps.reshape(shape).transpose(0, *(1 + ax for ax in order)), norms, out=states)
    return bits, probabilities, states.reshape(len(bits), -1), drawn


def wire_rotation_pattern(theta1: float, theta2: float, theta3: float) -> MeasurementPattern:
    """Euler rotation Rx(theta3) Rz(theta2) Rx(theta1) on a 1x5 wire.

    The wire input is the cluster's first qubit (logical |+>); the output
    lives on site (0, 4).  Measured angles are the negated Euler angles
    with standard sign feedforward; byproducts are X^(s1+s3) Z^(s0+s2).
    """
    steps = (
        MeasurementStep(site=(0, 0), basis="X"),
        MeasurementStep(site=(0, 1), basis="EQ", angle=-theta1, adapt=(0,)),
        MeasurementStep(site=(0, 2), basis="EQ", angle=-theta2, adapt=(1,)),
        MeasurementStep(site=(0, 3), basis="EQ", angle=-theta3, adapt=(0, 2)),
    )
    byproducts = (
        ByproductRule(site=(0, 4), pauli="X", steps=(1, 3)),
        ByproductRule(site=(0, 4), pauli="Z", steps=(0, 2)),
    )
    return MeasurementPattern(steps=steps, byproducts=byproducts, outputs=((0, 4),))


def cnot_pattern() -> MeasurementPattern:
    """Controlled-NOT on a 3x2 open-boundary cluster patch.

    The target wire runs down column 1 (input (0,1), output (2,1)); the
    control qubit (1,0) is both input and output.  Sites (0,0) and (2,0)
    are carved off with Z measurements.  After byproduct correction the
    logical action is exactly CNOT with control (1,0) and target
    (0,1) -> (2,1); the two X-measured wire steps contribute H twice.
    """
    steps = (
        MeasurementStep(site=(0, 0), basis="Z"),
        MeasurementStep(site=(2, 0), basis="Z"),
        MeasurementStep(site=(0, 1), basis="X"),
        MeasurementStep(site=(1, 1), basis="X"),
    )
    byproducts = (
        # Z-carve byproducts: neighbors of (0,0) are (0,1) [measured, folds
        # into step 2's frame] and (1,0); of (2,0): (2,1) and (1,0)
        ByproductRule(site=(1, 0), pauli="Z", steps=(0,)),
        ByproductRule(site=(1, 0), pauli="Z", steps=(1,)),
        ByproductRule(site=(2, 1), pauli="Z", steps=(1,)),
        # wire byproducts, validated against the circuit model
        ByproductRule(site=(2, 1), pauli="X", steps=(3,)),
        ByproductRule(site=(2, 1), pauli="Z", steps=(2, 0)),
        ByproductRule(site=(1, 0), pauli="Z", steps=(2, 0)),
    )
    return MeasurementPattern(steps=steps, byproducts=byproducts, outputs=((1, 0), (2, 1)))


class PatternParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _parse_indices(text: str, line_no: int) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise PatternParseError(line_no, f"bad index list {text!r}") from None


def _parse_site(m: str, n: str, line_no: int) -> Site:
    try:
        return (int(m), int(n))
    except ValueError:
        raise PatternParseError(line_no, f"bad site {m} {n}") from None


def parse_pattern(text: str) -> MeasurementPattern:
    """Parse the plain-text pattern grammar (docs/pattern_format.md)."""
    steps: list[MeasurementStep] = []
    byproducts: list[ByproductRule] = []
    outputs: list[Site] = []
    lines: dict[str, list[int]] = {"step": [], "byproduct": [], "output": []}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0] if parts[0] in ("byproduct", "output") else "step"
        try:
            if kind == "byproduct":
                if len(parts) != 5:
                    raise PatternParseError(line_no, "byproduct needs: m n X|Z steps")
                site = _parse_site(parts[1], parts[2], line_no)
                byproducts.append(ByproductRule(site, parts[3], _parse_indices(parts[4], line_no)))
            elif kind == "output":
                if len(parts) != 3:
                    raise PatternParseError(line_no, "output needs: m n")
                outputs.append(_parse_site(parts[1], parts[2], line_no))
            else:
                if len(parts) != 5:
                    raise PatternParseError(line_no, "step needs: m n basis angle adapt")
                site = _parse_site(parts[0], parts[1], line_no)
                try:
                    angle = 0.0 if parts[3] == "-" else float(parts[3])
                except ValueError:
                    raise PatternParseError(line_no, f"bad angle {parts[3]!r}") from None
                adapt = _parse_indices(parts[4], line_no)
                steps.append(MeasurementStep(site, parts[2], angle, adapt))
        except PatternParseError:
            raise
        except ValueError as exc:  # a MeasurementStep or ByproductRule check
            raise PatternParseError(line_no, str(exc)) from None
        lines[kind].append(line_no)
    try:
        return MeasurementPattern(
            steps=tuple(steps), byproducts=tuple(byproducts), outputs=tuple(outputs)
        )
    except _RuleError as exc:
        raise PatternParseError(lines[exc.kind][exc.index], str(exc)) from None


def format_pattern(pattern: MeasurementPattern) -> str:
    """Serialize a pattern to the plain-text grammar."""
    lines = []
    for step in pattern.steps:
        adapt = ",".join(map(str, step.adapt)) if step.adapt else "-"
        angle = repr(step.angle) if step.basis == "EQ" else "-"
        lines.append(f"{step.site[0]} {step.site[1]} {step.basis} {angle} {adapt}")
    for rule in pattern.byproducts:
        steps = ",".join(map(str, rule.steps)) if rule.steps else "-"
        lines.append(f"byproduct {rule.site[0]} {rule.site[1]} {rule.pauli} {steps}")
    for site in pattern.outputs:
        lines.append(f"output {site[0]} {site[1]}")
    return "\n".join(lines) + "\n"
