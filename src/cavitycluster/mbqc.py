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
* Every measurement removes its site from the register: the state is
  contracted with the observed eigenvector and the site's axis is gone.
  A Z measurement detaches the site from the graph; outcome s = 1 leaves
  a Z byproduct on each former neighbor.
* Byproduct rules apply X or Z to an output site when the referenced
  outcome parity is odd.  A pattern is refused if a rule names a site that
  is not an output or a step that does not exist, if an output is declared
  twice, or if any site has a negative coordinate.
* One measurement yields both outcomes, so pattern_branches runs every
  branch of nonzero probability as one walk of the outcome tree.

Pattern files are plain text, one directive per line; see
docs/pattern_format.md for the grammar.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .effective import QubitRegister, apply_single_qubit

__all__ = [
    "MeasurementStep",
    "ByproductRule",
    "MeasurementPattern",
    "PatternParseError",
    "measure_qubit",
    "pattern_branches",
    "run_pattern",
    "wire_rotation_pattern",
    "cnot_pattern",
    "parse_pattern",
    "format_pattern",
]

Site = tuple[int, int]

_PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex), "Z": np.diag([1.0, -1.0])}
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

    def effective_angle(self, outcomes: tuple[int, ...]) -> float:
        theta = _EQ_ANGLE.get(self.basis, self.angle)
        parity = sum(outcomes[i] for i in self.adapt) % 2
        return -theta if parity else theta


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


def measure_qubit(
    reg: QubitRegister, site: Site, basis: str, angle: float = 0.0
) -> tuple[tuple[float, QubitRegister | None], tuple[float, QubitRegister | None]]:
    """Projectively measure one site and remove it from the register.

    Returns, for outcome bits 0 and 1, (Born probability, the register on
    the other live sites): the amplitudes contracted with <v_bit| on the
    site's axis, divided by the square root of the probability.  An outcome
    with probability below 1e-24 cannot occur: it reads probability 0 and
    has no register (None).  reg is not changed.
    """
    # row b of eigvecs is the eigenvector of outcome bit b
    if basis == "Z":
        eigvecs = np.eye(2, dtype=complex)
    elif basis in ("X", "Y", "EQ"):
        phase = np.exp(1j * _EQ_ANGLE.get(basis, angle))
        eigvecs = np.array([[1.0, phase], [1.0, -phase]]) / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown basis {basis!r}")

    ax = reg.site_axis(site)
    sites = reg.sites[:ax] + reg.sites[ax + 1 :]
    outcomes = []
    for v in eigvecs:
        amps = v.conj() @ reg.amps.reshape(2**ax, 2, -1)
        p = float(np.linalg.norm(amps) ** 2)
        child = QubitRegister(reg.M, reg.N, amps / math.sqrt(p), sites) if p >= 1e-24 else None
        outcomes.append((0.0 if child is None else p, child))
    return outcomes[0], outcomes[1]


def _measure_step(reg: QubitRegister, step: MeasurementStep, outcomes: tuple[int, ...]):
    basis = "Z" if step.basis == "Z" else "EQ"
    return measure_qubit(reg, step.site, basis, step.effective_angle(outcomes))


def _output_state(
    work: QubitRegister, pattern: MeasurementPattern, outcomes: tuple[int, ...]
) -> np.ndarray:
    """Apply a branch's byproducts to work, in place, and return its output state."""
    # with no steps no rule's parity is odd, so the caller's register is never changed
    for rule in pattern.byproducts:
        if sum(outcomes[i] for i in rule.steps) % 2:
            apply_single_qubit(work, rule.site, _PAULI[rule.pauli])
    if not pattern.outputs:
        return np.array([], dtype=complex)
    first = [work.site_axis(site) for site in pattern.outputs]
    rest = [ax for ax in range(work.n_qubits) if ax not in first]
    state = np.transpose(work.view(), first + rest).reshape(-1)
    return state / np.linalg.norm(state)


def pattern_branches(
    reg: QubitRegister, pattern: MeasurementPattern
) -> list[tuple[tuple[int, ...], float, np.ndarray]]:
    """Every branch of nonzero probability: (outcomes, probability, output state).

    Each live branch is measured once per step.  Branches are ordered by the
    integer whose bit i is the outcome of step i.  The output state is
    normalized, with pattern.outputs first in their order, then any other
    unmeasured site in row-major order; it is empty when the pattern names
    no outputs.  reg is not changed.
    """
    nodes = [((), 1.0, reg)]
    for step in pattern.steps:
        children: tuple[list, list] = ([], [])
        for outcomes, prob, work in nodes:
            for bit, (p, child) in enumerate(_measure_step(work, step, outcomes)):
                if child is not None:
                    children[bit].append((outcomes + (bit,), prob * p, child))
        # the new bit is the most significant so far
        nodes = children[0] + children[1]
    return [(outcomes, prob, _output_state(work, pattern, outcomes))
            for outcomes, prob, work in nodes]


def run_pattern(
    reg: QubitRegister, pattern: MeasurementPattern, seed: int | None = None
) -> tuple[np.ndarray, tuple[int, ...]]:
    """One branch, drawn with random.Random(seed): (output state, outcomes).

    A step's outcome is 0 when rng.random() < p0 / (p0 + p1).  The output
    state is as in pattern_branches.  The caller's reg is not changed.
    """
    rng = random.Random(seed)
    outcomes: tuple[int, ...] = ()
    for step in pattern.steps:
        (p0, reg0), (p1, reg1) = _measure_step(reg, step, outcomes)
        bit = 0 if rng.random() < p0 / (p0 + p1) else 1
        outcomes += (bit,)
        reg = reg1 if bit else reg0
    return _output_state(reg, pattern, outcomes), outcomes


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
