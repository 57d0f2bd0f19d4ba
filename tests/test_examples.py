"""Every shipped example configuration runs cleanly and reruns byte-identically."""

import configparser
from pathlib import Path

import pytest

from cavitycluster.cli import EXIT_OK, main

EXAMPLES = sorted((Path(__file__).parent.parent / "docs" / "examples").glob("*.ini"))

# the section an example sets besides [lattice] names the subcommand it is for
COMMANDS = {"gamma-sweep": "gamma-sweep", "cluster": "cluster", "oracle": "oracle-verify",
            "mbqc": "mbqc"}


def command_for(ini: Path) -> str:
    parser = configparser.ConfigParser()
    parser.read(ini)
    (section,) = set(parser.sections()) - {"lattice"}
    return COMMANDS[section]


def test_examples_are_shipped():
    assert len(EXAMPLES) == len(COMMANDS)


# --preset is a flag of the subcommands whose reports print feasibility lines
PRESET_COMMANDS = ("gamma-sweep", "cluster")
RUNS = [pytest.param(ini, [], id=f"{ini.stem}-plain") for ini in EXAMPLES] + [
    pytest.param(ini, ["--preset", "cpb"], id=f"{ini.stem}-cpb")
    for ini in EXAMPLES if command_for(ini) in PRESET_COMMANDS
]


@pytest.mark.parametrize("ini,extra", RUNS)
def test_example_runs_and_reruns_identically(tmp_path, ini, extra):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        argv = [command_for(ini), "--config", str(ini), "--out", str(out), "--seed", "3", *extra]
        assert main(argv) == EXIT_OK
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]
