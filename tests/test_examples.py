"""Every shipped example configuration runs cleanly and reruns byte-identically."""

import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cavitycluster.cli import EXIT_OK, main

EXAMPLE_DIR = Path(__file__).parent.parent / "docs" / "examples"
EXAMPLES = sorted(EXAMPLE_DIR.glob("*.ini"))

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
    command = command_for(ini)
    seed = ["--seed", "3"] if command == "mbqc" else []  # mbqc alone takes a seed
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        argv = [command, "--config", str(ini), "--out", str(out), *seed, *extra]
        assert main(argv) == EXIT_OK
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]


def test_runs_load_no_scipy(tmp_path):
    # numpy is the only run-time dependency; scipy is installed for the tests alone
    runs = [[command_for(ini), "--config", str(ini), "--out", str(tmp_path / ini.stem)]
            for ini in EXAMPLES]
    code = ("import sys\nfrom cavitycluster.cli import main\n"
            f"for argv in {runs!r}:\n    assert main(argv) == 0\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    src = str(Path(__file__).parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    assert result.stdout == "[]\n"


def test_cluster_example_applies_every_pair(tmp_path):
    # nn_only defaults to false, so the example's fidelity reads every
    # pairwise phase of the 3x3 table and falls below 1
    ini = EXAMPLE_DIR / "cluster.ini"
    assert main(["cluster", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    report = (tmp_path / "cluster_report.txt").read_text().splitlines()
    assert "nn_only = False" in report
    assert "fidelity = 0.9972366278887155" in report
