#!/usr/bin/env python3
"""Brute-force cross-check of the closed-form pairwise phases.

Integrates the full driven qubit-cavity Hamiltonian in a truncated Fock
space for tiny arrays, applies the sigma-z echo, and compares the
extracted pair phases against the analytic formula.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from cavitycluster.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=1)
    ap.add_argument("--cols", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=4, help="Fock truncation per mode")
    ap.add_argument("--delta", type=float, default=20.0,
                    help="detuning in units of g; large values keep excitation low")
    ap.add_argument("--out", default="results/oracle")
    args = ap.parse_args()

    ini = (
        "[lattice]\n"
        f"M = {args.rows}\n"
        f"N = {args.cols}\n"
        "J = 0.1\n"
        f"delta = {args.delta}\n\n"
        "[oracle]\n"
        f"n_max = {args.n_max}\n"
        "tolerance = 1e-9\n"
    )
    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
        fh.write(ini)
        cfg_path = fh.name
    try:
        rc = cli_main(["oracle-verify", "--config", cfg_path, "--out", args.out])
    finally:
        Path(cfg_path).unlink(missing_ok=True)
    report = Path(args.out, "oracle_report.txt")
    if report.is_file():
        print(report.read_text())
    return rc


if __name__ == "__main__":
    sys.exit(main())
