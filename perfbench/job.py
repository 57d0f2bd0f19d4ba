"""Run one benchmark job in a fresh interpreter, the way a user runs the CLI.

Usage: python3 job.py <spec.json>, from the job's directory, with the
package's ``src`` directory on PYTHONPATH.  The spec holds either the CLI
arguments (``argv``) or the name of a library job (``library``), and whether
to trace.  The job writes ``result.json`` beside the spec:

  ready   CLOCK_MONOTONIC reading once numpy, scipy.sparse and every package
          module are imported; the parent subtracts its spawn time from it
  job_s   seconds from ``ready`` until the job's report is written
  spans   traced calls, [name, start, end, parent index, error] (trace only)
  counters  per-call work counters (trace only)

The exit code is the CLI's exit code (0 for a library job that completes).
"""

import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401
import scipy.sparse  # noqa: F401

from cavitycluster import cli, geomphase, lattice  # cli imports every other layer


def selectivity(params: dict) -> int:
    """Criterion-2 question at scale: beyond-nearest-neighbor phase at the gate time."""
    cfg = lattice.LatticeConfig(**params)
    tau = geomphase.solve_gate_time(cfg)
    table = geomphase.build_phase_table(cfg, tau)
    report = {
        "tau": tau,
        "gamma_nn": table.gamma(1, 0),
        "max_beyond_nn": table.max_beyond_nearest_neighbor(),
    }
    Path("selectivity.json").write_text(json.dumps(report))
    return 0


LIBRARY_JOBS = {"selectivity": selectivity}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    if spec["argv"] is not None:
        code = cli.main(spec["argv"])
    else:
        code = LIBRARY_JOBS[spec["library"]](spec["params"])
    job_s = time.monotonic() - ready
    result = {"ready": ready, "job_s": job_s}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    Path("result.json").write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
