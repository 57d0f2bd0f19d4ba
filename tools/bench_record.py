"""Record paired benchmark runs of a parent tree and a change tree.

Usage, from the repository root:

  python3 tools/bench_record.py --parent <tree> --change <tree> --workload <name> \\
      --pairs 10 --seed 301 --out BENCH_<n>.json

Each tree is a checkout holding its own perfbench/run.py.  Pair i runs both
trees with ``--trace 0 --seed <seed + i>`` for the parent's BENCHMARK.json
``run_seconds``: the parent first when i is even, the change first when i is
odd.  Every run keeps the two JSON lines that run.py prints (environment
stamp, then result), verbatim.  For each end-to-end metric that the parent's
BENCHMARK.json declares, the record gives each side's median and quartiles
over its runs, and for the claimed metric, pass_s, the pairs the change won,
lost and tied.  Under job_s it gives, for each job, each side's median over
its runs of the job time that the environment line holds, so a record shows
which job moved.  The workload's entry replaces any earlier entry for that
workload in --out, and entries for other workloads are kept, so one file can
gather every workload of a change.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# run.py stops starting passes 170 s after it begins; this covers set-up too
_RUN_TIMEOUT_S = 200.0
CLAIM = "pass_s"


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of tree; its printed lines kept verbatim."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=seconds + _RUN_TIMEOUT_S)
    run = {"seed": seed, "returncode": proc.returncode, "lines": proc.stdout.splitlines()[-2:]}
    if proc.returncode != 0:
        run["stderr"] = proc.stderr[-2000:]
    return run


def metrics(run: dict) -> dict[str, float]:
    """Metric values of a run's result line; none for a run that printed none."""
    try:
        result = json.loads(run["lines"][-1])
        return {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return {}


def job_times(run: dict) -> dict[str, float]:
    """Per-job median job_s of a run's environment line; none for a run that printed none."""
    try:
        return dict(json.loads(run["lines"][-2])["job_s"])
    except (IndexError, ValueError, KeyError, TypeError):
        return {}


def failed(run: dict) -> int:
    """Failed operations of a run; a run with no result line counts as one."""
    try:
        return int(json.loads(run["lines"][-1])["failed"])
    except (IndexError, ValueError, KeyError, TypeError):
        return 1


# a copy of perfbench/run.py's quartiles(); run.py imports its sibling modules
# at load time, so the record keeps its own to stay importable on its own
def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per-metric quartiles of both sides and the claimed metric's pair count."""
    side_metrics = {"parent": [metrics(r) for r in parent], "change": [metrics(r) for r in change]}
    summary = {}
    for name in better:
        summary[name] = {}
        for side, ms in side_metrics.items():
            values = [m[name] for m in ms if name in m]
            summary[name][side] = quartiles(values) if values else None
    jobs = {}
    for side, runs in (("parent", parent), ("change", change)):
        times = [job_times(r) for r in runs]
        names = sorted({name for t in times for name in t})
        jobs[side] = {name: statistics.median(t[name] for t in times if name in t)
                      for name in names}
    won = lost = tied = 0
    sign = 1.0 if better[CLAIM] == "lower" else -1.0
    for p, c in zip(side_metrics["parent"], side_metrics["change"]):
        if CLAIM not in p or CLAIM not in c:
            continue
        gain = sign * (p[CLAIM] - c[CLAIM])
        won, lost, tied = won + (gain > 0), lost + (gain < 0), tied + (gain == 0)
    return {
        "metrics": summary,
        "job_s": jobs,
        "failed": {"parent": sum(map(failed, parent)), "change": sum(map(failed, change))},
        "claim": {"metric": CLAIM, "better": better[CLAIM], "won": won, "lost": lost,
                  "tied": tied},
    }


def record(parent: Path, change: Path, workload: str, pairs: int, seed: int) -> dict:
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append({"first": side == order[0],
                               **run_tree(tree, workload, seed + i, seconds)})
            print(f"{workload} pair {i + 1}/{pairs} {side}: {metrics(runs[side][-1])}",
                  file=sys.stderr)
    return {"pairs": pairs, "seconds": seconds, "seeds": [seed, seed + pairs - 1],
            **summarize(runs["parent"], runs["change"], better), "runs": runs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", type=Path, required=True, help="JSON record to write or extend")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    entry = record(args.parent, args.change, args.workload, args.pairs, args.seed)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    claim = entry["claim"]
    print(f"{args.workload}: change won {claim['won']} of {args.pairs} pairs on {CLAIM}; "
          + "; ".join(f"{name} {s['parent']} -> {s['change']}"
                      for name, s in entry["metrics"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
