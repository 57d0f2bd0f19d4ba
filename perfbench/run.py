"""cavitycluster benchmark: time-to-solution per job, set-up time and memory,
with a traced per-layer breakdown.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-check

A run is a closed loop with one client: it repeats passes over the
workload's fixed job list (see workloads.py) until ``--seconds`` have passed,
always finishing the pass it is in.  Every job runs in a fresh child
interpreter (perfbench/job.py) with one BLAS thread, and the parent reads the
child's peak RSS and CPU time with ``os.wait4``.  A job fails when its exit
code is not 0, it writes no result, or a checked output is off its reference.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, taken from spans recorded
around each layer's public functions.  The last line of standard output is
the result object; the line before it holds the environment stamp, the
quartiles and sample counts.  ``--self-check`` runs one pass of every
workload in both modes and checks that the printed metric names match
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
# a run must end within 180 s; no pass starts that could end after this
RUN_DEADLINE_S = 170.0

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "lattice.self_s": "s",
    "lattice.enumerate_modes.calls": "count",
    "lattice.enumerate_modes.self_s": "s",
    "geomphase.self_s": "s",
    "geomphase.pairwise_phase.calls": "count",
    "geomphase.pairwise_phase.self_s": "s",
    "geomphase.solve_gate_time.total_s": "s",
    "geomphase.build_phase_table.total_s": "s",
    "geomphase.sweep_delta.total_s": "s",
    "geomphase.sweep_tau.total_s": "s",
    "effective.self_s": "s",
    "effective.apply_single_qubit.calls": "count",
    "effective.apply_single_qubit.self_s": "s",
    "effective.apply_single_qubit.bytes_computed": "bytes",
    "effective.apply_pairwise_xx.self_s": "s",
    "effective.local_correction.calls": "count",
    "effective.cluster_fidelity.total_s": "s",
    "effective.stabilizer_expectation.total_s": "s",
    "effective.reduced_single_qubit.total_s": "s",
    "oracle.self_s": "s",
    "oracle.echo_evolve.total_s": "s",
    "oracle.echo_evolve.rk4_steps": "count",
    "oracle.check_identities.total_s": "s",
    "oracle.extract_pair_phase.calls": "count",
    "mbqc.self_s": "s",
    "mbqc.run_pattern.calls": "count",
    "mbqc.run_pattern.self_s": "s",
    "mbqc.run_pattern.errors": "count",
    "mbqc.measure_qubit.calls": "count",
    "mbqc.measure_qubit.self_s": "s",
    "mbqc.parse_pattern.total_s": "s",
    "cli.self_s": "s",
    "cli.main.self_s": "s",
    "cli.generated_cluster_patch.total_s": "s",
    "cli.output_bytes": "bytes",
    "job.cpu_s": "s",
    "trace.overhead_frac": "fraction",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # set-up time is that of an installed package: the warm-up child writes
    # the bytecode cache and timed children read it, whatever the caller's env
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = out.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def wait_child(proc: subprocess.Popen, deadline: float) -> tuple[int, os.struct_rusage | None]:
    """Reap the child with wait4 (for its rusage); kill it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, None
        time.sleep(0.005)


class Runner:
    """Runs jobs in fresh children and collects their measurements."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.jobs = workloads.build(workload, seed)
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.spans: list[list] = []  # [job id, name, start, end, parent, error]
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        """One untimed import-only child, so the first timed spawn finds the
        interpreter, numpy and the package's bytecode in the page cache."""
        subprocess.run(
            [sys.executable, "-c", "import numpy, scipy.sparse, cavitycluster.cli"],
            env=self.env, cwd=self.work, check=True, timeout=60,
        )

    def run_pass(self, index: int, traced: bool) -> dict:
        """One pass over the job list; per-job measurements summed or maxed."""
        rec = {"complete": True, "job_s": 0.0, "setup_s": [], "rss_mb": 0.0, "cpu_s": 0.0,
               "output_bytes": 0, "summary": {}, "counters": {}, "jobs": {}}
        for job in self.jobs:
            job_id = f"p{index}-{job.name}"
            m = self.run_job(job, job_id, traced)
            if m is None:
                rec["complete"] = False
                continue
            rec["job_s"] += m["job_s"]
            rec["jobs"][job.name] = m["job_s"]
            rec["setup_s"].append(m["setup_s"])
            rec["rss_mb"] = max(rec["rss_mb"], m["rss_mb"])
            rec["cpu_s"] += m["cpu_s"]
            rec["output_bytes"] += m["output_bytes"]
            for name, row in m.get("summary", {}).items():
                acc = rec["summary"].setdefault(name, dict.fromkeys(row, 0))
                for k, v in row.items():
                    acc[k] += v
            for k, v in m.get("counters", {}).items():
                rec["counters"][k] = rec["counters"].get(k, 0) + v
        return rec

    def run_job(self, job: workloads.Job, job_id: str, traced: bool) -> dict | None:
        self.attempted += 1
        jobdir = self.work / job_id
        jobdir.mkdir()
        for name, text in job.files.items():
            (jobdir / name).write_text(text)
        spec = {"argv": job.argv, "library": job.library, "params": job.params, "trace": traced}
        (jobdir / "spec.json").write_text(json.dumps(spec))
        with open(jobdir / "stdout.txt", "w") as out, open(jobdir / "stderr.txt", "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "job.py"), "spec.json"],
                cwd=jobdir, env=self.env, stdout=out, stderr=err,
            )
            try:
                code, usage = wait_child(proc, self.deadline)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        problems = []
        result = None
        if usage is None:
            problems.append("killed at the run deadline")
        elif code != 0:
            problems.append(f"exit code {code}")
        try:
            result = json.loads((jobdir / "result.json").read_text())
            problems += job.check(jobdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems or result is None:
            self.failed += 1
            self.problems += [f"{job_id}: {p}" for p in problems]
            return None  # the job directory stays for inspection
        out_dir = jobdir / "out"
        m = {
            "job_s": result["job_s"],
            "setup_s": result["ready"] - spawned,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "output_bytes": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
            if out_dir.is_dir() else 0,
        }
        if traced:
            m["summary"] = spans.summarize(result["spans"])
            m["counters"] = result["counters"]
            self.spans += [[job_id, *s] for s in result["spans"]]
        shutil.rmtree(jobdir)
        return m


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass sums."""

    def value(rec: dict, name: str) -> float:
        if name in rec["counters"]:
            return rec["counters"][name]
        if name == "cli.output_bytes":
            return rec["output_bytes"]
        func, stat = name.rsplit(".", 1)
        if func in spans.LAYERS:
            return sum(row[stat] for fn, row in rec["summary"].items() if fn.startswith(func + "."))
        return rec["summary"].get(func, {}).get(stat, 0)

    out = {}
    for name in PER_LAYER:
        if name == "job.cpu_s":
            out[name] = statistics.median(r["cpu_s"] for r in untraced)
        elif name == "trace.overhead_frac":
            out[name] = (statistics.median(r["job_s"] for r in traced)
                         / statistics.median(r["job_s"] for r in untraced) - 1.0)
        else:
            out[name] = statistics.median(value(r, name) for r in traced)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(workload, seed, work, deadline)
    runner.warm_up()
    untraced: list[dict] = []
    traced: list[dict] = []
    index = 0
    while True:
        pass_started = time.monotonic()
        for trace_this in ((False, True) if trace else (False,)):
            (traced if trace_this else untraced).append(runner.run_pass(index, trace_this))
            index += 1
        now = time.monotonic()
        if now - started >= seconds or now + (now - pass_started) > deadline:
            break

    # a pass with a failed job has no time-to-solution
    untraced = [r for r in untraced if r["complete"]]
    traced = [r for r in traced if r["complete"]]
    if not untraced or (trace and not traced):
        print("error: no pass completed without a failed job", *runner.problems[:20], sep="\n", file=sys.stderr)
        return 1
    detail = {
        "workload": workload, "seed": seed, "environment": environment(),
        "closed_loop_clients": 1, "problems": runner.problems[:20],
        "pass_s": quartiles([r["job_s"] for r in untraced]),
        "setup_s": quartiles([s for r in untraced for s in r["setup_s"]]),
        "job_s": {job.name: statistics.median(r["jobs"][job.name] for r in untraced)
                  for job in runner.jobs},
    }
    if trace:
        metrics = layer_metrics(traced, untraced)
        units = PER_LAYER
        with open(WORK / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
            for span in runner.spans:
                fh.write(json.dumps(span) + "\n")
        detail["layer_share"] = {
            layer: metrics[f"{layer}.self_s"] / statistics.median(r["job_s"] for r in traced)
            for layer in spans.LAYERS if f"{layer}.self_s" in metrics
        }
    else:
        metrics = {
            "pass_s": detail["pass_s"]["median"],
            "setup_s": detail["setup_s"]["median"],
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
        units = END_TO_END
    if not runner.failed:
        shutil.rmtree(work)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def self_check() -> int:
    """One pass of every workload in both modes; metric names must match BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            good = printed == declared[trace] and result.get("correct") is True
            ok &= good
            print(f"{w['name']} trace={trace}: {'ok' if good else 'MISMATCH'}"
                  f" ({result.get('attempted')} jobs, {result.get('failed')} failed)")
            if not good:
                print(f"  printed {sorted(printed.items())}\n  declared {sorted(declared[trace].items())}"
                      f"\n  {proc.stderr.strip()[-2000:]}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "cavitycluster" / "__init__.py").is_file():
        print(f"error: no cavitycluster package under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))  # the mbqc-demo job list formats a pattern file
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
