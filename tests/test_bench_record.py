"""tools/bench_record.py aggregates paired runs; stub trees stand in for the benchmark."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

# prints fixed lines: pass_s from the tree's values.json by seed, and logs the run order
STUB = textwrap.dedent("""\
    import json, sys
    from pathlib import Path
    tree = Path(__file__).resolve().parent.parent
    args = sys.argv[1:]
    seed = args[args.index("--seed") + 1]
    with open(tree.parent / "order.log", "a") as log:
        log.write(f"{tree.name} {seed}\\n")
    pass_s = json.loads((tree / "values.json").read_text())[seed]
    if pass_s is None:
        print("error: no pass completed", file=sys.stderr)
        sys.exit(1)
    print(json.dumps({"workload": args[args.index("--workload") + 1], "seed": int(seed),
                      "job_s": {"a": pass_s / 4, "b": pass_s - pass_s / 4}}))
    print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "pass_s": {"value": pass_s, "unit": "s"},
        "setup_s": {"value": 0.3, "unit": "s"},
        "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}))
    """)

BENCHMARK = {"run_seconds": 0, "end_to_end": [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def stub_tree(root: Path, name: str, values: dict) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB)
    (tree / "values.json").write_text(json.dumps(values))
    (tree / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return tree


def test_pairs_alternate_and_aggregate(tmp_path):
    # seed 11: change wins; 12: tie; 13: change loses; 14: change wins
    parent = stub_tree(tmp_path, "parent", {"11": 1.0, "12": 1.2, "13": 1.1, "14": 0.9})
    change = stub_tree(tmp_path, "change", {"11": 0.8, "12": 1.2, "13": 1.3, "14": 0.5})
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"other": {"kept": True}}}))
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "cluster-verify",
            "--pairs", "4", "--seed", "11", "--out", str(out)]
    assert bench_record.main(argv) == 0

    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 11", "change 11", "change 12", "parent 12",
                     "parent 13", "change 13", "change 14", "parent 14"]
    doc = json.loads(out.read_text())
    assert doc["workloads"]["other"] == {"kept": True}
    entry = doc["workloads"]["cluster-verify"]
    assert entry["seconds"] == 0  # the parent's run_seconds
    assert entry["claim"] == {"metric": "pass_s", "better": "lower", "won": 2, "lost": 1,
                              "tied": 1}
    assert entry["failed"] == {"parent": 0, "change": 0}
    # sorted parent runs 0.9, 1.0, 1.1, 1.2: exclusive quartiles at ranks 1.25 and 3.75
    assert entry["metrics"]["pass_s"]["parent"] == pytest.approx(
        {"median": 1.05, "q1": 0.925, "q3": 1.175, "n": 4})
    assert entry["metrics"]["pass_s"]["change"]["median"] == pytest.approx(1.0)
    assert entry["metrics"]["setup_s"]["change"] == pytest.approx(
        {"median": 0.3, "q1": 0.3, "q3": 0.3, "n": 4})
    # per job, the median over each side's runs of the environment line's job_s
    assert entry["job_s"]["parent"] == pytest.approx({"a": 1.05 / 4, "b": 1.05 * 3 / 4})
    assert entry["job_s"]["change"] == pytest.approx({"a": 0.25, "b": 0.75})
    first = entry["runs"]["parent"][0]
    assert first["first"] and first["seed"] == 11 and first["returncode"] == 0
    assert json.loads(first["lines"][0]) == {"workload": "cluster-verify", "seed": 11,
                                             "job_s": {"a": 0.25, "b": 0.75}}
    assert json.loads(first["lines"][1])["metrics"]["pass_s"]["value"] == 1.0
    assert not entry["runs"]["parent"][1]["first"]


def test_failed_run_is_kept_and_counted(tmp_path):
    parent = stub_tree(tmp_path, "parent", {"1": 1.0, "2": 1.0})
    change = stub_tree(tmp_path, "change", {"1": 0.5, "2": None})
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w",
            "--pairs", "2", "--out", str(out)]
    assert bench_record.main(argv) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["claim"]["won"] == 1 and entry["claim"]["tied"] == 0  # no pair for seed 2
    assert entry["metrics"]["pass_s"]["change"]["n"] == 1
    assert entry["job_s"]["change"] == pytest.approx({"a": 0.125, "b": 0.375})  # seed 1 only
    broken = entry["runs"]["change"][1]
    assert broken["returncode"] == 1 and broken["lines"] == []
    assert "no pass completed" in broken["stderr"]

