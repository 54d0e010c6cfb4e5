#!/usr/bin/env python3
"""Self-test of the tomo benchmark, in seconds:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py at self-test scale
(core::shrink_for_tests topologies, short traces), untraced and traced, and
asserts that:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, correct, with no failed
    operation;
  - every end-to-end metric (untraced) and every per-layer metric (traced)
    of BENCHMARK.json is printed with its unit, end-to-end values non-zero;
  - every correctness check of the workload ran and passed;
  - the environment stamp is printed;
  - every per-layer metric is measured by at least one workload;
  - in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits non-zero without printing a result.
Exits 0 when all hold.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".bench_build" / "selftest-bare"

CHECKS = {
    "mesh-batch": ["mesh-batch.correlation_beats_independence",
                   "mesh-batch.decomposition_bitwise"],
    "stream-replay": ["stream-replay.window_count",
                      "stream-replay.window_usable",
                      "stream-replay.final_matches_batch",
                      "stream-replay.final_same_optimum"],
    "shard-hier": ["shard-hier.plan_partitions_paths",
                   "shard-hier.no_failed_shards"],
}
TRACED_CHECKS = {
    "mesh-batch": ["bootstrap.interval_order", "bootstrap.point_bitwise",
                   "bootstrap.no_skipped_replicates"],
    "shard-hier": ["shard-hier.plan_replay_matches"],
}
ENV_KEYS = {"nproc", "bitops", "forced_scalar", "build_type", "compiler",
            "comparable"}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "test"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_run(workload, trace, contract):
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct\n{proc.stderr}"
    assert result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    expected = contract["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected], where
    for m in expected:
        value = metrics[m["name"]]["value"]
        assert metrics[m["name"]]["unit"] == m["unit"], (where, m["name"])
        assert isinstance(value, (int, float)) and math.isfinite(value)
        if not trace:
            assert value > 0, f"{where}: {m['name']} is {value}"

    checks = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "check":
            checks[parts[1]] = (parts[2], int(parts[3]))
    for name in CHECKS[workload] + (TRACED_CHECKS.get(workload, []) if trace else []):
        assert name in checks, f"{where}: check {name} did not run"
        status, runs = checks[name]
        assert status == "pass" and runs >= 1, f"{where}: check {name} {status}"

    env = [line for line in lines if line.startswith("env ")]
    assert env and ENV_KEYS <= set(json.loads(env[0][4:])), where

    unmeasured = set()
    for line in lines:
        if line.startswith("unmeasured "):
            unmeasured = set(line.split()[1:])
    print(f"ok {where}: {len(metrics)} metrics, {result['attempted']} operations")
    return set(metrics) - unmeasured


def check_bare_directory():
    """Without the repository's sources the benchmark must refuse to run."""
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE / "BENCHMARK.json")
    shutil.copytree(HERE, BARE / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("mesh-batch", 0, cwd=BARE)
    shutil.rmtree(BARE)
    assert proc.returncode != 0, "bare directory: run.py exited 0"
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert not last[0].startswith("{"), "bare directory: a result was printed"
    print("ok bare directory: exit", proc.returncode)


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    measured = set()
    for workload in [w["name"] for w in contract["workloads"]]:
        check_run(workload, 0, contract)
        measured |= check_run(workload, 1, contract)
    missing = {m["name"] for m in contract["per_layer"]} - measured
    assert not missing, f"per-layer metrics no workload measures: {missing}"
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
