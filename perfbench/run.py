#!/usr/bin/env python3
"""Entry point of the tomo benchmark.

Builds tomo_perfbench (and the tomo library it links) from source into
.bench_build/perfbench, runs one workload, and prints tomo_perfbench's output
with the result object as the last stdout line:

    python3 perfbench/run.py --workload mesh-batch --seed 1 --seconds 32 --trace 0

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 prints
every per-layer metric. A per-layer metric of a layer the workload never
calls reads 0 and is listed on an `unmeasured` line. --scale test runs the
self-test scale (core::shrink_for_tests topologies).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tomo_perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no tomo sources under {ROOT / 'src'}; run from a full checkout", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "tomo_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def load_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    return ({m["name"]: m["unit"] for m in contract["end_to_end"]},
            {m["name"]: m["unit"] for m in contract["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--scale", choices=["full", "test"], default="full")
    args = parser.parse_args()

    try:
        end_to_end, per_layer = load_contract()
        build()
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        fail(f"setup failed: {e}")

    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scale", args.scale]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"tomo_perfbench exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    expected = per_layer if args.trace == "1" else end_to_end
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in expected:
            fail(f"metric {name} is not in BENCHMARK.json")
        if metric["unit"] != expected[name]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {expected[name]}")
    missing = [name for name in expected if name not in metrics]
    if args.trace == "0" and missing:
        fail(f"end-to-end metrics not measured: {', '.join(missing)}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    result["metrics"] = {name: metrics[name] for name in expected}

    for line in lines[:-1]:
        print(line)
    if missing:
        print("unmeasured " + " ".join(missing))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
