#!/usr/bin/env python3
"""Build and run the receiver benchmark, check its outputs, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig6_ramp --seed 2012 \
        --seconds 10 --trace 0

Builds perf_bench from source (perfbench/CMakeLists.txt compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, runs one workload, and prints the binary's readable
lines followed by one JSON object as the last line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Any failed output gate, a pinned value in gates.json that
does not match, or a missing metric exits non-zero without that line.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig6_ramp", "decode_2cell", "city_fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure once, then let the build tool bring perf_bench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the receiver sources (src/) are not in this checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perf_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(step))
    return out / "perf_bench"


def git_describe():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perf_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"perf_bench exited with code {proc.returncode}")
    results = [line for line in lines if line.startswith("RESULT ")]
    if len(results) != 1:
        fail("perf_bench printed no result")
    result = json.loads(results[0][len("RESULT "):])
    print(f"fact   git.describe = {git_describe()}")

    # Pinned output gates for the default and the held-out seed.
    gates = json.loads((HERE / "gates.json").read_text())
    pinned = gates.get(args.workload, {}).get(str(args.seed), {})
    for name, expected in pinned.items():
        got = result["gates"].get(name)
        if got != expected:
            fail(f"gate {args.workload}/{args.seed}/{name}: expected "
                 f"{expected}, got {got}")
    if pinned:
        print(f"gate   pinned values for seed {args.seed} match "
              f"({', '.join(sorted(pinned))})")
    else:
        print(f"gate   seed {args.seed} not pinned: checked against the "
              "serial reference and across repetitions")
    if not result["correct"]:
        fail("output gates failed")

    # Exactly the metrics BENCHMARK.json names for this mode.  A layer
    # the workload declares idle (it does no work there) reports 0.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    idle = set(result["facts"].get("idle_layers", "").split())
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        measured = result["metrics"].get(name)
        if measured is not None:
            if measured["unit"] != entry["unit"]:
                fail(f"metric {name}: unit {measured['unit']} but "
                     f"BENCHMARK.json says {entry['unit']}")
            metrics[name] = measured
        elif args.trace and name.split(".")[0] in idle:
            metrics[name] = {"value": 0, "unit": entry["unit"]}
        else:
            fail(f"workload {args.workload} did not measure {name}")
    if args.workload == "city_fleet":
        print("note   city_fleet: power.*, served_frac and every chip-side "
              "quantity are SIMULATED (TILEPro64 model); rates are wall-clock "
              "on this host")

    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
