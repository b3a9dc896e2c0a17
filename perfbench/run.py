#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is its own cargo
package (perfbench/Cargo.toml) that builds the repository's crates by
path, in release mode, with default features. Cargo output goes to
stderr; stdout carries a provenance line and, last, the result line
`{"correct", "attempted", "failed", "metrics"}`. The result's metric
names and units are checked against BENCHMARK.json before it is printed.
Traces of `--trace 1` runs are written to perfbench/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build():
    """Builds the release binary; returns its path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def check_result(line, spec, trace):
    """Returns a list of problems with the result line."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"result line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, wrong units {wrong}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    exe = build()
    if exe is None:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", tool_output(["rustc", "--version"]),
        "--commit", tool_output(["git", "rev-parse", "HEAD"]),
        "--trace-out", os.path.join(HERE, "traces"),
    ]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.stdout.strip().splitlines()
    if not lines:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    problems = check_result(lines[-1], spec, args.trace)
    for line in lines:
        print(line)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    if problems:
        return 1
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
