#!/usr/bin/env python3
"""Runs one workload of the corrfade benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), measures set-up time over
fresh processes, runs the workload in one more fresh process, and prints
that process's report. The last stdout line is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Exits non-zero, without a result
line, when the repository sources are missing or the build fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Set-up is measured over this many cold processes; the median is reported.
SETUP_RUNS = 7
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    for needed in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository sources missing ({needed}); nothing to build")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=840,
        check=False,
    )
    if done.returncode != 0:
        fail(f"cargo build failed with exit code {done.returncode}", 3)
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "corrfade-perfbench")


def setup_seconds(binary, args, env, runs):
    """Set-up times of `runs` cold processes: each reports the time from
    entering `main` to its first output."""
    values = []
    for _ in range(runs):
        with subprocess.Popen(
            [binary, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            out, _ = proc.communicate(timeout=60)
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            fail(f"set-up probe of {args.workload} exited with code {proc.returncode}", 1)
        values.append(float(words[1]))
    return values


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    # Set-up probes run on both sides of the measured run, so one noisy
    # moment on a shared host does not decide them all.
    before = 0 if args.trace else SETUP_RUNS // 2 + 1
    setup = setup_seconds(binary, args, env, before)

    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit code {done.returncode})", 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} ended without a result line (exit code {done.returncode})", 1)

    metrics = result["metrics"]
    if not args.trace:
        setup += setup_seconds(binary, args, env, SETUP_RUNS - before)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print("setup_s of", SETUP_RUNS, "cold processes:", " ".join(f"{s:.6f}" for s in setup))
    expected = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        print(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
        result["correct"] = False
    if any(m["value"] is None for m in metrics.values()):
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
