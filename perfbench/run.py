#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset, then runs one measurement. Its standard output ends
with the benchmark's JSON result line.

Repeat mode, the steadiness evidence for the bounds in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 [--workload <name> ...] [--seconds <s>] [--trace <0|1>]

runs each named workload (default: all in BENCHMARK.json) once per seed
1..N, one run at a time, and prints each metric's median, quartiles and
spread (quartile distance over median) beside the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr so that the result stays the
    # last line of standard output.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "corral-perfbench")


def flag_values(argv, flag):
    """Every value given to `flag`, and argv without those pairs."""
    values, rest, i = [], [], 0
    while i < len(argv):
        if argv[i] == flag and i + 1 < len(argv):
            values.append(argv[i + 1])
            i += 2
        else:
            rest.append(argv[i])
            i += 1
    return values, rest


def repeat(binary, argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    (runs,), argv = flag_values(argv, "--repeat")
    workloads, argv = flag_values(argv, "--workload")
    seconds, argv = flag_values(argv, "--seconds")
    trace, argv = flag_values(argv, "--trace")
    if argv:
        sys.exit(f"repeat mode: unexpected arguments {argv}")
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    seconds = seconds[-1] if seconds else str(spec["run_seconds"])
    trace = trace[-1] if trace else "0"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        values = {}
        for seed in range(1, int(runs) + 1):
            cmd = [binary, "--workload", w, "--seed", str(seed),
                   "--seconds", seconds, "--trace", trace]
            done = subprocess.run(cmd, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last)
            if done.returncode != 0 or not result.get("correct"):
                sys.exit(f"{w} seed {seed} failed:\n{done.stdout}{done.stderr}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {runs} runs, --seconds {seconds} --trace {trace}")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else f"{bound:>6}" + ("" if spread < bound / 3 else "  above bound/3")
            print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {mark}")
        sys.stdout.flush()


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        sys.exit("error: building the benchmark failed")
    if "--repeat" in argv:
        repeat(binary, argv)
        return
    sys.exit(subprocess.run([binary] + argv).returncode)


if __name__ == "__main__":
    main()
