#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload several times, each with another seed, and prints for
every metric of the result line its median and the distance between its
first and third quartile as a share of the median -- the spread that
BENCHMARK.json's bounds are judged against. Run from the repository root:

    python3 perfbench/spread.py --workload engine_suite --runs 10
    python3 perfbench/spread.py --workload figures_warm --runs 5 --trace 1

The benchmark is built first (`cargo build --release`), into
$CARGO_TARGET_DIR or `.bench_build`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        check=True,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    return os.path.join(target, "release", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    binary = build()
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
        calib = [float(l.split()[1]) for l in lines if l.startswith("  calib_s ")]
        values.setdefault("(calib_s)", []).extend(calib)
        units["(calib_s)"] = "s"
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            if args.trace == "0"), flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:<34} median {med:<14.6g} {units[name]:<8} "
              f"iqr/median {spread:.4f}")


if __name__ == "__main__":
    main()
