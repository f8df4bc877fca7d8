#!/usr/bin/env python3
"""Layer-sensitivity self-check of the benchmark.

Adds a fixed busy delay before every call the benchmark makes into one
layer (`--delay <layer>:<us>`) and shows that the delay moves `wall_s` on
the workloads mapped to that layer, and leaves the workloads that bypass
the layer within the bound BENCHMARK.json gives `wall_s`. Delayed and
plain runs alternate, one pair per seed. Run from the repository root:

    python3 perfbench/sensitivity.py --layer harness.load
    python3 perfbench/sensitivity.py --layer sim --seeds 3 --seconds 5

Exits 1 if a prediction does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys

from spread import build

# layer -> (delay in microseconds per call, workloads it must move,
#           workloads that bypass it)
PLAN = {
    "harness.load": (600_000, ["figures_warm", "figures_cold"], ["engine_suite"]),
    "sim": (20_000, ["engine_suite"], ["figures_warm"]),
    "obs": (40_000, ["observe_report"], ["engine_suite"]),
}


def wall_s(binary, workload, seed, seconds, delay):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if delay:
        cmd += ["--delay", delay]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed")
    return result["metrics"]["wall_s"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--layer", required=True, choices=sorted(PLAN))
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=5)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "wall_s")
    us, moved, bypass = PLAN[args.layer]
    delay = f"{args.layer}:{us}"
    binary = build()
    ok = True
    for workload in moved + bypass:
        base, slow = [], []
        for seed in range(1, args.seeds + 1):
            # Alternate which side runs first.
            order = [None, delay] if seed % 2 else [delay, None]
            for d in order:
                v = wall_s(binary, workload, seed, args.seconds, d)
                (slow if d else base).append(v)
        b, s = statistics.median(base), statistics.median(slow)
        change = (s - b) / b
        expect = "moves" if workload in moved else "unmoved"
        holds = change > bound if expect == "moves" else abs(change) <= bound
        ok &= holds
        print(f"{args.layer} delay {us} us: {workload:<15} wall_s {b:.4f} -> {s:.4f} s "
              f"({change:+.1%}; bound {bound:.0%}) expected {expect}: "
              f"{'holds' if holds else 'DOES NOT HOLD'}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
