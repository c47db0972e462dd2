#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed and prints, for every metric, the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread:
(Q3 - Q1) / median. It also prints each workload's failed/attempted share,
which must be identical across seeds. Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10 --seconds 8
    python3 perfbench/steady.py --workloads mixed-open --seeds 1-5
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["lookup-zipf", "join-overlay", "mixed-open"]


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = m["bound"]
    for wl in a.workloads.split(","):
        runs = []
        for s in seeds(a.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(s),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
            took = time.monotonic() - t0
            if p.returncode != 0:
                sys.exit(f"{wl} seed {s}: exit {p.returncode}")
            r = json.loads(p.stdout.strip().splitlines()[-1])
            runs.append(r)
            print(f"{wl} seed {s} ({took:.1f}s): " + json.dumps(r), flush=True)
        shares = sorted({f"{r['failed']}/{r['attempted']}={r['failed'] / r['attempted']:.6f}" for r in runs})
        print(f"\n{wl}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, failed shares {shares}")
        print(f"  {'metric':28} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound/3':>8}")
        for name in sorted(runs[0]["metrics"]):
            v = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            lim = f"{b / 3:8.4f}" if b is not None else "        "
            flag = " !" if b is not None and name != "setup_s" and spread > b / 3 else ""
            print(f"  {name:28} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {lim}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
