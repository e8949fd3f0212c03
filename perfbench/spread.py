#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's
spread: the distance between the first and third quartiles of its values
as a share of their median, the figure BENCHMARK.json's bounds are held
against.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]
                                [--binary PATH] [--out FILE]

Run it from the repository root. By default it runs the command in
BENCHMARK.json; --binary runs an already built perfbench executable
instead. Every run's result line is appended to --out (JSON lines) so the
record can be re-read later.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace", default="0")
    p.add_argument("--binary", default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.binary] if args.binary else bench["command"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for w in workloads:
        values = {}
        for seed in args.seeds:
            argv = command + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.time()
            run = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            took = time.time() - t0
            if run.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit code {run.returncode}")
            line = run.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed,
                                        "seconds": took, "result": result}) + "\n")
            status = "ok" if result["correct"] else "WRONG"
            print(f"{w} seed {seed}: {status} {result['attempted']} attempted, "
                  f"{result['failed']} failed, {took:.0f} s", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {len(args.seeds)} runs")
        print(f"  {'metric':<30} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            med = statistics.median(v)
            if len(v) >= 2 and med != 0:
                q = statistics.quantiles(v, n=4)
                spread = f"{(q[2] - q[0]) / abs(med):.4f}"
            else:
                spread = "-"
            bound = bounds.get(name)
            print(f"  {name:<30} {med:>14.6g} {spread:>8} "
                  f"{'' if bound is None else bound:>6}")
        print(flush=True)


if __name__ == "__main__":
    main()
