#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and reports every metric's median, quartiles and spread across runs.

    python3 perfbench/spread.py [--runs 10] [--seed-base 1000] [--trace 0]
                                [--workloads batch-human,serve-small]
                                [--out spread.json] [--logs DIR]

The spread is (q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4), the figure a later change's runs are
compared against; the bounds come from BENCHMARK.json. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, logs):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if logs:
        os.makedirs(logs, exist_ok=True)
        with open(os.path.join(logs, f"{workload}-{seed}-trace{trace}.log"), "w") as f:
            f.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    provenance = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), provenance


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="write the summary as JSON here")
    ap.add_argument("--logs", help="keep each run's stderr report in this directory")
    args = ap.parse_args()

    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    report = {}
    for workload in args.workloads.split(","):
        values, failed, attempted = {}, 0, 0
        for i in range(args.runs):
            seed = args.seed_base + i
            result, provenance = run_once(workload, seed, args.seconds, args.trace, args.logs)
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        rows = {}
        print(f"\n{workload}: {args.runs} runs, attempted {attempted}, failed {failed}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else
                                              "  within bound" if spread <= bound else "  TOO NOISY")
            print(f"  {name:<36} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:6.3f}{'' if bound is None else f' / bound {bound}'}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        report[workload] = {"runs": args.runs, "attempted": attempted, "failed": failed,
                            "metrics": rows, "provenance": provenance.get("provenance")}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
