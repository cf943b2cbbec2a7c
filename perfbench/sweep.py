#!/usr/bin/env python3
"""Runs the campaign benchmark over several seeds and summarises the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads all] [--trace-seed 1]
                               [--out perfbench/trajectory/NAME.json]

For every seed, each workload runs once (seeds outer, so slow drift of the
machine hits every workload alike) with BENCHMARK.json's run_seconds. For
each end-to-end metric it prints the median, the quartiles, and the spread
(interquartile distance over the median) next to the metric's bound. With
--trace-seed each workload also makes one traced run for the per-layer
table. --out writes everything as one trajectory point.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = ["python3", str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="all")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             if args.workloads == "all" else args.workloads.split(","))
    seeds = seed_list(args.seeds)

    results = {n: [] for n in names}
    header = None
    for seed in seeds:
        for name in names:
            result, text = run_once(spec, name, seed, 0)
            header = header or next(l for l in text if l.startswith("build:"))
            results[name].append({"seed": seed, **result})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.6g}" for m, v in result["metrics"].items())
                + f"  failed {result['failed']}/{result['attempted']}",
                flush=True)

    summary, steady = {}, True
    print(f"\n{'workload':14s} {'metric':13s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        summary[name] = {}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            values = [r["metrics"][m]["value"] for r in results[name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < metric["bound"] / 3
            steady = steady and ok
            summary[name][m] = {"unit": metric["unit"], "median": med,
                                "q1": q1, "q3": q3, "spread": spread,
                                "values": values}
            print(f"{name:14s} {m:13s} {med:11.6g} {q1:11.6g} {q3:11.6g} "
                  f"{spread:7.4f} {metric['bound']:6.3f}"
                  + ("" if ok else "  above a third of the bound"))
        summary[name]["failed"] = sum(r["failed"] for r in results[name])
        summary[name]["attempted"] = sum(r["attempted"] for r in results[name])

    per_layer = {}
    if args.trace_seed is not None:
        for name in names:
            result, text = run_once(spec, name, args.trace_seed, 1)
            per_layer[name] = {"seed": args.trace_seed,
                               "metrics": result["metrics"],
                               "report": text}
            print("\n" + "\n".join(text))

    if args.out:
        point = {"machine": {"cpu": cpu_model(), "build": header},
                 "run_seconds": spec["run_seconds"], "seeds": seeds,
                 "end_to_end": summary, "per_layer": per_layer}
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
