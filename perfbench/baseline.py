#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise each metric, optionally as a baseline file.

    python3 perfbench/baseline.py [--out perfbench/baseline.json] [WORKLOAD ...]

Makes RUNS untraced runs per workload with seeds 0..RUNS-1, each as long as
``run_seconds`` in BENCHMARK.json (workloads interleaved, one run at a time),
and one traced run with seed 0, then prints
per metric the median, the quartiles and the spread (quartile distance over
median). ``--out`` writes all of it with the machine context as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRINTED_ONLY = ("frame_ms_p50", "failed_frac", "peak_rss_mb")
RUNS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    context = json.loads(lines[0].split(" ", 1)[1])
    result = json.loads(lines[-1])
    for line in lines:  # printed, unbounded figures
        words = line.split()
        if words and words[0] in PRINTED_ONLY:
            result["metrics"][words[0]] = {"value": float(words[1]), "unit": words[2]}
    return result, context


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("names", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    names = args.names or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    untraced = {name: [] for name in names}
    context = None
    for seed in range(RUNS):
        for name in names:
            result, context = run_once(name, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {seed}: incorrect result {result}")
            untraced[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    doc = {"context": context, "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for name in names:
        results = untraced[name]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for metric, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = first["unit"]
            entry["end_to_end"][metric] = stats
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and not stats["spread"] < bound / 3:
                flag = "  <-- above bound/3"
            print(f"{name} {metric}: median {stats['median']:.6g} {first['unit']}, "
                  f"spread {stats['spread']} (bound {bound}){flag}")
        traced, _ = run_once(name, 0, seconds, 1)
        entry["per_layer_seed0"] = {k: v for k, v in traced["metrics"].items()}
        doc["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
