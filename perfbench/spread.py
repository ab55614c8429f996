#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 0-9 [--workloads score,fit-imbalanced]
                                [--trace 0] [--out perfbench/out/spread.json]

Runs are sequential, one process each, from the repository root. For every
workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, next to the metric's bound in ``BENCHMARK.json``. A run with
a failed operation contributes no metric values, and neither does a
per-layer metric whose function was absent: the 0 such a run prints is a
placeholder, not a measurement. The summary JSON (values, environment,
failures) is what ``compare.py`` reads; ``perfbench/baseline.json`` and
``perfbench/baseline_traced.json`` were written this way.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    """One run; returns its result line, environment and absent metrics."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    absent = next((json.loads(l[7:])["metrics"] for l in lines if l.startswith("absent ")), [])
    return json.loads(lines[-1]), env, absent


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"values": values, "median": statistics.median(values) if values else None,
                "q1": None, "q3": None, "spread": None}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))}


def main() -> int:
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(HERE, "out", "spread.json"))
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    summary = {"seconds": bench["run_seconds"], "seeds": parse_seeds(args.seeds),
               "trace": args.trace, "env": None, "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        units, attempted, failed, incorrect = {}, 0, 0, []
        for seed in summary["seeds"]:
            result, env, absent = run_once(workload, seed, bench["run_seconds"], args.trace)
            summary["env"] = summary["env"] or env
            if env != summary["env"]:
                print(f"warning: environment changed at {workload} seed {seed}: {env}")
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                incorrect.append(seed)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, [])
                units[name] = m["unit"]
                if result["correct"] and name not in absent:
                    per_metric[name].append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "incorrect_seeds": incorrect,
            "metrics": {n: dict(summarise(v), unit=units[n]) for n, v in per_metric.items()}}
        print(f"== {workload}: failed {failed}/{attempted}; runs left out as incorrect: "
              f"{incorrect or 'none'}")
        for name, s in summary["workloads"][workload]["metrics"].items():
            if s["spread"] is None:
                print(f"   {name:32s} NOT MEASURED ({len(s['values'])} usable runs)")
                continue
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound:.2f}" + (
                "  SPREAD > BOUND" if s["spread"] > bound else
                "  (> bound/3)" if s["spread"] > bound / 3 else "")
            print(f"   {name:32s} median {s['median']:.5g} {s['unit']:6s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f}  {flag}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
