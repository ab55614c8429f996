#!/usr/bin/env python3
"""Compare two benchmark summaries written by ``spread.py``.

    python3 perfbench/compare.py perfbench/baseline.json perfbench/out/spread.json

Refuses (exit 3) when the two were measured in different environments:
core count, Python, numpy, BLAS library or thread count, or the CLI's
``--threads``. Otherwise prints, per workload and end-to-end metric, both
medians, the change and a verdict against the bound in ``BENCHMARK.json``,
and exits 1 if any metric worsened by more than its bound, if a metric the
base measured was not measured, or if the new summary's share of failed
operations is above the base's.
"""
from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Environment fields that must match; the commit and source digest are
# what a comparison is for, so they may differ.
SAME_ENV = ("nproc", "python", "numpy", "blas", "blas_threads", "cli_threads")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(p)) for p in argv)
    diff = {k: (base["env"].get(k), new["env"].get(k)) for k in SAME_ENV
            if base["env"].get(k) != new["env"].get(k)}
    if diff:
        print("refused: measured in different environments: " +
              ", ".join(f"{k} {a!r} vs {b!r}" for k, (a, b) in diff.items()))
        return 3
    if base["seconds"] != new["seconds"]:
        print(f"refused: run length differs ({base['seconds']} vs {new['seconds']} s)")
        return 3

    spec = {m["name"]: m for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]}
    worse = False
    print(f"base {base['env'].get('git_commit') or base['env']['src_sha256'][:12]}  "
          f"new {new['env'].get('git_commit') or new['env']['src_sha256'][:12]}")
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload}: missing from the new summary")
            continue
        print(f"{workload}: failed {b['failed']}/{b['attempted']} -> {n['failed']}/{n['attempted']}")
        if n["failed"] / max(n["attempted"], 1) > b["failed"] / max(b["attempted"], 1):
            print("  FAILED OPERATIONS: more than the base")
            worse = True
        for name, m in spec.items():
            bm, nm = b["metrics"].get(name), n["metrics"].get(name)
            if bm is None or bm["median"] is None:
                continue
            if nm is None or nm["median"] is None:
                print(f"  {name:20s} NOT MEASURED in the new summary")
                worse = True
                continue
            change = (nm["median"] - bm["median"]) / abs(bm["median"])
            loss = change if m["better"] == "lower" else -change
            if loss > m["bound"]:
                verdict, worse = "WORSE than bound", True
            elif max(bm["spread"] or 0.0, nm["spread"] or 0.0) > m["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            print(f"  {name:20s} {bm['median']:10.4g} -> {nm['median']:10.4g} {m['unit']:6s}"
                  f" {change:+7.1%}  bound {m['bound']:.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
