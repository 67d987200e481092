#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as JSON.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py BASE HEAD --pr N --pairs 10 \
        --workload audit-ring --workload ring-solve --workload aniso-sweep

For each workload, each pair runs ``bench/run.py --trace 0`` once in BASE
and once in HEAD, one after the other, for the run length that
``bench/run.py`` sets; the side that goes first alternates from pair to
pair, and pair ``i`` uses seed ``1 + i`` on both sides.  The end-to-end
metrics, their directions and bounds are read from HEAD's
``BENCHMARK.json``.  ``BENCH_<pr>.json``, written in the current
directory, records per workload and metric every run, each side's median
and quartiles, the pairs HEAD won (ties count for neither side), and two
verdicts:

* ``gain``: HEAD won at least nine tenths of the pairs, the medians
  differ by more than BASE's interquartile range, and HEAD failed no
  larger share of its operations than BASE;
* ``within_bound``: HEAD's median is no worse than BASE's by more than
  the benchmark's bound for the metric; ``"unresolved"`` when BASE's
  interquartile range, relative to its median, is wider than the bound,
  unless every HEAD run beats every BASE run.

It also records the commits, the run settings and the library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy


def run_bench(checkout: Path, workload: str, seed: int):
    """One ``bench/run.py`` run; its final JSON line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"error: bench/run.py in {checkout} printed nothing:\n"
                 f"{done.stderr}")
    return json.loads(lines[-1])


def commit_of(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def side_summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "runs": [float(v) for v in values]}


def compare(base, head, better, bound, more_failures=False):
    """Summary of one metric over the pairs ``zip(base, head)``;
    ``more_failures`` says HEAD failed a larger share of its operations."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    b, h = side_summary(base), side_summary(head)
    iqr = b["q3"] - b["q1"]
    worse_by = sign * (h["median"] - b["median"]) / abs(b["median"])
    apart = max(sign * v for v in head) < min(sign * v for v in base)
    within = ("unresolved" if iqr / abs(b["median"]) > bound and not apart
              else bool(worse_by <= bound))
    return {
        "base": b, "head": h, "head_wins": int(wins), "pairs": len(base),
        "change": (h["median"] - b["median"]) / b["median"],
        "gain": bool(wins >= 0.9 * len(base) and not more_failures
                     and sign * (b["median"] - h["median"]) > iqr),
        "within_bound": within,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the parent")
    parser.add_argument("head", type=Path, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    result = {
        "pr": args.pr,
        "base": {"commit": commit_of(args.base)},
        "head": {"commit": commit_of(args.head)},
        "settings": {"pairs": args.pairs, "trace": 0, "first_seed": 1,
                     "order": "BASE first in even pairs, HEAD first in odd"},
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "machine": platform.machine(), "cpus": os.cpu_count(),
                     "OPENBLAS_NUM_THREADS":
                         os.environ.get("OPENBLAS_NUM_THREADS")},
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                out = run_bench(getattr(args, side), workload, 1 + i)
                runs[side].append(out)
                print(f"{workload} pair {i} {side}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in out["metrics"].items())
                      + f", failed {out['failed']}/{out['attempted']}",
                      file=sys.stderr, flush=True)
        counts = result["workloads"][workload] = {
            side: {"correct": all(r["correct"] for r in rs),
                   "attempted": sum(r["attempted"] for r in rs),
                   "failed": sum(r["failed"] for r in rs)}
            for side, rs in runs.items()}
        share = {side: c["failed"] / max(c["attempted"], 1)
                 for side, c in counts.items()}
        values = {side: {name: [r["metrics"][name]["value"] for r in rs]
                         for name in metrics}
                  for side, rs in runs.items()}
        result["workloads"][workload]["metrics"] = {
            name: {"unit": m["unit"], "better": m["better"],
                   "bound": m["bound"],
                   **compare(values["base"][name], values["head"][name],
                             m["better"], m["bound"],
                             share["head"] > share["base"])}
            for name, m in metrics.items()}
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
