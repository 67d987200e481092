#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the wgdmp command line.

Run from the root of a checkout:

    python3 bench/run.py --workload ring-solve --seed 1 --seconds 20 --trace 0

One process imports ``wgdmp.cli`` from the checkout's ``src`` and runs the
workload's command through ``wgdmp.cli.main`` again and again until
``--seconds`` have passed, checking every operation's outputs (see
``workloads.py``).  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced operations and
reports the per-layer self times and counts of the traced ones (see
``spans.py``) and the tracing overhead.  An operation that raises or
fails its check counts as failed, makes the run incorrect and is left out
of the medians.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
BLAS threading is left as users get it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import Outcome, make_workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
#: Fewest set-up probes per untraced run.  One follows each operation, so
#: that they sample the same stretch of time as the operations do; the rest
#: are made after the last operation.
SETUP_PROBES = 20


def import_cli():
    """Import ``wgdmp.cli`` from this checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wgdmp.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import wgdmp from {src}: {exc}")
    if src.resolve() not in Path(wgdmp.cli.__file__).resolve().parents:
        sys.exit(f"error: wgdmp was imported from {wgdmp.cli.__file__}, "
                 f"not from {src}")
    return wgdmp.cli


def setup_probe():
    """Time from starting a fresh interpreter to the point where the first
    operation would start, that is, past ``import wgdmp.cli``."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--probe"],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1]) - t0


def load_reference(workload, run_dir):
    """Compute the workload's reference in a child process, so that its
    memory stays out of this process's peak RSS."""
    if workload.reference is None:
        return {}
    path = run_dir / "reference.npz"
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--reference",
                    workload.name, str(path)], timeout=170, check=True)
    with np.load(path) as data:
        ref = {k: data[k] for k in data.files}
    path.unlink()
    return ref


def files_size(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_op(cli, workload, out_dir, tracer, op):
    """Run one operation; return its record with wall and CPU time."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = list(workload.argv) + ["--out", str(out_dir)]
    buf = io.StringIO()
    rec = {"op": op, "traced": tracer is not None, "error": None}
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed, contextlib.redirect_stdout(buf):
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            with tracer.operation(op) if tracer else contextlib.nullcontext():
                rc = cli.main(argv)
        except Exception:  # an operation that raises counts as failed
            rc, rec["error"] = None, traceback.format_exc()
        w1, c1 = time.perf_counter(), time.process_time()
    rec.update(wall=w1 - w0, cpu=c1 - c0, rc=rc, bytes=files_size(out_dir))
    return rec, Outcome(rc=rc, stdout=buf.getvalue(), out_dir=out_dir)


def metric(value, unit):
    return {"value": value, "unit": unit}


def passed(records):
    """The operations that did not fail; all of them if none passed, so
    that a run whose every operation fails still reports (as incorrect)."""
    return [r for r in records if not r["failed"]] or records


def end_to_end(records, setup_times):
    ok = passed(records)
    return {
        "op_s": metric(statistics.median(r["wall"] for r in ok), "s"),
        "cpu_s": metric(statistics.median(r["cpu"] for r in ok), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def per_layer(records, tracer):
    """The per-layer metrics, and the problems found in the trace: a count
    that differs between operations of the same command is one."""
    traced = [r for r in passed(records) if r["traced"]]
    selfs = [tracer.self_times(r["op"]) for r in traced]
    for r, s in zip(traced, selfs):
        # the root span's self time is the remainder, so the layers add up
        if abs(sum(s.values()) - tracer.op_wall(r["op"])) > 1e-9 * r["wall"]:
            raise RuntimeError(f"op {r['op']}: self times do not add up")
    out = {m: metric(statistics.median(s[m] for s in selfs), "s")
           for m in TIME_METRICS}
    problems = []
    for m in COUNT_METRICS:
        values = {tracer.counts[r["op"]][m] for r in traced}
        if len(values) != 1:
            problems.append(f"{m} differs between operations: "
                            f"{sorted(values)}")
        out[m] = metric(max(values), "count")
    out["cli.bytes_written"] = metric(
        statistics.median_low(r["bytes"] for r in passed(records)), "bytes")
    out["trace.op_s"] = metric(statistics.median(r["wall"] for r in traced), "s")
    # each traced operation against the untraced ones on either side of it
    ratios = [r["wall"] / statistics.mean((records[i - 1]["wall"],
                                           records[i + 1]["wall"])) - 1.0
              for i, r in enumerate(records) if r["traced"]]
    out["trace.overhead_pct"] = metric(100.0 * statistics.median(ratios), "%")
    return out, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="(internal) import the program, print the time")
    parser.add_argument("--reference", nargs=2, metavar=("WORKLOAD", "NPZ"),
                        help="(internal) write a workload's reference")
    args = parser.parse_args(argv)

    if args.probe:
        import_cli()
        print(time.perf_counter())
        return 0
    if args.reference:
        import_cli()
        name, path = args.reference
        np.savez(path, **make_workloads()[name].reference())
        return 0

    cli = import_cli()
    workloads = make_workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[args.workload]

    run_dir = RESULTS / (f"{workload.name}-seed{args.seed}-trace{args.trace}"
                         f"-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)
    ref = load_reference(workload, run_dir)
    result = bench(cli, workload, ref, args.seed, args.seconds, args.trace,
                   run_dir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def bench(cli, workload, ref, seed, seconds, trace, run_dir,
          probe=setup_probe):
    """Run ``workload`` for ``seconds``, at least once; return the result
    object.  ``correct`` is false when an operation raised or failed its
    check, or when the trace is inconsistent."""
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    print(f"workload {workload.name}: wgdmp {' '.join(workload.argv)}")
    records, setup_times = [], []
    # the set-up probes between operations do not count against --seconds
    start, probing = time.perf_counter(), 0.0
    # a traced run ends on an untraced operation, so each traced one is
    # bracketed by two untraced ones
    while (not records
           or time.perf_counter() - start - probing < seconds
           or (tracer and (len(records) < 3 or records[-1]["traced"]))):
        op = len(records)
        traced = tracer is not None and op % 2 == 1
        rec, outcome = run_op(cli, workload, run_dir / "op",
                              tracer if traced else None, op)
        problems = ([rec["error"]] if rec["error"] is not None
                    else workload.verify(ref, outcome, rng))
        rec["failed"] = bool(problems)
        records.append(rec)
        print(f"op {op}{' traced' if traced else ''}: {rec['wall']:.4f} s wall,"
              f" {rec['cpu']:.4f} s cpu, exit {rec['rc']}, "
              f"{'FAILED: ' + '; '.join(problems) if problems else 'ok'}",
              flush=True)
        if not tracer:
            t0 = time.perf_counter()
            setup_times.append(probe())
            probing += time.perf_counter() - t0
    shutil.rmtree(run_dir / "op", ignore_errors=True)
    while not tracer and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())

    failed = sum(r["failed"] for r in records)
    correct = not failed
    if tracer:
        metrics, problems = per_layer(records, tracer)
        for p in problems:
            print(f"trace: {p}")
        correct = correct and not problems
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    else:
        metrics = end_to_end(records, setup_times)
        run_dir.rmdir()
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}" if isinstance(
            m["value"], float) else f"{name} = {m['value']} {m['unit']}")
    print(f"attempted {len(records)}, failed {failed}")
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": metrics}

if __name__ == "__main__":
    sys.exit(main())
