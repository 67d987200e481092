#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, on small problems.

    python3 bench/selftest.py

Runs each workload's command once at a small size, confirms that its
check accepts the output, and then that the check rejects every
deliberately perturbed copy of that output listed in ``PERTURBATIONS``.
It also confirms that a command that raises makes the run incorrect, that
counts which differ between traced operations are caught, and that in one
traced operation the layer self times add up and the counts are those of
the small problem.  Exits 0 when all
of this holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import random
import re
import shutil
import sys

import run
from spans import Tracer
from workloads import make_workloads

SIZES = {"ring_size": 8, "audit_size": 16, "sweep_sizes": (8, 16)}
WORK = run.RESULTS / "selftest"


def edit_file(name, edit):
    """Perturbation that rewrites the lines of one output file."""
    def apply(outcome):
        path = outcome.out_dir / name
        if edit is None:
            path.unlink()
        else:
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        return outcome
    return apply


def edit_rows(prefix, column, change):
    """Change ``column`` of the first data row that starts with ``prefix``."""
    def edit(lines):
        for i, line in enumerate(lines[1:], start=1):
            if line.startswith(prefix):
                cells = line.split(",")
                cells[column] = change(cells[column])
                lines[i] = ",".join(cells)
                return lines
        raise LookupError(f"no row starts with {prefix!r}")
    return edit


def edit_all_rows(column, change):
    def edit(lines):
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            cells[column] = change(cells[column])
        return lines[:1] + [",".join(cells) for cells in rows]
    return edit


def drop_last_row(lines):
    return lines[:-1]


def exit_code(rc):
    return lambda outcome: dataclasses.replace(outcome, rc=rc)


def stdout_sub(pattern, repl):
    def apply(outcome):
        text, n = re.subn(pattern, repl, outcome.stdout)
        if not n:
            raise LookupError(f"{pattern!r} not in the output")
        return dataclasses.replace(outcome, stdout=text)
    return apply


def shift(delta):
    return lambda cell: repr(float(cell) + delta)


def scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _largest_interior_edge(lines):
    rows = [line.split(",") for line in lines[1:]]
    edges = [r for r in rows if r[0] == "interior_edge"]
    big = max(edges, key=lambda r: abs(float(r[2])))
    return edit_rows(f"interior_edge,{big[1]},", 2, scale(1 + 1e-6))(lines)


PERTURBATIONS = {
    "ring-solve": [
        ("exit code 2", exit_code(2)),
        ("largest interior-edge value off by 1e-6 relative",
         edit_file("solution.csv", _largest_interior_edge)),
        ("a boundary-edge value off by 1e-9",
         edit_file("solution.csv", edit_rows("boundary_edge,", 2, shift(1e-9)))),
        ("last solution row missing",
         edit_file("solution.csv", drop_last_row)),
        ("a vertex average outside the edge range",
         edit_file("vertices.csv", edit_rows("", 2, shift(3.0)))),
    ],
    "audit-ring": [
        ("exit code 0", exit_code(0)),
        ("element conditions read pass",
         stdout_sub(r"element conditions: FAIL", "element conditions: pass")),
        ("unreduced sign condition missing",
         stdout_sub(r"unreduced sign condition: .*\n", "")),
        ("one more positive off-diagonal printed",
         stdout_sub(r"\((\d+) positive off-diagonals",
                    lambda m: f"({int(m.group(1)) + 1} positive off-diagonals")),
        ("every cos_alpha off by 1e-8",
         edit_file("angle_report.csv", edit_all_rows(2, shift(1e-8)))),
        ("last angle_report row missing",
         edit_file("angle_report.csv", drop_last_row)),
        ("full_system.csv missing", edit_file("full_system.csv", None)),
    ],
    "aniso-sweep": [
        ("exit code 1", exit_code(1)),
        ("mesh45 max u_b above 1 by 1e-6",
         edit_file("example1_table.csv", edit_rows("mesh45,", 2, shift(1e-6)))),
        ("mesh90 min u_0 below 0 by 1e-6",
         edit_file("example1_table.csv", edit_rows("mesh90,", 5, shift(-1e-6)))),
        ("mesh90 theorem verdict n",
         edit_file("example1_audit.csv", edit_rows("mesh90,", 2, lambda c: "0"))),
        ("mesh135 theorem verdict y",
         edit_file("example1_audit.csv", edit_rows("mesh135,", 2, lambda c: "1"))),
        ("mesh135 min u_b 6e-3 off the paper",
         edit_file("example1_table.csv", edit_rows("mesh135,", 3, shift(6e-3)))),
        ("a vertex file missing",
         edit_file("example1_mesh90_16_vertices.csv", None)),
    ],
}


def main():
    cli = run.import_cli()
    workloads = make_workloads(**SIZES)
    shutil.rmtree(WORK, ignore_errors=True)
    failures = []

    def expect(ok, text):
        print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)
        if not ok:
            failures.append(text)

    for name, workload in workloads.items():
        ref = workload.reference() if workload.reference else {}
        rec, outcome = run.run_op(cli, workload, WORK / name / "op", None, 0)
        problems = workload.verify(ref, outcome, random.Random(0))
        expect(rec["error"] is None and not problems,
               f"{name}: check accepts the program's output "
               f"{problems or ''}{rec['error'] or ''}")
        for i, (label, perturb) in enumerate(PERTURBATIONS[name]):
            copy = WORK / name / f"perturbed{i}"
            shutil.copytree(outcome.out_dir, copy)
            bad = perturb(dataclasses.replace(outcome, out_dir=copy))
            problems = workload.verify(ref, bad, random.Random(0))
            expect(bool(problems), f"{name}: check rejects {label}: "
                                   f"{problems[0] if problems else 'accepted'}")

    class RaisingCLI:
        @staticmethod
        def main(argv):
            raise FloatingPointError("deliberate fault")

    run_dir = WORK / "raising"
    run_dir.mkdir(parents=True)
    result = run.bench(RaisingCLI, workloads["ring-solve"], {}, 0, 0.0, 0,
                       run_dir, probe=lambda: 0.5)
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"a command that raises makes the run incorrect: {result}")

    # two traced operations of different sizes must be caught by the
    # repeat check of the counts
    other = make_workloads(ring_size=16)["ring-solve"]
    tracer, records = Tracer(), []
    for op, (w, t) in enumerate([(workloads["ring-solve"], None),
                                 (workloads["ring-solve"], tracer),
                                 (other, None), (other, tracer), (other, None)]):
        rec, _ = run.run_op(cli, w, WORK / "counts", t, op)
        records.append(dict(rec, failed=rec["error"] is not None))
    _, problems = run.per_layer(records, tracer)
    expect(any("mesh.elements" in p for p in problems),
           f"counts that differ between operations are caught: {problems}")

    tracer = Tracer()
    rec, _ = run.run_op(cli, workloads["ring-solve"], WORK / "traced", tracer, 0)
    selfs = tracer.self_times(0)
    counts = tracer.counts[0]
    root = tracer.op_wall(0)
    expect(abs(sum(selfs.values()) - root) <= 1e-9 * root
           and root <= rec["wall"],
           f"traced ring-solve: self times add up to {sum(selfs.values()):.6f}"
           f" s of {root:.6f} s in the root span")
    expect(counts["mesh.elements"] == 128 and counts["solve.matvecs"] > 0
           and counts["tensor.points_sampled"] == 128 * 9,
           f"traced ring-solve: counts {counts}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
