"""Command line front end.

Subcommands:

* ``solve``  -- solve one problem and dump solution/vertex CSVs
* ``audit``  -- run the maximum-principle checks on a mesh/field pair
* ``example1`` -- extrema sweep of the constant strongly anisotropic benchmark
* ``example2`` -- extrema sweep of the Gaussian-ring benchmark
* ``convergence-trend`` -- overshoot maxima across mesh sizes

Exit codes: 0 success (and all audited conditions pass), 1 when an audit
or trend check reports violations, 2 for unusable input (bad files or
arguments).  All CSV output uses 17 significant digits; printed summaries
use 4.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .mesh import (MeshError, MeshFormatError, STRUCTURED_KINDS,
                   generate_structured, import_mesh)
from .tensor import (ConstantField, FieldValidityError, example_fields,
                     load_piecewise_field, quadrature)
from .assembly import ElementData, assemble, schur_algebraic
from .solve import (SolverConfig, SolverError, solve_problem, vertex_average,
                    export_solution_csv, export_vertex_csv)
from .dmp import (check_theorem_dmp, check_full_system_condition,
                  mmatrix_audit, solution_verdict, write_angle_report,
                  write_violations)

_METHOD_ALIASES = {
    "cg": "conjugate-gradient-jacobi",
    "conjugate-gradient-jacobi": "conjugate-gradient-jacobi",
    "cholesky": "sparse-direct",
    "sparse-direct": "sparse-direct",
}

_EXAMPLE_DOMAINS = {
    "example51": (0.0, 0.0, 16.0, 16.0),
    "example52": (0.0, 0.0, 1.0, 1.0),
}


def _fmt(v):
    return format(float(v), ".17g")


def _fmt4(v):
    return format(float(v), ".4g")


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x]


def _parse_floats(text):
    return [float(x) for x in text.split(",") if x]


def _solver_config(args):
    method = _METHOD_ALIASES.get(args.method)
    if method is None:
        raise ValueError(f"unknown method {args.method!r}")
    return SolverConfig(rel_tolerance=args.tol, method=method,
                        max_iterations=args.max_iterations)


def _load_mesh(args, domain):
    if args.mesh in STRUCTURED_KINDS:
        if args.size is None:
            raise ValueError(f"--size is required with --mesh {args.mesh}")
        return generate_structured(args.mesh, args.size, args.size, domain)
    return import_mesh(args.mesh)


def _resolve_problem(args):
    """Return (mesh, field, f, g, domain) from the common flags."""
    if args.field == "example51":
        field, f, g = example_fields("example51")
    elif args.field == "example52":
        field, f, g = example_fields("example52",
                                     gamma=args.gamma if args.gamma is not None else 99.0)
    elif args.field == "identity":
        field, f, g = ConstantField(np.eye(2)), None, None
    else:
        field, f, g = None, None, None  # per-element file, needs the mesh first

    if args.domain is not None:
        vals = _parse_floats(args.domain)
        if len(vals) != 4:
            raise ValueError("--domain needs x0,y0,x1,y1")
        domain = tuple(vals)
    else:
        domain = _EXAMPLE_DOMAINS.get(args.field, (0.0, 0.0, 1.0, 1.0))

    mesh = _load_mesh(args, domain)
    if field is None:
        field = load_piecewise_field(args.field, mesh.n_elements)
    if args.boundary_const is not None:
        c = float(args.boundary_const)
        g = lambda x, y, _c=c: np.full(np.broadcast_shapes(
            np.shape(x), np.shape(y)), _c)
    if args.source_const is not None:
        c = float(args.source_const)
        f = lambda x, y, _c=c: np.full(np.broadcast_shapes(
            np.shape(x), np.shape(y)), _c)
    return mesh, field, f, g, domain


def _add_common(p):
    p.add_argument("--mesh", default="mesh45",
                   help="structured kind (mesh45/mesh90/mesh135) or a mesh file")
    p.add_argument("--size", type=int, default=None,
                   help="cells per direction for structured kinds")
    p.add_argument("--domain", default=None, help="x0,y0,x1,y1")
    p.add_argument("--field", default="example51",
                   help="example51, example52, identity, or a per-element file")
    p.add_argument("--gamma", type=float, default=None,
                   help="ring amplitude for example52")
    p.add_argument("--degree", type=int, default=4, choices=(1, 2, 4),
                   help="quadrature degree")
    p.add_argument("--boundary-const", type=float, default=None,
                   help="override the boundary data with a constant")
    p.add_argument("--source-const", type=float, default=None,
                   help="override the source term with a constant")
    p.add_argument("--out", default=".", help="output directory")


def _add_solver_flags(p):
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative true-residual tolerance of the solve")
    p.add_argument("--method", default="cg",
                   help="cg (conjugate-gradient-jacobi, the default) or "
                        "cholesky (sparse-direct: one sparse LU factorization "
                        "in symmetric mode)")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="conjugate gradient iteration budget (default 20n)")


def _cmd_solve(args):
    mesh, field, f, g, _ = _resolve_problem(args)
    data = ElementData(mesh, field, quadrature(args.degree))
    sol = solve_problem(data, f=f, g=g, config=_solver_config(args))
    os.makedirs(args.out, exist_ok=True)
    export_solution_csv(sol, os.path.join(args.out, "solution.csv"))
    export_vertex_csv(mesh, vertex_average(mesh, sol),
                      os.path.join(args.out, "vertices.csv"))
    v = solution_verdict(sol)
    print(f"solved: {mesh.n_elements} elements, "
          f"{mesh.n_interior_edges} interior edges, "
          f"residual {_fmt4(sol.residual_norm)}")
    print(f"edge range   [{_fmt4(v.min_ub)}, {_fmt4(v.max_ub)}]")
    print(f"element range [{_fmt4(v.min_u0)}, {_fmt4(v.max_u0)}]")
    print(f"bounds       [{_fmt4(v.lower_bound)}, {_fmt4(v.upper_bound)}] "
          f"-> {'ok' if v.passed else 'VIOLATED'}")
    return 0


def _cmd_audit(args):
    mesh, field, f, g, _ = _resolve_problem(args)
    os.makedirs(args.out, exist_ok=True)

    data = ElementData(mesh, field, quadrature(args.degree))
    thm = check_theorem_dmp(data)
    write_angle_report(thm, os.path.join(args.out, "angle_report.csv"))
    reduced = schur_algebraic(assemble(data, f=f, g=g))
    mm = mmatrix_audit(reduced)
    print(f"element conditions: {'pass' if thm.passed else 'FAIL'} "
          f"({thm.failing_elements.size} failing elements)")
    print(f"matrix audit: {'pass' if mm.passed else 'FAIL'} "
          f"({len(mm.offdiag_violations)} positive off-diagonals, "
          f"row-sum min {_fmt4(mm.rowsum_min)}, "
          f"dense checks {'ran' if mm.dense_ran else 'skipped'})")
    ok = thm.passed and mm.passed
    if args.full_system:
        fs = check_full_system_condition(data)
        write_angle_report(fs, os.path.join(args.out, "full_system.csv"))
        print(f"unreduced sign condition: "
              f"{'pass' if fs.passed else 'FAIL'} "
              f"({np.count_nonzero(~fs.mbb_pass)} positive pairs)")
    return 0 if ok else 1


def run_example1(sizes, kinds, out_dir=".", config=None):
    """Extrema sweep of the constant-tensor benchmark; returns table rows."""
    field, f, g = example_fields("example51")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for kind in kinds:
        for n in sizes:
            mesh = generate_structured(kind, n, n, _EXAMPLE_DOMAINS["example51"])
            data = ElementData(mesh, field)
            sol = solve_problem(data, f=f, g=g, config=config)
            v = solution_verdict(sol)
            thm = check_theorem_dmp(data)
            rows.append({
                "kind": kind, "size": n,
                "max_ub": v.max_ub, "min_ub": v.min_ub,
                "max_u0": v.max_u0, "min_u0": v.min_u0,
                "theorem_pass": thm.passed, "verdict_pass": bool(v.passed),
            })
            export_vertex_csv(mesh, vertex_average(mesh, sol),
                              os.path.join(out_dir,
                                           f"example1_{kind}_{n}_vertices.csv"))
    with open(os.path.join(out_dir, "example1_table.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("kind,size,max_ub,min_ub,max_u0,min_u0\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['size']},{_fmt(r['max_ub'])},"
                     f"{_fmt(r['min_ub'])},{_fmt(r['max_u0'])},"
                     f"{_fmt(r['min_u0'])}\n")
    with open(os.path.join(out_dir, "example1_audit.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("kind,size,theorem_pass,verdict_pass\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['size']},{int(r['theorem_pass'])},"
                     f"{int(r['verdict_pass'])}\n")
    return rows


def _cmd_example1(args):
    rows = run_example1(args.sizes, args.kinds, args.out,
                        config=_solver_config(args))
    print(f"{'kind':8} {'n':>4} {'max ub':>10} {'min ub':>10} "
          f"{'max u0':>10} {'min u0':>10} {'thm':>4} {'dmp':>4}")
    for r in rows:
        print(f"{r['kind']:8} {r['size']:4d} {_fmt4(r['max_ub']):>10} "
              f"{_fmt4(r['min_ub']):>10} {_fmt4(r['max_u0']):>10} "
              f"{_fmt4(r['min_u0']):>10} "
              f"{'y' if r['theorem_pass'] else 'n':>4} "
              f"{'y' if r['verdict_pass'] else 'n':>4}")
    return 0


def run_example2(sizes, kinds, gammas, out_dir=".", config=None):
    """Extrema sweep of the Gaussian-ring benchmark; returns table rows."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for kind in kinds:
        for gamma in gammas:
            field, f, g = example_fields("example52", gamma=gamma)
            for n in sizes:
                mesh = generate_structured(kind, n, n,
                                           _EXAMPLE_DOMAINS["example52"])
                sol = solve_problem(ElementData(mesh, field), f=f, g=g,
                                    config=config)
                v = solution_verdict(sol)
                rows.append({
                    "kind": kind, "gamma": gamma, "size": n,
                    "max_ub": v.max_ub, "min_ub": v.min_ub,
                    "max_u0": v.max_u0, "min_u0": v.min_u0,
                    "verdict_pass": bool(v.passed),
                })
                if v.violating_edges or v.violating_elements:
                    write_violations(
                        v, sol,
                        os.path.join(out_dir,
                                     f"example2_{kind}_g{gamma:g}_{n}_violations.csv"))
    with open(os.path.join(out_dir, "example2_table.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("kind,gamma,size,max_ub,min_ub,max_u0,min_u0\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['gamma']:g},{r['size']},"
                     f"{_fmt(r['max_ub'])},{_fmt(r['min_ub'])},"
                     f"{_fmt(r['max_u0'])},{_fmt(r['min_u0'])}\n")
    return rows


def _cmd_example2(args):
    rows = run_example2(args.sizes, args.kinds, args.gammas, args.out,
                        config=_solver_config(args))
    print(f"{'kind':8} {'gamma':>6} {'n':>4} {'max ub':>10} {'min ub':>10} "
          f"{'max u0':>10} {'min u0':>10} {'dmp':>4}")
    for r in rows:
        print(f"{r['kind']:8} {r['gamma']:6g} {r['size']:4d} "
              f"{_fmt4(r['max_ub']):>10} {_fmt4(r['min_ub']):>10} "
              f"{_fmt4(r['max_u0']):>10} {_fmt4(r['min_u0']):>10} "
              f"{'y' if r['verdict_pass'] else 'n':>4}")
    return 0


def run_trend(sizes, kinds, gammas, out_dir=".", config=None):
    """Overshoot maxima across sizes; returns (rows, all_nonincreasing)."""
    rows = run_example2(sizes, kinds, gammas, out_dir, config=config)
    ok = True
    for kind in kinds:
        for gamma in gammas:
            seq = [r["max_ub"] for r in rows
                   if r["kind"] == kind and r["gamma"] == gamma]
            for a, b in zip(seq, seq[1:]):
                if b > a + 1e-12:
                    ok = False
    with open(os.path.join(out_dir, "trend.csv"), "w", encoding="utf-8") as fh:
        fh.write("kind,gamma,size,max_ub\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['gamma']:g},{r['size']},"
                     f"{_fmt(r['max_ub'])}\n")
    return rows, ok


def _cmd_trend(args):
    rows, ok = run_trend(args.sizes, args.kinds, args.gammas, args.out,
                         config=_solver_config(args))
    for kind in args.kinds:
        for gamma in args.gammas:
            seq = [(r["size"], r["max_ub"]) for r in rows
                   if r["kind"] == kind and r["gamma"] == gamma]
            path = " -> ".join(f"{_fmt4(v)}" for _, v in seq)
            print(f"{kind} gamma={gamma:g}: {path}")
    print(f"overshoot maxima nonincreasing: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wgdmp",
        description="Weak Galerkin anisotropic diffusion with "
                    "maximum-principle audits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one problem")
    _add_common(p)
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("audit", help="run the maximum-principle checks")
    _add_common(p)
    p.add_argument("--full-system", action="store_true",
                   help="also check the unreduced sign condition")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("example1", help="constant-tensor benchmark sweep")
    p.add_argument("--sizes", type=_parse_ints, default=[8, 16, 32, 64])
    p.add_argument("--kinds", type=lambda s: s.split(","),
                   default=["mesh45", "mesh90", "mesh135"])
    _add_solver_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=_cmd_example1)

    p = sub.add_parser("example2", help="Gaussian-ring benchmark sweep")
    p.add_argument("--sizes", type=_parse_ints, default=[8, 16, 32, 64])
    p.add_argument("--kinds", type=lambda s: s.split(","),
                   default=["mesh45", "mesh90"])
    p.add_argument("--gammas", type=_parse_floats, default=[20.0, 40.0, 60.0, 99.0])
    _add_solver_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=_cmd_example2)

    p = sub.add_parser("convergence-trend",
                       help="overshoot maxima across mesh sizes")
    p.add_argument("--sizes", type=_parse_ints, default=[8, 16, 32, 64])
    p.add_argument("--kinds", type=lambda s: s.split(","),
                   default=["mesh45", "mesh90"])
    p.add_argument("--gammas", type=_parse_floats, default=[20.0, 40.0, 60.0, 99.0])
    _add_solver_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=_cmd_trend)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MeshFormatError, FieldValidityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
