"""Byte-identity of every CSV and text writer against per-value references.

The reference writers below are the loops the batched writers replaced:
one ``format(v, '.17g')`` (or ``repr``) per value and one ``write`` per
row.  Each production writer must reproduce their bytes exactly, on
values that stress the float formatting (signed zeros, subnormals, the
largest finite values, halves, integers stored as floats, inf and nan)
and on row counts of zero, one, and one that is not a multiple of the
block size.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import wgdmp.cli as cli
from wgdmp._csv import BLOCK
from wgdmp.assembly import export_matrix_triplets
from wgdmp.dmp import (PAIRS, FullSystemReport, SolutionVerdict,
                       TheoremDmpReport, write_angle_report, write_violations)
from wgdmp.mesh import TriMesh, export_mesh
from wgdmp.solve import WgSolution, export_solution_csv, export_vertex_csv

ROW_COUNTS = (0, 1, 2 * BLOCK + 7)


# ---------------------------------------------------------------------------
# reference writers

def ref_angle_report(report, path):
    if isinstance(report, TheoremDmpReport):
        values, passes = report.pair_lhs, report.pair_pass
        cos = report.cos_alpha
    else:
        values, passes = report.mbb_offdiag, report.mbb_pass
        cos = report.cot_theta
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("element,pair,cos_alpha,n_inner,pass\n")
        for t in range(values.shape[0]):
            for p, (i, j) in enumerate(PAIRS):
                fh.write(f"{t},{i}-{j},{format(cos[t, p], '.17g')},"
                         f"{format(values[t, p], '.17g')},"
                         f"{int(passes[t, p])}\n")


def ref_violations(verdict, solution, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,index,value\n")
        for i in verdict.violating_elements:
            fh.write(f"element,{i},{format(solution.u0[i], '.17g')}\n")
        for i in verdict.violating_edges:
            fh.write(f"interior_edge,{i},{format(solution.ub[i], '.17g')}\n")


def ref_solution_csv(solution, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,index,value\n")
        for kind, vec in (("element", solution.u0),
                          ("interior_edge", solution.ub),
                          ("boundary_edge", solution.ub_bdry)):
            for i, v in enumerate(vec):
                fh.write(f"{kind},{i},{format(v, '.17g')}\n")


def ref_vertex_csv(mesh, values, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        for (x, y), v in zip(mesh.vertices, values):
            fh.write(f"{format(x, '.17g')},{format(y, '.17g')},"
                     f"{format(v, '.17g')}\n")


def ref_export_mesh(mesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{int(i)} {int(j)} {int(k)}\n")


def ref_matrix_triplets(mat, path):
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {format(v, '.17g')}\n")


def _fmt(v):
    return format(float(v), ".17g")


def ref_example1_tables(rows, out):
    with open(out / "example1_table.csv", "w", encoding="utf-8") as fh:
        fh.write("kind,size,max_ub,min_ub,max_u0,min_u0\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['size']},{_fmt(r['max_ub'])},"
                     f"{_fmt(r['min_ub'])},{_fmt(r['max_u0'])},"
                     f"{_fmt(r['min_u0'])}\n")
    with open(out / "example1_audit.csv", "w", encoding="utf-8") as fh:
        fh.write("kind,size,theorem_pass,verdict_pass\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['size']},{int(r['theorem_pass'])},"
                     f"{int(r['verdict_pass'])}\n")


def ref_example2_table(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,gamma,size,max_ub,min_ub,max_u0,min_u0\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['gamma']:g},{r['size']},"
                     f"{_fmt(r['max_ub'])},{_fmt(r['min_ub'])},"
                     f"{_fmt(r['max_u0'])},{_fmt(r['min_u0'])}\n")


def ref_trend(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,gamma,size,max_ub\n")
        for r in rows:
            fh.write(f"{r['kind']},{r['gamma']:g},{r['size']},"
                     f"{_fmt(r['max_ub'])}\n")


# ---------------------------------------------------------------------------
# inputs

SPECIAL = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    1e308, -1e308, 1.7976931348623157e308, 0.5, -0.5, 2.5, 1e15 + 0.5,
    -123456.5, 3.0, -7.0, 1e16, 2.0 ** 53, 1e22, 0.1, 1.0 / 3.0,
    np.inf, -np.inf, np.nan])


def special_values(n, rng):
    """``n`` floats: the special ones first, then halves, integers and
    random magnitudes across the exponent range, shuffled."""
    pool = np.concatenate([
        SPECIAL,
        rng.integers(-10 ** 6, 10 ** 6, 64) + 0.5,
        rng.integers(-10 ** 12, 10 ** 12, 64).astype(float),
        rng.standard_normal(64) * 10.0 ** rng.integers(-320, 300, 64)])
    out = rng.choice(pool, n)
    out[:min(n, SPECIAL.size)] = SPECIAL[:n]
    return rng.permutation(out)


def _assert_same(tmp_path, write, ref, *args):
    write(*args, tmp_path / "got.csv")
    ref(*args, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# tests

@pytest.mark.parametrize("n", ROW_COUNTS)
def test_angle_reports_match_reference(n, tmp_path):
    rng = np.random.default_rng(n)
    shape = (n, 3)
    pick = lambda: special_values(3 * n, rng).reshape(shape)  # noqa: E731
    passes = rng.random(shape) < 0.5
    thm = TheoremDmpReport(pair_lhs=pick(), pair_rhs=pick(), pair_pass=passes,
                           corr_lhs=pick(), corr_rhs=pick(), corr_pass=passes,
                           cos_alpha=pick(), passed=False)
    full = FullSystemReport(mbb_offdiag=pick(), mbb_pass=~passes,
                            cot_theta=pick(), remark_rhs=pick()[:, 0],
                            remark_pass=passes, passed=False)
    for report in (thm, full):
        _assert_same(tmp_path, write_angle_report, ref_angle_report, report)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_solution_writers_match_reference(n, tmp_path):
    rng = np.random.default_rng(100 + n)
    sol = WgSolution(u0=special_values(n, rng),
                     ub=special_values(n + 3, rng),
                     ub_bdry=special_values(max(n - 1, 0), rng),
                     residual_norm=0.0)
    _assert_same(tmp_path, export_solution_csv, ref_solution_csv, sol)
    verdict = SolutionVerdict(
        max_ub=0.0, min_ub=0.0, max_u0=0.0, min_u0=0.0, upper_bound=0.0,
        lower_bound=0.0, pass_upper=False, pass_lower=False,
        violating_edges=sorted(rng.choice(n + 3, (n + 3) // 2, replace=False)
                               .tolist()),
        violating_elements=list(range(0, n, 2)), passed=False)
    _assert_same(tmp_path, write_violations, ref_violations, verdict, sol)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_vertex_csv_matches_reference(n, tmp_path):
    rng = np.random.default_rng(200 + n)
    mesh = SimpleNamespace(
        vertices=special_values(2 * n, rng).reshape(n, 2))
    values = special_values(n, rng)
    _assert_same(tmp_path, export_vertex_csv, ref_vertex_csv, mesh, values)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_mesh_and_matrix_files_match_reference(n, tmp_path):
    rng = np.random.default_rng(300 + n)
    empty = np.zeros((0, 2), dtype=np.int64)
    mesh = TriMesh(
        vertices=special_values(2 * n, rng).reshape(n, 2),
        triangles=rng.integers(0, 10 ** 9, (n + 2, 3)),
        interior_edges=empty, boundary_edges=empty,
        interior_edge_elements=empty, boundary_edge_elements=empty[:, 0],
        element_to_edges=empty, edge_orientations=empty)
    _assert_same(tmp_path, export_mesh, ref_export_mesh, mesh)
    side = n + 5
    flat = rng.choice(side * side, n, replace=False)
    mat = sp.csr_matrix((special_values(n, rng), divmod(flat, side)),
                        shape=(side, side))
    _assert_same(tmp_path, export_matrix_triplets, ref_matrix_triplets, mat)


@pytest.fixture
def special_extrema(monkeypatch):
    """Make every sweep report special values as its extrema."""
    values = iter(special_values(400, np.random.default_rng(5)))
    real = cli.solution_verdict

    def verdict(solution, *args, **kwargs):
        v = real(solution, *args, **kwargs)
        return dataclasses.replace(v, max_ub=next(values), min_ub=next(values),
                                   max_u0=next(values), min_u0=next(values))

    monkeypatch.setattr(cli, "solution_verdict", verdict)


@pytest.mark.parametrize("sizes", [[], [1, 2]])
def test_sweep_tables_match_reference(sizes, tmp_path, special_extrema):
    rows = cli.run_example1(sizes, ["mesh45", "mesh135"], tmp_path)
    got = {name: (tmp_path / name).read_bytes()
           for name in ("example1_table.csv", "example1_audit.csv")}
    ref_example1_tables(rows, tmp_path)
    for name, data in got.items():
        assert data == (tmp_path / name).read_bytes(), name

    gammas = [0.0, 20.5, 1e-5, 99.0]
    rows, _ = cli.run_trend(sizes, ["mesh45"], gammas, tmp_path)
    got = {name: (tmp_path / name).read_bytes()
           for name in ("example2_table.csv", "trend.csv")}
    ref_example2_table(rows, tmp_path / "example2_table.csv")
    ref_trend(rows, tmp_path / "trend.csv")
    for name, data in got.items():
        assert data == (tmp_path / name).read_bytes(), name
