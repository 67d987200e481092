import numpy as np
import pytest
import scipy.sparse as sp

from wgdmp.assembly import (ElementData, ReducedSystem, assemble,
                            schur_algebraic)
from wgdmp.mesh import generate_structured, trimesh_from_arrays
from wgdmp.solve import (NonConvergenceError, SolverConfig, SolverError,
                         WgSolution, export_solution_csv, export_vertex_csv,
                         recover_interior, solve_problem, solve_reduced,
                         vertex_average)
from wgdmp.tensor import ConstantField, example_fields


def test_constant_boundary_data_reproduced_exactly():
    # g = 3 solves the homogeneous problem exactly: every element and edge
    # value must come out 3
    mesh = generate_structured("mesh45", 2, 2)
    sol = solve_problem(ElementData(mesh, ConstantField(np.eye(2))),
                        g=lambda x, y: 3.0)
    assert np.abs(sol.u0 - 3.0).max() <= 1e-10
    assert np.abs(sol.ub - 3.0).max() <= 1e-10
    assert np.all(sol.ub_bdry == 3.0)


def test_constant_data_anisotropic_field():
    field, _, _ = example_fields("example51")
    mesh = generate_structured("mesh135", 2, 2, (0, 0, 16, 16))
    sol = solve_problem(ElementData(mesh, field), g=lambda x, y: -0.5)
    assert np.abs(sol.u0 + 0.5).max() <= 1e-10
    assert np.abs(sol.ub + 0.5).max() <= 1e-10


def test_zero_data_short_circuit():
    mesh = generate_structured("mesh90", 2, 2)
    sol = solve_problem(ElementData(mesh, ConstantField(np.eye(2))))
    assert np.all(sol.u0 == 0.0)
    assert np.all(sol.ub == 0.0)
    assert sol.residual_norm == 0.0


def test_methods_agree():
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh90", 4, 4, (0, 0, 16, 16))
    data = ElementData(mesh, field)
    cg = solve_problem(data, g=g,
                       config=SolverConfig(method="conjugate-gradient-jacobi"))
    ch = solve_problem(data, g=g,
                       config=SolverConfig(method="sparse-direct"))
    scale = np.abs(ch.ub).max()
    assert np.abs(cg.ub - ch.ub).max() <= 1e-9 * scale
    assert np.abs(cg.u0 - ch.u0).max() <= 1e-9 * scale


def test_residual_meets_tolerance():
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh45", 8, 8, (0, 0, 16, 16))
    system = assemble(ElementData(mesh, field), g=g)
    reduced = schur_algebraic(system)
    tol = 1e-12
    ub, resid = solve_reduced(reduced, system.g_h,
                              SolverConfig(rel_tolerance=tol))
    b = reduced.rhs - reduced.a_bdry @ system.g_h
    true_resid = float(np.linalg.norm(b - reduced.a_mat @ ub))
    assert true_resid <= tol * np.linalg.norm(b)
    assert resid == pytest.approx(true_resid, rel=1e-6, abs=1e-300)


def test_first_block_row_satisfied():
    # the recovered element values satisfy their block row of the full
    # system: M00 u0 + M0b ub + M0b_bdry g_h = F0
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh135", 4, 4, (0, 0, 16, 16))
    system = assemble(ElementData(mesh, field), f=lambda x, y: -1.0,
                      g=g)
    reduced = schur_algebraic(system)
    ub, _ = solve_reduced(reduced, system.g_h)
    u0 = recover_interior(system, ub, system.g_h)
    lhs = (system.m00_diag * u0 + system.m0b @ ub
           + system.m0b_bdry @ system.g_h)
    assert np.abs(lhs - system.f0).max() \
        <= 1e-9 * np.abs(system.f0).max() + 1e-12


def test_element_value_is_edge_mean_for_constant_field():
    # with a per-element-constant tensor and no source, back-substitution
    # reduces to the mean of the three edge values
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh135", 2, 2, (0, 0, 16, 16))
    sol = solve_problem(ElementData(mesh, field), g=g)
    all_edges = np.concatenate([sol.ub, sol.ub_bdry])
    means = all_edges[mesh.element_to_edges].mean(axis=1)
    assert np.abs(sol.u0 - means).max() <= 1e-11 * np.abs(means).max()


def test_vertex_average_center_of_cross():
    mesh = generate_structured("mesh90", 1, 1)
    # the center vertex is index 4 by construction (cell corners first)
    center = np.where((mesh.vertices == [0.5, 0.5]).all(axis=1))[0][0]
    sol = WgSolution(u0=np.zeros(4), ub=np.array([1.0, 2.0, 3.0, 4.0]),
                     ub_bdry=np.full(4, 10.0), residual_norm=0.0)
    va = vertex_average(mesh, sol)
    # all four interior edges meet at the center
    assert va[center] == pytest.approx(2.5)
    # each corner touches two boundary edges and one interior edge
    for v in range(4):
        touching = [1.0 + e for e in range(4)
                    if v in mesh.interior_edges[e]]
        assert len(touching) == 1
        assert va[v] == pytest.approx((touching[0] + 20.0) / 3.0)


def test_solution_invariant_under_vertex_relabeling():
    field, _, g = example_fields("example51")
    base = generate_structured("mesh45", 4, 4, (0, 0, 16, 16))
    rng = np.random.default_rng(97)
    perm = rng.permutation(base.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(base.n_vertices)
    shuffled = trimesh_from_arrays(base.vertices[perm],
                                   inv[base.triangles])

    sol_a = solve_problem(ElementData(base, field), g=g)
    sol_b = solve_problem(ElementData(shuffled, field), g=g)

    def edge_value_map(mesh, sol):
        out = {}
        for edges, vals in ((mesh.interior_edges, sol.ub),
                            (mesh.boundary_edges, sol.ub_bdry)):
            for pair, v in zip(edges, vals):
                key = frozenset(map(tuple, mesh.vertices[pair]))
                out[key] = v
        return out

    map_a = edge_value_map(base, sol_a)
    map_b = edge_value_map(shuffled, sol_b)
    assert map_a.keys() == map_b.keys()
    scale = max(abs(v) for v in map_a.values())
    for key, va in map_a.items():
        assert abs(va - map_b[key]) <= 1e-10 * scale


def _ring_system(size):
    field, f, g = example_fields("example52", gamma=99.0)
    mesh = generate_structured("mesh45", size, size)
    system = assemble(ElementData(mesh, field), f=f, g=g)
    return system, schur_algebraic(system)


def test_direct_method_above_old_dense_cap():
    # 3,008 unknowns: above the 2,000 that the dense factorization allowed
    system, reduced = _ring_system(32)
    n = reduced.a_mat.shape[0]
    assert n > 2000
    direct, _ = solve_reduced(reduced, system.g_h,
                              SolverConfig(method="sparse-direct"))
    cg, _ = solve_reduced(reduced, system.g_h)
    assert np.abs(direct - cg).max() <= 1e-9 * np.abs(direct).max()


def test_cg_keeps_conjugacy():
    # Jacobi CG without restarts needs about 660 products here; a loop
    # that resets its search direction every 50 steps needs several
    # thousand.  Allow at most n/2.
    system, reduced = _ring_system(32)
    products = []

    class CountingCSR(sp.csr_matrix):
        def _matmul_dispatch(self, other):
            products.append(1)
            return super()._matmul_dispatch(other)

    a = reduced.a_mat.tocsr()
    counting = ReducedSystem(
        a_mat=CountingCSR((a.data, a.indices, a.indptr), shape=a.shape),
        a_bdry=reduced.a_bdry, rhs=reduced.rhs)
    ub, _ = solve_reduced(counting, system.g_h)
    n = a.shape[0]
    assert n == 3008
    assert len(products) <= n // 2
    b = reduced.rhs - reduced.a_bdry @ system.g_h
    assert np.linalg.norm(b - a @ ub) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("method", ["conjugate-gradient-jacobi",
                                    "sparse-direct"])
def test_unreachable_tolerance_rejected(method):
    # neither method may accept a solve whose true residual misses the
    # tolerance, here one far below double precision
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh45", 4, 4, (0, 0, 16, 16))
    system = assemble(ElementData(mesh, field), g=g)
    reduced = schur_algebraic(system)
    with pytest.raises(SolverError, match="relative residual"):
        solve_reduced(reduced, system.g_h,
                      SolverConfig(rel_tolerance=1e-30, method=method))


def test_nonfinite_input_rejected():
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh45", 4, 4, (0, 0, 16, 16))
    system = assemble(ElementData(mesh, field), g=g)
    reduced = schur_algebraic(system)
    g_bad = system.g_h.copy()
    g_bad[0] = np.nan
    with pytest.raises(SolverError, match="right-hand side holds non-finite"):
        solve_reduced(reduced, g_bad)
    a_bad = reduced.a_mat.tocsr(copy=True)
    a_bad.data[0] = np.inf
    bad = ReducedSystem(a_mat=a_bad, a_bdry=reduced.a_bdry, rhs=reduced.rhs)
    with pytest.raises(SolverError, match="matrix holds non-finite"):
        solve_reduced(bad, system.g_h)


def test_nonconvergence_reports_history():
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh45", 8, 8, (0, 0, 16, 16))
    system = assemble(ElementData(mesh, field), g=g)
    reduced = schur_algebraic(system)
    with pytest.raises(NonConvergenceError) as info:
        solve_reduced(reduced, system.g_h,
                      SolverConfig(max_iterations=3))
    history = info.value.residual_history
    assert len(history) >= 1
    assert all(h >= 0.0 for h in history)


def test_invalid_configs_rejected():
    with pytest.raises(SolverError, match="method"):
        SolverConfig(method="gauss-seidel")
    with pytest.raises(SolverError, match="rel_tolerance"):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(SolverError, match="rel_tolerance"):
        SolverConfig(rel_tolerance=2.0)
    with pytest.raises(SolverError, match="max_iterations"):
        SolverConfig(max_iterations=0)


def test_export_solution_csv(tmp_path):
    mesh = generate_structured("mesh45", 2, 2)
    sol = solve_problem(ElementData(mesh, ConstantField(np.eye(2))),
                        g=lambda x, y: x)
    path = tmp_path / "solution.csv"
    export_solution_csv(sol, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,index,value"
    assert len(lines) == 1 + len(sol.u0) + len(sol.ub) + len(sol.ub_bdry)
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds == (["element"] * len(sol.u0)
                     + ["interior_edge"] * len(sol.ub)
                     + ["boundary_edge"] * len(sol.ub_bdry))
    # 17 significant digits round-trip the doubles exactly
    vals = [float(ln.split(",")[2]) for ln in lines[1:1 + len(sol.u0)]]
    assert np.array_equal(np.array(vals), sol.u0)


def test_export_vertex_csv(tmp_path):
    mesh = generate_structured("mesh90", 1, 1)
    vals = np.arange(mesh.n_vertices, dtype=float) * np.pi
    path = tmp_path / "vertices.csv"
    export_vertex_csv(mesh, vals, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + mesh.n_vertices
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(got[:, :2], mesh.vertices)
    assert np.array_equal(got[:, 2], vals)
