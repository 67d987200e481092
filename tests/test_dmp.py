import numpy as np
import pytest
import scipy.sparse as sp
from conftest import random_spd, random_triangle, single_element

from wgdmp.assembly import ElementData, ReducedSystem, schur_closed_form
from wgdmp.dmp import (PAIRS, FullSystemReport, TheoremDmpReport,
                       check_full_system_condition, check_theorem_dmp,
                       check_theorem_general, mmatrix_audit,
                       solution_verdict, write_angle_report, write_violations)
from wgdmp.mesh import generate_structured
from wgdmp.solve import WgSolution, solve_problem
from wgdmp.tensor import ConstantField, FieldValidityError, example_fields

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def metric_angles(tri, a):
    """Metric-angle cosines and normal pairings ``|K| n_i^T A n_j`` of one
    triangle under a constant tensor, per edge pair of :data:`PAIRS`."""
    rep = check_theorem_dmp(single_element(tri, ConstantField(a)))
    return rep.cos_alpha[0], rep.pair_lhs[0]


# ---------------------------------------------------------------------------
# metric angles

def test_metric_angles_equilateral():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    cos, inner = metric_angles(tri, np.eye(2))
    assert cos == pytest.approx(np.full(3, 0.5), abs=1e-14)
    assert np.all(inner < 0)


def test_metric_angles_unit_right_identity():
    cos, inner = metric_angles(UNIT_RIGHT, np.eye(2))
    # pair order (0,1), (0,2), (1,2): angles 45, 90, 45 degrees
    r = np.sqrt(0.5)
    assert cos == pytest.approx([r, 0.0, r], abs=1e-14)
    # pairing |K| n_i . n_j: opposite sign to cos, zero at the right angle
    assert inner == pytest.approx([-0.5 * r, 0.0, -0.5 * r], abs=1e-14)


def test_metric_angles_anisotropy_flips_sign():
    # the right angle of the unit right triangle becomes obtuse in the
    # metric of the inverse of the strongly coupled tensor
    field, _, _ = example_fields("example51")
    cos, inner = metric_angles(UNIT_RIGHT, field.matrix_on(0))
    assert cos[1] == pytest.approx(-499.5 / 500.5, rel=1e-12)
    assert inner[1] == pytest.approx(0.5 * 499.5, rel=1e-12)
    assert np.all(cos[[0, 2]] > 0.999)
    assert np.all(inner[[0, 2]] < 0)


def test_metric_angles_sign_equivalence_random():
    # cos of the metric angle and the normal pairing have opposite signs
    # whenever the angle is not numerically right
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(200):
        tri = random_triangle(rng)
        cos, inner = metric_angles(tri, random_spd(rng))
        for p in range(3):
            if abs(cos[p]) > 1e-12 and abs(inner[p]) > 0:
                assert np.sign(cos[p]) == -np.sign(inner[p])
                checked += 1
    assert checked > 500


def test_metric_angles_rejects_singular_matrix():
    # a singular tensor has no inverse metric; it is refused when read
    with pytest.raises(FieldValidityError, match="positive definite"):
        metric_angles(UNIT_RIGHT, np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# per-element theorem conditions

def test_theorem_constant_tensor_by_mesh_kind():
    field, _, _ = example_fields("example51")
    for kind, n in (("mesh45", 4), ("mesh45", 8), ("mesh90", 4)):
        mesh = generate_structured(kind, n, n, (0, 0, 16, 16))
        rep = check_theorem_dmp(ElementData(mesh, field))
        assert rep.passed
        assert rep.failing_elements.size == 0
        assert np.all(rep.corr_lhs == 0.0)   # constant per element

    mesh = generate_structured("mesh135", 4, 4, (0, 0, 16, 16))
    rep = check_theorem_dmp(ElementData(mesh, field))
    assert not rep.passed
    # every element fails on exactly one pair, with a positive pairing
    # and a negative metric cosine at that pair
    assert rep.failing_elements.size == mesh.n_elements
    bad = ~rep.pair_pass
    assert np.all(bad.sum(axis=1) == 1)
    assert np.all(rep.pair_lhs[bad] > 0)
    assert np.all(rep.cos_alpha[bad] < 0)
    assert rep.corr_pass.all()


def test_theorem_identity_all_kinds_pass():
    field = ConstantField(np.eye(2))
    for kind in ("mesh45", "mesh90", "mesh135"):
        rep = check_theorem_dmp(
            ElementData(generate_structured(kind, 4, 4), field))
        assert rep.passed


def test_theorem_general_constant_field():
    field, _, _ = example_fields("example51")
    mesh = generate_structured("mesh45", 4, 4, (0, 0, 16, 16))
    rep = check_theorem_general(ElementData(mesh, field))
    assert rep.passed
    assert np.all(rep.cond1_lhs == 0.0)
    assert np.all(np.isinf(rep.cond2_rhs))
    assert rep.flagged_elements.size == 0

    # the obtuse metric angles of mesh135 fail condition 1 even with a
    # constant field (zero variation does not rescue a negative cosine)
    mesh = generate_structured("mesh135", 4, 4, (0, 0, 16, 16))
    rep = check_theorem_general(ElementData(mesh, field))
    assert not rep.passed
    assert rep.flagged_elements.size == mesh.n_elements


@pytest.mark.parametrize("gamma", [20.0, 99.0])
def test_theorem_general_flags_ring_elements(gamma):
    field, _, _ = example_fields("example52", gamma=gamma)
    mesh = generate_structured("mesh45", 8, 8)
    rep = check_theorem_general(ElementData(mesh, field))
    assert not rep.passed

    flagged = np.zeros(mesh.n_elements, dtype=bool)
    flagged[rep.flagged_elements] = True
    # below the horizontal through the pole the tensor's eigenvector field
    # crosses the mesh diagonals: every element there with a genuinely
    # obtuse metric angle must be flagged
    cen_y = mesh.vertices[mesh.triangles].mean(axis=1)[:, 1]
    strict = (cen_y < 0.5) & (rep.cos_min < -1e-12)
    assert strict.sum() > 0
    assert flagged[strict].all()
    # flagged elements either have an obtuse metric angle or a variation
    # ratio exceeding the cosine -- by definition of condition 1
    assert np.all(rep.cond1_lhs[flagged] > rep.cos_min[flagged] - 1e-12)


def test_theorem_general_matches_scalar_angles():
    # the vectorized cosines agree with a per-element reference that
    # inverts each averaged tensor with numpy and works from raw vertices
    field, _, _ = example_fields("example52", gamma=99.0)
    mesh = generate_structured("mesh45", 4, 4)
    data = ElementData(mesh, field)
    rep = check_theorem_general(data)
    for t in range(mesh.n_elements):
        p = mesh.vertices[mesh.triangles[t]]
        dirs = np.roll(p, -1, axis=0) - p
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        q = dirs @ np.linalg.inv(data.a_avg[t]) @ dirs.T
        want = [-q[i, j] / np.sqrt(q[i, i] * q[j, j]) for i, j in PAIRS]
        assert rep.cos_alpha[t] == pytest.approx(want, rel=1e-12, abs=1e-30)


def test_theorem_general_gamma_zero_passes():
    field, _, _ = example_fields("example52", gamma=0.0)
    mesh = generate_structured("mesh45", 4, 4)
    rep = check_theorem_general(ElementData(mesh, field))
    assert rep.passed


# ---------------------------------------------------------------------------
# full-system sign condition

def test_full_system_unit_right():
    rep = check_full_system_condition(single_element(UNIT_RIGHT))
    # pair order (0,1), (0,2), (1,2): the legs pair is (0,2)
    assert rep.mbb_offdiag[0] == pytest.approx([0.0, 2.0, 0.0], abs=1e-13)
    assert rep.mbb_pass[0].tolist() == [True, False, True]
    assert rep.cot_theta[0] == pytest.approx([1.0, 0.0, 1.0], abs=1e-13)
    assert rep.remark_rhs[0] == pytest.approx(1.0, rel=1e-13)
    assert rep.remark_pass[0].tolist() == [True, False, True]
    assert not rep.passed
    assert rep.failing_pairs == [(0, (0, 2), pytest.approx(2.0, rel=1e-13))]


def test_full_system_sign_matches_geometric_restatement():
    # for the identity tensor the entry-sign condition and the cotangent
    # condition are the same statement; both checkers must agree pairwise
    field = ConstantField(np.eye(2))
    for kind in ("mesh45", "mesh90", "mesh135"):
        mesh = generate_structured(kind, 3, 3)
        rep = check_full_system_condition(ElementData(mesh, field))
        assert np.array_equal(rep.mbb_pass, rep.remark_pass)


def test_full_system_fails_at_largest_angle_always():
    # cot(theta) >= 8|K| / (a^2+b^2+c^2) cannot hold at the largest angle
    # of any triangle (the 45-degree pairs of a right isosceles triangle
    # are the equality case), so the condition never fully passes
    rng = np.random.default_rng(13)
    field = ConstantField(np.eye(2))
    for _ in range(25):
        rep = check_full_system_condition(
            single_element(random_triangle(rng), field))
        assert not rep.passed
    # thin and strictly acute is not an escape: the per-element theorem
    # passes there while the full-system condition still fails
    data = single_element(np.array([[0.0, 0.0], [1e-3, 0.0], [5e-4, 1.0]]))
    assert check_theorem_dmp(data).passed
    rep = check_full_system_condition(data)
    assert not rep.passed
    assert rep.mbb_pass[0].tolist() == [False, False, True]


def test_reduced_vs_full_strictness():
    # the per-element reduced-system audit accepts mesh45 with the
    # identity tensor; the unreduced block audit rejects it on every
    # right-angle pair
    data = ElementData(generate_structured("mesh45", 4, 4),
                       ConstantField(np.eye(2)))
    assert check_theorem_dmp(data).passed
    rep = check_full_system_condition(data)
    assert not rep.passed
    bad = ~rep.mbb_pass
    assert np.all(bad.sum(axis=1) == 1)
    right_angle = np.abs(rep.cot_theta) < 1e-12
    assert np.array_equal(bad, right_angle)


# ---------------------------------------------------------------------------
# global matrix audit

def test_mmatrix_audit_mesh45_passes():
    field, _, _ = example_fields("example51")
    mesh = generate_structured("mesh45", 8, 8, (0, 0, 16, 16))
    assert mesh.n_interior_edges == 176
    rep = mmatrix_audit(schur_closed_form(mesh, field))
    assert rep.offdiag_violations == []
    assert rep.rowsum_pass
    assert rep.rowsum_max_dev <= 1e-10
    assert rep.dense_ran
    assert rep.inv_pass
    assert rep.bound_pass
    assert rep.passed


def test_mmatrix_audit_mesh135_fails():
    field, _, _ = example_fields("example51")
    mesh = generate_structured("mesh135", 4, 4, (0, 0, 16, 16))
    red = schur_closed_form(mesh, field)
    rep = mmatrix_audit(red)
    assert not rep.passed
    assert len(rep.offdiag_violations) > 0
    dense = red.a_mat.toarray()
    for i, j, v in rep.offdiag_violations:
        assert i != j
        assert v > 0
        assert dense[i, j] == pytest.approx(v, rel=1e-12)
    # row sums still vanish; monotonicity is what breaks
    assert rep.rowsum_pass
    assert rep.dense_ran
    assert not rep.inv_pass


def test_mmatrix_audit_hand_example():
    red = ReducedSystem(
        a_mat=sp.csr_matrix(np.array([[2.0]])),
        a_bdry=sp.csr_matrix(np.array([[-1.0, -1.0]])),
        rhs=np.zeros(1),
    )
    rep = mmatrix_audit(red)
    assert rep.passed
    assert rep.rowsum_min == pytest.approx(0.0, abs=1e-14)
    assert rep.inv_min == pytest.approx(0.5)
    # bound vector 1 + A^{-1} A_b 1 = 1 + 0.5 * (-2) = 0 exactly
    assert rep.bound_min == pytest.approx(0.0, abs=1e-14)


def test_mmatrix_audit_single_cell():
    mesh = generate_structured("mesh45", 1, 1)
    red = schur_closed_form(mesh, ConstantField(np.eye(2)))
    assert red.a_mat.toarray() == pytest.approx(np.array([[8.0]]), rel=1e-13)
    rep = mmatrix_audit(red)
    assert rep.passed
    assert rep.inv_min == pytest.approx(0.125, rel=1e-13)
    assert rep.bound_min == pytest.approx(0.0, abs=1e-13)


def test_mmatrix_dense_cap():
    n = 501
    red = ReducedSystem(a_mat=sp.identity(n, format="csr"),
                        a_bdry=sp.csr_matrix((n, 1)),
                        rhs=np.zeros(n))
    with pytest.raises(ValueError, match="500"):
        mmatrix_audit(red, dense=True)
    rep = mmatrix_audit(red)          # auto: skipped above the cap
    assert not rep.dense_ran
    assert rep.inv_min is None
    rep = mmatrix_audit(red, dense=False)
    assert not rep.dense_ran
    assert rep.passed                 # structural checks only


# ---------------------------------------------------------------------------
# solution verdict

def test_verdict_respects_bounds_on_good_meshes():
    field, _, g = example_fields("example51")
    for kind in ("mesh45", "mesh90"):
        data = ElementData(generate_structured(kind, 8, 8, (0, 0, 16, 16)),
                           field)
        assert check_theorem_dmp(data).passed
        sol = solve_problem(data, g=g)
        v = solution_verdict(sol)
        assert v.passed
        assert v.upper_bound == pytest.approx(1.0)
        assert v.lower_bound == pytest.approx(0.0)
        assert v.violating_edges == []
        assert v.violating_elements == []


def test_verdict_reports_mesh135_overshoot():
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh135", 8, 8, (0, 0, 16, 16))
    sol = solve_problem(ElementData(mesh, field), g=g)
    v = solution_verdict(sol)
    assert not v.passed
    assert not v.pass_upper
    assert not v.pass_lower
    assert v.max_ub > 1.0 + 1e-8
    assert v.min_ub < -1e-8
    assert len(v.violating_edges) > 0
    assert len(v.violating_elements) > 0
    # the lists are exactly the out-of-bounds unknowns
    for i in v.violating_edges:
        assert sol.ub[i] > 1.0 + 1e-8 or sol.ub[i] < -1e-8
    inside = np.ones(len(sol.ub), dtype=bool)
    inside[v.violating_edges] = False
    assert np.all((sol.ub[inside] <= 1.0 + 1e-8)
                  & (sol.ub[inside] >= -1e-8))
    # extrema are attained within the listed unknowns
    assert v.max_ub == pytest.approx(sol.ub[v.violating_edges].max())


def test_verdict_zero_data():
    mesh = generate_structured("mesh45", 2, 2)
    sol = solve_problem(ElementData(mesh, ConstantField(np.eye(2))))
    v = solution_verdict(sol)
    assert v.passed
    assert v.upper_bound == 0.0 and v.lower_bound == 0.0


def test_verdict_source_flag():
    mesh = generate_structured("mesh45", 2, 2)
    sol = solve_problem(ElementData(mesh, ConstantField(np.eye(2))),
                        g=lambda x, y: 1.0)
    v = solution_verdict(sol, f_sign_nonpositive=False)
    assert v.passed is None
    assert v.pass_upper and v.pass_lower


def test_verdict_tolerance():
    sol = WgSolution(u0=np.array([0.5]), ub=np.array([1.0 + 5e-9]),
                     ub_bdry=np.array([0.0, 1.0]), residual_norm=0.0)
    assert solution_verdict(sol, tol=1e-8).passed
    assert not solution_verdict(sol, tol=1e-10).passed


# ---------------------------------------------------------------------------
# report writers

def test_write_angle_report_theorem(tmp_path):
    field, _, _ = example_fields("example51")
    mesh = generate_structured("mesh135", 2, 2, (0, 0, 16, 16))
    rep = check_theorem_dmp(ElementData(mesh, field))
    path = tmp_path / "angles.csv"
    write_angle_report(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "element,pair,cos_alpha,n_inner,pass"
    assert len(lines) == 1 + 3 * mesh.n_elements
    cells = [ln.split(",") for ln in lines[1:]]
    assert all(c[1] in ("0-1", "0-2", "1-2") for c in cells)
    assert all(c[4] in ("0", "1") for c in cells)
    # at least one failing pair on this mesh
    assert any(c[4] == "0" for c in cells)


def test_write_angle_report_full_system(tmp_path):
    mesh = generate_structured("mesh45", 2, 2)
    rep = check_full_system_condition(
        ElementData(mesh, ConstantField(np.eye(2))))
    path = tmp_path / "full.csv"
    write_angle_report(rep, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * mesh.n_elements


def test_write_angle_report_rejects_other_types(tmp_path):
    field, _, _ = example_fields("example52", gamma=1.0)
    mesh = generate_structured("mesh45", 2, 2)
    rep = check_theorem_general(ElementData(mesh, field))
    with pytest.raises(TypeError):
        write_angle_report(rep, tmp_path / "x.csv")


def test_write_violations(tmp_path):
    field, _, g = example_fields("example51")
    mesh = generate_structured("mesh135", 4, 4, (0, 0, 16, 16))
    sol = solve_problem(ElementData(mesh, field), g=g)
    v = solution_verdict(sol)
    path = tmp_path / "violations.csv"
    write_violations(v, sol, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,index,value"
    assert len(lines) == 1 + len(v.violating_elements) + len(v.violating_edges)
    for ln in lines[1:]:
        kind, idx, val = ln.split(",")
        if kind == "element":
            assert float(val) == sol.u0[int(idx)]
        else:
            assert kind == "interior_edge"
            assert float(val) == sol.ub[int(idx)]
