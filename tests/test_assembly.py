import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (exact_monomial, quad_integrate, random_spd,
                      random_triangle, single_element)

from wgdmp.assembly import (ElementData, ReducedSystem, WgSystem, assemble,
                            boundary_averages, export_matrix_triplets,
                            schur_algebraic, schur_closed_form)
from wgdmp.dmp import PAIRS, check_full_system_condition
from wgdmp.mesh import generate_structured, trimesh_from_arrays
from wgdmp.tensor import (ConstantField, FieldValidityError, FunctionalField,
                          PiecewiseConstantField, example_fields, quadrature)

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def weak_gradient(data, which):
    """``(radial, constant part)`` of a basis weak gradient on element 0,
    by the formulas of the assembly module docstring: ``which`` is
    ``"element"`` or a local edge index."""
    if which == "element":
        return -data.c_k[0], np.zeros(2)
    return (data.c_k[0] / 3.0,
            data.lens[0, which] / data.area[0] * data.nrm[0, which])


def eval_weak_gradient(wg, data, pts):
    """Pointwise values of radial * (x - x_K) + const at (n, 2) points."""
    radial, const = wg
    return radial * (pts - data.cen[0]) + const


# ---------------------------------------------------------------------------
# weak gradient basis

def test_weak_gradient_unit_right_frozen():
    data = single_element(UNIT_RIGHT)
    radial, const = weak_gradient(data, "element")
    assert radial == pytest.approx(-18.0, rel=1e-13)
    assert const == pytest.approx([0.0, 0.0], abs=0.0)
    # bottom, hypotenuse, left
    for l, want in enumerate(([0.0, -2.0], [2.0, 2.0], [-2.0, 0.0])):
        radial, const = weak_gradient(data, l)
        assert radial == pytest.approx(6.0, rel=1e-13)
        assert const == pytest.approx(want, rel=1e-14)


def test_weak_gradient_integral_values():
    # int_K grad phi_0 = 0 and int_K grad phi_{b,i} = |e_i| n_i
    rng = np.random.default_rng(17)
    rule = quadrature(2)
    for _ in range(25):
        tri = random_triangle(rng)
        data = single_element(tri)
        pts = rule.points @ tri
        vec = quad_integrate(rule, tri, eval_weak_gradient(
            weak_gradient(data, "element"), data, pts))
        assert np.abs(vec).max() <= 1e-13 * data.c_k[0]
        for l in range(3):
            vec = quad_integrate(rule, tri, eval_weak_gradient(
                weak_gradient(data, l), data, pts))
            # edge vector rotated by -90 degrees: |e_l| n_l from raw coords
            ev = tri[(l + 1) % 3] - tri[l]
            assert vec == pytest.approx([ev[1], -ev[0]], rel=1e-12)


def test_weak_gradient_defining_relation():
    # (grad_w phi, q)_K = -(phi_0, div q)_K + <phi_b, q . n>_dK for the
    # fields q that determine the lowest-order gradient: both constants
    # and the radial field x - x_K.  Right hand sides are evaluated with
    # exact edge/element integrals, independent of the implementation.
    rng = np.random.default_rng(29)
    rule = quadrature(2)
    for _ in range(50):
        tri = random_triangle(rng)
        data = single_element(tri)
        pts = rule.points @ tri
        area = data.area[0]
        mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
        cen = data.cen[0]
        lens = data.lens[0]
        nrms = data.nrm[0]

        cases = []  # (q values at pts, div q, exact edge integrals of q.n)
        for q in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            edge_ints = lens * (nrms @ q)
            cases.append((np.broadcast_to(q, pts.shape), 0.0, edge_ints))
        edge_ints = lens * np.einsum("la,la->l", mids - cen, nrms)
        cases.append((pts - cen, 2.0, edge_ints))

        scale = data.c_k[0] * max(1.0, area)
        for which, phi0, phib in [("element", 1.0, np.zeros(3)),
                                  (0, 0.0, np.eye(3)[0]),
                                  (1, 0.0, np.eye(3)[1]),
                                  (2, 0.0, np.eye(3)[2])]:
            vals = eval_weak_gradient(weak_gradient(data, which), data, pts)
            for qv, divq, edge_ints in cases:
                lhs = quad_integrate(rule, tri, (vals * qv).sum(axis=1))
                rhs = -phi0 * divq * area + phib @ edge_ints
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_entries_are_weak_gradient_gram_matrix():
    # every element entry is (A grad_w phi_i, grad_w phi_j)_K; with affine
    # tensor entries the integrands are cubic, so the degree-4 rule is exact
    rng = np.random.default_rng(31)
    rule = quadrature(4)
    for _ in range(10):
        tri = random_triangle(rng)
        data = single_element(tri, _affine_field())
        pts = rule.points @ tri
        aq = data.field.sample(pts)
        vals = [eval_weak_gradient(weak_gradient(data, w), data, pts)
                for w in ("element", 0, 1, 2)]
        gram = np.array([[quad_integrate(rule, tri, np.einsum(
            "qa,qab,qb->q", vi, aq, vj)) for vj in vals] for vi in vals])
        scale = np.abs(gram).max()
        system = assemble(data)
        local_edges = data.mesh.element_to_edges[0]     # all boundary here
        m0b = system.m0b_bdry.toarray()[0, local_edges]
        assert abs(system.m00_diag[0] - gram[0, 0]) <= 1e-12 * scale
        assert np.abs(m0b - gram[0, 1:]).max() <= 1e-12 * scale
        offdiag = check_full_system_condition(data).mbb_offdiag[0]
        want = [gram[1 + i, 1 + j] for i, j in PAIRS]
        assert np.abs(offdiag - want).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# assembled blocks

def test_single_triangle_blocks():
    mesh = trimesh_from_arrays(UNIT_RIGHT, [[0, 1, 2]])
    system = assemble(ElementData(mesh, ConstantField(np.eye(2))))
    assert system.m00_diag == pytest.approx([18.0], rel=1e-13)
    assert system.m0b.shape == (1, 0)
    assert system.m0b_bdry.toarray() == pytest.approx(
        np.array([[-6.0, -6.0, -6.0]]), rel=1e-13)
    assert system.mbb.shape == (0, 0)
    assert np.all(system.f0 == 0.0)
    assert np.all(system.g_h == 0.0)


def test_unit_square_pair_blocks():
    # two right triangles sharing the diagonal; every block entry has a
    # short closed form for the identity tensor
    mesh = generate_structured("mesh45", 1, 1)
    system = assemble(ElementData(mesh, ConstantField(np.eye(2))))
    assert mesh.n_interior_edges == 1
    assert system.m00_diag == pytest.approx([18.0, 18.0], rel=1e-13)
    assert system.m0b.toarray() == pytest.approx(
        np.array([[-6.0], [-6.0]]), rel=1e-13)
    assert system.mbb.toarray() == pytest.approx(
        np.array([[12.0]]), rel=1e-13)

    red = schur_algebraic(system)
    assert red.a_mat.toarray() == pytest.approx(np.array([[8.0]]), rel=1e-13)
    assert red.a_bdry.toarray() == pytest.approx(
        np.full((1, 4), -2.0), rel=1e-13)


def test_schur_fragment_by_hand():
    # one unit right triangle, all three edges treated as interior: the
    # reduced matrix eliminates the single element unknown by hand:
    # A = Mbb - M0b^T M0b / M00 with M00 = 18, M0b = (-6, -6, -6) and
    # Mbb = [[4, 0, 2], [0, 6, 0], [2, 0, 4]] (edge order: the two legs
    # sandwich the hypotenuse)
    m0b = sp.csr_matrix(np.array([[-6.0, -6.0, -6.0]]))
    mbb = sp.csr_matrix(np.array([[4.0, 0.0, 2.0],
                                  [0.0, 6.0, 0.0],
                                  [2.0, 0.0, 4.0]]))
    system = WgSystem(
        m00_diag=np.array([18.0]),
        m0b=m0b,
        m0b_bdry=sp.csr_matrix((1, 0)),
        mbb=mbb,
        mbb_bdry=sp.csr_matrix((3, 0)),
        f0=np.zeros(1),
        g_h=np.zeros(0),
    )
    red = schur_algebraic(system)
    want = np.array([[2.0, -2.0, 0.0],
                     [-2.0, 4.0, -2.0],
                     [0.0, -2.0, 2.0]])
    assert red.a_mat.toarray() == pytest.approx(want, abs=1e-14)
    assert red.a_mat.toarray().sum(axis=1) == pytest.approx(
        np.zeros(3), abs=1e-14)
    assert np.all(red.rhs == 0.0)

    system.f0 = np.array([9.0])
    red = schur_algebraic(system)
    assert red.rhs == pytest.approx([3.0, 3.0, 3.0], rel=1e-14)


def test_schur_rejects_nonpositive_element_block():
    system = WgSystem(
        m00_diag=np.array([-1.0]),
        m0b=sp.csr_matrix((1, 1)),
        m0b_bdry=sp.csr_matrix((1, 0)),
        mbb=sp.csr_matrix((1, 1)),
        mbb_bdry=sp.csr_matrix((1, 0)),
        f0=np.zeros(1),
        g_h=np.zeros(0),
    )
    with pytest.raises(FieldValidityError):
        schur_algebraic(system)


def _affine_field():
    def func(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty(np.broadcast_shapes(x.shape, y.shape) + (2, 2))
        out[..., 0, 0] = 2.0 + x
        out[..., 0, 1] = out[..., 1, 0] = 0.2 * y
        out[..., 1, 1] = 3.0 + y
        return out
    return FunctionalField(func)


def _pw_field(rng, n):
    return PiecewiseConstantField(
        np.stack([random_spd(rng, 0.5, 10.0) for _ in range(n)]))


def _cross_check_cases():
    rng = np.random.default_rng(41)
    ex51, _, _ = example_fields("example51")
    ex52a, _, _ = example_fields("example52", gamma=99.0)
    ex52b, _, _ = example_fields("example52", gamma=20.0)
    cases = [
        (generate_structured("mesh45", 2, 2), ConstantField(random_spd(rng)),
         None),
        (generate_structured("mesh45", 2, 2, (0, 0, 16, 16)), ex51, None),
        (generate_structured("mesh90", 2, 2), _pw_field(rng, 16),
         lambda x, y: -1.0),
        (generate_structured("mesh135", 3, 2, (-1, 2, 3, 5)),
         ConstantField(random_spd(rng)), lambda x, y: 2.5),
        (generate_structured("mesh45", 3, 3), ex52a, None),
        (generate_structured("mesh90", 2, 2), ex52b, lambda x, y: 1.0),
        (generate_structured("mesh45", 2, 2), _affine_field(),
         lambda x, y: x + y),
        (generate_structured("mesh135", 2, 2), _pw_field(rng, 8), None),
        (generate_structured("mesh45", 4, 1), ConstantField(random_spd(rng)),
         lambda x, y: 0.75),
        (generate_structured("mesh90", 1, 3), _affine_field(), None),
    ]
    return cases


def test_schur_closed_form_matches_algebraic():
    for mesh, field, f in _cross_check_cases():
        closed = schur_closed_form(mesh, field, f=f)
        alg = schur_algebraic(assemble(ElementData(mesh, field), f=f))
        scale = np.abs(alg.a_mat.data).max()
        assert np.abs((closed.a_mat - alg.a_mat).toarray()).max() \
            <= 1e-10 * scale
        assert np.abs((closed.a_bdry - alg.a_bdry).toarray()).max() \
            <= 1e-10 * scale
        rhs_scale = max(np.abs(alg.rhs).max(), 1e-30)
        assert np.abs(closed.rhs - alg.rhs).max() <= 1e-10 * rhs_scale


def _cr_stiffness(mesh, mats):
    """Nonconforming P1 stiffness with edge-midpoint unknowns, computed
    from raw coordinates: the basis gradient on each element is
    (|e_l| / |K|) n_l, so K(i, j) = sum_K |K| grad_i . A_K grad_j."""
    n = mesh.n_edges
    k_full = np.zeros((n, n))
    for t in range(mesh.n_elements):
        p = mesh.vertices[mesh.triangles[t]]
        ev = np.roll(p, -1, axis=0) - p
        lens = np.hypot(ev[:, 0], ev[:, 1])
        area = 0.5 * (ev[0, 0] * ev[1, 1] - ev[0, 1] * ev[1, 0])
        nrm = np.stack([ev[:, 1], -ev[:, 0]], axis=1) / lens[:, None]
        grads = lens[:, None] * nrm / area
        kloc = area * grads @ mats[t] @ grads.T
        gid = mesh.element_to_edges[t]
        k_full[np.ix_(gid, gid)] += kloc
    return k_full


def test_reduced_matrix_matches_nonconforming_p1():
    # for a per-element-constant tensor the reduced system coincides with
    # the classical nonconforming P1 stiffness matrix
    rng = np.random.default_rng(59)
    for kind in ("mesh45", "mesh90", "mesh135"):
        mesh = generate_structured(kind, 2, 2)
        mats = np.stack([random_spd(rng, 0.5, 20.0)
                         for _ in range(mesh.n_elements)])
        red = schur_closed_form(mesh, PiecewiseConstantField(mats))
        k_full = _cr_stiffness(mesh, mats)
        ni = mesh.n_interior_edges
        scale = np.abs(k_full).max()
        assert np.abs(red.a_mat.toarray() - k_full[:ni, :ni]).max() \
            <= 1e-12 * scale
        assert np.abs(red.a_bdry.toarray() - k_full[:ni, ni:]).max() \
            <= 1e-12 * scale


def test_reduced_row_sums_vanish():
    ex52, _, _ = example_fields("example52", gamma=99.0)
    cases = [
        (generate_structured("mesh45", 3, 3, (0, 0, 16, 16)),
         example_fields("example51")[0]),
        (generate_structured("mesh90", 2, 2), ConstantField([[3.0, 1.0],
                                                             [1.0, 2.0]])),
        (generate_structured("mesh135", 3, 3), ex52),
        (generate_structured("mesh45", 4, 4), ex52),
    ]
    for mesh, field in cases:
        red = schur_closed_form(mesh, field)
        scale = np.abs(red.a_mat.data).max()
        rowsum = (red.a_mat @ np.ones(mesh.n_interior_edges)
                  + red.a_bdry @ np.ones(mesh.n_boundary_edges))
        assert np.abs(rowsum).max() <= 1e-10 * scale


def test_reduced_matrix_symmetric_positive_definite():
    ex51, _, _ = example_fields("example51")
    ex52, _, _ = example_fields("example52", gamma=99.0)
    cases = [
        (generate_structured("mesh45", 3, 3, (0, 0, 16, 16)), ex51),
        (generate_structured("mesh135", 3, 3, (0, 0, 16, 16)), ex51),
        (generate_structured("mesh90", 2, 2), ex52),
    ]
    for mesh, field in cases:
        a = schur_closed_form(mesh, field).a_mat.toarray()
        assert mesh.n_interior_edges <= 200
        assert np.abs(a - a.T).max() <= 1e-13 * np.abs(a).max()
        w = np.linalg.eigvalsh(0.5 * (a + a.T))
        assert w.min() > 1e-8 * w.max()


# ---------------------------------------------------------------------------
# data terms

def test_boundary_averages_exact_for_cubic():
    mesh = trimesh_from_arrays(UNIT_RIGHT, [[0, 1, 2]])
    # boundary order is lexicographic by vertex pair: bottom, left, hyp
    g_h = boundary_averages(mesh, lambda x, y: x ** 3)
    assert g_h == pytest.approx([0.25, 0.0, 0.25], abs=1e-15)
    g_h = boundary_averages(mesh, lambda x, y: 2.0 * y ** 2 - 1.0)
    # averages of 2y^2 - 1: bottom -1, left -1/3, hyp -1/3
    assert g_h == pytest.approx([-1.0, -1.0 / 3.0, -1.0 / 3.0], abs=1e-15)
    assert np.all(boundary_averages(mesh, None) == 0.0)


def test_source_integrals_via_assemble():
    mesh = generate_structured("mesh45", 2, 2, (0, 0, 2, 2))
    field = ConstantField(np.eye(2))
    system = assemble(ElementData(mesh, field), f=lambda x, y: -1.0)
    assert system.f0 == pytest.approx(np.full(8, -0.5), rel=1e-14)

    system = assemble(ElementData(mesh, field), f=lambda x, y: x + y)
    want = []
    for t in range(mesh.n_elements):
        tri = mesh.vertices[mesh.triangles[t]]
        want.append(exact_monomial(tri, 1, 0) + exact_monomial(tri, 0, 1))
    assert system.f0 == pytest.approx(np.array(want), rel=1e-13)


def test_piecewise_field_count_mismatch():
    mesh = generate_structured("mesh45", 2, 2)   # 8 elements
    field = PiecewiseConstantField(np.broadcast_to(np.eye(2), (7, 2, 2)))
    with pytest.raises(FieldValidityError, match="7"):
        ElementData(mesh, field)


def test_functional_field_rejects_low_degree_rule():
    mesh = generate_structured("mesh45", 2, 2)
    field, _, _ = example_fields("example52", gamma=1.0)
    with pytest.raises(ValueError, match="degree"):
        ElementData(mesh, field, quadrature(1))


def test_export_matrix_triplets_roundtrip(tmp_path):
    mesh = generate_structured("mesh45", 2, 2)
    red = schur_closed_form(mesh, ConstantField([[2.0, 0.5], [0.5, 1.0]]))
    path = tmp_path / "mat.txt"
    export_matrix_triplets(red.a_mat, path)
    lines = path.read_text().strip().splitlines()
    nr, nc, nnz = (int(v) for v in lines[0].lstrip("#").split())
    assert (nr, nc) == red.a_mat.shape
    assert nnz == len(lines) - 1
    rebuilt = np.zeros((nr, nc))
    seen = []
    for line in lines[1:]:
        i, j, v = line.split()
        seen.append((int(i), int(j)))
        rebuilt[int(i), int(j)] = float(v)
    assert seen == sorted(seen)
    assert np.array_equal(rebuilt, red.a_mat.toarray())  # 17 digits: exact
