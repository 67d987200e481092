import numpy as np
import pytest
from conftest import (exact_monomial, poly_integrate, poly_mul,
                      quad_integrate, random_triangle, random_spd,
                      single_element)

from wgdmp.assembly import ElementData
from wgdmp.dmp import check_theorem_general
from wgdmp.mesh import trimesh_from_arrays
from wgdmp.tensor import (ConstantField, FieldValidityError, FunctionalField,
                          PiecewiseConstantField, example_fields,
                          load_piecewise_field, quadrature)

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# quadrature

@pytest.mark.parametrize("degree,npts", [(1, 1), (2, 3), (4, 6)])
def test_quadrature_shapes(degree, npts):
    rule = quadrature(degree)
    assert rule.degree == degree
    assert rule.points.shape == (npts, 3)
    assert rule.weights.shape == (npts,)
    assert rule.points.sum(axis=1) == pytest.approx(np.ones(npts), abs=1e-15)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-16)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("degree", [0, 3, 5, -1])
def test_quadrature_unsupported_degree(degree):
    with pytest.raises(ValueError, match="degree"):
        quadrature(degree)


def test_quadrature_reference_values():
    # int x^2 over the unit right triangle is 1/12; the midpoint rule
    # (degree 2) must hit it exactly
    rule = quadrature(2)
    pts = rule.points @ UNIT_RIGHT
    val = quad_integrate(rule, UNIT_RIGHT, pts[:, 0] ** 2)
    assert abs(val - 1.0 / 12.0) <= 1e-15

    # int x^2 y^2 = 1/180 needs the degree-4 rule
    rule = quadrature(4)
    pts = rule.points @ UNIT_RIGHT
    val = quad_integrate(rule, UNIT_RIGHT, pts[:, 0] ** 2 * pts[:, 1] ** 2)
    assert abs(val - 1.0 / 180.0) <= 1e-15


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_quadrature_exact_for_monomials(degree):
    rng = np.random.default_rng(100 + degree)
    rule = quadrature(degree)
    for _ in range(100):
        tri = random_triangle(rng)
        pts = rule.points @ tri
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = quad_integrate(rule, tri, pts[:, 0] ** a * pts[:, 1] ** b)
                want = exact_monomial(tri, a, b)
                assert abs(got - want) <= 1e-14 * abs(want)


def test_quadrature_not_exact_beyond_degree():
    # sanity: the degree-2 rule misses a quartic, so the exactness tests
    # above cannot be passing vacuously
    rule = quadrature(2)
    pts = rule.points @ UNIT_RIGHT
    got = quad_integrate(rule, UNIT_RIGHT, pts[:, 0] ** 2 * pts[:, 1] ** 2)
    assert abs(got - 1.0 / 180.0) > 1e-4


# ---------------------------------------------------------------------------
# fields

def test_constant_field_basics():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    field = ConstantField(a)
    assert field.constant_per_element
    assert field.lipschitz_bound == 0.0
    assert np.array_equal(field.matrix_on(7), a)
    pts = np.zeros((5, 2))
    assert field.sample(pts).shape == (5, 2, 2)


def test_piecewise_field_basics():
    mats = np.stack([np.eye(2), [[2.0, 0.0], [0.0, 5.0]]])
    field = PiecewiseConstantField(mats)
    assert field.n_elements == 2
    assert np.array_equal(field.matrix_on(1), mats[1])
    with pytest.raises(ValueError, match="element"):
        field.sample(np.zeros((1, 2)))


@pytest.mark.parametrize("bad", [
    [[1.0, 2.0], [0.5, 1.0]],      # not symmetric
    [[1.0, 0.0], [0.0, -1.0]],     # indefinite
    [[-1.0, 0.0], [0.0, -2.0]],    # negative definite
    [[1.0, 3.0], [3.0, 1.0]],      # negative determinant
])
def test_constant_field_rejects_non_spd(bad):
    with pytest.raises(FieldValidityError):
        ConstantField(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_tensors_rejected(value):
    # NaN fails every comparison, so it must be refused before them
    with pytest.raises(FieldValidityError, match="non-finite"):
        ConstantField([[value, 0.0], [0.0, 1.0]])
    with pytest.raises(FieldValidityError, match="non-finite"):
        PiecewiseConstantField([np.eye(2), [[1.0, value], [value, 1.0]]])
    field = FunctionalField(lambda x, y: np.array([[1.0, 0.0],
                                                   [0.0, value]]))
    with pytest.raises(FieldValidityError, match="non-finite"):
        field.sample(np.array([[0.3, 0.3]]))


def test_field_shape_errors():
    with pytest.raises(FieldValidityError, match="2x2"):
        ConstantField([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(FieldValidityError, match="2, 2"):
        PiecewiseConstantField(np.eye(2))


def test_functional_field_checks_at_sample_points():
    field = FunctionalField(lambda x, y: np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(FieldValidityError):
        field.sample(np.array([[0.3, 0.3]]))


def test_load_piecewise_roundtrip(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("# per-element tensors\n1 0 1\n\n2.5 -0.5 3.25  # second\n")
    field = load_piecewise_field(path, n_elements=2)
    assert np.array_equal(field.matrix_on(0), np.eye(2))
    assert np.array_equal(field.matrix_on(1),
                          [[2.5, -0.5], [-0.5, 3.25]])


def test_load_piecewise_errors(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("1 0 1\n")
    with pytest.raises(FieldValidityError, match="1 field lines"):
        load_piecewise_field(path, n_elements=3)
    path.write_text("1 0\n")
    with pytest.raises(FieldValidityError, match="a11 a12 a22"):
        load_piecewise_field(path)
    path.write_text("1 zero 1\n")
    with pytest.raises(FieldValidityError, match="bad number"):
        load_piecewise_field(path)
    path.write_text("1 0 -1\n")
    with pytest.raises(FieldValidityError):
        load_piecewise_field(path)
    path.write_text("1 0 1\n# comment\nnan 0 1\n")
    with pytest.raises(FieldValidityError, match=f"{path}:3: non-finite"):
        load_piecewise_field(path)


# ---------------------------------------------------------------------------
# element moments

def test_constant_moments_unit_right():
    data = single_element(UNIT_RIGHT)
    assert data.s_a[0] == pytest.approx(1.0 / 18.0, rel=1e-14)
    assert np.all(data.m[0] == 0.0)
    assert data.a_avg[0] == pytest.approx(np.eye(2))
    # n_mat = |K| n_i . n_j with n = (0,-1), (1,1)/sqrt2, (-1,0)
    r = 1.0 / np.sqrt(2.0)
    want = 0.5 * np.array([[1.0, -r, 0.0],
                           [-r, 1.0, -r],
                           [0.0, -r, 1.0]])
    assert data.n_mat[0] == pytest.approx(want, rel=1e-14)
    rep = check_theorem_general(data)
    assert rep.lam_min[0] == pytest.approx(1.0)
    assert rep.lip[0] == 0.0


def test_constant_moments_random_vs_polynomial_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        tri = random_triangle(rng)
        a = random_spd(rng)
        data = single_element(tri, ConstantField(a))
        cx, cy = tri.mean(axis=0)
        dx = {(1, 0): 1.0, (0, 0): -cx}
        dy = {(0, 1): 1.0, (0, 0): -cy}
        # (A d) . d expanded into monomials, integrated by the factorial
        # formula -- no quadrature involved
        integrand = {}
        for p, c in poly_mul(dx, dx).items():
            integrand[p] = integrand.get(p, 0.0) + a[0, 0] * c
        for p, c in poly_mul(dx, dy).items():
            integrand[p] = integrand.get(p, 0.0) + 2.0 * a[0, 1] * c
        for p, c in poly_mul(dy, dy).items():
            integrand[p] = integrand.get(p, 0.0) + a[1, 1] * c
        want = poly_integrate(integrand, tri)
        assert data.s_a[0] == pytest.approx(want, rel=1e-12)
        assert np.all(data.m[0] == 0.0)


def test_piecewise_moments_use_element_index():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    mesh = trimesh_from_arrays(verts, [[0, 1, 2], [0, 2, 3]])
    mats = np.stack([np.diag([1.0, 1.0]), np.diag([9.0, 4.0])])
    data = ElementData(mesh, PiecewiseConstantField(mats))
    assert np.array_equal(data.a_avg[1], mats[1])
    assert check_theorem_general(data).lam_min[1] == pytest.approx(4.0)
    assert np.all(data.m[1] == 0.0)


def test_functional_moments_need_degree_two():
    field = FunctionalField(lambda x, y: np.broadcast_to(
        np.eye(2), np.asarray(x).shape + (2, 2)))
    # without a rule the degree-4 default applies
    assert single_element(UNIT_RIGHT, field).rule.degree == 4
    with pytest.raises(ValueError, match="degree"):
        single_element(UNIT_RIGHT, field, quadrature(1))


def _affine_entry_field():
    def func(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty(np.broadcast_shapes(x.shape, y.shape) + (2, 2))
        out[..., 0, 0] = 2.0 + x
        out[..., 0, 1] = out[..., 1, 0] = 0.2 * y
        out[..., 1, 1] = 3.0 + y
        return out
    return FunctionalField(func)


def test_functional_moments_vs_polynomial_oracle():
    # entries affine in (x, y): all moment integrands are cubic at most,
    # so the degree-4 rule must agree with exact polynomial integration
    a11 = {(0, 0): 2.0, (1, 0): 1.0}
    a12 = {(0, 1): 0.2}
    a22 = {(0, 0): 3.0, (0, 1): 1.0}
    field = _affine_entry_field()
    rng = np.random.default_rng(33)
    for _ in range(20):
        tri = random_triangle(rng)
        data = single_element(tri, field, quadrature(4))
        # outward unit normals: edge vectors rotated by -90 degrees
        ev = np.roll(tri, -1, axis=0) - tri
        nrm = np.stack([ev[:, 1], -ev[:, 0]], axis=1)
        nrm /= np.linalg.norm(nrm, axis=1)[:, None]

        area = 0.5 * (ev[0, 0] * ev[1, 1] - ev[0, 1] * ev[1, 0])
        avg_want = np.array(
            [[poly_integrate(a11, tri), poly_integrate(a12, tri)],
             [poly_integrate(a12, tri), poly_integrate(a22, tri)]]) / area
        assert data.a_avg[0] == pytest.approx(avg_want, rel=1e-13)

        cx, cy = tri.mean(axis=0)
        dx = {(1, 0): 1.0, (0, 0): -cx}
        dy = {(0, 1): 1.0, (0, 0): -cy}
        adx = {}  # (A d)_x = a11 dx + a12 dy
        for p, c in poly_mul(a11, dx).items():
            adx[p] = adx.get(p, 0.0) + c
        for p, c in poly_mul(a12, dy).items():
            adx[p] = adx.get(p, 0.0) + c
        ady = {}
        for p, c in poly_mul(a12, dx).items():
            ady[p] = ady.get(p, 0.0) + c
        for p, c in poly_mul(a22, dy).items():
            ady[p] = ady.get(p, 0.0) + c

        s_want = (poly_integrate(poly_mul(adx, dx), tri)
                  + poly_integrate(poly_mul(ady, dy), tri))
        assert data.s_a[0] == pytest.approx(s_want, rel=1e-12)

        ix, iy = poly_integrate(adx, tri), poly_integrate(ady, tri)
        m_want = nrm @ np.array([ix, iy])
        assert data.m[0] == pytest.approx(m_want, abs=1e-14 * abs(s_want))

        n_want = area * (nrm @ avg_want @ nrm.T)
        assert data.n_mat[0] == pytest.approx(n_want, rel=1e-12)


def test_s_a_dominates_isotropic_moment():
    # s_a >= lam_min * s_iso for every field (positive quadrature weights)
    rng = np.random.default_rng(55)
    rule = quadrature(4)
    for _ in range(30):
        tri = random_triangle(rng)
        for field in (ConstantField(random_spd(rng)), _affine_entry_field()):
            data = single_element(tri, field, rule)
            lam_min = check_theorem_general(data).lam_min[0]
            assert data.s_a[0] >= lam_min * data.s_iso[0] * (1.0 - 1e-12)


def test_lam_min_of_constant_field():
    phi = 0.7
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    a = rot @ np.diag([0.5, 50.0]) @ rot.T
    rep = check_theorem_general(single_element(UNIT_RIGHT, ConstantField(a)))
    assert rep.lam_min[0] == pytest.approx(0.5, rel=1e-12)


def test_lipschitz_estimates():
    rule = quadrature(4)
    # analytic bound wins when supplied
    def ident(x, y):
        return np.broadcast_to(np.eye(2), np.asarray(x).shape + (2, 2))
    data = single_element(UNIT_RIGHT, FunctionalField(ident, lip=5.0), rule)
    assert check_theorem_general(data).lip[0] == 5.0
    # finite differences: [[2+x, .2y], [.2y, 3+y]] has slope at most
    # sqrt(1 + 2*0.04 + 1) pointwise, and the estimate must be positive
    data = single_element(UNIT_RIGHT, _affine_entry_field(), rule)
    lip = check_theorem_general(data).lip[0]
    assert 0.0 < lip <= np.sqrt(2.08) + 1e-12


def test_nonpositive_moment_rejected():
    # a callable that slips through the pointwise SPD check cannot make
    # s_a <= 0, so check the guard directly with a doctored field
    class Doctored(FunctionalField):
        def sample(self, points, element=None):
            pts = np.asarray(points, dtype=float)
            return np.broadcast_to(np.array([[0.0, 0.0], [0.0, 0.0]]),
                                   pts.shape[:-1] + (2, 2))

    field = Doctored(lambda x, y: None)
    with pytest.raises(FieldValidityError, match="s_a"):
        single_element(UNIT_RIGHT, field, quadrature(2))


# ---------------------------------------------------------------------------
# built-in benchmark problems

def test_example51_field_and_data():
    field, f, g = example_fields("example51")
    assert f is None
    assert np.array_equal(field.matrix_on(0),
                          [[500.5, 499.5], [499.5, 500.5]])
    # eigenvalues 1 and 1000 along the diagonals
    w = np.linalg.eigvalsh(field.matrix_on(0))
    assert w == pytest.approx([1.0, 1000.0], rel=1e-12)
    # boundary data: 1 on most of the top and left, linear ramps near
    # (16, 16) and (0, 0), zero elsewhere
    assert float(g(14.0, 16.0)) == pytest.approx(1.0)
    assert float(g(15.0, 16.0)) == pytest.approx(0.5)
    assert float(g(16.0, 16.0)) == pytest.approx(0.0)
    assert float(g(0.0, 2.0)) == pytest.approx(1.0)
    assert float(g(0.0, 1.0)) == pytest.approx(0.5)
    assert float(g(0.0, 0.5)) == pytest.approx(0.25)
    assert float(g(0.0, 0.0)) == pytest.approx(0.0)
    assert float(g(8.0, 0.0)) == 0.0
    assert float(g(16.0, 8.0)) == 0.0
    xs = np.array([1.0, 15.0, 16.0])
    assert g(xs, np.full(3, 16.0)) == pytest.approx([1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="gamma"):
        example_fields("example51", gamma=3.0)


def test_example52_field_and_data():
    field, f, g = example_fields("example52", gamma=99.0)
    assert f is None
    # on the ring, due east of the pole: radial eigenvalue 1 stays,
    # tangential eigenvalue is 1 + gamma
    a = field.sample(np.array([[0.4, 0.5]]))[0]
    assert a == pytest.approx(np.array([[1.0, 0.0], [0.0, 100.0]]),
                              abs=1e-10)
    # far from the ring the field is close to the identity
    a = field.sample(np.array([[-0.1, 0.5]]))[0]
    assert a == pytest.approx(np.eye(2), abs=1e-10)
    # gamma = 0 switches the ring off entirely
    field0, _, _ = example_fields("example52", gamma=0.0)
    pts = np.array([[0.1, 0.2], [0.4, 0.5], [0.9, 0.9]])
    assert np.abs(field0.sample(pts) - np.eye(2)).max() <= 1e-15
    # boundary data sin(pi (x + 0.5))
    assert float(g(0.0, 0.3)) == pytest.approx(1.0)
    assert float(g(1.0, 0.7)) == pytest.approx(-1.0)
    assert abs(float(g(0.5, 0.0))) <= 1e-12
    with pytest.raises(ValueError, match="gamma"):
        example_fields("example52")
    with pytest.raises(ValueError, match="gamma"):
        example_fields("example52", gamma=-1.0)


def test_example52_tensor_eigenstructure():
    # with entries a11 = c^2 + k2 s^2, a12 = (k2 - 1) s c,
    # a22 = s^2 + k2 c^2 the matrix factors as R(-t) diag(1, k2) R(-t)^T:
    # the unit eigenvector for eigenvalue 1 is (cos t, -sin t), the
    # reflection of the radial direction across the horizontal, and
    # (sin t, cos t) carries eigenvalue k2
    field, _, _ = example_fields("example52", gamma=40.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    a = field.sample(pts)
    d = pts - np.array([-0.1, 0.5])
    r = np.hypot(d[:, 0], d[:, 1])
    c = d[:, 0] / r
    s = d[:, 1] / r
    k2 = 1.0 + 40.0 * np.exp(-200.0 * (r - 0.5) ** 2)
    v1 = np.stack([c, -s], axis=1)
    av = np.einsum("qab,qb->qa", a, v1)
    assert av == pytest.approx(v1, abs=1e-12)
    v2 = np.stack([s, c], axis=1)
    av = np.einsum("qab,qb->qa", a, v2)
    assert av == pytest.approx(k2[:, None] * v2, rel=1e-12)
    # both eigenvalues everywhere: 1 and k2
    w = np.linalg.eigvalsh(a)
    assert w[:, 0] == pytest.approx(np.ones(50), rel=1e-12)
    assert w[:, 1] == pytest.approx(k2, rel=1e-12)


def test_unknown_example_rejected():
    with pytest.raises(ValueError, match="unknown example"):
        example_fields("example99")
