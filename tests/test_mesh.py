import warnings

import numpy as np
import pytest

from conftest import random_triangle, single_element

from wgdmp.assembly import ElementData
from wgdmp.mesh import (DegenerateElementError, MeshError, MeshFormatError,
                        export_mesh, generate_structured, import_mesh,
                        trimesh_from_arrays)
from wgdmp.tensor import ConstantField


def loop_structured(kind, nx, ny, domain=(0.0, 0.0, 1.0, 1.0)):
    """Vertices and triangles of a structured mesh, built cell by cell.

    The loop generator that :func:`generate_structured` replaced; kept as
    the oracle for its index arithmetic.
    """
    x0, y0, x1, y1 = map(float, domain)
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    verts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    if kind == "mesh90":
        centers = []
        base = verts.shape[0]
        for j in range(ny):
            for i in range(nx):
                centers.append([0.5 * (xs[i] + xs[i + 1]),
                                0.5 * (ys[j] + ys[j + 1])])
        verts = np.vstack([verts, np.array(centers)])
        for j in range(ny):
            for i in range(nx):
                a, b = vid(i, j), vid(i + 1, j)
                c, d = vid(i + 1, j + 1), vid(i, j + 1)
                e = base + j * nx + i
                tris += [[a, b, e], [b, c, e], [c, d, e], [d, a, e]]
    else:
        for j in range(ny):
            for i in range(nx):
                a, b = vid(i, j), vid(i + 1, j)
                c, d = vid(i + 1, j + 1), vid(i, j + 1)
                if kind == "mesh45":
                    tris += [[a, b, c], [a, c, d]]
                else:
                    tris += [[a, b, d], [b, c, d]]
    return verts, np.array(tris, dtype=np.int64)


def unique_topology(verts, tris):
    """Edge arrays of a triangulation from ``np.unique(..., axis=0)`` over
    the (min, max) vertex pairs: the oracle for the 1-D edge keys."""
    a, b = tris, np.roll(tris, -1, axis=1)
    pairs = np.stack([np.minimum(a, b).ravel(), np.maximum(a, b).ravel()],
                     axis=1)
    uniq, inverse, counts = np.unique(pairs, axis=0, return_inverse=True,
                                      return_counts=True)
    interior = np.flatnonzero(counts == 2)
    boundary = np.flatnonzero(counts == 1)
    new_id = np.empty(uniq.shape[0], dtype=np.int64)
    new_id[interior] = np.arange(interior.size)
    new_id[boundary] = interior.size + np.arange(boundary.size)
    order = np.argsort(inverse, kind="stable")
    tri_of = np.repeat(np.arange(tris.shape[0]), 3)[order]
    starts = np.searchsorted(inverse[order], np.arange(uniq.shape[0]))
    return {
        "interior_edges": uniq[interior],
        "boundary_edges": uniq[boundary],
        "interior_edge_elements": np.stack(
            [tri_of[starts[interior]], tri_of[starts[interior] + 1]], axis=1),
        "boundary_edge_elements": tri_of[starts[boundary]],
        "element_to_edges": new_id[inverse.ravel()].reshape(-1, 3),
        "edge_orientations": np.where(a < b, 1, -1).astype(np.int8),
    }


@pytest.mark.parametrize("kind", ["mesh45", "mesh90", "mesh135"])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 5), (7, 2)])
def test_generator_matches_loop_oracle(kind, nx, ny):
    domain = (-1.0, 0.5, 2.0, 3.25)
    mesh = generate_structured(kind, nx, ny, domain)
    verts, tris = loop_structured(kind, nx, ny, domain)
    want = {"vertices": verts, "triangles": tris,
            **unique_topology(verts, tris)}
    for name, expected in want.items():
        got = getattr(mesh, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def test_mesh45_counts_2x2():
    mesh = generate_structured("mesh45", 2, 2, (0, 0, 16, 16))
    assert mesh.n_vertices == 9
    assert mesh.n_elements == 8
    assert mesh.n_interior_edges == 8
    assert mesh.n_boundary_edges == 8


def test_mesh90_counts_1x1():
    mesh = generate_structured("mesh90", 1, 1)
    assert mesh.n_vertices == 5
    assert mesh.n_elements == 4
    assert mesh.n_interior_edges == 4
    assert mesh.n_boundary_edges == 4


def test_mesh135_unit_cell_contains_reference_triangle():
    mesh = generate_structured("mesh135", 1, 1)
    want = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    found = None
    for tri in mesh.triangles:
        pts = {tuple(mesh.vertices[v]) for v in tri}
        if pts == want:
            found = tri
            break
    assert found is not None
    # counterclockwise
    p = mesh.vertices[found]
    area = 0.5 * ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                  - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0]))
    assert area > 0


@pytest.mark.parametrize("kind", ["mesh45", "mesh90", "mesh135"])
@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (4, 4), (5, 2)])
def test_euler_relation(kind, nx, ny):
    mesh = generate_structured(kind, nx, ny, (-1, 0, 2, 4))
    assert mesh.n_vertices - mesh.n_edges + mesh.n_elements + 1 == 2


def test_edges_sorted_interior_first():
    mesh = generate_structured("mesh45", 3, 3)
    for edges in (mesh.interior_edges, mesh.boundary_edges):
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = [tuple(e) for e in edges]
        assert keys == sorted(keys)
    # global ids: interior block first
    assert mesh.element_to_edges.max() == mesh.n_edges - 1
    assert mesh.element_to_edges.min() == 0


def test_element_to_edges_matches_edge_lists():
    mesh = generate_structured("mesh90", 2, 2)
    for t in range(mesh.n_elements):
        tri = mesh.triangles[t]
        for l in range(3):
            a, b = tri[l], tri[(l + 1) % 3]
            gid = mesh.element_to_edges[t, l]
            pair = mesh.edge_vertices(gid)
            assert {a, b} == set(pair)
            assert t in mesh.edge_to_elements(gid)
            expected_orient = 1 if a < b else -1
            assert mesh.edge_orientations[t, l] == expected_orient


def test_interior_edges_have_two_elements():
    mesh = generate_structured("mesh135", 3, 2)
    for e in range(mesh.n_interior_edges):
        t1, t2 = mesh.interior_edge_elements[e]
        assert t1 != t2
        pair = set(mesh.interior_edges[e])
        for t in (t1, t2):
            assert pair < set(mesh.triangles[t])
    for e in range(mesh.n_boundary_edges):
        t = mesh.boundary_edge_elements[e]
        assert set(mesh.boundary_edges[e]) < set(mesh.triangles[t])


def test_element_geometry_unit_right():
    g = single_element(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert g.area[0] == pytest.approx(0.5, abs=1e-15)
    assert g.cen[0] == pytest.approx([1 / 3, 1 / 3], abs=1e-15)
    assert g.s_iso[0] == pytest.approx(1 / 18, rel=1e-14)
    assert g.c_k[0] == pytest.approx(18.0, rel=1e-14)
    assert g.diam[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert g.lens[0] == pytest.approx([1.0, np.sqrt(2.0), 1.0])
    # local edge l runs from vertex l to l+1
    assert g.nrm[0, 0] == pytest.approx([0.0, -1.0])
    assert g.nrm[0, 1] == pytest.approx(np.array([1.0, 1.0]) / np.sqrt(2))
    assert g.nrm[0, 2] == pytest.approx([-1.0, 0.0])


def test_normals_are_outward_unit():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tri = random_triangle(rng)
        g = single_element(tri)
        nrm = g.nrm[0]
        mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
        assert np.allclose((nrm ** 2).sum(axis=1), 1.0, atol=1e-14)
        for l in range(3):
            assert (mids[l] - g.cen[0]) @ nrm[l] > 0


def test_normal_length_sum_identity():
    # sum of length-weighted outward normals vanishes on every triangle
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = single_element(random_triangle(rng))
        total = (g.lens[0, :, None] * g.nrm[0]).sum(axis=0)
        assert np.abs(total).max() <= 1e-13 * g.lens[0].max()


def test_geometry_translation_invariance():
    base = np.array([[0.2, 0.1], [1.1, 0.4], [0.5, 1.3]])
    g1 = single_element(base)
    g2 = single_element(base + np.array([7.0, -3.0]))
    assert g1.area == pytest.approx(g2.area, rel=1e-14)
    assert g1.s_iso == pytest.approx(g2.s_iso, rel=1e-12)
    assert g1.c_k == pytest.approx(g2.c_k, rel=1e-12)
    assert g1.lens[0] == pytest.approx(g2.lens[0], rel=1e-14)
    assert g1.nrm[0] == pytest.approx(g2.nrm[0], abs=1e-14)


def test_mesh45_mesh135_reflection():
    # reflecting y -> y0 + y1 - y maps one family onto the other
    dom = (0.0, 0.0, 3.0, 2.0)
    m45 = generate_structured("mesh45", 3, 2, dom)
    m135 = generate_structured("mesh135", 3, 2, dom)

    def tri_set(mesh, reflect):
        out = set()
        for tri in mesh.triangles:
            pts = mesh.vertices[tri]
            if reflect:
                pts = pts.copy()
                pts[:, 1] = dom[1] + dom[3] - pts[:, 1]
            out.add(frozenset((round(x, 12), round(y, 12)) for x, y in pts))
        return out

    assert tri_set(m45, reflect=True) == tri_set(m135, reflect=False)


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateElementError):
        trimesh_from_arrays([[0, 0], [1, 0], [2, 1e-16]], [[0, 1, 2]])


def test_clockwise_rejected_without_reorient():
    with pytest.raises(MeshError, match="counterclockwise"):
        trimesh_from_arrays([[0, 0], [0, 1], [1, 0]], [[0, 1, 2]])


def test_duplicate_triangle_rejected():
    verts = [[0, 0], [1, 0], [0, 1]]
    with pytest.raises(MeshError, match="duplicate"):
        trimesh_from_arrays(verts, [[0, 1, 2], [0, 1, 2]], reorient=True)


def test_repeated_vertex_rejected():
    with pytest.raises(MeshError, match="repeated"):
        trimesh_from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 1]])


def test_bad_vertex_index_rejected():
    with pytest.raises(MeshError, match="out of range"):
        trimesh_from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 5]])


def test_nonmanifold_edge_rejected():
    verts = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1]]
    tris = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(MeshError, match="more than two"):
        trimesh_from_arrays(verts, tris, reorient=True)


def test_disconnected_mesh_rejected():
    verts = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
    with pytest.raises(MeshError, match="connected"):
        trimesh_from_arrays(verts, [[0, 1, 2], [3, 4, 5]])


_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
# a square ring: outer corners 0-3, inner corners 4-7, one hole
_RING = [[0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [2, 1], [2, 2], [1, 2]]


@pytest.mark.parametrize("verts,tris,message", [
    (_SQUARE, [[0, 1, 2], [1, 2, 0]], "duplicate"),       # rotated copy
    (_SQUARE, [[0, 1, 2], [0, 2, 1]], "duplicate"),       # reversed copy
    # copies that share an edge with a neighbour listed between them
    (_SQUARE, [[0, 1, 3], [1, 2, 3], [0, 1, 3]], "duplicate"),
    (_SQUARE, [[1, 2, 3], [0, 1, 3], [1, 2, 3]], "duplicate"),
    (_SQUARE + [[2, -1]], [[0, 1, 2], [0, 2, 3], [0, 4, 2]], "more than two"),
    (_RING, [t for i in range(4) for t in ([i, (i + 1) % 4, 4 + (i + 1) % 4],
                                          [i, 4 + (i + 1) % 4, 4 + i])],
     "V - E \\+ T \\+ 1 = 1, expected 2"),
])
def test_topology_errors_on_hand_built_meshes(verts, tris, message):
    with pytest.raises(MeshError, match=message):
        trimesh_from_arrays(verts, tris, reorient=True)


def test_generator_argument_errors():
    with pytest.raises(ValueError):
        generate_structured("mesh60", 2, 2)
    with pytest.raises(ValueError):
        generate_structured("mesh45", 0, 2)
    with pytest.raises(ValueError):
        generate_structured("mesh45", 2, -1)
    with pytest.raises(ValueError):
        generate_structured("mesh45", 2, 2, (1, 0, 1, 2))


def test_export_import_roundtrip(tmp_path):
    mesh = generate_structured("mesh90", 3, 2, (0, 0, np.pi, np.e))
    path = tmp_path / "m.txt"
    export_mesh(mesh, path)
    back = import_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)  # bit-exact
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.interior_edges, mesh.interior_edges)
    assert back.reoriented == 0


def test_import_reorients_clockwise(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text("# one clockwise triangle\n3 1\n0 0\n0 1\n1 0\n0 1 2\n")
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        mesh = import_mesh(path)
    assert mesh.reoriented == 1
    assert any("reoriented" in str(w.message) for w in captured)
    assert ElementData(mesh, ConstantField(np.eye(2))).area[0] > 0


@pytest.mark.parametrize("content,fragment", [
    ("", "no data"),
    ("3\n0 0\n1 0\n0 1\n", "header"),
    ("x y\n", "header"),
    ("3 1\n0 0\n1 0\n0 1\n", "data lines"),
    ("3 1\n0 0\n1 zebra\n0 1\n0 1 2\n", "bad vertex"),
    ("3 1\n0 0\n1 0\n0 1\n0 1 2 3\n", "triangle line"),
    ("3 1\n0 0\n1 0\n0 1\n0 1 7\n", "out of range"),
    ("2 1\n0 0\n1 0\n0 1 2\n", "at least 3"),
])
def test_import_format_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(MeshFormatError, match=fragment):
        import_mesh(path)


def test_import_allows_comments_and_blank_lines(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# header comment\n\n3 1  # counts\n0 0\n1 0 # a vertex\n"
                    "0 1\n\n0 1 2\n")
    mesh = import_mesh(path)
    assert mesh.n_elements == 1
