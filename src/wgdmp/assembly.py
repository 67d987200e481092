"""Assembly of the lowest-order weak Galerkin system and its reduction.

Unknowns are one constant per element (``u0``) and one constant per edge
(``ub``).  On a triangle ``K`` with centroid ``x_K`` the discrete weak
gradient of any basis function lies in the span of ``x - x_K`` and the
constants, so each basis gradient is a radial coefficient plus a
constant vector:

* element basis:   ``grad = -c_k (x - x_K)``
* edge ``l`` basis: ``grad = (c_k / 3)(x - x_K) + (|e_l| / |K|) n_l``

with ``c_k = 2|K| / \\int_K |x - x_K|^2``.  Testing these against the
tensor field produces closed-form matrix entries in terms of the
per-element moments held by :class:`ElementData`; no reference-element
mapping and no monolithic matrix is ever formed.  The element block
``M00`` is diagonal, which makes the Schur reduction onto the interior
edge unknowns explicit:

``A(i, j) = sum_K |e_i||e_j| / |K|^2 * (n_mat_ij - m_i m_j / s_a)``

:func:`schur_closed_form` assembles that formula directly;
:func:`schur_algebraic` eliminates the element block from the assembled
sparse blocks and serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._csv import write_rows
from .mesh import TriMesh, DegenerateElementError
from .tensor import (TensorField, PiecewiseConstantField, QuadratureRule,
                     quadrature, FieldValidityError)

__all__ = [
    "ElementData",
    "WgSystem",
    "ReducedSystem",
    "assemble",
    "schur_closed_form",
    "schur_algebraic",
    "export_matrix_triplets",
]


@dataclass
class WgSystem:
    """Sparse blocks of the two-field system.

    Row/column groups: elements (``T``), interior edges (``Ni``) and
    boundary edges (``Nb``).  ``m00_diag`` is the diagonal of the element
    block; ``m0b``/``m0b_bdry`` couple elements to edges; ``mbb``/
    ``mbb_bdry`` couple interior edges to interior/boundary edges.
    ``f0`` holds the element source integrals and ``g_h`` the boundary
    edge averages of the Dirichlet data.
    """

    m00_diag: np.ndarray
    m0b: sp.csr_matrix
    m0b_bdry: sp.csr_matrix
    mbb: sp.csr_matrix
    mbb_bdry: sp.csr_matrix
    f0: np.ndarray
    g_h: np.ndarray


@dataclass
class ReducedSystem:
    """Interior-edge system ``a_mat @ ub = rhs - a_bdry @ g_h``."""

    a_mat: sp.csr_matrix
    a_bdry: sp.csr_matrix
    rhs: np.ndarray


# ---------------------------------------------------------------------------
# per-element data shared by assembly, the solve and the audit engine

class ElementData:
    """Geometry and field moments of every element of a mesh.

    Build it once per mesh and field and pass it to :func:`assemble`,
    :func:`wgdmp.solve.solve_problem` and the audits in :mod:`wgdmp.dmp`.
    ``rule`` defaults to the degree-4 rule; constant and per-element
    fields are integrated exactly regardless of it, functional fields
    need degree >= 2.  Arrays have one row per element and follow the
    local edge numbering (edge ``l`` runs from vertex ``l`` to ``l + 1``):

    * ``coords`` ``(T, 3, 2)``, ``area``, ``cen`` (centroid), ``diam``
      (longest edge), ``lens`` ``(T, 3)``, outward unit normals ``nrm``
      and unit edge directions ``edge_dirs`` ``(T, 3, 2)``
    * ``s_iso`` -- ``\\int_K |x - x_K|^2``, and ``c_k = 2|K| / s_iso``
    * ``a_avg`` -- the averaged matrix ``|K|^-1 \\int_K A``
    * ``s_a``   -- ``\\int_K (A (x - x_K)) . (x - x_K)``
    * ``m``     -- ``\\int_K (A (x - x_K)) . n_l`` per local edge
    * ``n_mat`` -- ``|K| n_i^T a_avg n_j`` for all local edge pairs

    For constant and per-element fields the second moment of a triangle
    about its centroid is ``|K|/3 * sum_l (mid_l - x_K)(mid_l - x_K)^T``,
    so those moments are exact and ``m`` is zero.
    """

    __slots__ = ("mesh", "field", "rule", "coords", "area", "lens", "nrm",
                 "cen", "diam", "s_iso", "c_k", "edge_dirs", "a_avg", "s_a",
                 "m", "n_mat")
    #: Elements per block when a functional field is sampled.
    SAMPLE_BLOCK = 2048

    def __init__(self, mesh: TriMesh, field: TensorField,
                 rule: QuadratureRule | None = None):
        self.mesh = mesh
        self.field = field
        self.rule = rule if rule is not None else quadrature(4)
        p = mesh.vertices[mesh.triangles]                    # (T, 3, 2)
        ev = np.roll(p, -1, axis=1) - p
        lens = np.sqrt((ev ** 2).sum(axis=2))
        area = 0.5 * (ev[:, 0, 0] * (-ev[:, 2, 1]) - ev[:, 0, 1] * (-ev[:, 2, 0]))
        # (cross product of edge 0 with -edge 2, i.e. (p1-p0) x (p2-p0))
        h = lens.max(axis=1)
        bad = area < 1e-14 * h * h
        if np.any(bad):
            k = int(np.argmax(bad))
            raise DegenerateElementError(f"triangle {k} is degenerate")
        nrm = np.stack([ev[:, :, 1], -ev[:, :, 0]], axis=2) / lens[:, :, None]
        cen = p.mean(axis=1)
        mids = 0.5 * (p + np.roll(p, -1, axis=1))
        dmid = mids - cen[:, None, :]
        s_iso = area / 3.0 * (dmid ** 2).sum(axis=(1, 2))

        self.coords = p
        self.area = area
        self.lens = lens
        self.nrm = nrm
        self.cen = cen
        self.diam = h
        self.s_iso = s_iso
        self.c_k = 2.0 * area / s_iso
        self.edge_dirs = ev / lens[:, :, None]

        if field.constant_per_element:
            if isinstance(field, PiecewiseConstantField):
                if field.n_elements != mesh.n_elements:
                    raise FieldValidityError(
                        f"field has {field.n_elements} element matrices, "
                        f"mesh has {mesh.n_elements} elements")
                ak = field.matrices
            else:
                ak = np.broadcast_to(field.matrix_on(0),
                                     (mesh.n_elements, 2, 2))
            smat = area[:, None, None] / 3.0 * np.einsum(
                "tla,tlb->tab", dmid, dmid)
            self.a_avg = ak
            self.s_a = np.einsum("tab,tab->t", ak, smat)
            self.m = np.zeros((mesh.n_elements, 3))
        else:
            if self.rule.degree < 2:
                raise ValueError("functional fields need a quadrature rule "
                                 "of degree >= 2")
            # in blocks, which bounds the memory of the samples at any size
            w, nb, nt = self.rule.weights, self.SAMPLE_BLOCK, mesh.n_elements
            self.a_avg, self.s_a = np.empty((nt, 2, 2)), np.empty(nt)
            self.m = np.empty((nt, 3))
            for b in (slice(k, k + nb) for k in range(0, nt, nb)):
                qp = np.einsum("qb,tbd->tqd", self.rule.points, p[b])
                aq = field.sample(qp, element=b.start)       # (t, n, 2, 2)
                self.a_avg[b] = np.einsum("q,tqab->tab", w, aq)
                d = qp - cen[b, None, :]
                ad = np.einsum("tqab,tqb->tqa", aq, d)
                self.s_a[b] = area[b] * np.einsum("q,tqa,tqa->t", w, ad, d)
                self.m[b] = area[b, None] * np.einsum("q,tqa,tla->tl",
                                                      w, ad, nrm[b])
        if np.any(self.s_a <= 0):
            k = int(np.argmax(self.s_a <= 0))
            raise FieldValidityError(
                f"element {k}: nonpositive weighted moment s_a")
        self.n_mat = area[:, None, None] * np.einsum(
            "tia,tab,tjb->tij", nrm, self.a_avg, nrm)


def _source_integrals(data: ElementData, f) -> np.ndarray:
    if f is None:
        return np.zeros(data.mesh.n_elements)
    qp = np.einsum("qb,tbd->tqd", data.rule.points, data.coords)
    vals = np.asarray(f(qp[..., 0], qp[..., 1]), dtype=float)
    vals = np.broadcast_to(vals, qp.shape[:2])
    return data.area * (vals @ data.rule.weights)


def boundary_averages(mesh: TriMesh, g) -> np.ndarray:
    """Two-point Gauss average of the Dirichlet data per boundary edge."""
    if g is None:
        return np.zeros(mesh.n_boundary_edges)
    pts = mesh.vertices[mesh.boundary_edges]        # (Nb, 2, 2)
    mid = pts.mean(axis=1)
    half = 0.5 * (pts[:, 1] - pts[:, 0])
    s = 1.0 / np.sqrt(3.0)
    p1 = mid - s * half
    p2 = mid + s * half
    g1 = np.asarray(g(p1[:, 0], p1[:, 1]), dtype=float)
    g2 = np.asarray(g(p2[:, 0], p2[:, 1]), dtype=float)
    return 0.5 * (np.broadcast_to(g1, (len(pts),)) +
                  np.broadcast_to(g2, (len(pts),)))


def _entry_arrays(ed: ElementData):
    """Per-element entries of the blocks ``M_00``, ``M_0b`` and ``M_bb``,
    of shapes (T,), (T, 3) and (T, 3, 3)."""
    m00 = ed.c_k ** 2 * ed.s_a
    b0 = (-(ed.c_k ** 2)[:, None] * ed.s_a[:, None] / 3.0
          - ed.c_k[:, None] * ed.lens * ed.m / ed.area[:, None])
    ll = ed.lens[:, :, None] * ed.lens[:, None, :]
    cross = (ed.lens * ed.m)[:, :, None] + (ed.lens * ed.m)[:, None, :]
    return m00, b0, ((ed.c_k ** 2 * ed.s_a / 9.0)[:, None, None]
                     + (ed.c_k / (3.0 * ed.area))[:, None, None] * cross
                     + ll / (ed.area ** 2)[:, None, None] * ed.n_mat)


def _scatter_edge_pairs(mesh: TriMesh, vals):
    """Scatter per-element ``(T, 3, 3)`` edge-pair entries into the
    interior-interior and interior-boundary matrices."""
    ni = mesh.n_interior_edges
    nb = mesh.n_boundary_edges
    gids = mesh.element_to_edges                     # (T, 3)
    shape = (gids.shape[0], 3, 3)
    gi = np.broadcast_to(gids[:, :, None], shape)    # row ids, not copied
    gj = np.broadcast_to(gids[:, None, :], shape)    # col ids
    row_int = (gi < ni)
    col_int = (gj < ni)
    both = row_int & col_int
    ib = row_int & ~col_int
    inner = sp.coo_matrix((vals[both], (gi[both], gj[both])),
                          shape=(ni, ni)).tocsr()
    bdry = sp.coo_matrix((vals[ib], (gi[ib], gj[ib] - ni)),
                         shape=(ni, nb)).tocsr()
    return inner, bdry


def _scatter_blocks(mesh: TriMesh, b0, bb):
    """Assemble M0b, M0b_bdry, Mbb, Mbb_bdry from per-element entries."""
    t_count = mesh.n_elements
    ni = mesh.n_interior_edges
    nb = mesh.n_boundary_edges
    gids = mesh.element_to_edges                     # (T, 3)
    rows_t = np.repeat(np.arange(t_count), 3)

    g_flat = gids.ravel()
    int_mask = (gids < ni).ravel()
    m0b = sp.coo_matrix(
        (b0.ravel()[int_mask], (rows_t[int_mask], g_flat[int_mask])),
        shape=(t_count, ni)).tocsr()
    m0b_b = sp.coo_matrix(
        (b0.ravel()[~int_mask], (rows_t[~int_mask], g_flat[~int_mask] - ni)),
        shape=(t_count, nb)).tocsr()
    mbb, mbb_b = _scatter_edge_pairs(mesh, bb)
    return m0b, m0b_b, mbb, mbb_b


def assemble(data: ElementData, f=None, g=None) -> WgSystem:
    """Assemble all sparse blocks of the two-field system.

    ``f`` and ``g`` are vectorized callables ``(x, y) -> value`` or
    ``None`` for zero; the source is integrated with ``data.rule``.
    """
    m00, b0, bb = _entry_arrays(data)
    m0b, m0b_b, mbb, mbb_b = _scatter_blocks(data.mesh, b0, bb)
    return WgSystem(
        m00_diag=m00,
        m0b=m0b,
        m0b_bdry=m0b_b,
        mbb=mbb,
        mbb_bdry=mbb_b,
        f0=_source_integrals(data, f),
        g_h=boundary_averages(data.mesh, g),
    )


def schur_closed_form(mesh: TriMesh, field: TensorField,
                      rule: QuadratureRule | None = None,
                      f=None) -> ReducedSystem:
    """Assemble the reduced interior-edge system directly from the
    per-element closed form (the element block is never materialized).

    It builds its own :class:`ElementData`, so it serves as a reference
    independent of the data passed around by the production path.
    ``f`` (optional vectorized source) feeds the reduced right hand side
    ``-M_b0 M_00^{-1} F_0``; omit it for a zero source.
    """
    ed = ElementData(mesh, field, rule)
    m00, b0, _ = _entry_arrays(ed)
    # M_bb - M_b0 M_00^-1 M_0b per element, in closed form
    ll = ed.lens[:, :, None] * ed.lens[:, None, :]
    mm = ed.m[:, :, None] * ed.m[:, None, :]
    schur = ll / (ed.area ** 2)[:, None, None] * (
        ed.n_mat - mm / ed.s_a[:, None, None])
    a_mat, a_bdry = _scatter_edge_pairs(mesh, schur)

    ni = mesh.n_interior_edges
    gids = mesh.element_to_edges
    rhs = np.zeros(ni)
    if f is not None:
        f0 = _source_integrals(ed, f)
        vals = -b0 * (f0 / m00)[:, None]             # (T, 3)
        is_int = gids < ni
        np.add.at(rhs, gids[is_int], vals[is_int])
    return ReducedSystem(a_mat=a_mat, a_bdry=a_bdry, rhs=rhs)


def schur_algebraic(system: WgSystem) -> ReducedSystem:
    """Eliminate the element block from assembled sparse blocks.

    Independent of :func:`schur_closed_form`: uses only the sparse block
    algebra ``Mbb - M0b^T M00^{-1} M0b`` (and the same for the boundary
    coupling and right hand side).
    """
    m00 = system.m00_diag
    if np.any(m00 <= 0):
        raise FieldValidityError("element block has a nonpositive diagonal")
    dinv = sp.diags(1.0 / m00)
    mb0 = system.m0b.T.tocsr()
    a_mat = (system.mbb - mb0 @ dinv @ system.m0b).tocsr()
    a_bdry = (system.mbb_bdry - mb0 @ dinv @ system.m0b_bdry).tocsr()
    rhs = -mb0 @ (system.f0 / m00)
    return ReducedSystem(a_mat=a_mat, a_bdry=a_bdry, rhs=rhs)


def export_matrix_triplets(mat, path) -> None:
    """Write a sparse matrix as sorted ``i j value`` triplets."""
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    write_rows(path, f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n",
               ("%d %d %.17g\n",
                (coo.row[order], coo.col[order], coo.data[order])))
