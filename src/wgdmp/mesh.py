"""Triangular meshes with classified edge topology.

A mesh is a set of 2D vertices plus counterclockwise triangles given as
vertex index triples.  Edges are derived from the triangles and split into
an interior group (shared by exactly two triangles) and a boundary group
(owned by one), because the discretization keeps interior and boundary
edge unknowns in separate vectors.  Within each group edges are sorted
lexicographically by their (min vertex, max vertex) pair, and global edge
ids number the interior group first, then the boundary group.

Local edge ``l`` of a triangle ``(v0, v1, v2)`` connects vertices
``v_l -> v_{(l+1) % 3}``, so local edge 0 is opposite vertex 2 and so on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "DegenerateElementError",
    "MeshFormatError",
    "TriMesh",
    "trimesh_from_arrays",
    "generate_structured",
    "import_mesh",
    "export_mesh",
]

STRUCTURED_KINDS = ("mesh45", "mesh90", "mesh135")


class MeshError(Exception):
    """Raised for topologically or geometrically invalid meshes."""


class DegenerateElementError(MeshError):
    """Raised when a triangle's area is negligible relative to its size."""


class MeshFormatError(MeshError):
    """Raised when a mesh file cannot be parsed."""


@dataclass
class TriMesh:
    """A conforming triangulation with derived edge topology.

    Attributes
    ----------
    vertices:
        ``(V, 2)`` float array of vertex coordinates.
    triangles:
        ``(T, 3)`` int array of counterclockwise vertex index triples.
    interior_edges:
        ``(Ni, 2)`` int array; each row is a ``(min, max)`` vertex pair,
        rows sorted lexicographically.
    boundary_edges:
        ``(Nb, 2)`` int array, same conventions as ``interior_edges``.
    interior_edge_elements:
        ``(Ni, 2)`` int array with the two incident triangle indices.
    boundary_edge_elements:
        ``(Nb,)`` int array with the single incident triangle index.
    element_to_edges:
        ``(T, 3)`` int array mapping local edge ``l`` of each triangle to
        its global edge id (interior ids come first, boundary ids follow).
    edge_orientations:
        ``(T, 3)`` int8 array, ``+1`` where the local direction
        ``v_l -> v_{l+1}`` agrees with the canonical min->max direction.
    reoriented:
        Number of triangles that were flipped from clockwise input
        (nonzero only for imported meshes).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    interior_edges: np.ndarray
    boundary_edges: np.ndarray
    interior_edge_elements: np.ndarray
    boundary_edge_elements: np.ndarray
    element_to_edges: np.ndarray
    edge_orientations: np.ndarray
    reoriented: int = 0

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_interior_edges(self) -> int:
        return self.interior_edges.shape[0]

    @property
    def n_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]

    @property
    def n_edges(self) -> int:
        return self.n_interior_edges + self.n_boundary_edges

    def edge_vertices(self, edge_id: int) -> np.ndarray:
        """Vertex pair of a global edge id (interior ids come first)."""
        ni = self.n_interior_edges
        if edge_id < ni:
            return self.interior_edges[edge_id]
        return self.boundary_edges[edge_id - ni]

    def edge_to_elements(self, edge_id: int) -> tuple[int, ...]:
        """Incident triangle indices of a global edge id (1 or 2 of them)."""
        ni = self.n_interior_edges
        if edge_id < ni:
            return tuple(int(t) for t in self.interior_edge_elements[edge_id])
        return (int(self.boundary_edge_elements[edge_id - ni]),)


def _signed_area(p0, p1, p2):
    return 0.5 * ((p1[..., 0] - p0[..., 0]) * (p2[..., 1] - p0[..., 1])
                  - (p1[..., 1] - p0[..., 1]) * (p2[..., 0] - p0[..., 0]))


def _build_topology(vertices: np.ndarray, triangles: np.ndarray,
                    reoriented: int = 0) -> TriMesh:
    """Derive edge topology and validate the triangulation."""
    verts = np.ascontiguousarray(vertices, dtype=float)
    tris = np.ascontiguousarray(triangles, dtype=np.int64)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshError(f"vertices must be (V, 2), got {verts.shape}")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError(f"triangles must be (T, 3), got {tris.shape}")
    if tris.shape[0] == 0:
        raise MeshError("mesh has no triangles")
    if tris.min() < 0 or tris.max() >= verts.shape[0]:
        raise MeshError("triangle vertex index out of range")
    if np.any(tris[:, 0] == tris[:, 1]) or np.any(tris[:, 1] == tris[:, 2]) \
            or np.any(tris[:, 0] == tris[:, 2]):
        raise MeshError("triangle with repeated vertex")

    # duplicate triangles (same vertex set, any order)
    key = np.sort(tris, axis=1)
    _, counts = np.unique(key, axis=0, return_counts=True)
    if np.any(counts > 1):
        raise MeshError("duplicate triangle (same vertex set listed twice)")

    p = verts[tris]  # (T, 3, 2)
    areas = _signed_area(p[:, 0], p[:, 1], p[:, 2])
    if np.any(areas <= 0):
        bad = int(np.argmax(areas <= 0))
        raise MeshError(f"triangle {bad} is not counterclockwise "
                        f"(signed area {areas[bad]:.3e})")
    edge_vec = np.roll(p, -1, axis=1) - p
    h = np.sqrt((edge_vec ** 2).sum(axis=2)).max(axis=1)
    degenerate = areas < 1e-14 * h ** 2
    if np.any(degenerate):
        bad = int(np.argmax(degenerate))
        raise DegenerateElementError(
            f"triangle {bad} is degenerate: area {areas[bad]:.3e} "
            f"below 1e-14 * h^2 = {1e-14 * h[bad]**2:.3e}")

    # canonical (min, max) pairs of all 3T local edges
    a = tris
    b = np.roll(tris, -1, axis=1)
    lo = np.minimum(a, b).ravel()
    hi = np.maximum(a, b).ravel()
    pairs = np.stack([lo, hi], axis=1)              # (3T, 2)
    uniq, inverse, counts = np.unique(pairs, axis=0,
                                      return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        raise MeshError("edge shared by more than two triangles")

    n_edges = uniq.shape[0]
    euler = verts.shape[0] - n_edges + tris.shape[0] + 1
    if euler != 2:
        raise MeshError(
            f"mesh is not a connected triangulation of a simply connected "
            f"region: V - E + T + 1 = {euler}, expected 2")

    interior_mask = counts == 2
    # uniq is already lexicographically sorted by np.unique; number interior
    # edges first, then boundary edges, each keeping that order
    interior_ids = np.flatnonzero(interior_mask)
    boundary_ids = np.flatnonzero(~interior_mask)
    new_id = np.empty(n_edges, dtype=np.int64)
    new_id[interior_ids] = np.arange(interior_ids.size)
    new_id[boundary_ids] = interior_ids.size + np.arange(boundary_ids.size)

    element_to_edges = new_id[inverse].reshape(tris.shape[0], 3)
    orient = np.where(a < b, 1, -1).astype(np.int8)

    # incident elements per edge
    tri_of_slot = np.repeat(np.arange(tris.shape[0]), 3)
    order = np.argsort(inverse, kind="stable")
    sorted_tris = tri_of_slot[order]
    starts = np.searchsorted(inverse[order], np.arange(n_edges))
    interior_elems = np.stack(
        [sorted_tris[starts[interior_ids]], sorted_tris[starts[interior_ids] + 1]],
        axis=1)
    boundary_elems = sorted_tris[starts[boundary_ids]]

    return TriMesh(
        vertices=verts,
        triangles=tris,
        interior_edges=uniq[interior_ids],
        boundary_edges=uniq[boundary_ids],
        interior_edge_elements=interior_elems,
        boundary_edge_elements=boundary_elems,
        element_to_edges=element_to_edges,
        edge_orientations=orient,
        reoriented=reoriented,
    )


def trimesh_from_arrays(vertices, triangles, reorient: bool = False) -> TriMesh:
    """Build a :class:`TriMesh` from raw arrays.

    With ``reorient=True`` clockwise triangles are flipped (and counted on
    the result) instead of rejected.
    """
    tris = np.array(triangles, dtype=np.int64, copy=True)
    verts = np.asarray(vertices, dtype=float)
    flipped = 0
    if reorient and tris.size:
        if tris.min() < 0 or tris.max() >= len(verts):
            raise MeshError("triangle vertex index out of range")
        p = verts[tris]
        areas = _signed_area(p[:, 0], p[:, 1], p[:, 2])
        cw = areas < 0
        flipped = int(cw.sum())
        if flipped:
            tris[cw] = tris[cw][:, ::-1]
    return _build_topology(verts, tris, reoriented=flipped)


def generate_structured(kind: str, nx: int, ny: int,
                        domain=(0.0, 0.0, 1.0, 1.0)) -> TriMesh:
    """Generate a structured triangulation of a rectangle.

    Parameters
    ----------
    kind:
        ``"mesh45"`` splits each grid cell along the lower-left to
        upper-right diagonal, ``"mesh135"`` along the other diagonal, and
        ``"mesh90"`` adds the cell center and forms four triangles.
    nx, ny:
        Number of cells per direction; both must be positive.
    domain:
        Rectangle ``(x0, y0, x1, y1)``.
    """
    if kind not in STRUCTURED_KINDS:
        raise ValueError(f"unknown mesh kind {kind!r}, expected one of "
                         f"{STRUCTURED_KINDS}")
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be positive, got nx={nx} ny={ny}")
    x0, y0, x1, y1 = map(float, domain)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"empty domain {domain!r}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    verts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def vid(i, j):
        # column i (x direction), row j (y direction)
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
                a = vid(i, j)
                b = vid(i + 1, j)
                c = vid(i + 1, j + 1)
                d = vid(i, j + 1)
                e = base + j * nx + i
                tris += [[a, b, e], [b, c, e], [c, d, e], [d, a, e]]
    else:
        for j in range(ny):
            for i in range(nx):
                a = vid(i, j)
                b = vid(i + 1, j)
                c = vid(i + 1, j + 1)
                d = vid(i, j + 1)
                if kind == "mesh45":
                    tris += [[a, b, c], [a, c, d]]
                else:  # mesh135
                    tris += [[a, b, d], [b, c, d]]

    return _build_topology(verts, np.array(tris, dtype=np.int64))


def import_mesh(path) -> TriMesh:
    """Read a mesh from a plain text file.

    Format: optional ``#`` comment lines anywhere, then a header line
    ``V T`` (vertex and triangle counts), ``V`` lines ``x y``, and ``T``
    lines ``i j k`` of 0-based vertex indices.  Clockwise triangles are
    reoriented with a warning; the count is available as
    ``mesh.reoriented``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc

    rows = []
    for lineno, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise MeshFormatError(f"{path}: no data lines")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise MeshFormatError(f"{path}:{lineno}: header must be 'V T', "
                              f"got {header!r}")
    try:
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MeshFormatError(f"{path}:{lineno}: non-integer header "
                              f"{header!r}") from exc
    if nv < 3 or nt < 1:
        raise MeshFormatError(f"{path}:{lineno}: need at least 3 vertices "
                              f"and 1 triangle, header says {nv} {nt}")
    if len(rows) - 1 != nv + nt:
        raise MeshFormatError(
            f"{path}: header promises {nv} vertex and {nt} triangle lines, "
            f"found {len(rows) - 1} data lines")

    verts = np.empty((nv, 2))
    for r, (lineno, body) in enumerate(rows[1:1 + nv]):
        parts = body.split()
        if len(parts) != 2:
            raise MeshFormatError(f"{path}:{lineno}: vertex line needs "
                                  f"'x y', got {body!r}")
        try:
            verts[r] = [float(parts[0]), float(parts[1])]
        except ValueError as exc:
            raise MeshFormatError(f"{path}:{lineno}: bad vertex "
                                  f"{body!r}") from exc

    tris = np.empty((nt, 3), dtype=np.int64)
    for r, (lineno, body) in enumerate(rows[1 + nv:]):
        parts = body.split()
        if len(parts) != 3:
            raise MeshFormatError(f"{path}:{lineno}: triangle line needs "
                                  f"'i j k', got {body!r}")
        try:
            tris[r] = [int(parts[0]), int(parts[1]), int(parts[2])]
        except ValueError as exc:
            raise MeshFormatError(f"{path}:{lineno}: bad triangle "
                                  f"{body!r}") from exc
    if tris.min() < 0 or tris.max() >= nv:
        raise MeshFormatError(f"{path}: triangle vertex index out of range "
                              f"[0, {nv})")

    mesh = trimesh_from_arrays(verts, tris, reorient=True)
    if mesh.reoriented:
        warnings.warn(f"{path}: reoriented {mesh.reoriented} clockwise "
                      f"triangle(s)", stacklevel=2)
    return mesh


def export_mesh(mesh: TriMesh, path) -> None:
    """Write a mesh in the :func:`import_mesh` format (full precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{int(i)} {int(j)} {int(k)}\n")
