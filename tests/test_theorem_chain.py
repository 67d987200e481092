"""The paper's chain of implications as hypothesis properties.

Each case is a mesh45 grid whose grid lines are spaced at random, with the
interior vertices optionally jittered, mapped through ``A^{1/2}`` of a
random constant tensor ``A``.  Angles in the metric of ``A^{-1}`` are then
the Euclidean angles of the unmapped mesh.  Without jitter every triangle
keeps its right angle.  That is the equality case of the per-element
condition: its pairing ``|K| n_i^T A n_j`` vanishes up to rounding, and the
condition accepts it within its slack of ``1e-12 |K| lam_max``.  The matrix
audit sees the same entries within ``1e-12`` of the largest entry of ``A``.
Jitter makes some angles obtuse, so both verdicts occur.

The chain: the per-element condition passes => the reduced pair is a
Z-matrix with nonnegative row sums => the chained-dominance certificate
passes => ``solution_verdict`` passes for ``f = 0`` and any boundary data.
Jittered meshes also give Z-matrices whose rows lose dominance to a
positive boundary coupling.  The reduced matrix is SPD, and an SPD
Z-matrix is a nonsingular M-matrix, so there the semipositivity check
must pass.  Wherever it runs, the dense-inverse oracle agrees with the
audit.
"""

import numpy as np
from conftest import assert_agrees_with_dense_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgdmp.assembly import ElementData, schur_closed_form
from wgdmp.dmp import check_theorem_dmp, mmatrix_audit, solution_verdict
from wgdmp.mesh import generate_structured, trimesh_from_arrays
from wgdmp.solve import solve_problem
from wgdmp.tensor import ConstantField


def mapped_mesh45(nx, ny, jitter, lam, phi, seed):
    """Randomly spaced, optionally jittered mesh45 mapped through
    ``A^{1/2}``; returns the mesh and ``A``."""
    rng = np.random.default_rng(seed)
    grid = generate_structured("mesh45", nx, ny, (0, 0, nx, ny))
    ij = np.rint(grid.vertices).astype(int)
    xs = np.r_[0.0, np.cumsum(rng.uniform(0.5, 1.5, nx))]
    ys = np.r_[0.0, np.cumsum(rng.uniform(0.5, 1.5, ny))]
    verts = np.stack([xs[ij[:, 0]], ys[ij[:, 1]]], axis=1)
    inner = (ij[:, 0] % nx != 0) & (ij[:, 1] % ny != 0)
    verts[inner] += rng.uniform(-jitter, jitter, (np.count_nonzero(inner), 2))
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    root = rot @ np.diag(np.sqrt(lam)) @ rot.T
    return trimesh_from_arrays(verts @ root, grid.triangles), root @ root


@settings(max_examples=100)
@given(nx=st.integers(2, 5), ny=st.integers(2, 5),
       jitter=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
       lam=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       phi=st.floats(0.0, np.pi), seed=st.integers(0, 2 ** 32 - 1))
# a Z-matrix that only the semipositivity check certifies
@example(nx=2, ny=2, jitter=0.0625, lam=(0.0, 0.0), phi=0.0, seed=0)
def test_theorem_chain(nx, ny, jitter, lam, phi, seed):
    mesh, a = mapped_mesh45(nx, ny, jitter, 10.0 ** np.array(lam), phi, seed)
    field = ConstantField(a)
    data = ElementData(mesh, field)
    red = schur_closed_form(mesh, field)
    rep = mmatrix_audit(red)

    if check_theorem_dmp(data).passed:
        assert rep.offdiag_violations.shape == (0, 2)
        assert rep.rowsum_pass
        assert rep.decided_by == "chained dominance"
    if rep.offdiag_violations.size == 0 and rep.rowsum_pass:
        assert rep.passed
    if rep.passed:
        c = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        sol = solve_problem(data, g=lambda x, y: (c[0] + c[1] * x + c[2] * y
                                                  + c[3] * np.sin(x * y)))
        assert solution_verdict(sol).passed
    assert_agrees_with_dense_oracle(red, rep)
