"""Solvers for the reduced interior-edge system plus postprocessing.

The reduced matrix is symmetric positive definite, so two methods are
offered, both from :mod:`scipy.sparse.linalg`: conjugate gradient with a
Jacobi preconditioner (the default) and a sparse direct LU factorization
in symmetric mode with a minimum-degree ordering.  Either solve is
accepted only when its true residual ``b - A x`` meets the tolerance.
The element unknowns are recovered afterwards from the diagonal element
block, and :func:`vertex_average` folds edge values down to vertices for
plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (ElementData, WgSystem, ReducedSystem, assemble,
                       schur_algebraic)
from .mesh import TriMesh

__all__ = [
    "SolverError",
    "NonConvergenceError",
    "SolverConfig",
    "WgSolution",
    "solve_reduced",
    "recover_interior",
    "vertex_average",
    "solve_problem",
    "export_solution_csv",
    "export_vertex_csv",
]

METHODS = ("conjugate-gradient-jacobi", "sparse-direct")


class SolverError(Exception):
    """Raised for invalid solver configuration or misuse."""


class NonConvergenceError(SolverError):
    """Iteration cap reached; carries the residual norm history."""

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass
class SolverConfig:
    """Solver selection and stopping control.

    ``max_iterations`` of ``None`` means ``20 * n`` for an ``n``-unknown
    system; it bounds the conjugate gradient iterations summed over
    restarts.  ``rel_tolerance`` bounds the final true residual relative
    to the right hand side norm, for both methods.
    """

    rel_tolerance: float = 1e-12
    max_iterations: int | None = None
    method: str = "conjugate-gradient-jacobi"

    def __post_init__(self):
        if self.method not in METHODS:
            raise SolverError(f"unknown method {self.method!r}; "
                              f"expected one of {METHODS}")
        if not (0 < self.rel_tolerance < 1):
            raise SolverError(f"rel_tolerance must be in (0, 1), "
                              f"got {self.rel_tolerance}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise SolverError("max_iterations must be positive")


@dataclass
class WgSolution:
    """Solution vectors: per-element ``u0``, per-interior-edge ``ub``,
    per-boundary-edge data ``ub_bdry``, and the final solver residual."""

    u0: np.ndarray
    ub: np.ndarray
    ub_bdry: np.ndarray
    residual_norm: float


def _cg_jacobi(a_mat, b, tol, max_iterations):
    """Jacobi-preconditioned scipy CG, accepted on the true residual.

    scipy stops on its recurrence residual; when the true residual then
    misses the tolerance, CG restarts from the current iterate with what
    is left of the iteration budget.  The history holds the true residual
    at each of these checks, starting from ``x = 0``.
    """
    bnorm = float(np.linalg.norm(b))
    dinv = 1.0 / a_mat.diagonal()
    jacobi = spla.LinearOperator(a_mat.shape, matvec=lambda r: dinv * r,
                                 dtype=float)
    x = np.zeros(b.shape[0])
    history = [bnorm]
    its = 0

    def step(_xk):
        nonlocal its
        its += 1

    while True:
        before = its
        x, _ = spla.cg(a_mat, b, x0=x, rtol=tol, atol=0.0, M=jacobi,
                       maxiter=max_iterations - its, callback=step)
        resid = float(np.linalg.norm(b - a_mat @ x))
        history.append(resid)
        if resid <= tol * bnorm:
            return x, resid
        # a restart that takes no step would repeat forever
        if its >= max_iterations or its == before:
            raise NonConvergenceError(
                f"conjugate gradient did not reach a relative residual of "
                f"{tol:g} in {its} of {max_iterations} iterations "
                f"(last true residual {resid / bnorm:.3e} relative)",
                history)


def _sparse_direct(a_mat, b, tol):
    """One sparse LU factorization in symmetric mode, accepted on the true
    residual.  The matrix is symmetric positive definite, so the pivots
    stay on the diagonal of a minimum-degree ordering of ``A + A^T``."""
    try:
        lu = spla.splu(a_mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse direct factorization failed: {exc}") \
            from exc
    x = lu.solve(b)
    resid = float(np.linalg.norm(b - a_mat @ x))
    bnorm = float(np.linalg.norm(b))
    if not resid <= tol * bnorm:
        raise SolverError(
            f"sparse direct solve left a relative residual of "
            f"{resid / bnorm:.3e}, above {tol:g}")
    return x, resid


def solve_reduced(system: ReducedSystem, g_h: np.ndarray,
                  config: SolverConfig | None = None) -> tuple[np.ndarray, float]:
    """Solve ``a_mat @ ub = rhs - a_bdry @ g_h`` for the interior edges.

    Returns ``(ub, residual_norm)``.  A zero right hand side short
    circuits to the zero vector.  NaN or inf in the matrix or the right
    hand side raises :class:`SolverError` before any solve.
    """
    cfg = config or SolverConfig()
    b = system.rhs - system.a_bdry @ np.asarray(g_h, dtype=float)
    n = b.shape[0]
    if n == 0:
        return np.zeros(0), 0.0
    for what, vals in (("matrix", system.a_mat.data), ("right-hand side", b)):
        if not np.all(np.isfinite(vals)):
            raise SolverError(f"the reduced {what} holds non-finite values "
                              f"(NaN or inf)")
    if float(np.linalg.norm(b)) == 0.0:
        return np.zeros(n), 0.0

    if cfg.method == "sparse-direct":
        return _sparse_direct(system.a_mat, b, cfg.rel_tolerance)
    max_it = cfg.max_iterations if cfg.max_iterations is not None else 20 * n
    return _cg_jacobi(system.a_mat, b, cfg.rel_tolerance, max_it)


def recover_interior(system: WgSystem, ub: np.ndarray,
                     ub_bdry: np.ndarray) -> np.ndarray:
    """Back-substitute the element unknowns from the diagonal block:
    ``u0 = (f0 - M0b ub - M0b_bdry ub_bdry) / m00``."""
    return (system.f0 - system.m0b @ ub - system.m0b_bdry @ ub_bdry) \
        / system.m00_diag


def vertex_average(mesh: TriMesh, solution: WgSolution) -> np.ndarray:
    """Average the edge values incident to each vertex (for plotting)."""
    total = np.zeros(mesh.n_vertices)
    count = np.zeros(mesh.n_vertices)
    for edges, vals in ((mesh.interior_edges, solution.ub),
                        (mesh.boundary_edges, solution.ub_bdry)):
        for col in (0, 1):
            np.add.at(total, edges[:, col], vals)
            np.add.at(count, edges[:, col], 1.0)
    if np.any(count == 0):
        # isolated vertices cannot occur in a valid mesh, but guard anyway
        count[count == 0] = 1.0
    return total / count


def solve_problem(data: ElementData, f=None, g=None,
                  config: SolverConfig | None = None) -> WgSolution:
    """Assemble, reduce, solve and recover in one call."""
    system = assemble(data, f=f, g=g)
    reduced = schur_algebraic(system)
    ub, resid = solve_reduced(reduced, system.g_h, config)
    u0 = recover_interior(system, ub, system.g_h)
    return WgSolution(u0=u0, ub=ub, ub_bdry=system.g_h.copy(),
                      residual_norm=resid)


def export_solution_csv(solution: WgSolution, path) -> None:
    """Write ``kind,index,value`` rows for all unknown groups."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,index,value\n")
        for kind, vec in (("element", solution.u0),
                          ("interior_edge", solution.ub),
                          ("boundary_edge", solution.ub_bdry)):
            for i, v in enumerate(vec):
                fh.write(f"{kind},{i},{format(v, '.17g')}\n")


def export_vertex_csv(mesh: TriMesh, values: np.ndarray, path) -> None:
    """Write ``x,y,value`` rows of a per-vertex field."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        for (x, y), v in zip(mesh.vertices, values):
            fh.write(f"{format(x, '.17g')},{format(y, '.17g')},"
                     f"{format(v, '.17g')}\n")
