"""Discrete maximum principle audits for the reduced edge system.

Three layers of checks, from local to global:

* **Per-element sufficient conditions** (:func:`check_theorem_dmp`):
  every edge pair must satisfy ``(A n_i, n_j)_K <= m_i m_j / s_a`` and
  every edge the correction bound ``|m_l| <= c_k |K| s_a / (3 |e_l|)``.
  For a constant tensor the pair condition is exactly "all angles of the
  triangle are nonobtuse in the metric of ``A^{-1}``"; the report holds
  the metric angle cosines next to the pairing ``|K| n_i^T A n_j``, whose
  sign must be opposite to ``cos`` of the metric angle.

* **A variable-coefficient version** (:func:`check_theorem_general`)
  that additionally requires the local variation (Lipschitz-to-span
  ratio) to stay below the metric angle cosines, plus a shape-regularity
  bound.  Constant fields trivially satisfy the variation conditions.
  It is the only check that needs a Lipschitz estimate and the smallest
  eigenvalue of the field, and it computes both itself.

* **Global matrix audit** (:func:`mmatrix_audit`) of the reduced pair
  ``(A, A_b)`` at every size: ``A`` must be a nonsingular M-matrix, so
  ``A^{-1} >= 0``, and the row sums ``r = A 1 + A_b 1`` nonnegative.
  Then the boundary-coupling bound ``1 + A^{-1} A_b 1 = A^{-1} r >= 0``
  follows without a solve, and the two give the maximum principle.

:func:`check_full_system_condition` evaluates the analogous sign
condition for the *unreduced* edge-edge block, which is strictly more
demanding (it fails already for right angles with the identity tensor);
:func:`solution_verdict` checks a computed solution against the discrete
bounds regardless of any theory.  The per-element checks take the
:class:`~wgdmp.assembly.ElementData` of the mesh and field, so a caller
that also assembles builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._csv import write_rows
from .assembly import ElementData, _entry_arrays, ReducedSystem
from .solve import SolverError, WgSolution, _sparse_direct

__all__ = [
    "PAIRS",
    "TheoremDmpReport",
    "check_theorem_dmp",
    "TheoremGeneralReport",
    "check_theorem_general",
    "FullSystemReport",
    "check_full_system_condition",
    "MmatrixReport",
    "mmatrix_audit",
    "SolutionVerdict",
    "solution_verdict",
    "write_angle_report",
    "write_violations",
]

#: Local edge pairs of a triangle, in report order.
PAIRS = ((0, 1), (0, 2), (1, 2))
_PI, _PJ = np.array(PAIRS).T


def _angles_all(ed: ElementData):
    """Vectorized metric angles for all elements: (T,3) cos and pairing."""
    det = (ed.a_avg[:, 0, 0] * ed.a_avg[:, 1, 1]
           - ed.a_avg[:, 0, 1] * ed.a_avg[:, 1, 0])
    ainv = np.empty_like(ed.a_avg)
    ainv[:, 0, 0] = ed.a_avg[:, 1, 1]
    ainv[:, 1, 1] = ed.a_avg[:, 0, 0]
    ainv[:, 0, 1] = -ed.a_avg[:, 0, 1]
    ainv[:, 1, 0] = -ed.a_avg[:, 1, 0]
    ainv /= det[:, None, None]
    q = np.einsum("tia,tab,tjb->tij", ed.edge_dirs, ainv, ed.edge_dirs)
    norms = np.sqrt(np.einsum("tii->ti", q))
    cos = -q[:, _PI, _PJ] / (norms[:, _PI] * norms[:, _PJ])
    return cos, ed.n_mat[:, _PI, _PJ]


def _eigs(mats: np.ndarray):
    """Eigenvalues ``(lam_min, lam_max)`` of symmetric ``(..., 2, 2)``
    matrices."""
    m = np.asarray(mats)
    half_tr = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    off = 0.5 * (m[..., 0, 1] + m[..., 1, 0])
    rad = np.sqrt((0.5 * (m[..., 0, 0] - m[..., 1, 1])) ** 2 + off ** 2)
    return half_tr - rad, half_tr + rad


def _slack_scale(ed: ElementData) -> np.ndarray:
    """Per-element magnitude ``|K| * lam_max(a_avg)`` for tolerances."""
    return ed.area * _eigs(ed.a_avg)[1]


@dataclass
class TheoremDmpReport:
    """Per-element sufficient conditions for the reduced system.

    Pair arrays are indexed by :data:`PAIRS`; edge arrays by local edge.
    ``corr_lhs``/``corr_rhs`` are the two sides of the correction-term
    bound ``|m_l| <= c_k |K| s_a / (3 |e_l|)``.
    """

    pair_lhs: np.ndarray     # (T, 3): |K| n_i^T a_avg n_j
    pair_rhs: np.ndarray     # (T, 3): m_i m_j / s_a
    pair_pass: np.ndarray    # (T, 3) bool
    corr_lhs: np.ndarray     # (T, 3): |m_l|
    corr_rhs: np.ndarray     # (T, 3)
    corr_pass: np.ndarray    # (T, 3) bool
    cos_alpha: np.ndarray    # (T, 3)
    passed: bool

    @property
    def failing_elements(self) -> np.ndarray:
        bad = ~(self.pair_pass.all(axis=1) & self.corr_pass.all(axis=1))
        return np.flatnonzero(bad)


def check_theorem_dmp(ed: ElementData) -> TheoremDmpReport:
    """Evaluate the per-element pair and correction conditions.

    Both are checked with an absolute slack of ``1e-12`` times the
    element magnitude ``|K| lam_max(a_avg)``.
    """
    cos, inner = _angles_all(ed)
    slack = 1e-12 * _slack_scale(ed)

    pair_rhs = ed.m[:, _PI] * ed.m[:, _PJ] / ed.s_a[:, None]
    pair_pass = inner <= pair_rhs + slack[:, None]

    corr_lhs = np.abs(ed.m)
    corr_rhs = (ed.c_k * ed.area * ed.s_a)[:, None] / (3.0 * ed.lens)
    corr_pass = corr_lhs <= corr_rhs + slack[:, None]

    return TheoremDmpReport(
        pair_lhs=inner, pair_rhs=pair_rhs, pair_pass=pair_pass,
        corr_lhs=corr_lhs, corr_rhs=corr_rhs, corr_pass=corr_pass,
        cos_alpha=cos,
        passed=bool(pair_pass.all() and corr_pass.all()),
    )


@dataclass
class TheoremGeneralReport:
    """Variable-coefficient sufficient conditions.

    Condition 1 compares the squared variation ratio
    ``(lip * h / lam_min)^2`` against the smallest metric-angle cosine of
    the element (so any obtuse metric angle fails it); condition 2 is the
    shape bound ``h^3 / |K| <= 2 lam_min / (3 lip)``, trivially true for
    constant fields (``lip = 0``).  ``lip`` is the field's analytic
    Lipschitz bound when it has one, else the largest difference quotient
    between quadrature points of the element; ``lam_min`` is the smallest
    eigenvalue over the quadrature points and the vertices.
    """

    lip: np.ndarray          # (T,)
    lam_min: np.ndarray      # (T,)
    cos_min: np.ndarray      # (T,)
    cond1_lhs: np.ndarray    # (T,)
    cond1_pass: np.ndarray   # (T,) bool
    cond2_lhs: np.ndarray    # (T,)
    cond2_rhs: np.ndarray    # (T,)
    cond2_pass: np.ndarray   # (T,) bool
    cos_alpha: np.ndarray    # (T, 3)
    passed: bool

    @property
    def flagged_elements(self) -> np.ndarray:
        """Elements failing condition 1 (includes all obtuse metric angles)."""
        return np.flatnonzero(~self.cond1_pass)


def _variation(ed: ElementData):
    """Per-element Lipschitz estimate and smallest eigenvalue of the field.

    Constant-per-element fields have no variation.  Functional fields are
    sampled again at the quadrature points and at the vertices, in blocks
    of :attr:`ElementData.SAMPLE_BLOCK` elements, which bounds the memory
    of the samples and their pairwise differences at any size.
    """
    field, nt = ed.field, ed.mesh.n_elements
    if field.constant_per_element:
        return np.zeros(nt), _eigs(ed.a_avg)[0]
    lam_min = np.empty(nt)
    lip = np.full(nt, float(field.lipschitz_bound or 0.0))
    for b in (slice(k, k + ed.SAMPLE_BLOCK)
              for k in range(0, nt, ed.SAMPLE_BLOCK)):
        qp = np.einsum("qb,tbd->tqd", ed.rule.points, ed.coords[b])
        aq = field.sample(qp, element=b.start)                # (t, n, 2, 2)
        av = field.sample(ed.coords[b], element=b.start)      # vertices
        lam_min[b] = np.minimum(_eigs(aq)[0].min(axis=1),
                                _eigs(av)[0].min(axis=1))
        if field.lipschitz_bound is None:
            diff = aq[:, :, None] - aq[:, None, :]
            num = np.sqrt((diff ** 2).sum(axis=(3, 4)))
            den = np.sqrt(((qp[:, :, None] - qp[:, None, :]) ** 2).sum(axis=3))
            eps = 1e-14 * np.maximum(ed.diam[b], 1e-300)
            ratio = np.where(den > eps[:, None, None],
                             num / np.maximum(den, 1e-300), 0.0)
            lip[b] = ratio.max(axis=(1, 2))
    return lip, lam_min


def check_theorem_general(ed: ElementData) -> TheoremGeneralReport:
    lip, lam_min = _variation(ed)
    cos, _ = _angles_all(ed)
    cos_min = cos.min(axis=1)
    cond1_lhs = (lip * ed.diam / lam_min) ** 2
    cond1_pass = cond1_lhs <= cos_min + 1e-12
    cond2_lhs = ed.diam ** 3 / ed.area
    with np.errstate(divide="ignore"):
        cond2_rhs = np.where(lip > 0,
                             2.0 * lam_min / (3.0 * np.maximum(lip, 1e-300)),
                             np.inf)
    cond2_pass = cond2_lhs <= cond2_rhs * (1.0 + 1e-12)
    return TheoremGeneralReport(
        lip=lip, lam_min=lam_min, cos_min=cos_min,
        cond1_lhs=cond1_lhs, cond1_pass=cond1_pass,
        cond2_lhs=cond2_lhs, cond2_rhs=cond2_rhs, cond2_pass=cond2_pass,
        cos_alpha=cos,
        passed=bool(cond1_pass.all() and cond2_pass.all()),
    )


@dataclass
class FullSystemReport:
    """Sign condition for the unreduced edge-edge block.

    ``mbb_offdiag[t, p]`` is the within-element off-diagonal entry for
    edge pair ``PAIRS[p]``; an M-matrix structure needs them all
    nonpositive.  ``cot_theta`` and ``remark_rhs`` restate the condition
    geometrically for the identity tensor:
    ``cot(theta_ij) >= 2 |K|^2 / (9 \\int_K |x - x_K|^2)``, which already
    fails for a right angle on the unit right triangle.
    """

    mbb_offdiag: np.ndarray  # (T, 3)
    mbb_pass: np.ndarray     # (T, 3) bool
    cot_theta: np.ndarray    # (T, 3)
    remark_rhs: np.ndarray   # (T,)
    remark_pass: np.ndarray  # (T, 3) bool
    passed: bool


def check_full_system_condition(ed: ElementData) -> FullSystemReport:
    _, _, bb = _entry_arrays(ed)
    slack = 1e-12 * _slack_scale(ed)

    offdiag = bb[:, _PI, _PJ]
    mbb_pass = offdiag <= slack[:, None]

    # interior angle between the edge pair: cos = -e_i . e_j for the
    # counterclockwise directions, sin from the cross product
    ei, ej = ed.edge_dirs[:, _PI], ed.edge_dirs[:, _PJ]
    cot = -(ei * ej).sum(axis=2) / np.abs(ei[..., 0] * ej[..., 1]
                                          - ei[..., 1] * ej[..., 0])
    rhs = 2.0 * ed.area ** 2 / (9.0 * ed.s_iso)
    remark_pass = cot >= rhs[:, None] - 1e-12 * (1.0 + np.abs(rhs))[:, None]

    return FullSystemReport(
        mbb_offdiag=offdiag, mbb_pass=mbb_pass,
        cot_theta=cot, remark_rhs=rhs, remark_pass=remark_pass,
        passed=bool(mbb_pass.all()),
    )


@dataclass
class MmatrixReport:
    """Global audit of the reduced matrix pair ``(A, A_b)``.

    ``offdiag_violations`` holds the ``(row, col)`` positions of the
    positive off-diagonal entries of ``A`` as a ``(k, 2)`` int array; with
    none, ``A`` is a Z-matrix and ``inv_pass`` says whether ``A^{-1} >= 0``
    (else it is ``None``).  ``rowsum_min`` is the smallest row sum of
    ``[A | A_b]``.  ``decided_by`` names the check that decided the
    verdict: ``"sign structure"``, ``"row sums"``, ``"chained dominance"``
    or ``"semipositivity"``.
    """

    offdiag_violations: np.ndarray
    rowsum_min: float
    rowsum_pass: bool
    inv_pass: bool | None
    decided_by: str
    passed: bool


def _reaches_strict_row(row, col, strict) -> bool:
    """Whether every row reaches a ``strict`` row along the links
    ``row -> col``: one breadth-first search over the reversed links from
    a super-node joined to the strict rows."""
    # imported here, so that commands without a matrix audit never load it
    from scipy.sparse.csgraph import breadth_first_order
    n = strict.size
    top = np.flatnonzero(strict)
    src = np.r_[col, np.full(top.size, n)]
    graph = sp.csr_matrix((np.ones(src.size), (src, np.r_[row, top])),
                          shape=(n + 1, n + 1))
    return breadth_first_order(graph, n, return_predecessors=False).size > n


def _semipositive(a) -> bool:
    """Whether ``x = max(A^{-1} 1, 0)`` has every ``(A x)_i`` above
    ``1e-10 (|A| x)_i``; diagonal pivots suit an M-matrix."""
    try:
        x = np.maximum(_sparse_direct(a, np.ones(a.shape[0]), 1e-8)[0], 0.0)
    except SolverError:                 # singular or inaccurate
        return False
    return bool(np.all(a @ x > 1e-10 * (abs(a) @ x)))


def mmatrix_audit(reduced: ReducedSystem) -> MmatrixReport:
    """Audit the reduced pair ``(A, A_b)`` for M-matrix structure.

    A Z-matrix ``A`` is a nonsingular M-matrix, so ``A^{-1} >= 0``, when
    it is weakly chained diagonally dominant (Azimzadeh & Forsyth, SIAM J.
    Numer. Anal. 54(3), 2016): its row sums are nonnegative and every row
    reaches a strictly dominant row along its links, the negative
    off-diagonal entries; one O(nnz) graph search.  Where positive entries
    of ``A_b`` cost rows their dominance, one sparse LU checks instead that
    ``A`` is semipositive (``A x > 0`` for some ``x >= 0``).  Entries
    beyond ``1e-12`` of the largest entry are positive or links; row sums
    beyond ``1e-10`` of the row's absolute sum over ``[A | A_b]`` are
    negative or strict.  Raises ``ValueError`` when ``A`` is empty.
    """
    a = reduced.a_mat.tocoo()
    n = reduced.a_mat.shape[0]
    if not n:
        raise ValueError("the reduced system has 0 interior edges, "
                         "so there is no matrix to audit")
    tol_off = 1e-12 * float(np.abs(a.data).max(initial=0.0))
    off = a.row != a.col
    bad = off & (a.data > tol_off)
    violations = np.stack([a.row[bad], a.col[bad]], axis=1)

    ones_i = np.ones(n)
    ones_b = np.ones(reduced.a_bdry.shape[1])
    rowsum_a = reduced.a_mat @ ones_i
    rowsum = rowsum_a + reduced.a_bdry @ ones_b
    rowabs = np.abs(reduced.a_mat) @ ones_i + np.abs(reduced.a_bdry) @ ones_b
    tol_row = 1e-10 * np.maximum(rowabs, 1e-300)
    rowsum_pass = bool(np.all(rowsum + tol_row >= 0))

    inv_pass = chained = None
    if not len(violations):
        link = off & (a.data < -tol_off)
        chained = bool(np.all(rowsum_a >= -tol_row)) and _reaches_strict_row(
            a.row[link], a.col[link], rowsum_a > tol_row)
        inv_pass = chained or _semipositive(reduced.a_mat)
    decided_by = ("sign structure" if inv_pass is None else
                  "row sums" if not rowsum_pass else
                  "chained dominance" if chained else "semipositivity")
    return MmatrixReport(
        offdiag_violations=violations,
        rowsum_min=float(rowsum.min()), rowsum_pass=rowsum_pass,
        inv_pass=inv_pass, decided_by=decided_by,
        passed=bool(inv_pass and rowsum_pass),
    )


@dataclass
class SolutionVerdict:
    """Extrema of a computed solution against the discrete bounds.

    The bounds come from the boundary data: upper ``max(0, max g_h)``,
    lower ``min(0, min g_h)``.  With a nonpositive source the upper bound
    is the guaranteed one; the lower bound is its mirror statement (for a
    nonnegative source) and is reported alongside since the built-in
    benchmarks all have a zero source, where both apply.
    """

    max_ub: float
    min_ub: float
    max_u0: float
    min_u0: float
    upper_bound: float
    lower_bound: float
    pass_upper: bool
    pass_lower: bool
    violating_edges: list
    violating_elements: list
    passed: bool | None


def solution_verdict(solution: WgSolution,
                     f_sign_nonpositive: bool = True,
                     tol: float = 1e-8) -> SolutionVerdict:
    """Compare solution extrema (edge values include the boundary) with
    the bounds implied by the boundary data."""
    edges_all = np.concatenate([solution.ub, solution.ub_bdry])
    hi = max(0.0, float(solution.ub_bdry.max())) if solution.ub_bdry.size else 0.0
    lo = min(0.0, float(solution.ub_bdry.min())) if solution.ub_bdry.size else 0.0
    max_ub = float(edges_all.max())
    min_ub = float(edges_all.min())
    max_u0 = float(solution.u0.max())
    min_u0 = float(solution.u0.min())

    pass_upper = (max_ub <= hi + tol) and (max_u0 <= hi + tol)
    pass_lower = (min_ub >= lo - tol) and (min_u0 >= lo - tol)

    bad_e = np.flatnonzero((solution.ub > hi + tol) | (solution.ub < lo - tol))
    bad_t = np.flatnonzero((solution.u0 > hi + tol) | (solution.u0 < lo - tol))
    return SolutionVerdict(
        max_ub=max_ub, min_ub=min_ub, max_u0=max_u0, min_u0=min_u0,
        upper_bound=hi, lower_bound=lo,
        pass_upper=pass_upper, pass_lower=pass_lower,
        violating_edges=[int(i) for i in bad_e],
        violating_elements=[int(i) for i in bad_t],
        passed=(pass_upper and pass_lower) if f_sign_nonpositive else None,
    )


def write_angle_report(report, path) -> None:
    """Write ``element,pair,cos_alpha,n_inner,pass`` rows.

    Works for :class:`TheoremDmpReport` (pass = pair condition) and
    :class:`FullSystemReport` (pass = sign condition; the pairing column
    holds the block entry there).
    """
    if isinstance(report, TheoremDmpReport):
        values = report.pair_lhs
        passes = report.pair_pass
        cos = report.cos_alpha
    elif isinstance(report, FullSystemReport):
        values = report.mbb_offdiag
        passes = report.mbb_pass
        cos = report.cot_theta
    else:
        raise TypeError(f"no angle table for {type(report).__name__}")
    t = np.arange(values.shape[0])
    write_rows(path, "element,pair,cos_alpha,n_inner,pass\n",
               ("".join(f"%d,{i}-{j},%.17g,%.17g,%d\n" for i, j in PAIRS),
                [col for p in range(len(PAIRS))
                 for col in (t, cos[:, p], values[:, p], passes[:, p])]))


def write_violations(verdict: SolutionVerdict, solution: WgSolution,
                     path) -> None:
    """Write ``kind,index,value`` rows for out-of-bounds unknowns."""
    elems = np.array(verdict.violating_elements, dtype=np.int64)
    edges = np.array(verdict.violating_edges, dtype=np.int64)
    write_rows(path, "kind,index,value\n",
               ("element,%d,%.17g\n", (elems, solution.u0[elems])),
               ("interior_edge,%d,%.17g\n", (edges, solution.ub[edges])))
