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

* **Global matrix audits** (:func:`mmatrix_audit`): sign structure and
  row sums of the reduced matrix pair, and for small systems the dense
  monotonicity check (nonnegative inverse) and the boundary-coupling
  bound that together give the maximum principle.

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

from .assembly import ElementData, _entry_arrays, ReducedSystem
from .solve import WgSolution

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

DENSE_AUDIT_LIMIT = 500


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
    cos = np.empty((ed.area.shape[0], 3))
    for p, (i, j) in enumerate(PAIRS):
        cos[:, p] = -q[:, i, j] / (norms[:, i] * norms[:, j])
    inner = np.stack([ed.n_mat[:, i, j] for (i, j) in PAIRS], axis=1)
    return cos, inner


def _eig_min(mats: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of symmetric ``(..., 2, 2)`` matrices."""
    m = np.asarray(mats)
    half_tr = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    off = 0.5 * (m[..., 0, 1] + m[..., 1, 0])
    rad = np.sqrt((0.5 * (m[..., 0, 0] - m[..., 1, 1])) ** 2 + off ** 2)
    return half_tr - rad


def _slack_scale(ed: ElementData) -> np.ndarray:
    """Per-element magnitude ``|K| * lam_max(a_avg)`` for tolerances."""
    tr = ed.a_avg[:, 0, 0] + ed.a_avg[:, 1, 1]
    off = 0.5 * (ed.a_avg[:, 0, 1] + ed.a_avg[:, 1, 0])
    rad = np.sqrt((0.5 * (ed.a_avg[:, 0, 0] - ed.a_avg[:, 1, 1])) ** 2
                  + off ** 2)
    lam_max = 0.5 * tr + rad
    return ed.area * lam_max


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

    pair_rhs = np.stack([ed.m[:, i] * ed.m[:, j] / ed.s_a
                         for (i, j) in PAIRS], axis=1)
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
    sampled again at the quadrature points and at the vertices.
    """
    field = ed.field
    if field.constant_per_element:
        return np.zeros(ed.mesh.n_elements), _eig_min(ed.a_avg)
    qp = np.einsum("qb,tbd->tqd", ed.rule.points, ed.coords)  # (T, n, 2)
    aq = field.sample(qp)                                     # (T, n, 2, 2)
    av = field.sample(ed.coords)                              # vertices
    lam_min = np.minimum(_eig_min(aq).min(axis=1), _eig_min(av).min(axis=1))
    if field.lipschitz_bound is not None:
        lip = np.full(ed.mesh.n_elements, float(field.lipschitz_bound))
        return lip, lam_min
    diff = aq[:, :, None] - aq[:, None, :]
    num = np.sqrt((diff ** 2).sum(axis=(3, 4)))
    den = np.sqrt(((qp[:, :, None] - qp[:, None, :]) ** 2).sum(axis=3))
    eps = 1e-14 * np.maximum(ed.diam, 1e-300)
    ratio = np.where(den > eps[:, None, None],
                     num / np.maximum(den, 1e-300), 0.0)
    return ratio.max(axis=(1, 2)), lam_min


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

    @property
    def failing_pairs(self):
        """List of ``(element, (i, j), value)`` with a positive entry."""
        out = []
        for t, p in zip(*np.nonzero(~self.mbb_pass)):
            out.append((int(t), PAIRS[p], float(self.mbb_offdiag[t, p])))
        return out


def check_full_system_condition(ed: ElementData) -> FullSystemReport:
    _, _, bb, _ = _entry_arrays(ed)
    slack = 1e-12 * _slack_scale(ed)

    offdiag = np.stack([bb[:, i, j] for (i, j) in PAIRS], axis=1)
    mbb_pass = offdiag <= slack[:, None]

    # interior angle between the edge pair: cos = -e_i . e_j for the
    # counterclockwise directions, sin from the cross product
    cos_t = np.empty((ed.mesh.n_elements, 3))
    sin_t = np.empty((ed.mesh.n_elements, 3))
    for p, (i, j) in enumerate(PAIRS):
        ei = ed.edge_dirs[:, i]
        ej = ed.edge_dirs[:, j]
        cos_t[:, p] = -(ei * ej).sum(axis=1)
        sin_t[:, p] = np.abs(ei[:, 0] * ej[:, 1] - ei[:, 1] * ej[:, 0])
    cot = cos_t / sin_t
    rhs = 2.0 * ed.area ** 2 / (9.0 * ed.s_iso)
    remark_pass = cot >= rhs[:, None] - 1e-12 * (1.0 + np.abs(rhs))[:, None]

    return FullSystemReport(
        mbb_offdiag=offdiag, mbb_pass=mbb_pass,
        cot_theta=cot, remark_rhs=rhs, remark_pass=remark_pass,
        passed=bool(mbb_pass.all()),
    )


@dataclass
class MmatrixReport:
    """Global audit of the reduced matrix pair.

    Structural checks always run: off-diagonal nonpositivity of the
    interior matrix and nonnegativity of the row sums over ``[A | A_b]``.
    The dense checks (inverse nonnegativity and the boundary-coupling
    bound ``xi + A^{-1} A_b xi_b >= 0``) run only up to
    ``DENSE_AUDIT_LIMIT`` unknowns.
    """

    offdiag_violations: list
    rowsum_min: float
    rowsum_pass: bool
    dense_ran: bool
    inv_min: float | None
    inv_pass: bool | None
    bound_min: float | None
    bound_pass: bool | None
    passed: bool

    @property
    def rowsum_max_dev(self) -> float:
        """Largest negative row-sum excursion (0 when all are nonnegative)."""
        return max(0.0, -self.rowsum_min)


def mmatrix_audit(reduced: ReducedSystem, dense: bool | None = None) -> MmatrixReport:
    """Audit the reduced pair ``(A, A_b)`` for M-matrix structure.

    ``dense=None`` runs the dense checks automatically when the system is
    small enough; ``dense=True`` insists (raising ``ValueError`` above the
    cap); ``dense=False`` skips them.
    """
    a = reduced.a_mat.tocoo()
    n = reduced.a_mat.shape[0]
    scale = float(np.abs(a.data).max()) if a.nnz else 0.0
    tol_off = 1e-12 * scale
    off = a.row != a.col
    bad = off & (a.data > tol_off)
    violations = [(int(i), int(j), float(v))
                  for i, j, v in zip(a.row[bad], a.col[bad], a.data[bad])]

    ones_i = np.ones(n)
    ones_b = np.ones(reduced.a_bdry.shape[1])
    rowsum = reduced.a_mat @ ones_i + reduced.a_bdry @ ones_b
    rowabs = np.abs(reduced.a_mat) @ ones_i + np.abs(reduced.a_bdry) @ ones_b
    margin = rowsum + 1e-10 * np.maximum(rowabs, 1e-300)
    rowsum_pass = bool(np.all(margin >= 0)) if n else True
    rowsum_min = float(rowsum.min()) if n else 0.0

    run_dense = dense if dense is not None else n <= DENSE_AUDIT_LIMIT
    if dense is True and n > DENSE_AUDIT_LIMIT:
        raise ValueError(f"dense audit limited to {DENSE_AUDIT_LIMIT} "
                         f"unknowns, system has {n}")
    inv_min = inv_pass = bound_min = bound_pass = None
    if run_dense and n:
        ainv = np.linalg.inv(reduced.a_mat.toarray())
        inv_min = float(ainv.min())
        inv_pass = bool(inv_min >= -1e-10 * np.abs(ainv).sum(axis=1).max())
        vec = ones_i + ainv @ (reduced.a_bdry @ ones_b)
        bound_min = float(vec.min())
        bound_pass = bool(bound_min >= -1e-10)

    passed = (not violations) and rowsum_pass
    if run_dense and n:
        passed = passed and inv_pass and bound_pass
    return MmatrixReport(
        offdiag_violations=violations,
        rowsum_min=rowsum_min, rowsum_pass=rowsum_pass,
        dense_ran=bool(run_dense and n),
        inv_min=inv_min, inv_pass=inv_pass,
        bound_min=bound_min, bound_pass=bound_pass,
        passed=passed,
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("element,pair,cos_alpha,n_inner,pass\n")
        for t in range(values.shape[0]):
            for p, (i, j) in enumerate(PAIRS):
                fh.write(f"{t},{i}-{j},{format(cos[t, p], '.17g')},"
                         f"{format(values[t, p], '.17g')},"
                         f"{int(passes[t, p])}\n")


def write_violations(verdict: SolutionVerdict, solution: WgSolution,
                     path) -> None:
    """Write ``kind,index,value`` rows for out-of-bounds unknowns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,index,value\n")
        for i in verdict.violating_elements:
            fh.write(f"element,{i},{format(solution.u0[i], '.17g')}\n")
        for i in verdict.violating_edges:
            fh.write(f"interior_edge,{i},{format(solution.ub[i], '.17g')}\n")
