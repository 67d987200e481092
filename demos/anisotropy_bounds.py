"""Constant strong anisotropy: one mesh family keeps the bounds, its mirror
image does not.

Solves the benchmark with the constant tensor whose eigenvalues are 1 and
1000 (principal axis along the diagonal) on all three structured kinds and
prints the solution extrema next to the angle audit.  The boundary data
lives in [0, 1], the source is zero, so a method respecting the maximum
principle must stay inside [0, 1].  mesh45 aligns its diagonals with the
strong axis and passes; mesh135 runs them across it and overshoots --
exactly as the per-element audit predicts before any solve.
"""

import numpy as np

from wgdmp.assembly import ElementData, schur_closed_form
from wgdmp.dmp import check_theorem_dmp, mmatrix_audit, solution_verdict
from wgdmp.mesh import generate_structured
from wgdmp.solve import solve_problem
from wgdmp.tensor import example_fields

DOMAIN = (0.0, 0.0, 16.0, 16.0)


def main():
    field, f, g = example_fields("example51")
    print("tensor [[500.5, 499.5], [499.5, 500.5]]  (eigenvalues 1 / 1000)")
    print(f"{'kind':9} {'n':>3} {'audit':>6} {'max':>9} {'min':>10}  verdict")
    for kind in ("mesh45", "mesh90", "mesh135"):
        for n in (8, 16):
            data = ElementData(generate_structured(kind, n, n, DOMAIN), field)
            thm = check_theorem_dmp(data)
            sol = solve_problem(data, f=f, g=g)
            v = solution_verdict(sol)
            print(f"{kind:9} {n:3d} {'pass' if thm.passed else 'FAIL':>6} "
                  f"{max(v.max_ub, v.max_u0):9.5f} "
                  f"{min(v.min_ub, v.min_u0):10.6f}  "
                  f"{'in bounds' if v.passed else 'OUT OF BOUNDS'}")
        print()

    # look closer at why mesh135 fails: every element has one edge pair
    # whose angle is obtuse in the inverse-tensor metric
    mesh = generate_structured("mesh135", 8, 8, DOMAIN)
    thm = check_theorem_dmp(ElementData(mesh, field))
    bad = ~thm.pair_pass
    print(f"mesh135 8x8: {thm.failing_elements.size} of {mesh.n_elements} "
          f"elements fail the angle audit,")
    print(f"  each on exactly one edge pair "
          f"(pairs per element: {sorted(set(map(int, bad.sum(axis=1))))}),")
    worst = float(thm.cos_alpha[bad].min())
    print(f"  metric cosine at the failing pairs down to {worst:.4f}")

    # the assembled edge system tells the same story globally
    rep = mmatrix_audit(schur_closed_form(mesh, field))
    print(f"  assembled system: {len(rep.offdiag_violations)} positive "
          f"off-diagonal entries, monotone inverse: {bool(rep.inv_pass)}")


if __name__ == "__main__":
    main()
