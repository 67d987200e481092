"""Variable coefficients: a sufficient audit, a sharp counterexample.

The built-in ring benchmark concentrates anisotropy 1 : (1 + gamma) on a
ring around a pole left of the unit square.  Part one runs it as shipped:
the variable-coefficient audit flags many elements (its conditions are
sufficient, not necessary), yet the computed solution stays within the
boundary-data bounds on these meshes.  Part two mirrors the tensor's
orientation field across the horizontal through the pole -- same
eigenvalues, same smoothness, opposite coupling sign -- and the coarse-mesh
solution genuinely overshoots, with the verdict listing the exact edges.
Refinement shrinks the violation, the classic mesh-dependent behaviour the
audit is there to warn about.
"""

import numpy as np

from wgdmp.assembly import ElementData
from wgdmp.dmp import check_theorem_general, solution_verdict
from wgdmp.mesh import generate_structured
from wgdmp.solve import solve_problem
from wgdmp.tensor import FunctionalField, example_fields


def mirrored_ring_field(gamma):
    """The built-in ring tensor with the orientation mirrored (the radial
    eigenvector carries eigenvalue 1, the tangential one 1 + gamma at the
    ring): only the sign of the off-diagonal entry changes."""
    def func(x, y):
        dx = np.asarray(x, dtype=float) + 0.1
        dy = np.asarray(y, dtype=float) - 0.5
        r = np.sqrt(dx * dx + dy * dy)
        c, s = dx / r, dy / r
        k2 = 1.0 + gamma * np.exp(-200.0 * (r - 0.5) ** 2)
        out = np.empty(r.shape + (2, 2))
        out[..., 0, 0] = c * c + k2 * s * s
        out[..., 0, 1] = out[..., 1, 0] = (1.0 - k2) * s * c
        out[..., 1, 1] = s * s + k2 * c * c
        return out
    return FunctionalField(func)


def sweep(label, fields, f, g, sizes=(8, 16, 32)):
    print(label)
    print(f"  {'gamma':>5} {'n':>3} {'flagged':>8} {'max':>9} {'min':>8}"
          f"  verdict")
    for gamma, field in fields:
        for n in sizes:
            mesh = generate_structured("mesh45", n, n)
            data = ElementData(mesh, field)
            rep = check_theorem_general(data)
            sol = solve_problem(data, f=f, g=g)
            v = solution_verdict(sol)
            state = "in bounds" if v.passed else \
                f"OVERSHOOT ({len(v.violating_edges)} edges)"
            print(f"  {gamma:5g} {n:3d} "
                  f"{rep.flagged_elements.size:4d}/{mesh.n_elements:<4d}"
                  f"{v.max_ub:9.5f} {v.min_ub:8.4f}  {state}")
    print()


def main():
    _, f, g = example_fields("example52", gamma=99.0)

    fields = [(gamma, example_fields("example52", gamma=gamma)[0])
              for gamma in (20.0, 99.0)]
    sweep("built-in ring tensor (boundary data in [-1, 1]):", fields, f, g)

    fields = [(gamma, mirrored_ring_field(gamma)) for gamma in (20.0, 99.0)]
    sweep("mirrored orientation, same eigenvalues:", fields, f, g)

    print("the audit cannot tell these two apart by much -- both violate")
    print("its sufficient conditions near the ring -- but only the mirrored")
    print("field actually breaks the bounds here, and only until the mesh")
    print("resolves the ring.  That is what makes a certified-safe mesh")
    print("(audit passes) worth having: no amount of refinement luck is")
    print("needed.  See anisotropy_bounds.py for meshes that pass.")


if __name__ == "__main__":
    main()
