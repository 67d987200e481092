"""Everything the method does on a single triangle, printed.

Walks the unit right triangle through the whole local pipeline: geometry,
the weak-gradient representation of the four basis functions, the local
Gram matrix of the weak gradients (computed here by quadrature, matching
the closed forms the assembler uses), the condensed edge-only fragment,
and finally the metric angles that decide the maximum-principle verdict --
once for the identity tensor and once for a strongly coupled one, where
the right angle turns obtuse in the metric and the sign condition breaks.
"""

import numpy as np

from wgdmp.assembly import ElementData
from wgdmp.dmp import PAIRS, check_theorem_dmp
from wgdmp.mesh import trimesh_from_arrays
from wgdmp.tensor import ConstantField, quadrature

COORDS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
COUPLED = np.array([[500.5, 499.5], [499.5, 500.5]])


def main():
    np.set_printoptions(precision=4, suppress=True)
    mesh = trimesh_from_arrays(COORDS, [[0, 1, 2]])
    # row 0 of the per-element data: the mesh has one element
    data = ElementData(mesh, ConstantField(np.eye(2)))
    area, cen, c_k = data.area[0], data.cen[0], data.c_k[0]

    print("unit right triangle")
    print(f"  area {area}, centroid {cen}, diameter {data.diam[0]:.4f}")
    print(f"  edge lengths {data.lens[0]}")
    print(f"  outward normals\n{data.nrm[0]}")
    print(f"  second moment about the centroid s_iso = {data.s_iso[0]:.6f} "
          f"(= 1/18), scaling c_k = {c_k} (= 2*area/s_iso)")

    # each weak gradient is  radial * (x - centroid) + constant part:
    # -c_k (x - x_K) for the element, (c_k/3)(x - x_K) + |e_l|/|K| n_l
    # for edge l
    names = ["element bubble", "edge 0 (bottom)", "edge 1 (hyp)",
             "edge 2 (left)"]
    basis = [(-c_k, np.zeros(2))] + [
        (c_k / 3.0, data.lens[0, l] / area * data.nrm[0, l])
        for l in range(3)]
    print("\nweak gradients, radial coefficient | constant part:")
    for name, (radial, const) in zip(names, basis):
        print(f"  {name:16} {radial:+6.1f} | {const}")

    # Gram matrix of the weak gradients in the identity metric; a degree-2
    # rule integrates these linear-times-linear products exactly
    rule = quadrature(2)
    pts = rule.points @ COORDS
    vals = np.stack([radial * (pts - cen) + const
                     for radial, const in basis])
    gram = np.array([[area * rule.weights @ (vi * vj).sum(axis=1)
                      for vj in vals] for vi in vals])
    print("\nlocal matrix [bubble, edge 0, edge 1, edge 2], identity tensor:")
    print(gram)
    m00, m0b, mbb = gram[0, 0], gram[0, 1:], gram[1:, 1:]
    schur = mbb - np.outer(m0b, m0b) / m00
    print("condensed edge fragment mbb - m0b m0b^T / m00:")
    print(schur)
    print("  (row sums vanish; the edge0-edge2 entry of the uncondensed")
    print("   block is +2, which is why the unreduced sign audit rejects")
    print("   right angles even though the condensed fragment is fine)")

    print("\nmetric angles (cosine measured in the inverse-tensor metric):")
    for label, a in (("identity", np.eye(2)),
                     (f"coupled {COUPLED.tolist()}", COUPLED)):
        rep = check_theorem_dmp(ElementData(mesh, ConstantField(a)))
        print(f"  {label}")
        for (i, j), cosv, inner in zip(PAIRS, rep.cos_alpha[0],
                                        rep.pair_lhs[0]):
            verdict = "ok" if inner <= 1e-12 else "VIOLATES"
            print(f"    edges {i}-{j}: cos = {cosv:+.6f}, "
                  f"pairing = {inner:+.4f}  {verdict}")
    print("\nthe right angle (edges 0-2) is exactly borderline for the")
    print("identity and flips to obtuse (cos < 0, positive pairing) under")
    print("the coupled tensor; mirroring the triangle fixes the sign.")


if __name__ == "__main__":
    main()
