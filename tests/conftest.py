"""Shared test helpers: exact triangle integration and random generators.

The exact integral oracle expands monomials in barycentric coordinates
and uses the factorial formula
``int_K l1^a l2^b l3^c = a! b! c! / (a+b+c+2)! * 2|K|`` — independent of
any quadrature rule in the package.  :func:`quad_integrate` applies a
package rule to one triangle, so that the rules can be checked against
that oracle.
"""

from math import factorial

import numpy as np

from wgdmp.assembly import ElementData
from wgdmp.mesh import trimesh_from_arrays
from wgdmp.tensor import ConstantField


def exact_monomial(coords, a, b):
    """Exact integral of x^a y^b over the triangle with given vertices."""
    (x1, y1), (x2, y2), (x3, y3) = [tuple(map(float, c)) for c in coords]
    area2 = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))
    total = 0.0
    for i in range(a + 1):
        for j in range(a - i + 1):
            k = a - i - j
            ca = (factorial(a) // (factorial(i) * factorial(j) * factorial(k))
                  * x1 ** i * x2 ** j * x3 ** k)
            if ca == 0.0:
                continue
            for p in range(b + 1):
                for q in range(b - p + 1):
                    r = b - p - q
                    cb = (factorial(b) // (factorial(p) * factorial(q)
                                           * factorial(r))
                          * y1 ** p * y2 ** q * y3 ** r)
                    if cb == 0.0:
                        continue
                    total += (ca * cb * factorial(i + p) * factorial(j + q)
                              * factorial(k + r) / factorial(a + b + 2))
    return total * area2


def poly_mul(p, q):
    """Multiply sparse bivariate polynomials given as {(i, j): coeff}."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def poly_integrate(p, coords):
    """Exact integral of a {(i, j): coeff} polynomial over a triangle."""
    return sum(c * exact_monomial(coords, i, j) for (i, j), c in p.items())


def random_triangle(rng, lo=0.1, hi=1.1, min_area=0.02):
    """Counterclockwise triangle with vertices in [lo, hi]^2, not too thin."""
    while True:
        pts = rng.uniform(lo, hi, size=(3, 2))
        area = 0.5 * ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                      - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0]))
        if area < 0:
            pts = pts[[0, 2, 1]]
            area = -area
        if area >= min_area:
            return pts


def random_spd(rng, lam_lo=0.5, lam_hi=50.0):
    """Random SPD 2x2 matrix via rotation times positive diagonal."""
    phi = rng.uniform(0.0, np.pi)
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    lam = rng.uniform(lam_lo, lam_hi, size=2)
    return rot @ np.diag(lam) @ rot.T


def triangle_area(coords):
    (x1, y1), (x2, y2), (x3, y3) = np.asarray(coords, dtype=float)
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1))


def quad_integrate(rule, coords, values):
    """Integral over a triangle from ``values`` (shape ``(n, ...)``) at the
    rule's points ``rule.points @ coords``."""
    return triangle_area(coords) * np.tensordot(rule.weights, values, axes=1)


def single_element(coords, field=None, rule=None):
    """ElementData of a one-triangle mesh (identity tensor by default)."""
    mesh = trimesh_from_arrays(coords, [[0, 1, 2]])
    return ElementData(mesh, field or ConstantField(np.eye(2)), rule)
