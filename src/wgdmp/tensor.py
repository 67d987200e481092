"""Diffusion tensor fields and triangle quadrature.

A tensor field assigns a symmetric positive definite 2x2 matrix to every
point of the domain.  Three variants exist: spatially constant, constant
per element (one matrix per triangle), and functional (an arbitrary
callable, optionally with an analytic Lipschitz bound).  Every entry is
checked when it is read: non-finite, unsymmetric or indefinite matrices
raise :class:`FieldValidityError`.

Fields are consumed through :class:`wgdmp.assembly.ElementData`, which
reduces a field to a handful of per-element integrals: the averaged
matrix, the weighted second moment about the centroid, the edge moments
and the normal pairings.  Constant and per-element-constant fields are
integrated exactly there; functional fields use a rule from
:func:`quadrature` of degree >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldValidityError",
    "QuadratureRule",
    "quadrature",
    "TensorField",
    "ConstantField",
    "PiecewiseConstantField",
    "FunctionalField",
    "load_piecewise_field",
    "example_fields",
]


class FieldValidityError(Exception):
    """Raised when a tensor field is not symmetric positive definite."""


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric triangle quadrature in barycentric coordinates.

    ``points`` is ``(n, 3)`` with rows summing to one and ``weights`` is
    ``(n,)`` summing to one; integrals are ``area * sum_q w_q f(x_q)``.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


# Degree-4 six point rule: two symmetry orbits.  The orbit parameters are
# the standard ones; weights are normalized to sum to one exactly.
_D4_A1 = 0.44594849091596488631832925388305199
_D4_W1 = 0.22338158967801146569500700843312280
_D4_A2 = 0.09157621350977074345957146340220151
_D4_W2 = 0.10995174365532186763832632490021053


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def quadrature(degree: int) -> QuadratureRule:
    """Return the symmetric rule of the requested polynomial degree.

    Supported degrees: 1 (centroid), 2 (edge midpoints), 4 (six points).
    """
    if degree == 1:
        pts = np.array([[1.0, 1.0, 1.0]]) / 3.0
        wts = np.array([1.0])
    elif degree == 2:
        pts = np.array([[0.5, 0.5, 0.0],
                        [0.0, 0.5, 0.5],
                        [0.5, 0.0, 0.5]])
        wts = np.full(3, 1.0 / 3.0)
    elif degree == 4:
        pts = np.array(_orbit3(_D4_A1) + _orbit3(_D4_A2))
        wts = np.array([_D4_W1] * 3 + [_D4_W2] * 3)
        wts = wts / wts.sum()
    else:
        raise ValueError(f"unsupported quadrature degree {degree}; "
                         f"available degrees are 1, 2 and 4")
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(degree=degree, points=pts, weights=wts)


# ---------------------------------------------------------------------------
# fields

def _check_spd(mats: np.ndarray, where: str) -> None:
    """Validate finiteness, symmetry and positive definiteness of
    ``(..., 2, 2)`` matrices."""
    m = np.asarray(mats, dtype=float)
    if not np.all(np.isfinite(m)):
        raise FieldValidityError(f"tensor has non-finite entries {where}")
    asym = np.abs(m[..., 0, 1] - m[..., 1, 0])
    scale = np.abs(m).reshape(*m.shape[:-2], 4).max(axis=-1)
    if np.any(asym > 1e-12 * np.maximum(scale, 1e-300)):
        raise FieldValidityError(f"tensor not symmetric {where}")
    tr = m[..., 0, 0] + m[..., 1, 1]
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.any(tr <= 0) or np.any(det <= 0):
        raise FieldValidityError(f"tensor not positive definite {where}")


class TensorField:
    """Base class; see :class:`ConstantField`, :class:`PiecewiseConstantField`
    and :class:`FunctionalField`."""

    #: True when the field is a single constant matrix on each element,
    #: which lets the moments be computed exactly without quadrature.
    constant_per_element: bool = False

    def matrix_on(self, element: int) -> np.ndarray:
        """The element's constant matrix (constant-per-element fields only)."""
        raise NotImplementedError

    def sample(self, points: np.ndarray, element: int | None = None) -> np.ndarray:
        """Evaluate at ``(..., 2)`` points, returning ``(..., 2, 2)``."""
        raise NotImplementedError

    @property
    def lipschitz_bound(self):
        """Analytic Lipschitz bound if known, else ``None``."""
        return None


class ConstantField(TensorField):
    """One SPD matrix everywhere."""

    constant_per_element = True

    def __init__(self, matrix):
        self.matrix = np.array(matrix, dtype=float)
        if self.matrix.shape != (2, 2):
            raise FieldValidityError(f"expected a 2x2 matrix, "
                                     f"got shape {self.matrix.shape}")
        _check_spd(self.matrix, "for the constant field")
        self.matrix.setflags(write=False)

    def matrix_on(self, element):
        return self.matrix

    def sample(self, points, element=None):
        pts = np.asarray(points)
        return np.broadcast_to(self.matrix, pts.shape[:-1] + (2, 2))

    @property
    def lipschitz_bound(self):
        return 0.0


class PiecewiseConstantField(TensorField):
    """One SPD matrix per element, indexed by triangle number."""

    constant_per_element = True

    def __init__(self, matrices):
        self.matrices = np.array(matrices, dtype=float)
        if self.matrices.ndim != 3 or self.matrices.shape[1:] != (2, 2):
            raise FieldValidityError(f"expected (T, 2, 2) matrices, "
                                     f"got shape {self.matrices.shape}")
        _check_spd(self.matrices, "in the per-element table")
        self.matrices.setflags(write=False)

    @property
    def n_elements(self):
        return self.matrices.shape[0]

    def matrix_on(self, element):
        return self.matrices[element]

    def sample(self, points, element=None):
        if element is None:
            raise ValueError("per-element field needs an element index")
        pts = np.asarray(points)
        return np.broadcast_to(self.matrices[element],
                               pts.shape[:-1] + (2, 2))

    @property
    def lipschitz_bound(self):
        return 0.0


class FunctionalField(TensorField):
    """Tensor given by a callable ``func(x, y) -> 2x2 entries``.

    The callable must accept numpy arrays ``x, y`` of any common shape and
    return an array broadcastable to ``x.shape + (2, 2)``.  Positive
    definiteness is checked wherever the field is actually sampled.  Pass
    ``lip`` when an analytic Lipschitz bound (of the Frobenius norm) is
    available; otherwise :func:`wgdmp.dmp.check_theorem_general` uses a
    finite-difference estimate over the quadrature points.
    """

    constant_per_element = False

    def __init__(self, func, lip: float | None = None):
        self.func = func
        self._lip = None if lip is None else float(lip)

    def sample(self, points, element=None):
        pts = np.asarray(points, dtype=float)
        out = np.asarray(self.func(pts[..., 0], pts[..., 1]), dtype=float)
        if out.shape != pts.shape[:-1] + (2, 2):
            out = np.broadcast_to(out, pts.shape[:-1] + (2, 2))
        _check_spd(out, "at sampled points")
        return out

    @property
    def lipschitz_bound(self):
        return self._lip


def load_piecewise_field(path, n_elements: int | None = None) -> PiecewiseConstantField:
    """Read a per-element field from a text file.

    One line per element with three numbers ``a11 a12 a22`` (the matrix is
    symmetric); ``#`` comments and blank lines are skipped.  When
    ``n_elements`` is given the line count must match it.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 3:
                raise FieldValidityError(
                    f"{path}:{lineno}: need 'a11 a12 a22', got {body!r}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise FieldValidityError(
                    f"{path}:{lineno}: bad number in {body!r}") from exc
            if not np.all(np.isfinite(rows[-1])):
                raise FieldValidityError(
                    f"{path}:{lineno}: non-finite number in {body!r}")
    if n_elements is not None and len(rows) != n_elements:
        raise FieldValidityError(
            f"{path}: {len(rows)} field lines for {n_elements} elements")
    vals = np.array(rows)
    mats = np.empty((len(rows), 2, 2))
    mats[:, 0, 0] = vals[:, 0]
    mats[:, 0, 1] = mats[:, 1, 0] = vals[:, 1]
    mats[:, 1, 1] = vals[:, 2]
    return PiecewiseConstantField(mats)


# ---------------------------------------------------------------------------
# built-in benchmark problems

def _example51_tensor():
    return ConstantField([[500.5, 499.5], [499.5, 500.5]])


def _example51_boundary(x, y):
    """Piecewise boundary data on (0, 16)^2: clamped to 1 on most of the
    top and left sides, ramped linearly to 0 near two corners, 0 elsewhere."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    top = np.isclose(y, 16.0, rtol=0.0, atol=1e-12)
    left = np.isclose(x, 0.0, rtol=0.0, atol=1e-12)
    g = np.where(top & (x <= 14.0), 1.0, g)
    g = np.where(top & (x > 14.0), 8.0 - 0.5 * x, g)
    g = np.where(left & (y >= 2.0), 1.0, g)
    g = np.where(left & (y < 2.0), 0.5 * y, g)
    return g


def _example52_tensor(gamma: float) -> FunctionalField:
    """Anisotropy ratio 1 : (1 + gamma) concentrated on a ring of radius
    0.5 around the pole (-0.1, 0.5), axes tied to the polar angle."""
    def func(x, y):
        dx = np.asarray(x, dtype=float) + 0.1
        dy = np.asarray(y, dtype=float) - 0.5
        r = np.sqrt(dx * dx + dy * dy)
        theta = np.arctan2(dy, dx)
        c = np.cos(theta)
        s = np.sin(theta)
        k1 = np.ones_like(r)
        k2 = 1.0 + gamma * np.exp(-200.0 * (r - 0.5) ** 2)
        out = np.empty(r.shape + (2, 2))
        out[..., 0, 0] = k1 * c * c + k2 * s * s
        out[..., 0, 1] = out[..., 1, 0] = (k2 - k1) * s * c
        out[..., 1, 1] = k1 * s * s + k2 * c * c
        return out
    return FunctionalField(func)


def example_fields(name: str, gamma: float | None = None):
    """Return ``(field, f, g)`` for a built-in benchmark problem.

    ``example51``: constant strongly anisotropic tensor on (0, 16)^2 with
    piecewise linear boundary data in [0, 1] and zero source.

    ``example52``: identity-plus-Gaussian-ring tensor on (0, 1)^2 (pass
    ``gamma >= 0`` for the ring amplitude), boundary data
    ``sin(pi (x + 0.5))`` and zero source.

    ``f`` is ``None`` for a zero source; ``g`` is a vectorized callable.
    """
    if name == "example51":
        if gamma is not None:
            raise ValueError("example51 takes no gamma")
        return _example51_tensor(), None, _example51_boundary
    if name == "example52":
        if gamma is None:
            raise ValueError("example52 needs gamma")
        gamma = float(gamma)
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        def g(x, y):
            return np.sin(np.pi * (np.asarray(x, dtype=float) + 0.5))
        return _example52_tensor(gamma), None, g
    raise ValueError(f"unknown example {name!r}; "
                     f"available: example51, example52")
