"""Lowest-order weak Galerkin discretization of anisotropic diffusion
with a discrete maximum principle audit engine.

The pieces, bottom to top: :mod:`wgdmp.mesh` (triangulations with
classified edge topology), :mod:`wgdmp.tensor` (SPD tensor fields and
quadrature), :mod:`wgdmp.assembly` (the per-element data
:class:`ElementData`, closed-form system blocks and the Schur reduction
onto interior edges), :mod:`wgdmp.solve` (SPD solvers and
postprocessing), :mod:`wgdmp.dmp` (maximum-principle audits), and
:mod:`wgdmp.cli` (command line front end).  Build one
:class:`ElementData` per mesh and field and pass it to
:func:`assemble`, :func:`solve_problem` and the audits.
"""

from .mesh import (TriMesh, MeshError, MeshFormatError,
                   DegenerateElementError, generate_structured,
                   import_mesh, export_mesh, trimesh_from_arrays)
from .tensor import (TensorField, ConstantField, PiecewiseConstantField,
                     FunctionalField, FieldValidityError, QuadratureRule,
                     quadrature, example_fields, load_piecewise_field)
from .assembly import (ElementData, WgSystem, ReducedSystem, assemble,
                       schur_closed_form, schur_algebraic,
                       export_matrix_triplets, boundary_averages)
from .solve import (SolverConfig, SolverError, NonConvergenceError,
                    WgSolution, solve_reduced, recover_interior,
                    vertex_average, solve_problem)
from .dmp import (check_theorem_dmp, check_theorem_general,
                  check_full_system_condition, mmatrix_audit,
                  solution_verdict, PAIRS)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
