"""Spans and counters around the public calls of the wgdmp modules.

The program itself is not changed: :meth:`Tracer.installed` swaps each
public function listed in :data:`SPANS` for a wrapper, in every loaded
``wgdmp`` module that holds a reference to it, and restores the originals
on exit.  Each wrapper records a span (name, start, end, parent) and the
work counts of its layer.  A span's self time is its duration minus the
durations of its direct children; the operation's root span is ``cli``,
so the self times of one operation add up to its traced wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

#: (module, attribute, layer metric).  An attribute ``Class.method``
#: wraps the method on the class and on every subclass that defines it.
#: A name the module no longer has raises, rather than reading 0.
SPANS = (
    ("wgdmp.mesh", "generate_structured", "mesh.generate_s"),
    ("wgdmp.tensor", "TensorField.sample", "tensor.sample_s"),
    ("wgdmp.assembly", "assemble", "assembly.assemble_s"),
    ("wgdmp.assembly", "schur_algebraic", "assembly.reduce_s"),
    ("wgdmp.assembly", "schur_closed_form", "assembly.reduce_s"),
    ("wgdmp.solve", "solve_reduced", "solve.solve_s"),
    ("wgdmp.solve", "export_solution_csv", "solve.export_s"),
    ("wgdmp.solve", "export_vertex_csv", "solve.export_s"),
    ("wgdmp.solve", "vertex_average", "solve.export_s"),
    ("wgdmp.dmp", "check_theorem_dmp", "dmp.theorem_s"),
    ("wgdmp.dmp", "check_full_system_condition", "dmp.full_system_s"),
    ("wgdmp.dmp", "mmatrix_audit", "dmp.mmatrix_s"),
    ("wgdmp.dmp", "write_angle_report", "dmp.report_s"),
    ("wgdmp.dmp", "write_violations", "dmp.report_s"),
)

ROOT = "cli.self_s"
TIME_METRICS = tuple(dict.fromkeys([ROOT] + [m for _, _, m in SPANS]))
COUNT_METRICS = ("mesh.elements", "tensor.points_sampled",
                 "assembly.reduced_nnz", "solve.matvecs")


@dataclasses.dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    metric: str
    start: float
    end: float = 0.0
    child: float = 0.0      # time covered by direct children


class Tracer:
    """Collects spans and counts for the operations run under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: dict.fromkeys(COUNT_METRICS, 0))
        self._stack: list[Span] = []
        self._op = -1

    # -- spans -------------------------------------------------------------

    def _open(self, name, metric):
        parent = self._stack[-1] if self._stack else None
        span = Span(op=self._op, id=len(self.spans),
                    parent=parent.id if parent else None,
                    name=name, metric=metric, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start

    def count(self, metric, n):
        self.counts[self._op][metric] += int(n)

    @contextlib.contextmanager
    def operation(self, op):
        """Root span of one CLI operation."""
        self._op = op
        span = self._open("cli.main", ROOT)
        try:
            yield span
        finally:
            self._close(span)

    def op_wall(self, op):
        """Duration of operation ``op``'s root span."""
        return next(s.end - s.start for s in self.spans
                    if s.op == op and s.parent is None)

    def self_times(self, op):
        """Self time per layer metric for operation ``op``."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for s in self.spans:
            if s.op == op:
                out[s.metric] += (s.end - s.start) - s.child
        return out

    # -- wrappers ----------------------------------------------------------

    def _in_layer(self, metric):
        """True when the innermost open span (before this one) has ``metric``."""
        return len(self._stack) >= 2 and self._stack[-2].metric == metric

    def _counting_matrix(self, a_mat):
        tracer = self

        class CountingCSR(sp.csr_matrix):
            def _matmul_dispatch(self, other):
                if not sp.issparse(other):
                    tracer.count("solve.matvecs", _columns(other))
                return super()._matmul_dispatch(other)

            def _rmatmul_dispatch(self, other):
                if not sp.issparse(other):
                    tracer.count("solve.matvecs", _columns(other))
                return super()._rmatmul_dispatch(other)

        a = a_mat.tocsr()
        return CountingCSR((a.data, a.indices, a.indptr), shape=a.shape)

    def _counting_system(self, system):
        """A copy of a reduced system whose ``a_mat`` counts products."""
        return dataclasses.replace(
            system, a_mat=self._counting_matrix(system.a_mat))

    def _wrap(self, func, name, metric):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, metric)
            try:
                if metric == "solve.solve_s" and args:
                    # solve_reduced(system, ...): count products with a_mat
                    args = (tracer._counting_system(args[0]),) + args[1:]
                result = func(*args, **kwargs)
                if not tracer._in_layer(metric):
                    tracer._count_result(metric, args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        return wrapper

    def _count_result(self, metric, args, kwargs, result):
        if metric == "mesh.generate_s":
            self.count("mesh.elements", result.n_elements)
        elif metric == "tensor.sample_s":
            points = args[1] if len(args) > 1 else kwargs["points"]
            self.count("tensor.points_sampled", np.size(points) // 2)
        elif metric == "assembly.reduce_s":
            self.count("assembly.reduced_nnz", result.a_mat.nnz)

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        restore = []
        try:
            for modname, attr, metric in SPANS:
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    for cls in _with_subclasses(getattr(mod, cls_name)):
                        if meth in cls.__dict__:
                            orig = cls.__dict__[meth]
                            restore.append((cls, meth, orig))
                            setattr(cls, meth, self._wrap(
                                orig, f"{cls.__module__}.{cls.__name__}.{meth}",
                                metric))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, f"{modname}.{attr}", metric)
                for name, holder in list(sys.modules.items()):
                    if name != "wgdmp" and not name.startswith("wgdmp."):
                        continue
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            restore.append((holder, key, orig))
                            setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, orig in reversed(restore):
                setattr(holder, key, orig)


def _with_subclasses(cls):
    """``cls`` and all its subclasses."""
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _with_subclasses(sub) if c not in out]
    return out


def _columns(other):
    """Matrix-vector products in one product with a dense operand."""
    shape = np.shape(other)
    return 1 if len(shape) < 2 else shape[-1]
