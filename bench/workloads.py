"""The benchmark's workloads: CLI arguments, references and output checks.

Each workload is one ``wgdmp`` command.  Its reference is computed apart
from the command, by a path the command does not take, and its check
compares every operation's exit code, printed verdicts and files against
that reference or against the paper's figures.  A check returns a list of
problems; an empty list means the operation's outputs are correct.

``make_workloads`` takes the problem sizes so that the self-test can run
every check on small problems; the benchmark uses the defaults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GAMMA = 99.0
RING_DOMAIN = (0.0, 0.0, 1.0, 1.0)
PAIRS = ((0, 1), (0, 2), (1, 2))
#: Vertex of a triangle shared by local edges i = (i, i+1) and j = (j, j+1).
SHARED_VERTEX = {(0, 1): 1, (0, 2): 0, (1, 2): 2}
ANGLE_SAMPLE = 256
BOUND_SLACK = 1e-8

#: Example 1 of the paper on mesh135: (max u_b, min u_b, max u_0, min u_0).
PAPER_MESH135 = {
    8: (1.038, -5.14e-2, 1.019, -2.57e-2),
    16: (1.041, -5.01e-2, 1.026, -3.20e-2),
    32: (1.035, -4.05e-2, 1.028, -3.36e-2),
    64: (1.028, -3.19e-2, 1.027, -3.09e-2),
}
PAPER_TOL = 5e-3

# Degree-4 six-point triangle rule (Dunavant 1985): two orbits of
# barycentric points (1 - 2a, a, a) and their weights.
_D4 = ((0.445948490915965, 0.223381589678011),
       (0.091576213509771, 0.109951743655322))


@dataclass(frozen=True)
class Outcome:
    """What one operation left behind."""

    rc: int
    stdout: str
    out_dir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    reference: Callable[[], dict] | None
    check: Callable[[dict, Outcome, object], list]

    def verify(self, ref, out: Outcome, rng) -> list:
        """The check's problems; missing or unreadable output is one."""
        try:
            return self.check(ref, out, rng)
        except (ValueError, OSError) as exc:
            return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# shared helpers

def _read_rows(path: Path, header: str) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return lines[1:]


def _ring_problem(size):
    from wgdmp.mesh import generate_structured
    from wgdmp.tensor import example_fields
    field, f, _ = example_fields("example52", gamma=GAMMA)
    return generate_structured("mesh45", size, size, RING_DOMAIN), field, f


def _ring_boundary(x, y):
    """Dirichlet data of the paper's Example 2."""
    return np.sin(np.pi * (x + 0.5))


def _edge_averages(ends, g):
    """Two-point Gauss average of ``g`` over segments ``ends`` (N, 2, 2)."""
    a, b = ends[:, 0], ends[:, 1]
    t = 0.5 / np.sqrt(3.0)
    p, q = (0.5 - t) * a + (0.5 + t) * b, (0.5 + t) * a + (0.5 - t) * b
    return 0.5 * (g(p[:, 0], p[:, 1]) + g(q[:, 0], q[:, 1]))


def metric_cosines(coords, field):
    """Cosine of each vertex angle of each triangle in the metric of
    ``a_avg^-1``, with ``a_avg`` the degree-4 average of the field.

    ``coords`` is (T, 3, 2); the result is (T, 3) in :data:`PAIRS` order,
    the angle for pair (i, j) being the one at their shared vertex.
    """
    bary, w = [], []
    for a, wt in _D4:
        b = 1.0 - 2.0 * a
        bary += [(b, a, a), (a, b, a), (a, a, b)]
        w += [wt] * 3
    qp = np.einsum("qv,tvd->tqd", np.array(bary), coords)
    a_avg = np.einsum("q,tqab->tab", np.array(w), field.sample(qp))
    metric = np.linalg.inv(a_avg)
    out = np.empty(coords.shape[:2])
    for p, pair in enumerate(PAIRS):
        s = SHARED_VERTEX[pair]
        u = coords[:, (s + 1) % 3] - coords[:, s]
        v = coords[:, (s + 2) % 3] - coords[:, s]
        uv = np.einsum("ta,tab,tb->t", u, metric, v)
        uu = np.einsum("ta,tab,tb->t", u, metric, u)
        vv = np.einsum("ta,tab,tb->t", v, metric, v)
        out[:, p] = uv / np.sqrt(uu * vv)
    return out


# ---------------------------------------------------------------------------
# ring-solve

def ring_reference(size):
    """Direct sparse solve of the closed-form reduced system."""
    import scipy.sparse.linalg as spla
    from wgdmp.assembly import schur_closed_form
    from wgdmp.tensor import quadrature
    mesh, field, f = _ring_problem(size)
    red = schur_closed_form(mesh, field, quadrature(4), f=f)
    gh = _edge_averages(mesh.vertices[mesh.boundary_edges], _ring_boundary)
    ub = spla.spsolve(red.a_mat.tocsc(), red.rhs - red.a_bdry @ gh)
    return {"n_elements": mesh.n_elements, "n_vertices": mesh.n_vertices,
            "ub": ub, "gh": gh}


def check_ring(ref, out: Outcome, rng) -> list:
    problems = []
    if out.rc != 0:
        problems.append(f"exit code {out.rc}, expected 0")
    groups = {"element": [], "interior_edge": [], "boundary_edge": []}
    for row in _read_rows(out.out_dir / "solution.csv", "kind,index,value"):
        kind, index, value = row.split(",")
        if kind not in groups or int(index) != len(groups[kind]):
            return problems + [f"solution.csv: unexpected row {row!r}"]
        groups[kind].append(float(value))
    ub, gb = np.array(groups["interior_edge"]), np.array(groups["boundary_edge"])
    want = {"element": int(ref["n_elements"]), "interior_edge": ref["ub"].size,
            "boundary_edge": ref["gh"].size}
    for kind, n in want.items():
        if len(groups[kind]) != n:
            problems.append(f"solution.csv: {len(groups[kind])} {kind} rows, "
                            f"expected {n}")
    if problems:
        return problems
    err = np.abs(ub - ref["ub"]).max() / np.abs(ref["ub"]).max()
    if not err <= 1e-8:
        problems.append(f"interior edges differ from the direct solve by "
                        f"{err:.3g} relative (limit 1e-8)")
    berr = np.abs(gb - ref["gh"]).max()
    if not berr <= 1e-13:
        problems.append(f"boundary edges differ from the averages of g by "
                        f"{berr:.3g}")
    vert = _read_rows(out.out_dir / "vertices.csv", "x,y,value")
    if len(vert) != int(ref["n_vertices"]):
        problems.append(f"vertices.csv: {len(vert)} rows, expected "
                        f"{int(ref['n_vertices'])}")
    else:
        vals = np.array([float(r.rsplit(",", 1)[1]) for r in vert])
        lo, hi = min(ub.min(), gb.min()), max(ub.max(), gb.max())
        if vals.min() < lo - 1e-12 or vals.max() > hi + 1e-12:
            problems.append("vertices.csv: vertex averages leave the range "
                            "of the edge values")
    return problems


# ---------------------------------------------------------------------------
# audit-ring

def audit_reference(size):
    """Metric cosines of every element and the positive off-diagonal count
    of the closed-form reduced matrix (the audit reduces algebraically)."""
    from wgdmp.assembly import schur_closed_form
    from wgdmp.tensor import quadrature
    mesh, field, _ = _ring_problem(size)
    a = schur_closed_form(mesh, field, quadrature(4)).a_mat.tocoo()
    tol = 1e-12 * np.abs(a.data).max()
    positive = np.count_nonzero((a.row != a.col) & (a.data > tol))
    return {"n_elements": mesh.n_elements, "positive_offdiag": positive,
            "cos": metric_cosines(mesh.vertices[mesh.triangles], field)}


_VERDICTS = (
    ("element conditions", re.compile(r"^element conditions: (\S+) ", re.M)),
    ("matrix audit", re.compile(r"^matrix audit: (\S+) \((\d+) positive "
                                r"off-diagonals", re.M)),
    ("unreduced sign condition",
     re.compile(r"^unreduced sign condition: (\S+) ", re.M)),
)


def check_audit(ref, out: Outcome, rng) -> list:
    problems = []
    if out.rc != 1:
        problems.append(f"exit code {out.rc}, expected 1")
    for label, pattern in _VERDICTS:
        m = pattern.search(out.stdout)
        if m is None:
            problems.append(f"no {label} verdict printed")
            continue
        if m.group(1) != "FAIL":
            problems.append(f"{label}: {m.group(1)}, expected FAIL")
        if label == "matrix audit" and int(m.group(2)) != ref["positive_offdiag"]:
            problems.append(f"{m.group(2)} positive off-diagonals printed, "
                            f"{int(ref['positive_offdiag'])} in the "
                            f"closed-form matrix")
    n_rows = 3 * int(ref["n_elements"])
    header = "element,pair,cos_alpha,n_inner,pass"
    rows = _read_rows(out.out_dir / "angle_report.csv", header)
    if len(rows) != n_rows:
        return problems + [f"angle_report.csv: {len(rows)} rows, "
                           f"expected {n_rows}"]
    for r in sorted(rng.sample(range(n_rows), min(ANGLE_SAMPLE, n_rows))):
        t, p = divmod(r, 3)
        element, pair, cos = rows[r].split(",")[:3]
        if (int(element), pair) != (t, "%d-%d" % PAIRS[p]):
            problems.append(f"angle_report.csv row {r}: {rows[r]!r}")
        elif not abs(float(cos) - ref["cos"][t, p]) <= 1e-9:
            problems.append(f"angle_report.csv row {r}: cos_alpha {cos}, "
                            f"recomputed {float(ref['cos'][t, p])!r}")
    full = _read_rows(out.out_dir / "full_system.csv", header)
    if len(full) != n_rows:
        problems.append(f"full_system.csv: {len(full)} rows, "
                        f"expected {n_rows}")
    return problems


# ---------------------------------------------------------------------------
# aniso-sweep

def _vertex_count(kind, n):
    return (n + 1) ** 2 + (n * n if kind == "mesh90" else 0)


def make_sweep_check(sizes, kinds):
    def check_sweep(ref, out: Outcome, rng) -> list:
        problems = []
        if out.rc != 0:
            problems.append(f"exit code {out.rc}, expected 0")
        table = _read_rows(out.out_dir / "example1_table.csv",
                           "kind,size,max_ub,min_ub,max_u0,min_u0")
        audit = _read_rows(out.out_dir / "example1_audit.csv",
                           "kind,size,theorem_pass,verdict_pass")
        expected = [(k, n) for k in kinds for n in sizes]
        if len(table) != len(expected) or len(audit) != len(expected):
            return problems + [f"{len(table)} table and {len(audit)} audit "
                               f"rows, expected {len(expected)}"]
        for (kind, n), trow, arow in zip(expected, table, audit):
            tk, tn, *ext = trow.split(",")
            ak, an, thm, _ = arow.split(",")
            if (tk, int(tn), ak, int(an)) != (kind, n, kind, n):
                problems.append(f"row for {kind} {n}: {trow!r} / {arow!r}")
                continue
            ext = [float(v) for v in ext]
            if kind == "mesh135":
                if thm != "0":
                    problems.append(f"{kind} {n}: theorem verdict y, "
                                    f"expected n")
                worst = max(abs(a - b) for a, b in zip(ext, PAPER_MESH135[n]))
                if not worst <= PAPER_TOL:
                    problems.append(f"{kind} {n}: extrema {ext} differ from "
                                    f"the paper's by {worst:.3g}")
            else:
                if thm != "1":
                    problems.append(f"{kind} {n}: theorem verdict n, "
                                    f"expected y")
                if not all(-BOUND_SLACK <= v <= 1 + BOUND_SLACK for v in ext):
                    problems.append(f"{kind} {n}: extrema {ext} leave [0, 1]")
            vfile = out.out_dir / f"example1_{kind}_{n}_vertices.csv"
            if not vfile.exists():
                problems.append(f"{vfile.name} missing")
            elif len(_read_rows(vfile, "x,y,value")) != _vertex_count(kind, n):
                problems.append(f"{vfile.name}: wrong row count")
        return problems
    return check_sweep


# ---------------------------------------------------------------------------

def make_workloads(ring_size=64, audit_size=192, sweep_sizes=(16, 32, 64)):
    """The workloads by name, at the given problem sizes."""
    kinds = ("mesh45", "mesh90", "mesh135")
    ring = ("--mesh", "mesh45", "--field", "example52", "--gamma", "%g" % GAMMA)
    return {
        "ring-solve": Workload(
            "ring-solve",
            ("solve", "--size", str(ring_size)) + ring,
            lambda: ring_reference(ring_size), check_ring),
        "audit-ring": Workload(
            "audit-ring",
            ("audit", "--size", str(audit_size)) + ring + ("--full-system",),
            lambda: audit_reference(audit_size), check_audit),
        "aniso-sweep": Workload(
            "aniso-sweep",
            ("example1", "--sizes", ",".join(map(str, sweep_sizes)),
             "--kinds", ",".join(kinds)),
            None, make_sweep_check(tuple(sweep_sizes), kinds)),
    }
