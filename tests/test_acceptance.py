"""End-to-end checks of the package's headline numerical behaviors.

Each test prints a single ``ACCEPTANCE <n> (<label>): PASS|FAIL <detail>``
line directly to the terminal (bypassing capture) so a log scrape shows
the status of every criterion, then asserts the same conditions.
"""

import numpy as np
import pytest
from conftest import (exact_monomial, quad_integrate, random_spd,
                      random_triangle, single_element)
from test_assembly import _cr_stiffness

from wgdmp.assembly import (ElementData, assemble, schur_algebraic,
                            schur_closed_form)
from wgdmp.dmp import (check_full_system_condition, check_theorem_dmp,
                       check_theorem_general, mmatrix_audit, solution_verdict)
from wgdmp.mesh import generate_structured
from wgdmp.solve import SolverConfig, solve_problem
from wgdmp.tensor import (ConstantField, PiecewiseConstantField,
                          example_fields, quadrature)

SIZES = (8, 16, 32, 64)
GAMMAS = (20.0, 40.0, 60.0, 99.0)
DOMAIN51 = (0.0, 0.0, 16.0, 16.0)


def announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} "
              f"{detail}")


@pytest.fixture(scope="module")
def ex51_verdicts():
    field, f, g = example_fields("example51")
    out = {}
    for kind in ("mesh45", "mesh90", "mesh135"):
        for n in SIZES:
            mesh = generate_structured(kind, n, n, DOMAIN51)
            sol = solve_problem(ElementData(mesh, field), f=f, g=g)
            out[kind, n] = solution_verdict(sol)
    return out


@pytest.fixture(scope="module")
def ex52_verdicts():
    out = {}
    for gamma in GAMMAS:
        field, f, g = example_fields("example52", gamma=gamma)
        for kind in ("mesh45", "mesh90"):
            for n in SIZES:
                mesh = generate_structured(kind, n, n)
                sol = solve_problem(ElementData(mesh, field), f=f, g=g)
                out[kind, gamma, n] = solution_verdict(sol)
    return out


def test_acceptance_1_exact_bounds(ex51_verdicts, capsys):
    dev = 0.0
    for kind in ("mesh45", "mesh90"):
        for n in SIZES:
            v = ex51_verdicts[kind, n]
            dev = max(dev, abs(v.max_ub - 1.0), abs(v.max_u0 - 1.0),
                      abs(v.min_ub), abs(v.min_u0))
    ok = dev <= 1e-8
    announce(capsys, 1, "exact-bounds", ok,
             f"mesh45/mesh90 sizes {SIZES}: max deviation from [0,1] "
             f"extrema = {dev:.3g}")
    assert ok


def test_acceptance_2_overshoot_table(ex51_verdicts, capsys):
    expected = {
        "max_ub": [1.038, 1.041, 1.035, 1.028],
        "min_ub": [-5.14e-2, -5.01e-2, -4.05e-2, -3.19e-2],
        "max_u0": [1.019, 1.026, 1.028, 1.027],
        "min_u0": [-2.57e-2, -3.20e-2, -3.36e-2, -3.09e-2],
    }
    worst = 0.0
    for col, vals in expected.items():
        for n, want in zip(SIZES, vals):
            got = getattr(ex51_verdicts["mesh135", n], col)
            worst = max(worst, abs(got - want))
    ok = worst <= 5e-3
    announce(capsys, 2, "overshoot-table", ok,
             f"mesh135 extrema vs reference values: worst |error| = "
             f"{worst:.3g} (tolerance 5e-3)")
    assert ok


def test_acceptance_3_ring_tables(ex52_verdicts, capsys):
    problems = []

    spots = [
        ("mesh45", 99.0, 8, "max_ub", 1.051, 5e-3),
        ("mesh90", 20.0, 8, "max_ub", 1.0098, 2e-3),
        ("mesh45", 20.0, 8, "max_u0", 0.992, 3e-3),
    ]
    spot_text = []
    for kind, gamma, n, col, want, tol in spots:
        got = getattr(ex52_verdicts[kind, gamma, n], col)
        spot_text.append(f"{col}({kind},g={gamma:g},{n}x{n})={got:.6g} "
                         f"expected {want}+-{tol:g}")
        if abs(got - want) > tol:
            problems.append(spot_text[-1])

    min_dev = max(abs(v.min_ub + 1.0) for v in ex52_verdicts.values())
    if min_dev > 1e-8:
        problems.append(f"min_ub deviates from -1 by {min_dev:.3g}")

    growth = []
    for kind in ("mesh45", "mesh90"):
        for gamma in GAMMAS:
            seq = [ex52_verdicts[kind, gamma, n].max_ub for n in SIZES]
            if any(b > a + 1e-12 for a, b in zip(seq, seq[1:])):
                growth.append(f"{kind} g={gamma:g}: "
                              + ",".join(f"{v:.6g}" for v in seq))
    if growth:
        problems.append("max_ub not nonincreasing in size: "
                        + " | ".join(growth))

    ok = not problems
    announce(capsys, 3, "ring-tables", ok,
             "; ".join(spot_text)
             + f"; min_ub dev {min_dev:.2g}"
             + ("; " + problems[-1] if growth else "; maxima nonincreasing"))
    assert ok, "; ".join(problems)


def test_acceptance_4_angle_audits(capsys):
    field51, _, _ = example_fields("example51")
    thm_ok = True
    for n in SIZES:
        for kind, want in (("mesh45", True), ("mesh90", True),
                           ("mesh135", False)):
            mesh = generate_structured(kind, n, n, DOMAIN51)
            if check_theorem_dmp(
                    ElementData(mesh, field51)).passed is not want:
                thm_ok = False

    general_ok = True
    flagged_counts = []
    mesh = generate_structured("mesh45", 8, 8)
    cen_y = mesh.vertices[mesh.triangles].mean(axis=1)[:, 1]
    for gamma in GAMMAS:
        field, _, _ = example_fields("example52", gamma=gamma)
        rep = check_theorem_general(ElementData(mesh, field))
        flagged = np.zeros(mesh.n_elements, dtype=bool)
        flagged[rep.flagged_elements] = True
        strict = (cen_y < 0.5) & (rep.cos_min < -1e-12)
        flagged_counts.append(int(strict.sum()))
        if strict.sum() == 0 or not flagged[strict].all():
            general_ok = False

    ok = thm_ok and general_ok
    announce(capsys, 4, "angle-audits", ok,
             f"constant-tensor checker pass/fail by mesh kind at all sizes: "
             f"{'ok' if thm_ok else 'WRONG'}; ring tensor flags all "
             f"obtuse-metric sub-midline elements at every gamma "
             f"({flagged_counts} flagged): {'ok' if general_ok else 'WRONG'}")
    assert ok


def test_acceptance_5_oracle_equivalence(capsys):
    rng = np.random.default_rng(523)

    # closed-form vs algebraically eliminated reduced system
    schur_dev = 0.0
    kinds = ("mesh45", "mesh90", "mesh135")
    for case in range(10):
        kind = kinds[case % 3]
        n = int(rng.integers(2, 5))
        mesh = generate_structured(kind, n, n)
        mats = np.stack([random_spd(rng, 0.5, 30.0)
                         for _ in range(mesh.n_elements)])
        field = PiecewiseConstantField(mats)
        fc = float(rng.normal())
        closed = schur_closed_form(mesh, field,
                                   f=lambda x, y, c=fc: np.full(np.shape(x), c))
        alg = schur_algebraic(assemble(
            ElementData(mesh, field),
            f=lambda x, y, c=fc: np.full(np.shape(x), c)))
        scale = np.abs(alg.a_mat.toarray()).max()
        schur_dev = max(
            schur_dev,
            np.abs((closed.a_mat - alg.a_mat).toarray()).max() / scale,
            np.abs((closed.a_bdry - alg.a_bdry).toarray()).max() / scale)
    schur_ok = schur_dev <= 1e-10

    # nonconforming P1 oracle on a 2x2 single-diagonal mesh
    mesh = generate_structured("mesh45", 2, 2)
    mats = np.stack([random_spd(rng, 0.5, 20.0)
                     for _ in range(mesh.n_elements)])
    red = schur_closed_form(mesh, PiecewiseConstantField(mats))
    k_full = _cr_stiffness(mesh, mats)
    ni = mesh.n_interior_edges
    scale = np.abs(k_full).max()
    cr_dev = max(
        np.abs(red.a_mat.toarray() - k_full[:ni, :ni]).max(),
        np.abs(red.a_bdry.toarray() - k_full[:ni, ni:]).max()) / scale
    cr_ok = cr_dev <= 1e-12

    # iterative vs direct solver
    solver_dev = 0.0
    field51, f51, g51 = example_fields("example51")
    field52, f52, g52 = example_fields("example52", gamma=99.0)
    cases = [
        (generate_structured("mesh90", 4, 4, DOMAIN51), field51, f51, g51),
        (generate_structured("mesh45", 6, 6), field52, f52, g52),
    ]
    for mesh, field, f, g in cases:
        data = ElementData(mesh, field)
        a = solve_problem(data, f=f, g=g,
                          config=SolverConfig(method="conjugate-gradient-jacobi"))
        b = solve_problem(data, f=f, g=g,
                          config=SolverConfig(method="sparse-direct"))
        solver_dev = max(solver_dev,
                         np.abs(a.ub - b.ub).max(),
                         np.abs(a.u0 - b.u0).max())
    solver_ok = solver_dev <= 1e-9

    ok = schur_ok and cr_ok and solver_ok
    announce(capsys, 5, "oracle-equivalence", ok,
             f"reduced-system closed form vs elimination rel dev "
             f"{schur_dev:.2g}; nonconforming-P1 oracle rel dev {cr_dev:.2g}; "
             f"cg vs cholesky dev {solver_dev:.2g}")
    assert ok


def test_acceptance_6_structural_invariants(capsys):
    rng = np.random.default_rng(6021)

    # interior row sums of the reduced system vanish
    ex52, f52, _ = example_fields("example52", gamma=99.0)
    rowsum_dev = 0.0
    for mesh, field in (
            (generate_structured("mesh45", 3, 3, DOMAIN51),
             example_fields("example51")[0]),
            (generate_structured("mesh135", 3, 3), ex52)):
        red = schur_closed_form(mesh, field)
        sums = np.asarray(red.a_mat.sum(axis=1)).ravel() \
            + np.asarray(red.a_bdry.sum(axis=1)).ravel()
        rowsum_dev = max(rowsum_dev,
                         np.abs(sums).max() / np.abs(red.a_mat.diagonal()).max())
    rowsum_ok = rowsum_dev <= 1e-10

    # scaled outward normals of every element sum to zero
    closure_dev = 0.0
    for data in ([ElementData(generate_structured("mesh90", 3, 3),
                              ConstantField(np.eye(2)))]
                 + [single_element(random_triangle(rng)) for _ in range(20)]):
        closure_dev = max(closure_dev, np.abs(
            (data.lens[:, :, None] * data.nrm).sum(axis=1)).max())
    closure_ok = closure_dev <= 1e-13

    # the reduced matrix is symmetric positive definite (dense check)
    spd_min = np.inf
    for mesh, field in (
            (generate_structured("mesh45", 4, 4, DOMAIN51),
             example_fields("example51")[0]),
            (generate_structured("mesh90", 3, 3), ex52)):
        assert mesh.n_edges <= 200
        dense = schur_closed_form(mesh, field).a_mat.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-13 * np.abs(dense).max()
        w = np.linalg.eigvalsh(dense)
        spd_min = min(spd_min, w.min() / w.max())
    spd_ok = spd_min > 0

    # constant boundary data is reproduced exactly
    mesh = generate_structured("mesh135", 3, 3, DOMAIN51)
    sol = solve_problem(ElementData(mesh, example_fields("example51")[0]),
                        g=lambda x, y: np.full(np.shape(x), 2.5))
    const_dev = max(np.abs(sol.u0 - 2.5).max(), np.abs(sol.ub - 2.5).max())
    const_ok = const_dev <= 1e-10 * 2.5

    # quadrature integrates monomials up to its degree
    quad_dev = 0.0
    for degree in (1, 2, 4):
        rule = quadrature(degree)
        for _ in range(20):
            tri = random_triangle(rng)
            pts = rule.points @ tri
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    got = quad_integrate(rule, tri,
                                         pts[:, 0] ** a * pts[:, 1] ** b)
                    want = exact_monomial(tri, a, b)
                    quad_dev = max(quad_dev, abs(got - want) / abs(want))
    quad_ok = quad_dev <= 1e-14

    ok = rowsum_ok and closure_ok and spd_ok and const_ok and quad_ok
    announce(capsys, 6, "structural-invariants", ok,
             f"row sums {rowsum_dev:.2g}; normal closure {closure_dev:.2g}; "
             f"SPD min eig ratio {spd_min:.2g}; constant solution "
             f"{const_dev:.2g}; quadrature {quad_dev:.2g}")
    assert ok


def test_acceptance_7_block_vs_reduced(capsys):
    field = ConstantField(np.eye(2))
    mesh = generate_structured("mesh45", 4, 4)
    data = ElementData(mesh, field)

    thm_passed = bool(check_theorem_dmp(data).passed)
    mm_passed = bool(mmatrix_audit(schur_closed_form(mesh, field)).passed)

    fs = check_full_system_condition(data)
    fs_failed = not fs.passed
    bad = ~fs.mbb_pass
    right_angle = np.abs(fs.cot_theta) < 1e-12
    failures_are_right_angles = bool(np.array_equal(bad, right_angle)
                                     and bad.any())

    ok = thm_passed and mm_passed and fs_failed and failures_are_right_angles
    announce(capsys, 7, "block-vs-reduced", ok,
             f"reduced-side audits pass ({thm_passed}, {mm_passed}); "
             f"unreduced sign audit fails ({fs_failed}) exactly on "
             f"right-angle pairs ({failures_are_right_angles})")
    assert ok
