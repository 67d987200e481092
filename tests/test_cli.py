import numpy as np
import pytest

import wgdmp.cli as cli
from wgdmp.assembly import ElementData
from wgdmp.cli import main, run_example1, run_example2, run_trend
from wgdmp.mesh import export_mesh, generate_structured
from wgdmp.solve import solve_problem
from wgdmp.tensor import FunctionalField, example_fields, quadrature


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# solve

def test_solve_constant_boundary(tmp_path, capsys):
    rc = main(["solve", "--mesh", "mesh45", "--size", "2",
               "--field", "identity", "--boundary-const", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solved:" in out
    assert "-> ok" in out

    header, rows = read_csv(tmp_path / "solution.csv")
    assert header == "kind,index,value"
    vals = np.array([float(r[2]) for r in rows])
    assert vals == pytest.approx(np.full(len(rows), 3.0), abs=1e-10)

    header, rows = read_csv(tmp_path / "vertices.csv")
    assert header == "x,y,value"
    vals = np.array([float(r[2]) for r in rows])
    assert vals == pytest.approx(np.full(len(rows), 3.0), abs=1e-10)


def test_solve_csv_round_trip(tmp_path):
    # 17-significant-digit output reproduces the in-memory solution exactly
    rc = main(["solve", "--mesh", "mesh45", "--size", "4",
               "--field", "example51", "--out", str(tmp_path)])
    assert rc == 0
    field, f, g = example_fields("example51")
    mesh = generate_structured("mesh45", 4, 4, (0, 0, 16, 16))
    sol = solve_problem(ElementData(mesh, field), f=f, g=g)

    _, rows = read_csv(tmp_path / "solution.csv")
    by_kind = {}
    for kind, idx, val in rows:
        by_kind.setdefault(kind, []).append((int(idx), float(val)))
    assert [v for _, v in sorted(by_kind["element"])] == sol.u0.tolist()
    assert [v for _, v in sorted(by_kind["interior_edge"])] == sol.ub.tolist()
    assert [v for _, v in sorted(by_kind["boundary_edge"])] == sol.ub_bdry.tolist()


def test_solve_deterministic_output(tmp_path):
    for sub in ("a", "b"):
        rc = main(["solve", "--mesh", "mesh90", "--size", "3",
                   "--field", "example52", "--gamma", "40",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
    for name in ("solution.csv", "vertices.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_solve_imported_mesh(tmp_path, capsys):
    path = tmp_path / "box.mesh"
    export_mesh(generate_structured("mesh90", 2, 2), path)
    rc = main(["solve", "--mesh", str(path), "--field", "identity",
               "--boundary-const", "2", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "solution.csv")
    vals = np.array([float(r[2]) for r in rows])
    assert vals == pytest.approx(np.full(len(rows), 2.0), abs=1e-10)


def test_solve_piecewise_field_file(tmp_path):
    mesh = generate_structured("mesh45", 2, 2)
    path = tmp_path / "field.txt"
    path.write_text("# per-element tensors\n"
                    + "2.0 0.25 1.0\n" * mesh.n_elements)
    rc = main(["solve", "--mesh", "mesh45", "--size", "2",
               "--field", str(path), "--boundary-const", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "solution.csv")
    vals = np.array([float(r[2]) for r in rows])
    assert vals == pytest.approx(np.ones(len(rows)), abs=1e-10)


def test_solve_cholesky_matches_default(tmp_path):
    # the default direct solve, its cholesky alias and conjugate gradients
    # agree on the ring
    subs = {"default": [], "chol": ["--method", "cholesky"],
            "cg": ["--method", "cg"]}
    for sub, method in subs.items():
        rc = main(["solve", "--mesh", "mesh45", "--size", "16",
                   "--field", "example52", "--gamma", "99",
                   "--out", str(tmp_path / sub)] + method)
        assert rc == 0
    _, ref = read_csv(tmp_path / "default" / "solution.csv")
    va = np.array([float(r[2]) for r in ref])
    for sub in ("chol", "cg"):
        _, rows = read_csv(tmp_path / sub / "solution.csv")
        assert [r[:2] for r in rows] == [r[:2] for r in ref]
        vb = np.array([float(r[2]) for r in rows])
        assert np.abs(va - vb).max() <= 1e-9 * np.abs(va).max()


def test_solve_max_iterations_needs_cg(tmp_path, capsys):
    # the default direct method does not iterate, so the flag is refused
    # rather than ignored
    argv = ["solve", "--mesh", "mesh45", "--size", "8", "--field",
            "identity", "--max-iterations", "3", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "--max-iterations" in capsys.readouterr().err
    assert main(argv[:-4] + ["--max-iterations", "1000", "--method", "cg",
                             "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# audit

def test_audit_passing_mesh(tmp_path, capsys):
    rc = main(["audit", "--mesh", "mesh45", "--size", "8",
               "--field", "example51", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "element conditions: pass" in out
    assert "matrix audit: pass" in out
    header, rows = read_csv(tmp_path / "angle_report.csv")
    assert header == "element,pair,cos_alpha,n_inner,pass"
    assert len(rows) == 3 * 2 * 8 * 8
    assert all(r[4] == "1" for r in rows)


def test_audit_failing_mesh(tmp_path, capsys):
    rc = main(["audit", "--mesh", "mesh135", "--size", "8",
               "--field", "example51", "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "element conditions: FAIL" in out
    assert "matrix audit: FAIL" in out
    _, rows = read_csv(tmp_path / "angle_report.csv")
    assert any(r[4] == "0" for r in rows)


def test_audit_full_system_flag(tmp_path, capsys):
    rc = main(["audit", "--mesh", "mesh45", "--size", "4",
               "--field", "identity", "--full-system", "--out", str(tmp_path)])
    # the unreduced sign condition is reported but does not gate the exit
    # code; the per-element and matrix audits both pass here
    assert rc == 0
    out = capsys.readouterr().out
    assert "unreduced sign condition: FAIL" in out
    header, rows = read_csv(tmp_path / "full_system.csv")
    assert header == "element,pair,cos_alpha,n_inner,pass"
    assert len(rows) == 3 * 2 * 4 * 4


@pytest.mark.parametrize("command,extra", [
    ("audit", ["--full-system"]),
    ("solve", []),
])
def test_one_element_data_build(command, extra, tmp_path, monkeypatch):
    # one build samples the field at the six points of the degree-4 rule
    # of each element and nowhere else: no second build and no vertex
    # samples for a Lipschitz estimate that no command reads
    sampled = []
    sample = FunctionalField.sample

    def counting(self, points, element=None):
        sampled.append(np.size(points) // 2)
        return sample(self, points, element)

    monkeypatch.setattr(FunctionalField, "sample", counting)
    rc = main([command, "--mesh", "mesh45", "--size", "8",
               "--field", "example52", "--out", str(tmp_path)] + extra)
    assert rc in (0, 1)             # ran to the end; the ring may fail
    assert sum(sampled) == 6 * 2 * 8 * 8


def test_audit_rejects_solver_flags(tmp_path, capsys):
    # audit never solves, so the solver flags are not its options
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--mesh", "mesh45", "--size", "4", "--field",
              "identity", "--method", "bogus", "--tol", "5",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_audit_nonfinite_field_file_exits_2(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text("1 0 1\n" * 3 + "nan 0 1\n" + "1 0 1\n" * 4)
    rc = main(["audit", "--mesh", "mesh45", "--size", "2",
               "--field", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert f"{path}:4: non-finite" in capsys.readouterr().err


def test_audit_non_spd_field_file_names_line(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text("1 0 1\n1 0 -1\n")
    rc = main(["audit", "--mesh", "mesh45", "--size", "1",
               "--field", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not positive definite" in err and f"{path}:2" in err


def test_audit_malformed_mesh(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text("3 1\n0 0\n1 0\n")          # missing vertex + triangle
    rc = main(["audit", "--mesh", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_audit_empty_interior_exits_2(tmp_path, capsys):
    # one triangle: every edge is a boundary edge, so there is no reduced
    # matrix to audit; solving it still works
    mesh = tmp_path / "one.mesh"
    mesh.write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
    rc = main(["audit", "--mesh", str(mesh), "--field", "identity",
               "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "matrix audit" not in out
    assert "0 interior edges" in err
    rc = main(["solve", "--mesh", str(mesh), "--field", "identity",
               "--out", str(tmp_path)])
    assert rc == 0


# ---------------------------------------------------------------------------
# benchmark sweeps

def test_example1_outputs(tmp_path, capsys):
    rc = main(["example1", "--sizes", "2,4", "--kinds", "mesh45,mesh135",
               "--out", str(tmp_path)])
    assert rc == 0

    header, rows = read_csv(tmp_path / "example1_table.csv")
    assert header == "kind,size,max_ub,min_ub,max_u0,min_u0"
    assert [(r[0], r[1]) for r in rows] == [
        ("mesh45", "2"), ("mesh45", "4"), ("mesh135", "2"), ("mesh135", "4")]

    header, audit = read_csv(tmp_path / "example1_audit.csv")
    assert header == "kind,size,theorem_pass,verdict_pass"
    by_kind = {(r[0], r[1]): r[2] for r in audit}
    assert by_kind[("mesh45", "2")] == "1"
    assert by_kind[("mesh45", "4")] == "1"
    assert by_kind[("mesh135", "2")] == "0"
    assert by_kind[("mesh135", "4")] == "0"

    for kind, n in (("mesh45", 2), ("mesh45", 4), ("mesh135", 2), ("mesh135", 4)):
        assert (tmp_path / f"example1_{kind}_{n}_vertices.csv").exists()

    # the CSV round-trips the library values exactly
    lib = run_example1([2, 4], ["mesh45", "mesh135"], out_dir=str(tmp_path))
    for row, r in zip(rows, lib):
        assert float(row[2]) == r["max_ub"]
        assert float(row[3]) == r["min_ub"]


def test_example2_outputs(tmp_path):
    rc = main(["example2", "--sizes", "2,4", "--kinds", "mesh45",
               "--gammas", "0,20", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "example2_table.csv")
    assert header == "kind,gamma,size,max_ub,min_ub,max_u0,min_u0"
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("mesh45", "0", "2"), ("mesh45", "0", "4"),
        ("mesh45", "20", "2"), ("mesh45", "20", "4")]
    lib = run_example2([2, 4], ["mesh45"], [0.0, 20.0], out_dir=str(tmp_path))
    for row, r in zip(rows, lib):
        assert float(row[3]) == r["max_ub"]
        assert float(row[6]) == r["min_u0"]


def test_example1_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = main(["example1", "--sizes", "2", "--kinds", "mesh135",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
    for name in ("example1_table.csv", "example1_audit.csv",
                 "example1_mesh135_2_vertices.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_trend_flat_sequence(tmp_path, capsys):
    rc = main(["convergence-trend", "--sizes", "4,8", "--kinds", "mesh45",
               "--gammas", "20", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nonincreasing: yes" in out
    header, rows = read_csv(tmp_path / "trend.csv")
    assert header == "kind,gamma,size,max_ub"
    assert len(rows) == 2
    assert all(float(r[3]) == 1.0 for r in rows)


def test_trend_detects_growth(tmp_path, capsys):
    # the ring benchmark's overshoot appears only on fine meshes, so the
    # maxima across sizes are not monotone and the trend check trips
    rc = main(["convergence-trend", "--sizes", "16,64", "--kinds", "mesh45",
               "--gammas", "99", "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "nonincreasing: NO" in out
    _, rows = read_csv(tmp_path / "trend.csv")
    assert float(rows[1][3]) > float(rows[0][3])


def test_run_trend_returns_flag(tmp_path):
    rows, ok = run_trend([2, 4], ["mesh45"], [20.0], out_dir=str(tmp_path))
    assert ok
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# bad input

@pytest.mark.parametrize("argv", [
    ["solve", "--mesh", "mesh45"],                       # missing --size
    ["solve", "--mesh", "mesh45", "--size", "2", "--method", "bogus"],
    ["solve", "--mesh", "mesh45", "--size", "2", "--domain", "0,0,1"],
    ["solve", "--mesh", "mesh45", "--size", "0"],
    ["audit", "--mesh", "no/such/file.mesh"],
    ["solve", "--mesh", "mesh45", "--size", "2", "--field", "no/such/field"],
])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_field_indefinite_at_one_quadrature_point(command, tmp_path,
                                                  monkeypatch, capsys):
    # a functional tensor that is indefinite at one quadrature point of
    # one element, and the identity everywhere else
    mesh = generate_structured("mesh45", 4, 4)
    element, q = 21, 4
    bad = quadrature(4).points[q] @ mesh.vertices[mesh.triangles[element]]

    def tensor(x, y):
        out = np.broadcast_to(np.eye(2), np.shape(x) + (2, 2)).copy()
        out[np.hypot(x - bad[0], y - bad[1]) < 1e-12, 1, 1] = -1.0
        return out

    monkeypatch.setattr(cli, "example_fields", lambda name, gamma=None: (
        FunctionalField(tensor), None, lambda x, y: x))
    rc = main([command, "--mesh", "mesh45", "--size", "4",
               "--field", "example52", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not positive definite" in err and f"element {element}" in err


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_nonmanifold_mesh_file_names_triangles(command, tmp_path, capsys):
    # edge (0, 1) is shared by all three counterclockwise triangles
    path = tmp_path / "fan.mesh"
    path.write_text("5 3\n0 0\n1 0\n0 1\n1 1\n0.5 -1\n"
                    "0 1 2\n0 1 3\n1 0 4\n")
    rc = main([command, "--mesh", str(path), "--field", "identity",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "edge (0, 1) shared by more than two triangles: 0, 1, 2" in err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_nonfinite_boundary_data_exits_2(tmp_path, capsys):
    rc = main(["solve", "--mesh", "mesh45", "--size", "16",
               "--field", "identity", "--boundary-const", "nan",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "non-finite" in err


def test_field_file_line_count_mismatch(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("1 0 1\n")                 # one line for eight elements
    rc = main(["solve", "--mesh", "mesh45", "--size", "2",
               "--field", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
