"""Serialization formats and the command-line interface."""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdisk_oracle
from conftest import ball_solution, get_seed
from test_combinatorics import JUNK_COMPLEXES
from midscribe.bodies import make_body
from midscribe.cli import MAX_MARK, main, parse_frame_spec, parse_marks
from midscribe.errors import MalformedSpec, StepUnderflow
from midscribe.io import (
    boundary_mesh,
    configuration_from_dict,
    configuration_to_dict,
    format_complex,
    sweep_csv_text,
    verify_report_to_dict,
)
import midscribe
from midscribe import packing, parse_off, solver, verify_configuration

REPORT_KEYS = {
    "max_tangency_residual", "max_incidence_residual", "combinatorics_ok",
    "convexity", "contact_graph_primal_ok", "contact_graph_dual_ok",
    "per_edge", "per_vertex",
}


def test_parse_marks_forms():
    assert parse_marks("0,1,i") == (0j, 1 + 0j, 1j)
    assert parse_marks("1+2i, -0.5-0.5i, 3i") == (1 + 2j, -0.5 - 0.5j, 3j)
    assert parse_marks("-i,2,-3.5") == (-1j, 2 + 0j, -3.5 + 0j)
    for bad in ("1,2", "1,2,3,4", "a,b,c", "1,2,2i+1", ""):
        with pytest.raises(MalformedSpec):
            parse_marks(bad)


@given(st.complex_numbers(allow_nan=False, allow_infinity=False,
                          max_magnitude=1e12))
@settings(max_examples=80, deadline=None)
def test_format_complex_round_trips(z):
    text = ",".join([format_complex(z)] * 3)
    if abs(z) >= MAX_MARK:
        with pytest.raises(MalformedSpec, match="too large for the chart"):
            parse_marks(text)
        return
    back = parse_marks(text)[0]
    assert back == z


def test_parse_frame_spec():
    assert parse_frame_spec("0:0,3,5") == (0, (0, 3, 5))
    with pytest.raises(MalformedSpec):
        parse_frame_spec("0:0,3")
    with pytest.raises(MalformedSpec):
        parse_frame_spec("nope")


def test_verify_report_schema_keys():
    P, _, _ = get_seed("tetrahedron")
    cfg = ball_solution("tetrahedron")
    report = verify_configuration(cfg, make_body("ball"), P,
                                  with_packings=False)
    payload = verify_report_to_dict(report)
    assert set(payload.keys()) == REPORT_KEYS
    assert {row["edge"] for row in payload["per_edge"]} == set(range(P.n_edges))


def test_configuration_json_round_trip():
    P, _, _ = get_seed("cube")
    cfg = ball_solution("cube")
    blob = json.dumps(configuration_to_dict(cfg, P))
    cfg2, P2 = configuration_from_dict(json.loads(blob))
    assert P2.faces == P.faces
    assert np.array_equal(cfg2.normals, cfg.normals)
    assert np.array_equal(cfg2.offsets, cfg.offsets)
    assert np.array_equal(cfg2.vertices4, cfg.vertices4)
    assert np.array_equal(cfg2.tangents, cfg.tangents)
    assert cfg2.marked_edges == cfg.marked_edges


def test_configuration_from_dict_rejects_malformed():
    P, _, _ = get_seed("cube")
    cfg = ball_solution("cube")
    data = configuration_to_dict(cfg, P)
    del data["planes"]
    with pytest.raises(MalformedSpec):
        configuration_from_dict(data)


def test_sweep_csv_layout():
    rows = [(0j, 1 + 0j, 1j, "convex", 1e-12),
            (0j, 1 + 0j, -2 - 2j, "failed", float("nan"))]
    text = sweep_csv_text(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "z1,z2,z3,classification,residual"
    assert len(lines) == 3
    z1, z2, z3, cls, res = lines[1].split(",")
    assert parse_marks("%s,%s,%s" % (z1, z2, z3)) == (0j, 1 + 0j, 1j)
    assert cls == "convex"
    assert float(res) == 1e-12
    assert math.isnan(float(lines[2].split(",")[4]))


def test_boundary_mesh_on_body():
    body = make_body("superellipsoid:p=4,a=1,b=1")
    verts, faces = boundary_mesh(body, n=12)
    worst = max(abs(body.value(np.asarray(v))) for v in verts)
    assert worst < 1e-9
    nv = len(verts)
    assert all(0 <= i < nv for f in faces for i in f)


@pytest.mark.parametrize("desc", [
    "ball", "ellipsoid:a=1.2,b=1.0", "ellipsoid:a=0.9,b=1.1",
    "superellipsoid:p=4,a=1,b=1",
])
def test_boundary_mesh_matches_scalar_oracle(desc):
    # the batched mesh equals the point-at-a-time radial solve bit for bit
    body = make_body(desc)
    n = 12
    dirs = [(0.0, 0.0, 1.0)]
    for i in range(1, n):
        phi = math.pi * i / n
        for j in range(2 * n):
            lam = 2.0 * math.pi * j / (2 * n)
            dirs.append((math.sin(phi) * math.cos(lam),
                         math.sin(phi) * math.sin(lam), math.cos(phi)))
    dirs.append((0.0, 0.0, -1.0))
    expected = np.array([kdisk_oracle._radial_boundary_point(body, d)
                         for d in dirs])
    verts, _ = boundary_mesh(body, n=n)
    assert np.array_equal(verts, expected)


def run_cli(*argv):
    return main(list(argv))


def test_python_m_midscribe_runs_the_cli():
    src = str(Path(midscribe.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "midscribe", "--help"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: midscribe")


def test_cli_pack_and_determinism(tmp_path):
    out = tmp_path / "pattern.json"
    assert run_cli("pack", "--complex", "cube", "--out", str(out)) == 0
    first = json.loads(out.read_text())
    assert run_cli("pack", "--complex", "cube", "--out", str(out)) == 0
    second = json.loads(out.read_text())
    first["manifest"].pop("wall_time_s")
    second["manifest"].pop("wall_time_s")
    assert first == second
    assert "vertex_caps" in first and "face_caps" in first
    assert len(first["marks"]["edges"]) == 3


def test_cli_midscribe_verify_round_trip(tmp_path):
    off = tmp_path / "solved.off"
    report_path = tmp_path / "solved.json"
    code = run_cli("midscribe", "--complex", "cube",
                   "--body", "ellipsoid:a=1.2,b=1.0",
                   "--marks", "0.4+0.3i,1.6,-0.5+1.1i",
                   "--out", str(off), "--report", str(report_path))
    assert code == 0
    assert off.exists()
    payload = json.loads(report_path.read_text())
    assert set(REPORT_KEYS) <= set(payload["verify"].keys())
    assert payload["solve"]["converged"] is True
    assert payload["solve"]["final_residual"] < 1e-9
    assert set(payload["solve"]["steps_rejected"]) == {"corrector", "branch",
                                                       "degeneracy"}
    faces, verts = parse_off(off.read_text())
    assert len(verts) == 8 and len(faces) == 6

    code = run_cli("verify", str(report_path),
                   "--body", "ellipsoid:a=1.2,b=1.0")
    assert code == 0
    # without --body the descriptor comes from the embedded manifest
    assert run_cli("verify", str(report_path)) == 0
    # forcing the wrong body must fail
    assert run_cli("verify", str(report_path), "--body", "ball") == 4

    # corrupt one plane offset: verification must fail with exit 4
    payload["planes"][0][3] += 1e-3
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(payload))
    assert run_cli("verify", str(bad_path),
                   "--body", "ellipsoid:a=1.2,b=1.0") == 4


def test_cli_midscribe_rigidity_block(tmp_path):
    report_path = tmp_path / "r.json"
    code = run_cli("midscribe", "--complex", "tetrahedron",
                   "--marks", "0.2+0.1i,1.4,-0.4+1.0i",
                   "--starts", "3",
                   "--out", str(tmp_path / "t.off"),
                   "--report", str(report_path))
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["rigidity"]["n_converged"] == 3
    assert payload["rigidity"]["max_pairwise_distance"] < 1e-6


def test_cli_export_body(tmp_path):
    out = tmp_path / "body.off"
    assert run_cli("export-body", "--body", "ellipsoid:a=1.2,b=1.0",
                   "--grid", "10", "--out", str(out)) == 0
    faces, verts = parse_off(out.read_text())
    body = make_body("ellipsoid:a=1.2,b=1.0")
    worst = max(abs(body.value(np.asarray(v))) for v in verts)
    assert worst < 1e-9


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_cli_export_body_rejects_small_grid(tmp_path, grid):
    out = tmp_path / "body.off"
    assert run_cli("export-body", "--body", "ellipsoid:a=1.2,b=1.0",
                   "--grid", grid, "--out", str(out)) == 3
    assert not out.exists()


def test_cli_input_errors(tmp_path):
    assert run_cli("midscribe", "--complex", "cube",
                   "--body", "torus:r=2") == 3
    assert run_cli("midscribe", "--complex", "cube",
                   "--marks", "1,2") == 3
    assert run_cli("midscribe", "--complex", str(tmp_path / "nope.off")) == 3
    assert run_cli("pack", "--complex", "cube", "--frame", "junk") == 3
    assert run_cli("pack", "--complex", "cube", "--frame", "0:0,1,9",
                   "--out", str(tmp_path / "p.json")) == 3


@pytest.mark.parametrize("grid, threads", [("-1", "1"), ("0", "1"),
                                           ("2", "abc")])
def test_cli_sweep_rejects_bad_sizes(tmp_path, monkeypatch, grid, threads):
    monkeypatch.setenv("MIDSCRIBE_THREADS", threads)
    out = tmp_path / "grid.csv"
    assert run_cli("sweep", "--complex", "tetrahedron", "--grid", grid,
                   "--out", str(out)) == 3
    assert not out.exists()


BAD_NUMBERS = [
    ("midscribe", "--tol", "-1"),
    ("midscribe", "--tol", "0"),
    ("midscribe", "--tol", "nan"),
    ("sweep", "--tol", "-1"),
    ("verify", "--tol", "-1"),
    ("midscribe", "--starts", "-2"),
    ("midscribe", "--marks", "nan,1,i"),
    ("sweep", "--grid-box=nan,1,0,1"),
    # too large for the chart: these exited 2, or wrote a pattern after an
    # overflow warning
    ("midscribe", "--marks", "1e9,1,i"),
    ("pack", "--marks", "1e300,1,i"),
    ("sweep", "--marks", "0,1,1e8i"),
    ("sweep", "--grid-box=-1,1,0,1e8"),
    # the chart misplaces these: they were solved, and exited 0
    ("midscribe", "--marks", "0,1,2e7"),
    ("pack", "--marks", "2e7i,1,i"),
    ("sweep", "--grid-box=-1,1,0,2e7"),
]


@pytest.mark.parametrize("command, option", [
    (case[0], case[1:]) for case in BAD_NUMBERS],
    ids=[" ".join(case) for case in BAD_NUMBERS])
def test_cli_rejects_bad_numbers(tmp_path, monkeypatch, capsys, command,
                                 option):
    """Each is an input error: exit 3, no file written, no body built, no
    warning."""
    import midscribe.cli as cli_mod
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    bodies_built = []
    monkeypatch.setattr(cli_mod, "make_body", bodies_built.append)
    config = tmp_path / "config.json"
    P, _, _ = get_seed("tetrahedron")
    config.write_text(json.dumps(configuration_to_dict(
        ball_solution("tetrahedron"), P)))
    out = str(tmp_path / "out")
    argv = {"midscribe": ["--complex", "tetrahedron", "--out", out,
                          "--report", out + ".json"],
            "sweep": ["--complex", "tetrahedron", "--out", out],
            "pack": ["--complex", "tetrahedron", "--out", out],
            "verify": [str(config), "--report", out]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, *argv, *option) == 3
    assert "input error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]
    assert bodies_built == []


def test_cli_pack_has_no_tol(tmp_path):
    out = tmp_path / "pattern.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("pack", "--complex", "cube", "--tol", "1e-9",
                "--out", str(out))
    assert exc.value.code == 3
    assert not out.exists()


def test_cli_reads_step_constants_at_call_time(monkeypatch, tmp_path, capsys):
    """The step constants reach the CLI's continuation: one Newton
    iteration per attempt and a smallest step of 0.2 make the first step
    underflow."""
    monkeypatch.setattr(solver, "NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(solver, "DS_INIT", 0.25)
    monkeypatch.setattr(solver, "DS_MIN", 0.2)
    code = run_cli("midscribe", "--complex", "cube",
                   "--body", "ellipsoid:a=1.2,b=1.0",
                   "--marks", "0.2+0.1i,1.5,-0.3+1.2i",
                   "--out", str(tmp_path / "x.off"))
    assert code == 2
    assert "2.0e-01" in capsys.readouterr().err


def test_public_names_resolve():
    import midscribe
    assert [name for name in midscribe.__all__
            if not hasattr(midscribe, name)] == []


def test_cli_solver_failure_exit_code(monkeypatch, tmp_path):
    import midscribe.cli as cli_mod

    def boom(*args, **kwargs):
        raise StepUnderflow("stuck", last_good_s=0.3, report=None)

    monkeypatch.setattr(cli_mod, "continue_to_body", boom)
    code = run_cli("midscribe", "--complex", "cube",
                   "--out", str(tmp_path / "x.off"))
    assert code == 2


@pytest.mark.parametrize("tolerance", ["LAYOUT_TOL", "LIFT_TOL"])
def test_cli_pack_layout_inconsistency_exit_code(monkeypatch, capsys,
                                                 tmp_path, tolerance):
    monkeypatch.setattr(packing, tolerance, 0.0)
    assert run_cli("pack", "--complex", "cube",
                   "--out", str(tmp_path / "p.json")) == 2
    assert capsys.readouterr().err.startswith("solver failed: ")


def test_cli_pack_malformed_complex_exit_code(tmp_path, capsys):
    for k, (suffix, text) in enumerate(JUNK_COMPLEXES):
        path = tmp_path / ("bad%d.%s" % (k, suffix))
        path.write_text(text)
        assert run_cli("pack", "--complex", str(path),
                       "--out", str(tmp_path / "p.json")) == 3
        assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("desc", ["ellipsoid:a=nan,b=1",
                                  "ellipsoid:a=1e-160,b=1",
                                  "ellipsoid:a=1e-154,b=1",
                                  "ellipsoid:a=1.1e-154,b=1",
                                  "ellipsoid:a=1,a=2,b=1",
                                  "superellipsoid:p=1e300,a=1,b=1",
                                  "superellipsoid:p=4,a=1e-154,b=1",
                                  "superellipsoid:p=4,a=1e-153,b=1"])
def test_cli_export_body_rejects_malformed_descriptor(tmp_path, capsys, desc):
    out = tmp_path / "body.off"
    assert run_cli("export-body", "--body", desc, "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    out = tmp_path / "grid.csv"
    code = run_cli("sweep", "--complex", "tetrahedron",
                   "--body", "ellipsoid:a=1.2,b=1.0",
                   "--marks", "0.2+0.1i,1.4,-0.4+1.0i",
                   "--grid", "3", "--grid-box=-1,1,0.5,1.5",
                   "--out", str(out))
    assert code == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "z1,z2,z3,classification,residual"
    assert len(lines) == 1 + 9
    allowed = {"convex", "convex-marginal", "nonconvex", "nonconvex-marginal",
               "projective-degenerate", "failed"}
    for line in lines[1:]:
        z1, z2, z3, cls, res = line.split(",")
        assert cls in allowed
        assert parse_marks("%s,%s,%s" % (z1, z2, z3))[:2] == \
            (0.2 + 0.1j, 1.4 + 0j)
    # byte-identical on rerun
    code = run_cli("sweep", "--complex", "tetrahedron",
                   "--body", "ellipsoid:a=1.2,b=1.0",
                   "--marks", "0.2+0.1i,1.4,-0.4+1.0i",
                   "--grid", "3", "--grid-box=-1,1,0.5,1.5",
                   "--out", str(out))
    assert code == 0
    assert out.read_text() == text
