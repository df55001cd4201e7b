"""``midscribe sweep``: shared per-process state, the pool path, failures.

A sweep builds the complex, the body, its path, the planar ball packing
and the packing's system layout once per process and continues every grid
cell from that packing. The
per-cell reference below is the sweep cell as it was before that reuse: it
rebuilds everything in every cell. The sweep's CSV must match it byte for
byte.
"""
import concurrent.futures

import numpy as np
import pytest

import midscribe.cli as cli
from conftest import get_seed
from midscribe import solver
from midscribe.bodies import make_body, make_path
from midscribe.cli import main
from midscribe.combinatorics import build_complex, select_frame
from midscribe.errors import InputError, SolverError
from midscribe.io import sweep_csv_text
from midscribe.packing import layout_circles, solve_radii
from midscribe.solver import continue_from_pattern, continue_to_body
from midscribe.verify import check_convexity, check_midscription
from test_solver import count_condition_calls

ELLIPSOID = "ellipsoid:a=1.2,b=1.0"


def reference_sweep_worker(task):
    """One cell, rebuilding the complex, body, path and packing."""
    (faces, n_vertices, frame_spec, body_desc, z1, z2, z3, tol) = task
    P = build_complex(faces, n_vertices=n_vertices)
    frame = select_frame(P, frame_spec[0], frame_spec[1])
    try:
        body = make_body(body_desc)
        path = make_path(body)
        cfg, _report = continue_to_body(P, frame, (z1, z2, z3), path,
                                        tol=tol)
        cls, info = check_convexity(cfg, P, detailed=True)
        if info["marginal"] and cls in ("convex", "nonconvex"):
            cls += "-marginal"
        check = check_midscription(cfg, body, P)
        residual = max(check.max_tangency_residual,
                       check.max_incidence_residual)
    except (InputError, SolverError):
        return (z1, z2, z3, "failed", float("nan"))
    return (z1, z2, z3, cls, residual)


def reference_csv(body_desc, grid=3, box=(-2.0, 2.0, -2.0, 2.0)):
    """The cube sweep at marks 0, 1, i over box, one rebuild per cell."""
    P, _, frame = get_seed("cube")
    x0, x1, y0, y1 = box
    rows = [reference_sweep_worker((P.faces, P.n_vertices,
                                    (frame.face, frame.edges), body_desc,
                                    0j, 1 + 0j, complex(xv, yv), 1e-11))
            for yv in np.linspace(y0, y1, grid)
            for xv in np.linspace(x0, x1, grid)]
    return sweep_csv_text(rows)


def run_sweep(out, body_desc, grid=3):
    return main(["sweep", "--complex", "cube", "--body", body_desc,
                 "--marks", "0,1,i", "--grid", str(grid), "--out", str(out)])


def counting(monkeypatch, name, counts):
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, name, counted)


def test_in_process_sweep_builds_once_and_matches_reference(tmp_path,
                                                            monkeypatch):
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    counts = {}
    for name in ("build_complex", "make_path", "solve_radii"):
        counting(monkeypatch, name, counts)
    out = tmp_path / "sweep.csv"
    assert run_sweep(out, ELLIPSOID) == 0
    assert counts == {"build_complex": 1, "make_path": 1, "solve_radii": 1}
    assert cli._SWEEP is None
    assert out.read_text() == reference_csv(ELLIPSOID)


def test_in_process_sweep_builds_the_system_layout_once(tmp_path,
                                                       monkeypatch):
    """The cells continue from one planar packing, which carries one system
    layout: a k x k sweep builds it once and one ConstraintSystem per
    cell, and writes the bytes of the per-cell rebuild."""
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    builds = {"layout": 0, "system": 0}
    layout_init = solver.SystemLayout.__init__
    system_init = solver.ConstraintSystem.__init__

    def counted_layout(self, *args):
        builds["layout"] += 1
        layout_init(self, *args)

    def counted_system(self, *args):
        builds["system"] += 1
        system_init(self, *args)

    monkeypatch.setattr(solver.SystemLayout, "__init__", counted_layout)
    monkeypatch.setattr(solver.ConstraintSystem, "__init__", counted_system)
    out = tmp_path / "sweep.csv"
    assert run_sweep(out, ELLIPSOID, grid=4) == 0
    assert builds == {"layout": 1, "system": 16}
    assert out.read_text() == reference_csv(ELLIPSOID, grid=4)


def test_threads_continuing_from_one_pattern_match_sequential():
    """Two threads continuing from one planar packing, and so from one
    system layout, get the sequential runs' results bit for bit."""
    P, _, frame = get_seed("cube")
    path = make_path(make_body(ELLIPSOID))
    marks = [(0j, 1 + 0j, complex(x, y))
             for x in (-1.5, 0.2, 1.3) for y in (-1.0, 0.7)]

    def outcome(planar, z):
        try:
            cfg, report = continue_from_pattern(planar, z, path)
        except SolverError as exc:
            return repr(exc)
        return ([getattr(cfg, part).tobytes() for part in
                 ("normals", "offsets", "vertices4", "tangents",
                  "marked_points")], report.step_history,
                report.steps_rejected, report.iterations)

    sequential = [outcome(layout_circles(P, frame, solve_radii(P, frame)), z)
                  for z in marks]
    planar = layout_circles(P, frame, solve_radii(P, frame))
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda z: outcome(planar, z), marks))
    assert isinstance(planar.system_layout, solver.SystemLayout)
    assert threaded == sequential


def test_pool_sweep_matches_in_process(tmp_path, monkeypatch):
    """Two workers, each building its own state, write the same bytes."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    texts = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MIDSCRIBE_THREADS", threads)
        out = tmp_path / ("sweep-%s.csv" % threads)
        assert run_sweep(out, ELLIPSOID) == 0
        texts[threads] = out.read_bytes()
    assert pools == [2]
    assert texts["1"] == texts["2"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_invalid_body_fails_every_cell(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("MIDSCRIBE_THREADS", threads)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "sweep.csv"
    assert run_sweep(out, "torus:r=2") == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert len(lines) == 1 + 9
    assert all(line.split(",")[3] == "failed" for line in lines[1:])
    assert text == reference_csv("torus:r=2")


def test_sweep_reads_guard_constants_at_call_time(tmp_path, monkeypatch):
    """A face-circle threshold no face can pass fails every cell."""
    monkeypatch.setattr(solver, "MIN_FACE_CIRCLE_SIZE", 10.0)
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    out = tmp_path / "sweep.csv"
    assert run_sweep(out, ELLIPSOID, grid=2) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert all(line.split(",")[3] == "failed" for line in lines[1:])


def test_sweep_runs_no_condition_audit(tmp_path, monkeypatch):
    """Sweep cells drop their solve reports, so no cell pays for the
    Jacobian condition audit."""
    audits = count_condition_calls(monkeypatch)
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    out = tmp_path / "sweep.csv"
    assert run_sweep(out, ELLIPSOID, grid=2) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert all(line.split(",")[3] != "failed" for line in lines[1:])
    assert audits == []
