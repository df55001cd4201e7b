"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (collected again in the terminal
summary) and asserts the criterion at its stated tolerance.
"""
import os
import time

import numpy as np
import pytest
import scipy.optimize

from conftest import CANONICAL_MARKS, closed_form_config, get_seed, witness_marks
from midscribe import (
    check_midscription,
    continue_to_body,
    dimension_audit,
    koebe_config,
    layout_circles,
    lift_normalize,
    rigidity_probe,
    solve_radii,
    solver,
)
from midscribe.bodies import BodyChart, make_body, make_path
from midscribe.cli import main as cli_main
from midscribe.errors import DegenerateConfiguration, StepUnderflow
from midscribe.seeds import SEED_NAMES
from midscribe.solver import ConstraintSystem

BALL = make_body("ball")

GROUND_TRUTH_SEEDS = ("tetrahedron", "cube", "octahedron", "triangular_prism",
                      "dodecahedron")
GENERIC_BODIES = ("ellipsoid:a=1.2,b=1.0", "superellipsoid:p=4,a=1,b=1")
TRIALS_PER_CELL = 20


def test_criterion_1_ball_ground_truth(acceptance):
    worst_res = worst_mark = worst_time = 0.0
    chart = BodyChart(BALL)
    for name in GROUND_TRUTH_SEEDS:
        P, _, frame = get_seed(name)
        t0 = time.monotonic()
        radii = solve_radii(P, frame)
        pattern = layout_circles(P, frame, radii)
        spherical = lift_normalize(pattern, CANONICAL_MARKS)
        cfg = koebe_config(spherical)
        elapsed = time.monotonic() - t0
        report = check_midscription(cfg, BALL, P)
        res = max(report.max_tangency_residual, report.max_incidence_residual)
        mark_err = max(
            np.linalg.norm(p - q)
            for p, q in zip(cfg.marked_points, chart.inverse(CANONICAL_MARKS)))
        worst_res = max(worst_res, res)
        worst_mark = max(worst_mark, mark_err)
        worst_time = max(worst_time, elapsed)
    ok = worst_res < 1e-9 and worst_mark < 1e-8 and worst_time < 5.0
    assert acceptance(
        1, ok, "5 seeds on the unit ball: residual %.2e (<1e-9), "
        "mark error %.2e (<1e-8), slowest %.2fs (<5s)"
        % (worst_res, worst_mark, worst_time))


def test_criterion_2_closed_form_witnesses(acceptance):
    witnesses = []

    P, coords, frame = get_seed("tetrahedron")
    witnesses.append(("tetrahedron/ball", "tetrahedron", BALL, coords))
    P, coords, frame = get_seed("cube")
    witnesses.append(("cube/ball", "cube", BALL, coords))
    for a, b in ((1.2, 1.0), (0.9, 1.1)):
        body = make_body("ellipsoid:a=%g,b=%g" % (a, b))
        witnesses.append(("cube/ellipsoid(%g,%g)" % (a, b), "cube", body,
                          coords * np.array([a, b, 1.0])))
    body = make_body("superellipsoid:p=4,a=1,b=1")
    witnesses.append(("cube/quartic-box", "cube", body, coords * 2.0 ** 0.25))

    details, ok = [], True
    for label, seed, body, target in witnesses:
        P, _, frame = get_seed(seed)
        marks = witness_marks(P, frame, target, body)
        cfg, _ = continue_to_body(P, frame, marks, make_path(body))
        positions, finite = cfg.affine_vertices()
        err = np.inf
        if finite.all():
            err = float(np.max(np.abs(positions - target)))
        ok = ok and err < 1e-7
        details.append("%s %.1e" % (label, err))
    # the tetrahedron witness doubles as a norm check: vertices at sqrt(3),
    # edge tangency feet on the unit sphere
    P, coords, frame = get_seed("tetrahedron")
    assert np.allclose(np.linalg.norm(coords, axis=1), np.sqrt(3), atol=1e-12)
    assert acceptance(
        2, ok, "vertex error vs closed form (<1e-7): " + ", ".join(details))


def _sample_marks(rng):
    while True:
        pts = rng.uniform(-1.6, 1.6, size=(3, 2))
        zs = tuple(complex(x, y) for x, y in pts)
        gaps = [abs(zs[i] - zs[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) > 0.4:
            return zs


@pytest.fixture(scope="module")
def generic_instances():
    rng = np.random.default_rng(20260815)
    out = []
    for name in SEED_NAMES:
        P, _, frame = get_seed(name)
        for desc in GENERIC_BODIES:
            body = make_body(desc)
            path = make_path(body)
            for _ in range(TRIALS_PER_CELL):
                marks = _sample_marks(rng)
                record = {"seed": name, "body": desc, "marks": marks,
                          "path": path, "P": P, "frame": frame}
                t0 = time.monotonic()
                try:
                    cfg, solve = continue_to_body(P, frame, marks, path)
                except (StepUnderflow, DegenerateConfiguration) as exc:
                    record.update(ok=False, failure=exc,
                                  elapsed=time.monotonic() - t0)
                    out.append(record)
                    continue
                verify = check_midscription(cfg, body, P)
                record.update(ok=True, cfg=cfg, solve=solve, verify=verify,
                              elapsed=time.monotonic() - t0)
                out.append(record)
    return out


def _failure_is_diagnosed(exc):
    # Every failure must be a clean continuation abort carrying the homotopy
    # position. StepUnderflow reports last_good_s directly; the degeneracy
    # guard aborts earlier on the same branch collapse (two tangent points
    # merging when a vertex hits the boundary) and names s in its message.
    if isinstance(exc, StepUnderflow):
        return exc.last_good_s >= 0
    if isinstance(exc, DegenerateConfiguration):
        return "at s=" in str(exc)
    return False


def test_criterion_3_generic_marks_existence(acceptance, generic_instances):
    n = len(generic_instances)
    successes = [r for r in generic_instances if r["ok"]]
    failures = [r for r in generic_instances if not r["ok"]]
    worst_res = max(
        max(r["verify"].max_tangency_residual,
            r["verify"].max_incidence_residual) for r in successes)
    comb_ok = all(r["verify"].combinatorics_ok for r in successes)
    worst_time = max(r["elapsed"] for r in generic_instances)
    diagnosed = all(_failure_is_diagnosed(r["failure"]) for r in failures)
    n_underflow = sum(
        isinstance(r["failure"], StepUnderflow) for r in failures)
    rate = len(successes) / n
    ok = (rate >= 0.95 and worst_res < 1e-9 and comb_ok and worst_time < 60.0
          and diagnosed)
    assert acceptance(
        3, ok, "%d/%d converged (%.1f%% >= 95%%) over %d seeds x %d bodies, "
        "worst verify residual %.2e (<1e-9), combinatorics preserved %s, "
        "slowest %.2fs (<60s), failures diagnosed %s (%d step underflow, "
        "%d degeneracy abort)"
        % (len(successes), n, 100 * rate, len(SEED_NAMES),
           len(GENERIC_BODIES), worst_res, comb_ok, worst_time, diagnosed,
           n_underflow, len(failures) - n_underflow))


def test_criterion_4_empirical_rigidity(monkeypatch, acceptance,
                                        generic_instances):
    monkeypatch.setattr(solver, "RIGIDITY_PERTURBATION", 1e-3)
    worst = 0.0
    min_converged = 10
    probed = 0
    for r in generic_instances:
        if not r["ok"]:
            continue
        report = rigidity_probe(r["P"], r["frame"], r["marks"], r["path"],
                                n_starts=10, base=r["cfg"])
        worst = max(worst, report.max_pairwise_distance)
        min_converged = min(min_converged, report.n_converged)
        probed += 1
    ok = probed > 0 and worst < 1e-6
    assert acceptance(
        4, ok, "%d instances x 10 perturbed restarts (1e-3): max pairwise "
        "vertex distance %.2e (<1e-6), min converged restarts %d"
        % (probed, worst, min_converged))


def test_criterion_5_transversality(acceptance, generic_instances):
    worst_ratio = np.inf
    deficient = 0
    for r in generic_instances:
        if not r["ok"]:
            continue
        solve = r["solve"]
        ratio = 1.0 / solve.jacobian_condition_estimate
        worst_ratio = min(worst_ratio, ratio)
        deficient += int(solve.rank_deficiency != 0)
    # the axis-symmetric quartic-box witness is excluded: its end-point
    # Jacobian is rank-deficient by symmetry and the audit reports that
    # (rank_deficiency > 0) rather than hiding it
    ok = deficient == 0 and worst_ratio > 1e-8
    assert acceptance(
        5, ok, "generic solves: min sigma_min/sigma_max %.2e (>1e-8), "
        "rank-deficient accepted solutions: %d" % (worst_ratio, deficient))


def _run_sweep(tmp_path, tag, marks, grid_box):
    out = tmp_path / ("sweep_%s.csv" % tag)
    code = cli_main([
        "sweep", "--complex", "cube", "--body", "ellipsoid:a=1.2,b=1.0",
        "--marks=%s" % marks, "--grid", "8", "--grid-box=%s" % grid_box,
        "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    return [line.split(",")[3] for line in rows]


def test_criterion_6_convex_region(acceptance, tmp_path, monkeypatch):
    monkeypatch.setenv("MIDSCRIBE_THREADS", "1")
    # grid A: marks boxed around the symmetric witness, inside the convex set
    P, coords, frame = get_seed("cube")
    body = make_body("ellipsoid:a=1.2,b=1.0")
    target = coords * np.array([1.2, 1.0, 1.0])
    z1, z2, z3 = witness_marks(P, frame, target, body)
    marks_text = ",".join("%.17g%+.17gi" % (z.real, z.imag)
                          for z in (z1, z2, z3))
    box = "%.6f,%.6f,%.6f,%.6f" % (z3.real - 0.3, z3.real + 0.3,
                                   z3.imag - 0.3, z3.imag + 0.3)
    classes_a = _run_sweep(tmp_path, "a", marks_text, box)
    n_convex = sum(1 for c in classes_a if c == "convex")
    open_at_grid = True
    benign = {"convex", "convex-marginal", "nonconvex-marginal"}
    for k, cls in enumerate(classes_a):
        if cls != "convex":
            continue
        ix, iy = k % 8, k // 8
        for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
            if 0 <= jx < 8 and 0 <= jy < 8:
                neighbor = classes_a[jy * 8 + jx]
                if neighbor != "failed" and neighbor not in benign:
                    open_at_grid = False

    # grid B: third mark pushed across the far-side transition
    classes_b = _run_sweep(tmp_path, "b", "0,1,i", "-2,2,-2,2")
    n_bad = sum(1 for c in classes_b
                if c in ("nonconvex", "nonconvex-marginal",
                         "projective-degenerate"))
    ok = n_convex >= 1 and open_at_grid and n_bad >= 1
    assert acceptance(
        6, ok, "witness grid: %d/64 convex, openness at grid resolution %s; "
        "pushed grid: %d/64 nonconvex or projective-degenerate (>=1)"
        % (n_convex, open_at_grid, n_bad))


def test_criterion_7_dimension_audit(acceptance):
    ok = True
    for name in SEED_NAMES:
        P, _, frame = get_seed(name)
        r = dimension_audit(P)
        ok = ok and r.plane_dof == 3 * P.n_faces
        ok = ok and r.realization_dof == P.n_edges + 6
        ok = ok and r.concurrency_conditions == 2 * P.n_edges - 3 * P.n_vertices
        ok = ok and r.concurrency_conditions == r.plane_dof - r.realization_dof
        ok = ok and r.flag_count == 2 * P.n_edges
        # assembled square system balance: 0 with pinned marks, -6 without
        cfg = closed_form_config(name)[2]
        system = ConstraintSystem(P, frame, cfg.marked_points, BALL)
        rows = len(system.residual(system.pack(cfg)))
        ok = ok and rows == system.n_unknowns
        rows_free = P.n_faces + 2 * P.n_edges + 4 * P.n_edges + P.n_vertices
        unknowns_free = 4 * P.n_faces + 4 * P.n_vertices + 3 * P.n_edges
        ok = ok and rows_free - unknowns_free == -6
    assert acceptance(
        7, ok, "dimension identities and square-system balance (0 marked, "
        "-6 unmarked) hold on all %d seeds" % len(SEED_NAMES))


def test_criterion_8_oracle_equivalence(acceptance):
    from midscribe import newton_refine

    P, frame, cfg = closed_form_config("cube")
    bumped = cfg.copy()
    bumped.offsets[:] = cfg.offsets + 0.01
    refined, report = newton_refine(bumped, BALL, P, frame, cfg.marked_points)

    system = ConstraintSystem(P, frame, cfg.marked_points, BALL)
    x0 = system.pack(bumped)
    sol = scipy.optimize.least_squares(
        system.residual, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
        max_nfev=20000)
    oracle_res = float(np.max(np.abs(system.residual(sol.x))))
    oracle_cfg = system.unpack(sol.x)
    pos_a, fin_a = refined.affine_vertices()
    pos_b, fin_b = oracle_cfg.affine_vertices()
    vertex_gap = float(np.max(np.abs(pos_a - pos_b)))
    ok = (report.converged and oracle_res < 1e-9 and fin_a.all()
          and fin_b.all() and vertex_gap < 1e-6)
    assert acceptance(
        8, ok, "derivative-free least-squares oracle: residual at oracle "
        "point %.2e (<1e-9), vertex agreement %.2e (<1e-6)"
        % (oracle_res, vertex_gap))
