"""The benchmark workloads: set-up, one pass of ops, output checks.

``solve`` runs the sweep-cube and solve-corpus parts in one pass;
``verify-packings`` is the other workload.

Every workload is a closed loop: one op at a time, the next one starting
when the previous one returns. A pass runs every input of the workload once,
in a fixed order, so any whole number of passes has the same mix of inputs.
Inputs come from the seed alone.

All calls into midscribe go through module attributes (``solver.x`` rather
than ``from solver import x``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import corpus
import tracing
from midscribe import (bodies, cli, combinatorics, errors, io, packing, seeds,
                       solver, verify)

ELLIPSOID = "ellipsoid:a=1.2,b=1.0"
SUPERELLIPSOID = "superellipsoid:p=4,a=1,b=1"
RESIDUAL_TOL = 1e-9


@dataclass
class OpResult:
    """One op: its input, time, and what its output check found.

    failure names a typed solver error (the op failed); wrong describes an
    output that came back but did not pass its check (the run is incorrect).
    digest identifies the output exactly; counters must repeat exactly.
    """

    item: str
    seconds: float
    failure: str | None = None
    wrong: str | None = None
    digest: str = ""
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None and self.wrong is None


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _config_digest(cfg) -> str:
    return _hash_arrays(cfg.normals, cfg.offsets, cfg.vertices4, cfg.tangents)


def _failure_text(exc: errors.SolverError) -> str:
    """Exception type and the homotopy parameter s where it is known."""
    if isinstance(exc, errors.StepUnderflow):
        return "%s at s=%.6f" % (type(exc).__name__, exc.last_good_s)
    found = re.search(r"s=([0-9.]+)", str(exc))
    where = " at s=%s" % found.group(1) if found else ""
    return "%s%s" % (type(exc).__name__, where)


# ---------------------------------------------------------------------------
# sweep-cube

class SweepCube:
    """``midscribe sweep`` in-process, one op per grid cell.

    The cube over the ellipsoid with marks 0, 1, i and the third mark on a
    GRID x GRID grid over the box [-2, 2]^2 (the acceptance suite's "pushed"
    grid, which mixes convex and nonconvex cells). The seed shifts the box by
    up to BOX_SHIFT in each direction. Each cell rebuilds the complex, the
    body, the validated path and the packing, so the fixed per-cell cost
    dominates. A small grid lets a run time every cell several times.
    """

    name = "sweep-cube"
    GRID = 3
    BOX_SHIFT = 0.15

    def __init__(self, seed: int, out_dir: str, grid: int = GRID):
        rng = np.random.default_rng(seed)
        dx, dy = rng.uniform(-self.BOX_SHIFT, self.BOX_SHIFT, size=2)
        self.box = tuple(float(v) for v in (-2.0 + dx, 2.0 + dx,
                                            -2.0 + dy, 2.0 + dy))
        self.grid = grid
        self.out = os.path.join(out_dir, "sweep-%d.csv" % seed)

    def _argv(self, grid):
        return ["sweep", "--complex", "cube", "--body", ELLIPSOID,
                "--marks=0,1,i", "--grid", str(grid),
                "--grid-box=%r,%r,%r,%r" % self.box, "--out", self.out]

    def _sweep(self, grid):
        code = cli.main(self._argv(grid))
        if code != 0:
            raise RuntimeError("midscribe sweep exited with %d" % code)
        with open(self.out, encoding="utf-8") as fh:
            return fh.read().splitlines()[1:]

    def setup(self):
        """One warm-up cell: imports, first calls and caches settle here."""
        rows = self._sweep(1)
        return None, hashlib.sha256("\n".join(rows).encode()).hexdigest()

    def counted(self, state, tracer):
        """Count gauge calls on every body the sweep cells build."""
        make_body = cli.make_body

        def counted_make_body(descriptor):
            return tracing.CountingBody(make_body(descriptor), tracer)
        cli.make_body = counted_make_body
        return state, lambda: setattr(cli, "make_body", make_body)

    def run_pass(self, state, run_op):
        cell_seconds = []
        worker = cli._sweep_worker

        def timed_cell(task):
            row, seconds = run_op(worker, task)
            cell_seconds.append(seconds)
            return row

        cli._sweep_worker = timed_cell
        try:
            rows = self._sweep(self.grid)
        finally:
            cli._sweep_worker = worker
        if len(rows) != self.grid ** 2 or len(cell_seconds) != len(rows):
            raise RuntimeError("sweep wrote %d rows for %d cells"
                               % (len(rows), self.grid ** 2))
        results = []
        for k, (line, seconds) in enumerate(zip(rows, cell_seconds)):
            cls, residual = line.split(",")[3:5]
            result = OpResult(item="cell%02d" % k, seconds=seconds,
                              digest=hashlib.sha256(line.encode()).hexdigest(),
                              counters={"classification": cls})
            if cls == "failed":
                result.failure = "cell failed to solve"
            elif not float(residual) < RESIDUAL_TOL:
                result.wrong = "residual %s" % residual
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# solve-corpus

def _corpus_ops(instances):
    """Seeds on both bodies, generated complexes on the ellipsoid.

    The quartic body is left out where its continuation mostly fails near
    marks 0, 1, i: the dodecahedron and the generated complexes, whose
    symmetric tangent points collide on the flat sides of the body.
    """
    ops = []
    for inst in instances:
        ops.append((inst, ELLIPSOID))
        if inst.name in seeds.SEED_NAMES and inst.name != "dodecahedron":
            ops.append((inst, SUPERELLIPSOID))
    return ops


class SolveCorpus:
    """Continuation from the ball to a body, then the midscription check.

    One op is continue_to_body + check_midscription + check_convexity.
    Bodies, validated paths and the corpus are built in set-up, so body
    validation is outside the timed ops.
    """

    name = "solve-corpus"

    def __init__(self, seed: int, out_dir: str, generated=corpus.GENERATED,
                 seed_names=seeds.SEED_NAMES):
        self.seed = seed
        self.generated = generated
        self.seed_names = seed_names
        self.out = os.path.join(out_dir, "corpus-%d.json" % seed)

    def setup(self):
        instances = corpus.build_corpus(self.seed, self.generated,
                                        self.seed_names)
        paths = {desc: bodies.make_path(bodies.make_body(desc))
                 for desc in (ELLIPSOID, SUPERELLIPSOID)}
        ops = _corpus_ops(instances)
        io.dump_json(self.out, {
            "seed": self.seed,
            "instances": [dict(inst.stats(), marks=list(inst.marks))
                          for inst in instances],
            "ops": ["%s/%s" % (inst.name, desc) for inst, desc in ops],
        })
        h = hashlib.sha256()
        for inst, desc in ops:
            h.update(repr((inst.name, inst.P.faces, inst.frame, inst.marks,
                           desc)).encode())
        return {"ops": ops, "paths": paths}, h.hexdigest()

    def counted(self, state, tracer):
        paths = {desc: tracing.counting_path(path, tracer)
                 for desc, path in state["paths"].items()}
        return dict(state, paths=paths), lambda: None

    @staticmethod
    def _solve(inst, path):
        cfg, report = solver.continue_to_body(inst.P, inst.frame, inst.marks,
                                              path)
        check = verify.check_midscription(cfg, path.end, inst.P)
        convexity = verify.check_convexity(cfg, inst.P)
        return cfg, report, check, convexity

    def run_pass(self, state, run_op):
        results = []
        for inst, desc in state["ops"]:
            item = "%s/%s" % (inst.name, desc.split(":")[0])
            try:
                value, seconds = run_op(self._solve, inst,
                                        state["paths"][desc])
            except errors.SolverError as exc:
                results.append(OpResult(item=item, seconds=math.nan,
                                        failure=_failure_text(exc)))
                continue
            cfg, report, check, convexity = value
            result = OpResult(
                item=item, seconds=seconds, digest=_config_digest(cfg),
                counters={"newton_iterations": report.iterations,
                          "steps_accepted": len(report.step_history),
                          "convexity": convexity})
            residual = max(check.max_tangency_residual,
                           check.max_incidence_residual)
            if not (residual < RESIDUAL_TOL and check.combinatorics_ok):
                result.wrong = ("residual %.3e, combinatorics_ok %s"
                                % (residual, check.combinatorics_ok))
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# verify-packings

class VerifyPackings:
    """Full verification, K-disk packings on, of configurations solved in set-up.

    Seeds on the ball at marks 0, 1, i, and the cube on the ellipsoid at its
    closed-form witness marks (the centre of the acceptance suite's convex
    grid). The seed moves every mark by up to corpus.MARK_JITTER, small
    enough that every configuration stays convex. BALL_SEEDS are the four
    cheapest seeds: with them a pass takes about sixteen seconds, so a run
    verifies every configuration about three times; the pentagonal prism
    and the dodecahedron take 4 and 10 s.
    """

    name = "verify-packings"
    BALL_SEEDS = ("tetrahedron", "triangular_prism", "octahedron", "cube")

    def __init__(self, seed: int, out_dir: str, seed_names=BALL_SEEDS,
                 with_cube_on_ellipsoid=True):
        self.seed = seed
        self.seed_names = seed_names
        self.with_cube_on_ellipsoid = with_cube_on_ellipsoid
        self.out_dir = out_dir

    def _ball_config(self, name, marks):
        P, _coords = seeds.seed_complex(name)
        frame = combinatorics.select_frame(P)
        radii = packing.solve_radii(P, frame)
        planar = packing.layout_circles(P, frame, radii)
        cfg = packing.koebe_config(packing.lift_normalize(planar, marks))
        return P, cfg

    def _cube_on_ellipsoid(self, rng, body):
        P, coords = seeds.seed_complex("cube")
        frame = combinatorics.select_frame(P)
        target = coords * np.array([1.2, 1.0, 1.0])
        feet = seeds.perpendicular_feet(P, target)
        chart = bodies.BodyChart(body)
        witness = tuple(chart.forward(feet[e]) for e in frame.edges)
        marks = corpus.jitter(rng, witness)
        cfg, _report = solver.continue_to_body(P, frame, marks,
                                               bodies.make_path(body))
        return P, cfg

    def setup(self):
        rng = np.random.default_rng(self.seed)
        ball = bodies.make_body("ball")
        configs = []
        for name in self.seed_names:
            marks = corpus.jitter(rng, corpus.CANONICAL_MARKS)
            P, cfg = self._ball_config(name, marks)
            configs.append(("%s/ball" % name, P, cfg, ball))
        if self.with_cube_on_ellipsoid:
            body = bodies.make_body(ELLIPSOID)
            P, cfg = self._cube_on_ellipsoid(rng, body)
            configs.append(("cube/ellipsoid", P, cfg, body))
        h = hashlib.sha256()
        for item, P, cfg, body in configs:
            check = verify.check_midscription(cfg, body, P)
            if check.convexity != "convex" or not check.midscribed:
                raise RuntimeError("set-up configuration %s is %s with "
                                   "tangency residual %.3e" %
                                   (item, check.convexity,
                                    check.max_tangency_residual))
            io.dump_json(os.path.join(self.out_dir, "verify-%d-%s.json"
                                      % (self.seed, item.replace("/", "-"))),
                         io.configuration_to_dict(cfg, P))
            h.update(_config_digest(cfg).encode())
        return {"configs": configs}, h.hexdigest()

    def counted(self, state, tracer):
        configs = [(item, P, cfg, tracing.CountingBody(body, tracer))
                   for item, P, cfg, body in state["configs"]]
        return {"configs": configs}, lambda: None

    def run_pass(self, state, run_op):
        results = []
        for item, P, cfg, body in state["configs"]:
            report, seconds = run_op(verify.verify_configuration,
                                     cfg, body, P)
            summary = (report.max_tangency_residual,
                       report.max_incidence_residual, report.combinatorics_ok,
                       report.convexity, report.contact_graph_primal_ok,
                       report.contact_graph_dual_ok,
                       [e["line_min"] for e in report.per_edge],
                       [e["minimizer_distance"] for e in report.per_edge])
            result = OpResult(
                item=item, seconds=seconds,
                digest=hashlib.sha256(repr(summary).encode()).hexdigest(),
                counters={"passed": report.passed})
            if not report.passed:
                result.wrong = ("verification failed: primal %s dual %s"
                                % (report.contact_graph_primal_ok,
                                   report.contact_graph_dual_ok))
            results.append(result)
        return results


# ---------------------------------------------------------------------------
# solve: sweep-cube and solve-corpus in one pass

class Solve:
    """A sweep-cube pass followed by a solve-corpus pass.

    The two are one workload so that each run is long enough to average out
    the drift in this machine's speed: a run of the three workloads that fit
    the benchmark's time budget lasted about 25 s, and its timings spread by
    about 0.25 across seeds. Items are prefixed with their part's name, and
    the harness also reports each part on its own.
    """

    name = "solve"

    def __init__(self, seed: int, out_dir: str, grid: int = SweepCube.GRID,
                 generated=corpus.GENERATED, seed_names=seeds.SEED_NAMES):
        self.parts = (SweepCube(seed, out_dir, grid),
                      SolveCorpus(seed, out_dir, generated, seed_names))

    def setup(self):
        states, h = [], hashlib.sha256()
        for part in self.parts:
            state, digest = part.setup()
            states.append(state)
            h.update(digest.encode())
        return states, h.hexdigest()

    def counted(self, states, tracer):
        counted, restores = [], []
        for part, state in zip(self.parts, states):
            state, restore = part.counted(state, tracer)
            counted.append(state)
            restores.append(restore)

        def restore_all():
            for restore in reversed(restores):
                restore()
        return counted, restore_all

    def run_pass(self, states, run_op):
        results = []
        for part, state in zip(self.parts, states):
            for result in part.run_pass(state, run_op):
                result.item = "%s/%s" % (part.name, result.item)
                results.append(result)
        return results


WORKLOADS = {w.name: w for w in (Solve, VerifyPackings)}
