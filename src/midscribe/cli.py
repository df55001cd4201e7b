"""Command line interface: pack, midscribe, verify, sweep, export-body.

Exit codes: 0 success, 2 solver failure, 3 invalid input, 4 verification
failure. Every JSON output embeds a run manifest describing the invocation.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import io as formats
from . import seeds
from .bodies import BodyPath, make_body, make_path
from .combinatorics import (PolyhedralComplex, build_complex,
                            load_complex_file, select_frame)
from .errors import InputError, MalformedSpec, NotMidscribed, SolverError, StepUnderflow
from .packing import CirclePattern, layout_circles, lift_normalize, solve_radii
from .solver import continue_from_pattern, continue_to_body, rigidity_probe
from .verify import check_convexity, check_midscription, verify_configuration


@dataclass
class RunManifest:
    """Everything needed to reproduce one invocation."""

    command: str
    inputs: dict
    body: str | None
    marks: str | None
    frame: str | None
    options: dict
    tool_version: str
    wall_time_s: float = 0.0


def _tool_version() -> str:
    from . import __version__
    return __version__


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(3)


_BARE_I = re.compile(r"(?<![0-9a-zA-Z_.])i\b")


def parse_marks(text: str) -> tuple[complex, complex, complex]:
    """Three comma-separated complex literals in a+bi notation."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise MalformedSpec("need three marks, got %r" % text)
    out = []
    for part in parts:
        if not part:
            raise MalformedSpec("empty mark in %r" % text)
        s = _BARE_I.sub("1j", part).replace("i", "j")
        try:
            z = complex(s.replace(" ", ""))
        except ValueError:
            raise MalformedSpec("cannot parse mark %r" % part)
        if not cmath.isfinite(z):
            raise MalformedSpec("mark %r is not finite" % part)
        out.append(z)
    return tuple(out)


def _tolerance(text: str) -> float:
    """--tol: a finite number greater than zero. argparse passes the
    MalformedSpec through to main, which exits 3."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise MalformedSpec("tol must be finite and positive, got %r" % text)
    return tol


def parse_frame_spec(text: str):
    """face:e1,e2,e3 -> (face, (e1, e2, e3))."""
    try:
        face_part, edge_part = text.split(":")
        edges = tuple(int(e) for e in edge_part.split(","))
        if len(edges) != 3:
            raise ValueError
        return int(face_part), edges
    except ValueError:
        raise MalformedSpec("frame must look like FACE:E1,E2,E3, got %r" % text)


def _load_complex(name_or_path: str):
    if name_or_path in seeds.SEED_NAMES:
        P, _coords = seeds.seed_complex(name_or_path)
        return P
    if not os.path.exists(name_or_path):
        raise MalformedSpec("complex %r is neither a file nor a seed name (%s)"
                            % (name_or_path, ", ".join(seeds.SEED_NAMES)))
    return load_complex_file(name_or_path)


def _get_frame(P, args):
    if args.frame:
        face, edges = parse_frame_spec(args.frame)
        return select_frame(P, face, edges)
    return select_frame(P)


def _manifest(args, command: str, **options) -> RunManifest:
    return RunManifest(
        command=command,
        inputs={"complex": getattr(args, "complex", None)},
        body=getattr(args, "body", None),
        marks=getattr(args, "marks", None),
        frame=getattr(args, "frame", None),
        options=options,
        tool_version=_tool_version(),
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_pack(args) -> int:
    t0 = time.monotonic()
    P = _load_complex(args.complex)
    frame = _get_frame(P, args)
    marks_z = parse_marks(args.marks)
    radii = solve_radii(P, frame)
    planar = layout_circles(P, frame, radii)
    spherical = lift_normalize(planar, marks_z)
    manifest = _manifest(args, "pack")
    manifest.wall_time_s = time.monotonic() - t0
    out = args.out or "pattern.json"
    formats.dump_json(out, formats.pattern_to_dict(spherical, asdict(manifest)))
    print("wrote %s" % out)
    return 0


def cmd_midscribe(args) -> int:
    if args.starts < 0:
        raise MalformedSpec("starts must be zero or more, got %d" % args.starts)
    t0 = time.monotonic()
    P = _load_complex(args.complex)
    frame = _get_frame(P, args)
    marks_z = parse_marks(args.marks)
    body = make_body(args.body)
    path = make_path(body)
    cfg, solve_report = continue_to_body(P, frame, marks_z, path,
                                         tol=args.tol)
    report = verify_configuration(cfg, body, P, with_packings=False)

    rigidity = None
    if args.starts:
        rigidity = rigidity_probe(P, frame, marks_z, path,
                                  n_starts=args.starts, base=cfg)

    manifest = _manifest(args, "midscribe", tol=args.tol, starts=args.starts)
    manifest.wall_time_s = time.monotonic() - t0

    positions, finite = cfg.affine_vertices()
    out = args.out or "midscribed.off"
    degenerate = not bool(finite.all())
    if degenerate:
        print("warning: vertices at infinity; writing JSON only, no OFF",
              file=sys.stderr)
    else:
        formats.write_off(out, positions, P.faces)
        print("wrote %s" % out)

    payload = formats.configuration_to_dict(cfg, P, asdict(manifest))
    payload["verify"] = formats.verify_report_to_dict(report)
    payload["solve"] = {
        "converged": solve_report.converged,
        "iterations": solve_report.iterations,
        "final_residual": solve_report.final_residual,
        "jacobian_condition_estimate": solve_report.jacobian_condition_estimate,
        "rank_deficiency": solve_report.rank_deficiency,
        "steps": [list(step) for step in solve_report.step_history],
    }
    if rigidity is not None:
        payload["rigidity"] = {
            "n_starts": rigidity.n_starts,
            "n_converged": rigidity.n_converged,
            "max_pairwise_distance": rigidity.max_pairwise_distance,
        }
    report_path = args.report or (os.path.splitext(out)[0] + ".json")
    formats.dump_json(report_path, payload)
    print("wrote %s" % report_path)
    if not report.passed:
        print("verification failed: tangency %.3e incidence %.3e"
              % (report.max_tangency_residual, report.max_incidence_residual),
              file=sys.stderr)
        return 4
    return 0


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise MalformedSpec("config %s is not JSON: %s" % (args.config, exc))
    cfg, P_embedded = formats.configuration_from_dict(data)
    P = _load_complex(args.complex) if args.complex else P_embedded
    if args.body is None:
        args.body = (data.get("manifest") or {}).get("body") or "ball"
    body = make_body(args.body)
    report = verify_configuration(cfg, body, P, tol=args.tol)
    manifest = _manifest(args, "verify", tol=args.tol)
    manifest.inputs["config"] = args.config
    manifest.wall_time_s = time.monotonic() - t0
    payload = formats.verify_report_to_dict(report, asdict(manifest))
    if args.report:
        formats.dump_json(args.report, payload)
        print("wrote %s" % args.report)
    print("tangency %.3e incidence %.3e convexity=%s primal=%s dual=%s"
          % (report.max_tangency_residual, report.max_incidence_residual,
             report.convexity, report.contact_graph_primal_ok,
             report.contact_graph_dual_ok))
    return 0 if report.passed else 4


@dataclass
class _SweepSetup:
    """What every cell of one sweep shares: the complex, the body's path and
    the planar ball packing. path and planar are None when the body, its
    path or the packing raised an input or solver error; every cell then
    fails."""

    P: PolyhedralComplex
    path: BodyPath | None
    planar: CirclePattern | None


_SWEEP: _SweepSetup | None = None  # this process's sweep, set by _sweep_setup


def _sweep_setup(faces, n_vertices, frame_spec, body_desc) -> None:
    """Build this process's sweep state; the pool's worker initializer."""
    global _SWEEP
    P = build_complex(faces, n_vertices=n_vertices)
    frame = select_frame(P, frame_spec[0], frame_spec[1])
    try:
        path = make_path(make_body(body_desc))
        planar = layout_circles(P, frame, solve_radii(P, frame))
    except (InputError, SolverError):
        path = planar = None
    _SWEEP = _SweepSetup(P, path, planar)


def _sweep_worker(task):
    """One sweep cell: continue from the shared packing to the marks
    (z1, z2, z3), then classify. Reads the state _sweep_setup left."""
    z1, z2, z3, tol = task
    setup = _SWEEP
    if setup.planar is None:
        return (z1, z2, z3, "failed", float("nan"))
    try:
        cfg, _report = continue_from_pattern(setup.planar, (z1, z2, z3),
                                             setup.path, tol=tol)
        cls, info = check_convexity(cfg, setup.P, detailed=True)
        if info["marginal"] and cls in ("convex", "nonconvex"):
            cls += "-marginal"
        check = check_midscription(cfg, setup.path.end, setup.P)
        residual = max(check.max_tangency_residual,
                       check.max_incidence_residual)
    except (InputError, SolverError):
        return (z1, z2, z3, "failed", float("nan"))
    return (z1, z2, z3, cls, residual)


def cmd_sweep(args) -> int:
    global _SWEEP
    P = _load_complex(args.complex)
    frame = _get_frame(P, args)
    marks_z = parse_marks(args.marks)
    z1, z2 = marks_z[0], marks_z[1]
    try:
        x0, x1, y0, y1 = box = [float(t) for t in args.grid_box.split(",")]
        if not all(map(math.isfinite, box)):
            raise ValueError
    except ValueError:
        raise MalformedSpec("grid box must be four finite numbers "
                            "X0,X1,Y0,Y1, got %r" % args.grid_box)
    n = args.grid
    if n < 1:
        raise MalformedSpec("grid must be a positive integer, got %d" % n)
    workers = os.cpu_count() or 1
    cap = os.environ.get("MIDSCRIBE_THREADS")
    if cap:
        try:
            workers = max(1, min(workers, int(cap)))
        except ValueError:
            raise MalformedSpec("MIDSCRIBE_THREADS must be an integer, got %r"
                                % cap)
    tasks = [(z1, z2, complex(xv, yv), args.tol)
             for yv in np.linspace(y0, y1, n)
             for xv in np.linspace(x0, x1, n)]
    setup = (P.faces, P.n_vertices, (frame.face, frame.edges), args.body)
    if workers == 1:
        _sweep_setup(*setup)
        try:
            rows = [_sweep_worker(t) for t in tasks]
        finally:
            _SWEEP = None
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_sweep_setup,
                                 initargs=setup) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    out = args.out or "sweep.csv"
    formats.write_sweep_csv(out, rows)
    n_ok = sum(1 for r in rows if r[3] != "failed")
    print("wrote %s (%d/%d converged)" % (out, n_ok, len(rows)))
    return 0


def cmd_export_body(args) -> int:
    if args.grid < 2:
        raise MalformedSpec("grid must be at least 2, got %d" % args.grid)
    body = make_body(args.body)
    verts, tris = formats.boundary_mesh(body, n=args.grid)
    out = args.out or "body.off"
    formats.write_off(out, verts, tris)
    print("wrote %s" % out)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="midscribe",
                     description="Midscribed polyhedra: tangent-edge "
                                 "realizations over smooth convex bodies.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, solve=True):
        """--complex, --marks, --frame, --out; --body and --tol to solve."""
        p.add_argument("--complex", required=True,
                       help="path to an OFF/JSON complex, or a seed name (%s)"
                            % ", ".join(seeds.SEED_NAMES))
        if solve:
            p.add_argument("--body", default="ball",
                           help="body descriptor, e.g. ball, "
                                "ellipsoid:a=1.2,b=1.0, "
                                "superellipsoid:p=4,a=1,b=1")
            p.add_argument("--tol", type=_tolerance, default=1e-11,
                           help="residual tolerance of the continuation")
        p.add_argument("--marks", default="0,1,i",
                       help="three chart coordinates z1,z2,z3 (a+bi)")
        p.add_argument("--frame", default=None,
                       help="FACE:E1,E2,E3 (default: face 0, first three edges)")
        p.add_argument("--out", default=None)

    p = sub.add_parser("pack", help="ball packing, normalized to the marks")
    common(p, solve=False)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("midscribe", help="solve for the midscribed polyhedron")
    common(p)
    p.add_argument("--report", default=None, help="JSON report path")
    p.add_argument("--starts", type=int, default=0,
                   help="rigidity probe restarts to run after solving")
    p.set_defaults(func=cmd_midscribe)

    p = sub.add_parser("verify", help="verify a configuration JSON")
    p.add_argument("config", help="configuration JSON path")
    p.add_argument("--complex", default=None)
    p.add_argument("--body", default=None,
                   help="body descriptor (default: the one recorded in the "
                        "configuration's manifest, else ball)")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="classify a grid of third marks")
    common(p)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--grid-box", default="-2,2,-2,2",
                   help="X0,X1,Y0,Y1 bounds for the third mark")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-body", help="write a triangulated boundary mesh")
    p.add_argument("--body", default="ball")
    p.add_argument("--grid", type=int, default=48)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_body)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    except StepUnderflow as exc:
        print("solver failed: %s (last good s = %.6f)"
              % (exc, exc.last_good_s), file=sys.stderr)
        return 2
    except SolverError as exc:
        print("solver failed: %s" % exc, file=sys.stderr)
        return 2
    except NotMidscribed as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
