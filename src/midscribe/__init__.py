"""Midscribed polyhedra over smooth strictly convex bodies.

Given a polyhedral complex P and a body K, compute the realization of P
whose edge lines are all tangent to the boundary of K, normalized by three
marked tangent points. The unit-ball case is solved exactly via an
orthogonal primal-dual circle packing; general bodies are reached by
numerical continuation along a blend of gauge functions.
"""

__version__ = "0.1.0"

from . import errors
from .bodies import (Ball, BodyChart, BodyPath, ConvexBody, Ellipsoid,
                     GaugeBlend, Superellipsoid, make_body, make_path,
                     validate_body)
from .combinatorics import (DimensionReport, Frame, PolyhedralComplex,
                            build_complex, dimension_audit, dual_complex,
                            load_complex_file, parse_complex_json, parse_off,
                            select_frame)
from .config import EPS_INFINITY, Configuration, SolveReport
from .packing import (Circle, CirclePattern, SphericalPattern, ball_packing,
                      koebe_config, layout_circles, lift_normalize,
                      planar_pattern_residuals, solve_radii,
                      spherical_pattern_residuals)
from .seeds import SEED_NAMES, seed_complex, seed_coordinates
from .solver import (ConstraintSystem, RigidityReport, continue_from_pattern,
                     continue_to_body, newton_refine, rigidity_probe)
from .verify import (DiskPacking, VerifyReport, check_convexity,
                     check_midscription, extract_kdisk_packings,
                     verify_configuration)

__all__ = [
    "Ball", "BodyChart", "BodyPath", "Circle", "CirclePattern",
    "Configuration", "ConstraintSystem", "ConvexBody", "DimensionReport",
    "DiskPacking", "EPS_INFINITY", "Ellipsoid", "Frame", "GaugeBlend",
    "PolyhedralComplex", "RigidityReport", "SEED_NAMES", "SolveReport",
    "SphericalPattern", "Superellipsoid", "VerifyReport", "ball_packing",
    "build_complex", "check_convexity", "check_midscription",
    "continue_from_pattern", "continue_to_body", "dimension_audit",
    "dual_complex", "errors", "extract_kdisk_packings", "koebe_config",
    "layout_circles", "lift_normalize", "load_complex_file", "make_body",
    "make_path", "newton_refine", "parse_complex_json", "parse_off",
    "planar_pattern_residuals", "rigidity_probe", "seed_complex",
    "seed_coordinates", "select_frame", "solve_radii",
    "spherical_pattern_residuals", "validate_body", "verify_configuration",
]
