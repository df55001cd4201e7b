"""Shared value types for solved polyhedron configurations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# below this |x0| a unit projective 4-vector counts as a point at infinity
EPS_INFINITY = 1e-7


@dataclass
class Configuration:
    """One oriented plane per face, projective vertices, edge tangent points.

    Planes are <n_f, x> = d_f with outward unit normals. Vertices are unit
    4-vectors [x0, x1, x2, x3]; the affine position is x[1:4]/x0 when |x0| is
    not too small. Tangent points of the three marked edges are pinned
    constants, repeated in marked_points in frame edge order.
    """

    normals: np.ndarray      # (F, 3)
    offsets: np.ndarray      # (F,)
    vertices4: np.ndarray    # (V, 4), kept unit-normalized
    tangents: np.ndarray     # (E, 3)
    marked_edges: tuple[int, int, int]
    marked_points: np.ndarray  # (3, 3)

    def copy(self) -> "Configuration":
        return Configuration(self.normals.copy(), self.offsets.copy(),
                             self.vertices4.copy(), self.tangents.copy(),
                             self.marked_edges, self.marked_points.copy())

    def affine_vertices(self):
        """(positions (V,3), finite mask); infinite rows are nan."""
        v4 = self.vertices4 / np.linalg.norm(self.vertices4, axis=1, keepdims=True)
        finite = np.abs(v4[:, 0]) > EPS_INFINITY
        pos = np.full((len(v4), 3), np.nan)
        pos[finite] = v4[finite, 1:] / v4[finite, :1]
        return pos, finite


@dataclass
class SolveReport:
    """Outcome bookkeeping for a Newton solve or a whole continuation run.

    jacobian_condition_estimate is the worst (largest) spectral condition
    number seen across accepted solutions; rank_deficiency counts singular
    values below 1e-12 of the largest at the final solution (0 expected).
    step_history rows are (s, ds, newton_iterations).
    """

    converged: bool
    iterations: int
    final_residual: float
    jacobian_condition_estimate: float = float("nan")
    step_history: list = field(default_factory=list)
    rank_deficiency: int = 0

