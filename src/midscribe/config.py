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


# why a continuation step was rejected: its Newton corrector failed, its
# solution left the branch's sign pattern, or its solution degenerated
STEP_REJECT_REASONS = ("corrector", "branch", "degeneracy")

# the SolveReport fields a deferred condition audit fills in
_AUDITED_FIELDS = ("jacobian_condition_estimate", "rank_deficiency")


@dataclass
class SolveReport:
    """Outcome bookkeeping for a Newton solve or a whole continuation run.

    jacobian_condition_estimate is the worst (largest) spectral condition
    number seen across accepted solutions; rank_deficiency counts singular
    values below 1e-12 of the largest at the final solution (0 expected).
    Both come from ConstraintSystem.condition: a dense SVD on systems of up
    to solver.DENSE_AUDIT_MAX_N unknowns, and above that a Lanczos estimate
    accurate to about 1e-12 relative, with the dense SVD as its fallback
    whenever the estimate fails or the Jacobian is near singular.
    step_history rows are (s, ds, newton_iterations) of the accepted steps;
    steps_rejected counts the rejected ones by STEP_REJECT_REASONS.

    The solver's reports defer that audit (defer_audit) to a callable: the
    first read of either field calls it, which runs condition at every
    accepted solution in order and reads solver.DENSE_AUDIT_MAX_N and
    solver.LANCZOS_MIN_RATIO at that time. The two values are then stored
    and the callable dropped. repr, == and pickling read the fields, so
    they show the audited values and no callable is ever pickled.
    """

    converged: bool
    iterations: int
    final_residual: float
    # default factories leave no class attribute that would answer a read
    # of an audited field before __getattr__ does
    jacobian_condition_estimate: float = field(
        default_factory=lambda: float("nan"))
    step_history: list = field(default_factory=list)
    rank_deficiency: int = field(default_factory=int)
    steps_rejected: dict = field(
        default_factory=lambda: dict.fromkeys(STEP_REJECT_REASONS, 0))

    def defer_audit(self, audit):
        """Leave both audited fields to audit(), which returns them and is
        called on the first read of either; until then they are unset."""
        del self.jacobian_condition_estimate, self.rank_deficiency
        self._audit = audit

    def __getattr__(self, name):
        # reached only for a missing attribute: an audited field whose
        # audit is still deferred, or a name the report does not have
        if name in _AUDITED_FIELDS and "_audit" in self.__dict__:
            self._run_audit()
            return self.__dict__[name]
        raise AttributeError("%r object has no attribute %r"
                             % (type(self).__name__, name))

    def __getstate__(self):
        if "_audit" in self.__dict__:
            self._run_audit()
        return self.__dict__

    def _run_audit(self):
        values = self._audit()
        self.jacobian_condition_estimate, self.rank_deficiency = values
        del self._audit
