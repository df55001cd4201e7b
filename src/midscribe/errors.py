"""Exception hierarchy.

Two broad families matter to callers: problems with the input (bad complex,
bad body, bad marks) and failures of the numerical solvers. The CLI maps
InputError to exit code 3 and SolverError to exit code 2.
"""

from __future__ import annotations


class MidscribeError(Exception):
    """Base class for all package errors."""


class InputError(MidscribeError):
    """The problem statement itself is invalid."""


class MalformedSpec(InputError):
    """A complex description is syntactically or structurally broken."""


class NonPolyhedral(InputError):
    """A complex fails a polyhedrality requirement (simple, 3-connected, sphere-like)."""


class NotIncident(NonPolyhedral):
    """A frame edge is not on the boundary of the frame face."""


class NotSequential(NonPolyhedral):
    """Frame edges e1, e2, e3 are not consecutive on the frame face boundary."""


class MalformedDescriptor(InputError):
    """A body descriptor string does not parse."""


class PoleViolation(InputError):
    """The body does not pass through the chart pole (0, 0, 1) with the required normal."""


class NotStrictlyConvex(InputError):
    """The body's gauge fails positive definiteness on a tangent plane."""


class DegenerateMarks(InputError):
    """Marked tangency points are collinear on the sphere or coincide."""


class SolverError(MidscribeError):
    """A numerical stage failed to produce a certified answer."""


class NonConvergence(SolverError):
    """The radius solve did not reach its residual target.

    Raised when the Newton iteration cap is reached, when a Newton step is
    not finite, or when the line search finds no decrease; the message names
    the stage, the iteration count and the residual.
    """


class LayoutInconsistency(SolverError):
    """Planar circle positions disagree with the computed radii."""


class RootNotFound(SolverError):
    """A bracketed scalar root-find failed (no sign change or no convergence)."""


class SingularJacobian(SolverError):
    """The corrector's linear system could not be solved."""


class NoDecrease(SolverError):
    """Backtracking line search could not reduce the residual."""


class MaxIterations(SolverError):
    """Newton corrector hit its iteration cap above tolerance."""


class StepUnderflow(SolverError):
    """Continuation step size shrank below the floor.

    Carries how far along the homotopy the last accepted configuration got,
    so callers can report partial progress.
    """

    def __init__(self, message: str, last_good_s: float = 0.0, report=None):
        super().__init__(message)
        self.last_good_s = last_good_s
        self.report = report


class DegenerateConfiguration(SolverError):
    """Tangency points or face circles collapsed along the homotopy path."""


class PathConvexityFailure(SolverError):
    """An intermediate body along the homotopy failed a convexity check."""


class DimensionMismatch(MidscribeError):
    """An internal consistency count (unknowns vs equations) failed."""


class NotMidscribed(MidscribeError):
    """A verification routine was handed a configuration it cannot certify."""
