"""Reference for the radius solve of ``midscribe.packing``.

This is ``solve_radii`` as it was before its Laplacian pattern was built
once and its line search handed on the energy of the point it accepted:
every Newton step assembles the reduced Laplacian afresh from (row, col)
triplets, and every line search evaluates the energy at its start point
again. Tests require the solver's log radii to equal these bit for bit.
"""

import math

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from midscribe.errors import NonConvergence
from midscribe.packing import (HALF_PI, RADIUS_MAX_ITERATIONS, RADIUS_TOL,
                               TWO_PI, _MAX_HALVINGS, _box_structure,
                               _edge_potential)


class AngleSums:
    """Angle sums of the finite nodes as functions of their log radii x,
    with the Laplacian assembled from triplets at every call."""

    def __init__(self, box, pinned):
        n = len(box.nodes)
        index = {u: i for i, u in enumerate(box.nodes)}
        self.target = np.array([box.targets[u] for u in box.nodes])
        self.u = np.array([index[u] for u in box.nodes
                           for _ in box.neighbors[u]], dtype=np.intp)
        self.w = np.array([index[w] for u in box.nodes
                           for w in box.neighbors[u]], dtype=np.intp)
        once = self.u < self.w
        self.edge_u, self.edge_w = self.u[once], self.w[once]
        self.free = np.arange(n) != index[pinned]
        reduced = np.cumsum(self.free) - 1
        self.off = self.free[self.u] & self.free[self.w]
        self.rows = np.concatenate([reduced[self.u[self.off]],
                                    reduced[self.free]])
        self.cols = np.concatenate([reduced[self.w[self.off]],
                                    reduced[self.free]])
        self.quarter_turns = (np.bincount(self.u, minlength=n)
                              - np.rint(self.target / HALF_PI))

    def residual(self, x):
        kite = np.arctan(np.sinh(x[self.w] - x[self.u]))
        return (np.bincount(self.u, weights=kite, minlength=len(x))
                + self.quarter_turns * HALF_PI)

    def laplacian(self, x):
        weight = 1.0 / np.cosh(x[self.w] - x[self.u])
        degree = np.bincount(self.u, weights=weight, minlength=len(x))
        n_free = len(x) - 1
        return sparse.csc_matrix(
            (np.concatenate([-weight[self.off], degree[self.free]]),
             (self.rows, self.cols)), shape=(n_free, n_free))

    def energy(self, x):
        terms = np.concatenate([self.target * x, -math.pi * x[self.edge_w],
                                _edge_potential(x[self.edge_w]
                                                - x[self.edge_u])])
        return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def line_search(sums, x, step, F, iteration):
    slope = float(F @ step)
    e0, scale = sums.energy(x)
    if slope <= 64.0 * np.finfo(float).eps * scale:
        return x + step, sums.residual(x + step)
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        x_new = x + alpha * step
        if sums.energy(x_new)[0] <= e0 - 1e-4 * alpha * slope:
            return x_new, sums.residual(x_new)
        alpha *= 0.5
    raise NonConvergence("radius solve: line search found no decrease at "
                         "iteration %d, residual %.3e"
                         % (iteration, float(np.max(np.abs(F)))))


def solve_radii(P, frame):
    """(log radii by node, pinned node, residual) of (P, frame)."""
    box = _box_structure(P, frame)
    interior = [u for u in box.nodes if box.targets[u] == TWO_PI]
    pinned = interior[0] if interior else box.nodes[0]
    sums = AngleSums(box, pinned)
    x = np.zeros(len(box.nodes))
    F = sums.residual(x)
    worst = float(np.max(np.abs(F)))
    iterations = 0
    while not worst < RADIUS_TOL:
        if iterations == RADIUS_MAX_ITERATIONS:
            raise NonConvergence("radius solve: residual %.3e after %d "
                                 "iterations" % (worst, iterations))
        step = np.zeros_like(x)
        step[sums.free] = spla.spsolve(sums.laplacian(x), F[sums.free])
        iterations += 1
        if not np.all(np.isfinite(step)):
            raise NonConvergence("radius solve: non-finite Newton step at "
                                 "iteration %d, residual %.3e"
                                 % (iterations, worst))
        x, F = line_search(sums, x, step, F, iterations)
        worst = float(np.max(np.abs(F)))
    return ({u: float(x[i]) for i, u in enumerate(box.nodes)}, pinned,
            worst)
