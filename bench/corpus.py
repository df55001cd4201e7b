"""Seeded corpus of polyhedral complexes for the solve benchmark.

Generated instances are random sphere hulls, n-prisms and n-antiprisms.
Their combinatorics come only from ``seeds.faces_from_coordinates`` and
``combinatorics.build_complex``; the generating coordinates are used only to
choose marks. The random generator is seeded by the benchmark's ``--seed``
argument, so one seed always yields the same corpus.
An instance that later fails to solve is counted as a failed op: nothing is
dropped or re-drawn here after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from midscribe import bodies, combinatorics, seeds, solver

# Kinds and sizes of the generated complexes, in the order they are solved.
# V runs from 12 to 30, where the radius solve, the Jacobian assembly and the
# dense audit come to dominate a continuation, while a pass of the solve
# workload stays short enough for three passes in a run of fifty seconds.
GENERATED = (("hull", 12), ("prism", 8), ("hull", 20), ("antiprism", 15))

CANONICAL_MARKS = (0j, 1 + 0j, 1j)
MARK_JITTER = 0.02


@dataclass(frozen=True)
class Instance:
    """One complex with its frame and the marks drawn for it."""

    name: str
    P: combinatorics.PolyhedralComplex
    frame: combinatorics.Frame
    marks: tuple

    def stats(self) -> dict:
        """V/E/F and the size of the square system solved for this instance."""
        system = solver.ConstraintSystem(self.P, self.frame, np.eye(3),
                                         bodies.Ball())
        return {"name": self.name, "V": self.P.n_vertices,
                "E": self.P.n_edges, "F": self.P.n_faces,
                "n_unknowns": system.n_unknowns}


def sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random, evenly spread points on the unit sphere.

    A Fibonacci lattice, each point moved by up to a third of the lattice
    spacing and the whole set randomly rotated. Evenly spread points keep
    slivers out of the hull, so the work per instance depends on n more than
    on the draw; their hull is simplicial.
    """
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    x = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    x += rng.uniform(-1.0, 1.0, size=x.shape) * math.sqrt(4.0 / n) / 3.0
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    x = x @ q
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def prism_points(n: int, anti: bool) -> np.ndarray:
    """Regular n-prism or n-antiprism with every edge line tangent to the
    unit sphere.

    Prism: ring radius 1, height sin(pi/n) (as for the seed prisms).
    Antiprism: the top ring is turned by pi/n; a lateral edge's midpoint is
    its point nearest the origin, which fixes the ring radius at
    1/cos(pi/2n), and the ring edges then fix the height.
    """
    twist = math.pi / n if anti else 0.0
    radius = 1.0 / math.cos(math.pi / (2 * n)) if anti else 1.0
    h = math.sqrt(1.0 - (radius * math.cos(math.pi / n)) ** 2)
    angles = 2.0 * math.pi * np.arange(n) / n
    ring = [(radius * math.cos(a), radius * math.sin(a), -h) for a in angles]
    ring += [(radius * math.cos(a + twist), radius * math.sin(a + twist), h)
             for a in angles]
    return np.array(ring)


def complex_from_points(points: np.ndarray) -> combinatorics.PolyhedralComplex:
    return combinatorics.build_complex(seeds.faces_from_coordinates(points),
                                       n_vertices=len(points))


def generated_complex(rng: np.random.Generator, kind: str, size: int):
    """(name, points) of one generated convex polytope."""
    if kind == "hull":
        return "hull%d" % size, sphere_points(rng, size)
    if kind == "prism":
        return "prism%d" % size, prism_points(size, anti=False)
    if kind == "antiprism":
        return "antiprism%d" % size, prism_points(size, anti=True)
    raise ValueError("unknown generated kind %r" % kind)


def small_face_frame(P: combinatorics.PolyhedralComplex) -> combinatorics.Frame:
    """Frame on the first face of least degree."""
    degrees = [len(face) for face in P.faces]
    return combinatorics.select_frame(P, degrees.index(min(degrees)))


def jitter(rng: np.random.Generator, marks) -> tuple:
    """Each mark moved by a uniform offset of at most MARK_JITTER."""
    offsets = rng.uniform(-MARK_JITTER, MARK_JITTER, size=(len(marks), 2))
    return tuple(complex(z) + complex(dx, dy)
                 for z, (dx, dy) in zip(marks, offsets))


def polytope_marks(P, frame, points) -> tuple:
    """Ball-chart coordinates of the frame edges' directions in the polytope.

    The direction of a frame edge is that of the foot of the perpendicular
    from the origin to its line in the generating coordinates. For the
    prisms and antiprisms, whose edge lines touch the unit sphere, these are
    the marks of that symmetric realization; for a hull they give one of
    roughly the hull's shape. Fixed marks such as 0, 1, i can instead pull a
    vertex of a random hull close to infinity, where the continuation may
    stall.
    """
    feet = seeds.perpendicular_feet(P, points)
    chart = bodies.BodyChart(bodies.Ball())
    return tuple(chart.forward(feet[e] / np.linalg.norm(feet[e]))
                 for e in frame.edges)


def build_corpus(seed: int, generated=GENERATED,
                 seed_names=seeds.SEED_NAMES) -> list[Instance]:
    """The named seeds at marks near 0, 1, i, then the generated complexes at
    marks near their own polytope's."""
    rng = np.random.default_rng(seed)
    instances = []
    for name in seed_names:
        P, _coords = seeds.seed_complex(name)
        instances.append(Instance(name, P, combinatorics.select_frame(P),
                                  jitter(rng, CANONICAL_MARKS)))
    for kind, size in generated:
        name, points = generated_complex(rng, kind, size)
        P = complex_from_points(points)
        frame = small_face_frame(P)
        marks = jitter(rng, polytope_marks(P, frame, points))
        instances.append(Instance(name, P, frame, marks))
    return instances
