"""Span tracer that times calls into midscribe from outside the package.

Nothing in ``src/`` is edited. ``install`` replaces the public functions and
methods listed in ``TRACED`` by wrappers that record a span per call, and
puts proxies in front of the solver's ``numpy`` and ``scipy.sparse.linalg``
so the linear solves and the least-squares fallback can be seen. The target
body of a run is wrapped in ``CountingBody``, which counts gauge calls. The
wrappers only delegate, so a traced run computes the same floats as an
untraced one; the harness checks that bit for bit.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written
out when the run ends. Self time is a span's duration minus the durations of
its direct children, so the self times of all spans of an op add up to the
op's own duration.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from midscribe import (bodies, cli, combinatorics, errors, io, packing, solver,
                       verify)

# (owner, attribute, span name). Several entries may share one span name:
# layout, lift and the Koebe configuration are reported together.
TRACED = (
    (combinatorics, "build_complex", "combinatorics.build_complex"),
    (bodies, "make_body", "bodies.make_body"),
    (bodies, "make_path", "bodies.make_path"),
    (bodies.BodyChart, "inverse", "bodies.chart_inverse"),
    (packing, "solve_radii", "packing.solve_radii"),
    (packing, "layout_circles", "packing.layout_lift"),
    (packing, "lift_normalize", "packing.layout_lift"),
    (packing, "koebe_config", "packing.layout_lift"),
    (solver.ConstraintSystem, "__init__", "solver.system_build"),
    (solver.ConstraintSystem, "residual", "solver.residual"),
    (solver.ConstraintSystem, "jacobian", "solver.jacobian"),
    (solver.ConstraintSystem, "singular_values", "solver.svd_audit"),
    (solver, "continue_to_body", "solver.continue"),
    (verify, "verify_configuration", "verify.verify_configuration"),
    (verify, "check_midscription", "verify.check_midscription"),
    (verify, "check_convexity", "verify.check_convexity"),
    (verify, "extract_kdisk_packings", "verify.kdisk_extract"),
    (io, "dump_json", "io.write"),
    (io, "write_off", "io.write"),
    (io, "write_sweep_csv", "io.write"),
    (cli, "cmd_sweep", "cli.sweep"),
    (cli, "_sweep_worker", "cli.sweep_cell"),
)

CONTINUE = "solver.continue"
LINEAR_SOLVE = "solver.linear_solve"


class Tracer:
    """In-memory spans plus the exact counters gathered at the same calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.n_ops = 0
        self.gauge_evals = 0
        self.lstsq_fallbacks = 0
        self.solve_reports = []

    def call(self, name, fn, args, kwargs, op_root=False):
        parent = self.stack[-1] if self.stack else -1
        outer_op = self.op
        if op_root:
            self.op = self.n_ops
            self.n_ops += 1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name == CONTINUE:
                self.solve_reports.append(result[1])
            return result
        except errors.StepUnderflow as exc:
            if name == CONTINUE:
                self.solve_reports.append(exc.report)
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.op = outer_op

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _child_time(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self) -> dict:
        """(self time, call count) per span name."""
        child = self._child_time()
        totals = defaultdict(lambda: [0.0, 0])
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += (end - start) - child[k]
            entry[1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def op_durations(self) -> dict:
        """Duration of each op root span, by op id."""
        return {op: end - start for name, start, end, parent, op in self.spans
                if op is not None and (parent < 0 or
                                       self.spans[parent][4] != op)}

    def op_self_times(self) -> dict:
        """Self time per span name within each op, by op id."""
        child = self._child_time()
        per_op = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if op is not None:
                per_op[op][name] += (end - start) - child[k]
        return {op: dict(times) for op, times in per_op.items()}


class CountingBody(bodies.ConvexBody):
    """Delegating body that counts value, gradient and hessian calls."""

    def __init__(self, body: bodies.ConvexBody, tracer: Tracer):
        self.body = body
        self.tracer = tracer

    def value(self, x):
        self.tracer.gauge_evals += 1
        return self.body.value(x)

    def gradient(self, x):
        self.tracer.gauge_evals += 1
        return self.body.gradient(x)

    def hessian(self, x):
        self.tracer.gauge_evals += 1
        return self.body.hessian(x)

    @property
    def descriptor(self):
        return self.body.descriptor


def counting_path(path: bodies.BodyPath, tracer: Tracer) -> bodies.BodyPath:
    """The same homotopy with its target body counted."""
    return bodies.BodyPath(start=path.start,
                           end=CountingBody(path.end, tracer))


class _Proxy:
    """Module stand-in: the given attributes, everything else delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _TracedLU:
    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs):
        return self._tracer.call(LINEAR_SOLVE, self._lu.solve, (rhs,), {})


def _solver_proxies(tracer: Tracer):
    np_mod, spla = solver.np, solver.spla

    def splu(matrix):
        lu = tracer.call(LINEAR_SOLVE, spla.splu, (matrix,), {})
        return _TracedLU(lu, tracer)

    def lstsq(*args, **kwargs):
        tracer.lstsq_fallbacks += 1
        return tracer.call(LINEAR_SOLVE, np_mod.linalg.lstsq, args, kwargs)

    linalg = _Proxy(np_mod.linalg, lstsq=lstsq)
    return {"np": _Proxy(np_mod, linalg=linalg), "spla": _Proxy(spla, splu=splu)}


def _midscribe_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "midscribe"
                                  or name.startswith("midscribe."))]


def install(tracer: Tracer):
    """Patch every reference to the traced callables; returns an undo.

    Module-level functions are replaced wherever a midscribe module holds a
    reference to the same object, because several modules import them by
    name.
    """
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = _midscribe_modules()
    for owner, attr, name in TRACED:
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            replace(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replace(module, key, wrapped)
    for attr, proxy in _solver_proxies(tracer).items():
        replace(solver, attr, proxy)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall

