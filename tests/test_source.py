"""Guards on the source tree itself."""
import ast
import importlib.util
import pathlib
import re

from midscribe import bodies, solver

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "midscribe"


def _trees_and_reads():
    """The parsed modules of src/midscribe and every name they read, as a
    variable or as an attribute."""
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))]
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads.add(node.attr)
    return trees, reads


def test_every_module_constant_is_read():
    # a constant left behind by deleting the code that read it
    trees, reads = _trees_and_reads()
    constants = set()
    for tree in trees:
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            constants.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
                and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id))
    assert constants and sorted(constants - reads) == []


def test_every_private_function_is_read():
    # a helper left behind by deleting the code that called it
    trees, reads = _trees_and_reads()
    functions = {node.name for tree in trees for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("_")
                 and not node.name.startswith("__")}
    assert functions and sorted(functions - reads) == []


def test_solver_calls_splu_with_the_matrix_alone():
    # bench/tracing.py traces the linear solves through a proxy defined as
    # splu(matrix): a second argument or a keyword such as permc_spec= would
    # make every traced run fail with a TypeError
    tree = ast.parse((SRC / "solver.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "splu"]
    assert calls
    for call in calls:
        assert isinstance(call.func.value, ast.Name)
        assert call.func.value.id == "spla"
        assert len(call.args) == 1 and not call.keywords
        assert not isinstance(call.args[0], ast.Starred)


def test_verify_solves_no_least_squares():
    # the edge lines' points come in closed form; a dense solve per edge
    # was most of the line search
    assert "lstsq" not in (SRC / "verify.py").read_text()


def _calls_outside(node, names, allowed, inside=False):
    """(name, line) of each call of one of names that no function or class
    named in allowed encloses."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside or node.name in allowed
    if isinstance(node, ast.Call) and not inside:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name in names:
            yield name, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _calls_outside(child, names, allowed, inside)


def test_derived_structures_are_built_only_by_their_builders():
    # SystemLayout, the box structure and the contact graphs depend on the
    # complex (and frame) alone; called outside a builder passed to
    # combinatorics.derived, they would be rebuilt on every solve or check
    # instead of once per complex
    owned = {"SystemLayout", "_box_structure", "_contact_graph"}
    trees, _ = _trees_and_reads()
    builders = {node.args[1].id for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "derived"}
    assert owned <= builders
    found = [call for tree in trees
             for call in _calls_outside(tree, owned, builders)]
    assert found == []
    # the radius solve and the layout make the planar ball packing, which
    # depends on (P, frame) alone: run anywhere but in its builder, they
    # would lay it out again on every solve
    assert "_ball_packing" in builders
    found = [call for tree in trees
             for call in _calls_outside(tree, {"solve_radii", "layout_circles"},
                                        {"_ball_packing"})]
    assert found == []


def test_complexes_and_frames_are_built_only_by_their_validators():
    # the solver and the packing rely on build_complex's checks (Euler's
    # relation, degree >= 3, 3-connectivity) and on select_frame's without
    # repeating them; a complex or frame built elsewhere could skip them
    trees, _ = _trees_and_reads()
    for cls, validator in (("PolyhedralComplex", "build_complex"),
                           ("Frame", "select_frame")):
        found = [call for tree in trees
                 for call in _calls_outside(tree, {cls}, {validator})]
        assert found == []
        assert any(call for tree in trees
                   for call in _calls_outside(tree, {cls}, set()))


def test_bench_traced_attributes_exist():
    # bench/tracing.py patches what TRACED names, proxies the solver's np
    # and spla, and its CountingBody delegates value, gradient and hessian;
    # an attribute deleted from src/ would fail every traced run, deep in
    # the benchmark, instead of here with its name
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracing.TRACED
               if attr not in vars(owner)]
    missing += [(module.__name__, attr)
                for module, attrs in ((solver, ("np", "spla")),
                                      (bodies.ConvexBody,
                                       ("value", "gradient", "hessian")))
                for attr in attrs if not hasattr(module, attr)]
    assert missing == []
