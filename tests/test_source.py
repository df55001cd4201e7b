"""Guards on the source tree itself."""
import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "midscribe"


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
