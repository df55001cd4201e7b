"""Guards on the source tree itself."""
import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "midscribe"


def test_every_module_constant_is_read():
    # a constant left behind by deleting the code that read it
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
