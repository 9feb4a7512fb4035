"""The simulator imports nothing outside the standard library, and raises
every exception class it defines."""

import ast
import sys
from pathlib import Path

import colorcap


def test_every_absolute_import_is_stdlib_or_colorcap():
    package = Path(colorcap.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"colorcap"}
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert outside == []


def test_every_exception_class_is_raised():
    """An exception class that no `raise` names is only ever caught: its
    `except` clauses are dead code."""
    trees = [ast.parse(path.read_text()) for path in Path(colorcap.__file__).parent.glob("*.py")]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in nodes
        if isinstance(node, ast.ClassDef)
    }
    exceptions = {"Exception"}
    while grown := {name for name, of in bases.items() if of & exceptions} - exceptions:
        exceptions |= grown
    raised = {
        name.id
        for node in nodes
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, ast.Name)
    }
    defined = exceptions - {"Exception"}
    assert defined >= {"ConfigError", "ParseError", "PoolExhausted"}
    assert sorted(defined - raised) == []
