"""The simulator imports nothing outside the standard library."""

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
