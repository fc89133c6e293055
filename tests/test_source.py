"""Static checks of the package's source."""

import ast
from pathlib import Path

import distlap

PACKAGE = Path(distlap.__file__).parent


def test_every_module_level_import_is_read():
    # a name imported at module level that the module never reads is a dead
    # import; __init__ imports to export, and __future__ imports are directives
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in read, f"{path.name} imports {name} and never reads it"
