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


def test_every_module_level_private_name_is_read():
    # a function, class or assignment at module level whose name starts with
    # one underscore is the package's own; if no other statement of the
    # package reads it (a name, an attribute or an import), it is dead code
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    reads = [{n.id for n in ast.walk(node)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
             | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
             | {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names}
             for _, node in statements]
    for at, (module, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                assert any(name in read for i, read in enumerate(reads) if i != at), (
                    f"{module} defines {name} and no other statement of the package reads it")
