"""Static checks over the package source, with the standard library's `ast`:
every import is used, and every private module-level name is referenced."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "resilitest"


def _modules():
    return {path.relative_to(PACKAGE).as_posix():
            ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def _names_read(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{module}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_module_level_name_is_referenced():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [f"{module}:{node.lineno} {name}" for name in defined
                             if name.startswith("_") and not name.startswith("__")
                             and name not in referenced]
    assert unreferenced == []
