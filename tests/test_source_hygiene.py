"""Static checks over the package source, with the standard library's `ast`:
every import is used, every private module-level name is referenced, every
public name is reached from outside the tests or listed as test-only, and the
simulator imports none of the campaign layers built on it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "resilitest"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# public names of the package that only tests reach, and why each stays
TEST_ONLY = {
    "run_until_idle": "runs a hand-posted system to the end in the simulator tests",
    "seeded_bugs": "the ground truth that the seeded-bug criteria check verdicts against",
    "bug_free": "builds the bug-free reference topology of the zero-false-FAIL criterion",
    "save_topology": "writes the topology files that the CLI tests read",
}


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


def _names_in(tree, strings=False) -> set:
    """Every name `tree` reads, as a name, an attribute or an imported name,
    and, with `strings`, every string constant too."""
    names = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_is_reached_outside_the_tests_or_listed():
    # perfbench's tracer patches functions named by strings
    modules = _modules()
    named = set()
    for tree in modules.values():
        named |= _names_in(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        named |= _names_in(ast.parse(path.read_text(encoding="utf-8"), str(path)), strings=True)
    public = []  # (name, where) of each module-level function and class and each method
    for module, tree in modules.items():
        for node in tree.body:
            for item in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not item.name.startswith("_")):
                    public.append((item.name, f"{module}:{item.lineno}"))
    assert [f"{where} {name}" for name, where in public
            if name not in named and name not in TEST_ONLY] == []
    # a listed name that is gone, or now reached, leaves the list
    defined = {name for name, _where in public}
    assert sorted(name for name in TEST_ONLY if name not in defined or name in named) == []


# the campaign layers built on the simulator; sim/ imports none of them
CAMPAIGN_LAYERS = {"aggregation", "selection", "planner", "scheduler", "campaign", "executor",
                   "cli"}


def test_the_simulator_imports_no_campaign_layer():
    imported = []
    for module, tree in _modules().items():
        if not module.startswith("sim/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[-1],
                         *(alias.name for alias in node.names if not node.module)]
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".")[-1] for alias in node.names]
            else:
                continue
            imported += [f"{module}:{node.lineno} {name}" for name in names
                         if name in CAMPAIGN_LAYERS]
    assert imported == []
