"""Every module-level name of the package has a use.

A name defined by a def, a class or an assignment at the top of a module in
src/lossyphase must be read somewhere in src/, tests/, demos/ or perfbench/:
as a name, as an attribute, by an import or as a string equal to it (the
`__all__` lists and getattr-style lookups).  A private name, one with a
leading underscore or any name in `_engine`, must be read in src/ or
perfbench/: a helper that only tests call belongs in the tests.  The
repository has no linter; this is its guard against dead constants and
helpers, and against imports a module no longer reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lossyphase"
SEARCHED = ("src", "tests", "demos", "perfbench")
PROGRAM = ("src", "perfbench")


def defined_names(tree):
    """Module-level names bound by def, class and plain assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def used_names(tree):
    """Names the tree reads: loads, attributes, imports and strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def names_read_in(tops):
    used = set()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= used_names(ast.parse(path.read_text(), str(path)))
    return used


def package_names():
    """(module stem, name) of every module-level name of the package."""
    return [(path.stem, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for name in sorted(defined_names(ast.parse(path.read_text(), str(path))))]


def test_every_module_level_name_is_used():
    used = names_read_in(SEARCHED)
    assert [f"{m}.{n}" for m, n in package_names() if n not in used] == []


def test_every_private_name_is_read_by_the_program():
    used = names_read_in(PROGRAM)
    test_only = [f"{m}.{n}" for m, n in package_names()
                 if (n.startswith("_") or m == "_engine") and n not in used]
    assert test_only == []


def unused_imports(tree):
    """Names a module imports but never reads as a name; __future__ is
    exempt."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return bound - read


def test_every_import_is_read_by_its_module():
    # __init__ imports only to re-export.
    unused = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "__init__"
              for name in sorted(unused_imports(ast.parse(path.read_text(), str(path))))]
    assert unused == []
