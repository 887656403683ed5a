"""Every public name in src/tropceresa has a caller outside its own body,
and the test oracles borrow no private name of the package.

A function, class or method that nothing in the package, scripts/,
perfbench/ or the acceptance suite refers to is kept alive only by unit
tests: move it into tests/helpers.py as an oracle, or delete it.  A use of
a function, a class or a property is any identifier, attribute or imported
alias spelled like the name.  A method is used only where something calls
it as x.name(...), so a field or a variable that shares its name keeps no
method alive; a shared method name still counts for every class that
defines it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "tropceresa").glob("*.py"))
CALLERS = (
    PACKAGE
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)

# Public names kept without a caller, each with its reason.
ALLOWED: set = set()


def _is_property(node) -> bool:
    names = (getattr(d, "id", None) for d in node.decorator_list)
    return any(name in ("property", "cached_property") for name in names)


def _public_definitions(tree):
    """(qualified name, node, is a method) for each public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, not _is_property(sub)


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node


def _method_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr, node.func


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    uses: dict = {}
    calls: dict = {}
    for tree in trees.values():
        for name, node in _uses(tree):
            uses.setdefault(name, []).append(node)
        for name, node in _method_calls(tree):
            calls.setdefault(name, []).append(node)
    orphans = []
    for path in PACKAGE:
        for qualname, node, is_method in _public_definitions(trees[path]):
            inside = {id(n) for n in ast.walk(node)}
            found = (calls if is_method else uses).get(node.name, ())
            if all(id(use) in inside for use in found):
                orphans.append(f"{path.stem}.{qualname}")
    unexplained = sorted(set(orphans) - ALLOWED)
    assert not unexplained, "public names with no caller: " + ", ".join(unexplained)
    stale = sorted(ALLOWED - set(orphans))
    assert not stale, "allowed names that have a caller or are gone: " + ", ".join(stale)


def test_oracles_import_no_private_package_name():
    """tests/helpers.py holds the independent oracles, so it may not import a
    private helper of the code that they check."""
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("tropceresa")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, "oracles import private names: " + ", ".join(private)
