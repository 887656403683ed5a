"""Every public name in src/tropceresa has a caller outside its own body,
and the test oracles borrow no private name of the package.

A function, class or method that nothing in the package, scripts/,
perfbench/ or the acceptance suite refers to is kept alive only by unit
tests: move it into tests/helpers.py as an oracle, or delete it.  A use is
any identifier, attribute or imported alias spelled like the name, so a
shared method name counts for every class that defines it.
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
ALLOWED = {
    # the structural hyperelliptic search (ROADMAP D) contracts bridges first
    "graph_core.two_edge_connectivization",
    # the writer that table_from_json reads back; tests build table files with it
    "johnson.table_to_json",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    uses: dict = {}
    for tree in trees.values():
        for name, node in _uses(tree):
            uses.setdefault(name, []).append(node)
    orphans = []
    for path in PACKAGE:
        for qualname, node in _public_definitions(trees[path]):
            inside = {id(n) for n in ast.walk(node)}
            if all(id(use) in inside for use in uses.get(node.name, ())):
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
