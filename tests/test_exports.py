"""Every name the package exports has a reader in the package or in the
benchmark harness, outside its own definition."""

import ast
import re
from pathlib import Path

import lambertwave

ROOT = Path(__file__).resolve().parents[1]

# exported names whose only readers are the tests, with the reason
ALLOWED = {
    "inner_product": "the direct Gram reference the tests compare gram_matrix against",
}


def _references(tree: ast.AST) -> set:
    """Names a module reads: identifiers, attribute names and dotted string
    constants (the harness binds its traced functions by name), each outside
    the definitions of that name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            names = node.value.split(".")
        else:
            names = []
        found.update(n for n in names if n not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _exports() -> set:
    tree = ast.parse((ROOT / "src" / "lambertwave" / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_export_has_a_reader():
    files = [p for p in (ROOT / "src" / "lambertwave").glob("*.py")
             if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in files:
        read |= _references(ast.parse(path.read_text()))
    unread = _exports() - read - set(ALLOWED)
    assert not unread, f"exported but read nowhere: {sorted(unread)}"


def test_allowlist_names_exports():
    assert set(ALLOWED) <= _exports()
    assert all(hasattr(lambertwave, name) for name in ALLOWED)
