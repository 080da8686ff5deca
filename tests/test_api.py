"""Every public top-level function and class in ``wbp`` has a caller in ``wbp``.

A name counts as used when some module of ``src/wbp`` other than
``__init__.py`` refers to it (``ast.Name`` or ``ast.Attribute``) outside
its own definition. Re-exports and tests do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wbp"


def _referenced_names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_has_a_caller_in_src():
    modules = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    assert "population.py" in modules
    # the names each top-level statement refers to, outside the re-exports
    uses = [
        (stmt, _referenced_names(stmt))
        for name, tree in modules.items()
        if name != "__init__.py"
        for stmt in tree.body
    ]
    uncalled = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for stmt, names in uses if stmt is not node)
    ]
    assert not uncalled, "no caller in src/wbp: " + ", ".join(uncalled)
