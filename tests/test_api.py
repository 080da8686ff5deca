"""Every public top-level function, class and method in ``wbp`` has a caller in ``wbp``.

A top-level name counts as used when some module of ``src/wbp`` other
than ``__init__.py`` refers to it (``ast.Name`` or ``ast.Attribute``)
outside its own definition. A method counts as used when its name appears
as an ``ast.Attribute`` in some module of ``src/wbp`` outside its own
definition. Re-exports and tests do not count.

``population.simulate_trajectory`` is the one exception: tests walk its
lists and ``bench/tracing.py`` binds it by name, so it stays until a
benchmark change drops that binding, though no module of ``src/wbp``
calls it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wbp"

# public functions kept for the benchmark's tracer, which binds them by name
BENCH_BOUND = {"simulate_trajectory"}


def _referenced_names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _modules():
    modules = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    assert "population.py" in modules
    return modules


def test_every_public_definition_has_a_caller_in_src():
    modules = _modules()
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
        and node.name not in BENCH_BOUND
        and not any(node.name in names for stmt, names in uses if stmt is not node)
    ]
    assert not uncalled, "no caller in src/wbp: " + ", ".join(uncalled)


def test_the_bench_bound_functions_are_still_bound_by_the_tracer():
    tracer = (SRC.parent.parent / "bench" / "tracing.py").read_text()
    for name in BENCH_BOUND:
        assert f'"{name}"' in tracer


def test_every_public_method_has_a_caller_in_src():
    modules = _modules()
    attributes = [n for tree in modules.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    uncalled = []
    for name, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not any(a.attr == node.name and id(a) not in own for a in attributes):
                    uncalled.append(f"{name}:{node.lineno} {cls.name}.{node.name}")
    assert not uncalled, "no caller in src/wbp: " + ", ".join(uncalled)
