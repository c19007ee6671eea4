"""The package's modules import at module level only, and their imports of
each other form no cycle.

An import inside a function is how a cycle gets hidden: the module loads,
and the cycle only shows as a second copy of a fact, kept where the import
would not close the loop.  Both tests read the source with ``ast``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "csdc"
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _internal_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports: ``from .m import x`` names m,
    ``from . import m`` names m, and a name the package itself defines
    names ``__init__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out |= {a.name if a.name in MODULES else "__init__" for a in node.names}
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    inner = [f"{fn.name}, line {node.lineno}"
             for fn in ast.walk(MODULES[name])
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


def test_internal_imports_form_no_cycle():
    graph = {name: _internal_imports(tree) for name, tree in MODULES.items()}
    assert graph["__init__"] >= set(MODULES) - {"__init__", "cli"}   # the graph is read
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(" -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
