"""The package's public names: every entry of ``csdc.__all__`` resolves, once,
so that ``from csdc import *`` imports them all; and every one is used by the
package itself or looked up by the benchmark, so that no public helper lives
only for its own tests."""
import ast
from pathlib import Path

import csdc

_ROOT = Path(__file__).resolve().parents[1]

# Public names that neither the package nor the benchmark uses, each with the
# reason it stays.
KEEP = {
    "apply_to_state": "the simulator of a sampled round-trip check (ROADMAP item 7)",
    "bit_reversal_permutation": "the README's worked example",
}


def test_all_names_resolve():
    assert [name for name in csdc.__all__ if not hasattr(csdc, name)] == []


def test_all_has_no_duplicates():
    assert len(set(csdc.__all__)) == len(csdc.__all__)


def _loaded_outside_own_definition(tree: ast.Module) -> set[str]:
    """Names a module loads, as a name or an attribute, outside the function
    or class that defines them."""
    out = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != owner:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return out


def _named(tree: ast.Module) -> set[str]:
    """Every identifier a module names: loads, attributes and string constants."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)})


def test_every_public_name_has_a_user():
    used = set()
    for path in (_ROOT / "src" / "csdc").glob("*.py"):
        if path.name != "__init__.py":
            used |= _loaded_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    for path in (_ROOT / "perfbench").glob("*.py"):
        used |= _named(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(csdc.__all__) - used - set(KEEP)) == []
    assert set(KEEP) <= set(csdc.__all__) - used   # a kept name that gains a user leaves KEEP
