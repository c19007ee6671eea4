"""Every function the benchmark's tracer patches still exists where it is
looked up, so that ``perfbench/run.py --trace 1`` can install its spans; and
a module keeps an import it never uses only as such a lookup site."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

_MODULES = sorted(p for p in (_ROOT / "src" / "csdc").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module, attr", sorted(spans.SITES))
def test_traced_site_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_unused_imports_are_traced_sites(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    sites = {attr for module, attr in spans.SITES if module == f"csdc.{path.stem}"}
    assert imported - loaded <= sites
