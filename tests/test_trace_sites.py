"""Every function the benchmark's tracer patches still exists where it is
looked up, so that ``perfbench/run.py --trace 1`` can install its spans; a
module keeps an import it never uses only as such a lookup site; and the
spans that compiles, a permutation search and the CLI never record are the
declared stale ones."""
import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from csdc import cli, compiler, matrices, seo

from conftest import random_unitary

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


# Span names that the runs below never record: sites whose callers moved or
# that only tests call, kept importable for the tracer.  ROADMAP item 5
# replaces the tracer with a stats object and drops these sites.  A site that
# stops recording, or one that starts again, changes this set.
STALE = {"bitops.basis_change_matrix", "bitops.gray_sequence", "bitops.hadamard_transform",
         "central.decompose_central", "compiler.pad_to_power_of_two", "csd.csd",
         "csd.extract_phases", "csd.is_complex_d", "csd.lighten", "seo.concat"}


def test_stale_spans_are_declared(rng, tmp_path, capsys):
    perm = np.eye(8)[rng.permutation(8)]
    tracer = spans.Tracer()
    src, out = str(tmp_path / "u.txt"), str(tmp_path / "u.seo")
    with tracer.installed():
        for u in (random_unitary(rng, 16), random_unitary(rng, 5), perm):
            seo.program_to_matrix(compiler.compile_unitary(u))
        compiler.compile_unitary(random_unitary(rng, 8),
                                 compiler.CompileOptions(perm_search="root-exhaustive"))
        matrices.write_matrix_file(src, random_unitary(rng, 8))
        assert cli.main(["compile", src, "-o", out, "--expand-controls"]) == 0
        assert cli.main(["verify", src, out]) == 0
        assert cli.main(["decompile", out, "-o", str(tmp_path / "v.txt")]) == 0
    called = {name for name, agg in tracer.totals().items() if agg["calls"]}
    assert set(spans.SITES.values()) - called == STALE
