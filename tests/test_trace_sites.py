"""Every function the benchmark's tracer patches still exists where it is
looked up, so that ``perfbench/run.py --trace 1`` can install its spans."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, attr", sorted(spans.SITES))
def test_traced_site_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
