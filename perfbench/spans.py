"""In-memory span tracing of csdc's public functions, from outside the package.

Each traced function is replaced, for the duration of a ``with tracer.installed():``
block, at the module attribute its caller looks it up under (for example
``csdc.compiler.csd``, the name the compiler imported).  Every call records a
span: name, parent span, start, end and the request (input) it served.  A few
boundaries also record counts taken from their arguments or results, so that
ratios are measured where the work happens.  Nothing in ``src/`` changes.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) -> span name.  One span name may be patched at several
# import sites; each site wraps the original function, so spans never nest
# through a second wrapper.
SITES: dict[tuple[str, str], str] = {
    ("csdc.cli", "main"): "cli.main",
    ("csdc.cli", "run_compile"): "cli.run_compile",
    ("csdc.cli", "run_verify"): "cli.run_verify",
    ("csdc.compiler", "compile_unitary"): "compiler.compile_unitary",
    ("csdc.cli", "compile_unitary"): "compiler.compile_unitary",
    ("csdc.compiler", "pad_to_power_of_two"): "compiler.pad_to_power_of_two",
    ("csdc.cli", "pad_to_power_of_two"): "compiler.pad_to_power_of_two",
    ("csdc.compiler", "build_tree"): "compiler.build_tree",
    ("csdc.compiler", "program_for_tree"): "compiler.program_for_tree",
    ("csdc.compiler", "csd"): "csd.csd",
    ("csdc.csd", "cossin"): "csd.cossin",
    ("csdc.compiler", "lighten"): "csd.lighten",
    ("csdc.compiler", "is_complex_d"): "csd.is_complex_d",
    ("csdc.compiler", "extract_phases"): "csd.extract_phases",
    ("csdc.compiler", "decompose_central"): "central.decompose_central",
    ("csdc.central", "basis_change_matrix"): "bitops.basis_change_matrix",
    ("csdc.bitops", "popcount"): "bitops.popcount",
    ("csdc.central", "hadamard_transform"): "bitops.hadamard_transform",
    ("csdc.central", "gray_sequence"): "bitops.gray_sequence",
    ("csdc.bitops", "gray_sequence"): "bitops.gray_sequence",  # z_ladder imports it lazily
    ("csdc.compiler", "concat"): "seo.concat",
    ("csdc.central", "concat"): "seo.concat",
    ("csdc.compiler", "rename_bits"): "seo.rename_bits",
    ("csdc.central", "rename_bits"): "seo.rename_bits",
    ("csdc.central", "z_ladder"): "seo.z_ladder",
    ("csdc.seo", "z_ladder"): "seo.z_ladder",
    ("csdc.compiler", "expand_controls"): "seo.expand_controls",
    ("csdc.seo", "program_to_matrix"): "seo.program_to_matrix",
    ("csdc.cli", "program_to_matrix"): "seo.program_to_matrix",
    ("csdc.seo", "serialize"): "seo.serialize",
    ("csdc.cli", "serialize"): "seo.serialize",
    ("csdc.seo", "parse"): "seo.parse",
    ("csdc.cli", "parse"): "seo.parse",
    ("csdc.csd", "unitarity_deviation"): "matrices.unitarity_deviation",
    ("csdc.compiler", "unitarity_deviation"): "matrices.unitarity_deviation",
    ("csdc.cli", "unitarity_deviation"): "matrices.unitarity_deviation",
    ("csdc.matrices", "frobenius_distance"): "matrices.frobenius_distance",
    ("csdc.cli", "frobenius_distance"): "matrices.frobenius_distance",
    ("csdc.cli", "read_matrix_file"): "matrices.read_matrix_file",
    ("csdc.matrices", "write_matrix_file"): "matrices.write_matrix_file",
    ("csdc.cli", "write_matrix_file"): "matrices.write_matrix_file",
}


def _tree_shape(root) -> tuple[int, int]:
    """Node count and the widest level of a CSD tree (1 means a spine)."""
    widths: dict[int, int] = defaultdict(int)
    stack = [root]
    while stack:
        node = stack.pop()
        widths[node.level] += 1
        stack.extend(c for c in (node.left, node.right) if c is not None)
    return sum(widths.values()), max(widths.values())


def _count(tracer: "Tracer", name: str, args, result) -> None:
    """Counts recorded at a boundary, keyed by counter name."""
    c = tracer.counts
    if name == "csd.is_complex_d":
        c["csd.is_complex_d.hits"] += bool(result)
    elif name == "central.decompose_central":
        c[f"central.variant.{args[0].variant}"] += 1
    elif name == "compiler.build_tree":
        nodes, width = _tree_shape(result)
        tracer.trees.append((tracer.request, nodes, width))
    elif name == "seo.expand_controls":
        c["seo.expand_controls.in"] += len(args[0])
        c["seo.expand_controls.out"] += len(result)
    elif name == "seo.program_to_matrix":
        c["seo.program_to_matrix.gates"] += len(args[0])
    elif name == "seo.parse":
        c["seo.parse.lines"] += args[0].count("\n")


class Tracer:
    """Spans kept in memory; aggregated once the traced passes are over."""

    def __init__(self):
        # [name, parent index or -1, start, end, request, outermost of its name]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.trees: list[tuple[int, int, int]] = []
        self.request = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.request,
                   active[name] == 0]
            spans.append(rec)
            stack.append(idx)
            active[name] += 1
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                active[name] -= 1
                stack.pop()
            _count(self, name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for (mod_name, attr), name in SITES.items():
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only, so a
        name nested in itself is not counted twice) and self seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _req, _outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, _parent, t0, t1, _req, outer) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
            if outer:
                agg["s"] += t1 - t0
        return out

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _n, parent, t0, t1, _r, _o in self.spans if parent < 0)
