"""Command-line front end: compile, decompile and verify.

Exit codes: 0 success; 1 verify distance above --tol (by default
ROUND_TRIP_TOL, the bound compile holds its own output to); 2 unreadable or
malformed input or options (a bad option, such as a --tol outside
0 < tol < inf, is argparse's exit 2), a dimension mismatch, or a program too
large to simulate (the dense 2**nb x 2**nb rebuild is refused up front when
about seo.dense_peak_bytes(nb) bytes, 3 * 16 * 4**nb up to nb = 7 and
2 * 16 * 4**nb from nb = 8 on, exceed physical memory); 3 non-unitary matrix;
4 internal tolerance failure (the compiled program fails to reproduce its
input; the report is printed and the SEO file is still written first).
Failures map to exit codes by exception type, in ``main`` only.

``verify`` pads the matrix as ``compile`` does (u ⊕ I up to a power of two)
and reads the SEO file on log2 of that dimension bits.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

# pad_to_power_of_two and unitarity_deviation are not called here
# (compile_unitary pads and checks); they stay importable from this module,
# where perfbench/spans.py traces them by name.
from .compiler import CompileOptions, _embed, compile_unitary, pad_to_power_of_two  # noqa: F401
from .matrices import (DEFAULT_TOL, NotUnitaryError, check_tol,  # noqa: F401
                       frobenius_distance, read_matrix_file, unitarity_deviation,
                       write_matrix_file)
from .seo import parse, program_to_matrix, serialize, two_qubit_gates

# The compiled program must reproduce the (padded) input to this Frobenius
# distance or the compile command fails with exit code 4.
ROUND_TRIP_TOL = 1e-8

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_UNITARY = 3
EXIT_INTERNAL = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            inner = " ".join(f"{k}={v}" for k, v in value.items())
            print(f"{key}: {inner}")
        else:
            print(f"{key}: {value}")


def _tolerance(text: str) -> float:
    """Parse --tol with the check CompileOptions makes."""
    try:
        return check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _options_from_args(args) -> CompileOptions:
    return CompileOptions(
        lighten=args.lighten == "on",
        extract_phases=args.extract_phases == "on",
        expand_controls=args.expand_controls,
        perm_search={"none": "none", "root": "root-exhaustive"}[args.perm_search],
        tol=args.tol,
    )


def run_compile(args) -> int:
    u = read_matrix_file(args.input)
    padded = _embed(u)   # u ⊕ I, which compile_unitary takes as it is, not a copy
    program = compile_unitary(padded, _options_from_args(args))   # checks unitarity once
    original_dim = u.shape[0]
    nb = padded.shape[0].bit_length() - 1
    error = frobenius_distance(padded, program_to_matrix(program))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize(program))
    _emit_report({
        "nb": nb,
        "original_dimension": original_dim,
        "instructions": len(program),
        "counts": program.count_by_kind(),
        "two_qubit_gates": two_qubit_gates(program),
        "reconstruction_error": error,
        "output": args.output,
    }, args.report)
    if error > ROUND_TRIP_TOL:
        return _fail(EXIT_INTERNAL,
                     f"reconstruction error {error:.6e} exceeds {ROUND_TRIP_TOL:.1e}")
    return EXIT_OK


def run_decompile(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        program = parse(fh.read(), nb=args.nb)
    matrix = program_to_matrix(program)
    write_matrix_file(args.output, matrix)
    _emit_report({
        "nb": program.nb,
        "instructions": len(program),
        "dimension": matrix.shape[0],
        "output": args.output,
    }, args.report)
    return EXIT_OK


def run_verify(args) -> int:
    u = _embed(read_matrix_file(args.matrix))   # u ⊕ I, as compile pads it
    nb = u.shape[0].bit_length() - 1
    with open(args.seo, "r", encoding="utf-8") as fh:
        program = parse(fh.read(), nb=nb)
    rebuilt = program_to_matrix(program)
    distance = frobenius_distance(u, rebuilt)
    # Distance once an optimal global phase is removed, reported so a phase
    # mismatch is distinguishable from a structural one.
    overlap = np.vdot(u, rebuilt)   # tr(uᴴ rebuilt), without the dense product
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    rebuilt *= np.conj(phase)   # in place: no second dense array
    aligned = frobenius_distance(u, rebuilt)
    _emit_report({
        "nb": program.nb,
        "distance": distance,
        "phase_aligned_distance": aligned,
        "tolerance": args.tol,
    }, args.report)
    return EXIT_OK if distance <= args.tol else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdc",
        description="Compile unitary matrices into elementary gate sequences "
                    "(SEO files) via a recursive cosine-sine decomposition, "
                    "decompile SEO files back to matrices, and verify pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--report", choices=("text", "json"), default="text",
                       help="report format on stdout")

    pc = sub.add_parser("compile", help="matrix file -> SEO file")
    pc.add_argument("input", help="matrix text file")
    pc.add_argument("-o", "--output", required=True, help="SEO output path")
    pc.add_argument("--lighten", choices=("on", "off"), default="on",
                    help="QR gauge fix pushing right side matrices to identity")
    pc.add_argument("--extract-phases", dest="extract_phases",
                    choices=("on", "off"), default="on",
                    help="peel phases off complex D matrices")
    pc.add_argument("--expand-controls", action="store_true",
                    help="rewrite multi-control gates over <= 2-bit instructions")
    pc.add_argument("--perm-search", dest="perm_search",
                    choices=("none", "root"), default="none",
                    help="try all bit relabelings at the root, keep the shortest")
    pc.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                    help="largest max-entry deviation of UᴴU from I accepted")
    add_report(pc)
    pc.set_defaults(func=run_compile)

    pd = sub.add_parser("decompile", help="SEO file -> matrix file")
    pd.add_argument("input", help="SEO text file")
    pd.add_argument("-o", "--output", required=True, help="matrix output path")
    pd.add_argument("--nb", type=int, default=None,
                    help="bit count (default: 1 + highest referenced bit)")
    add_report(pd)
    pd.set_defaults(func=run_decompile)

    pv = sub.add_parser("verify", help="check a matrix/SEO pair")
    pv.add_argument("matrix", help="matrix text file")
    pv.add_argument("seo", help="SEO text file")
    pv.add_argument("--tol", type=_tolerance, default=ROUND_TRIP_TOL,
                    help="largest Frobenius distance accepted (default: the bound compile "
                         "checks its own output against)")
    add_report(pv)
    pv.set_defaults(func=run_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotUnitaryError as exc:
        return _fail(EXIT_NOT_UNITARY, str(exc))
    except (OSError, ValueError) as exc:
        # Unreadable or unwritable files; and, as ValueErrors, malformed matrix
        # or SEO files (MatrixFormatError, SeoParseError), a program too large
        # to simulate (DenseTooLargeError) and bad arguments.
        return _fail(EXIT_BAD_INPUT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
