"""Dense complex matrix helpers and structural predicates.

Conventions used throughout the package:
  * Matrices are square ``complex128`` ndarrays in row-major order and are
    treated as immutable values: no function mutates its arguments.
  * State indices are read as bit strings, bit 0 being the least significant
    (rightmost) bit.  ``tensor_product(a, b)`` therefore places ``a`` on the
    high bits and ``b`` on the low bits.
  * Angle and tolerance defaults live here so every module shares them.
"""
from __future__ import annotations

from typing import Iterable, TextIO

import numpy as np

# Default comparison threshold: double precision leaves ~5 digits of headroom
# at dimension 1024, so 1e-10 is safe for every desk-scale dimension.
DEFAULT_TOL = 1e-10


def check_tol(tol: float) -> float:
    """tol itself if 0 < tol < inf; ValueError otherwise.  A NaN tolerance
    would make every ``dev > tol`` test false and so disable the checks."""
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


class NotUnitaryError(ValueError):
    """Raised when an input that must be unitary is not, within tolerance."""


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, validating finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with ``a`` as the high (left) tensor factor."""
    return np.kron(as_matrix(a), as_matrix(b))


def direct_sum(blocks: Iterable) -> np.ndarray:
    """Block-diagonal matrix built from square blocks; off-block entries are exactly zero."""
    mats = [as_matrix(b) for b in blocks]
    if not mats:
        raise ValueError("direct_sum needs at least one block")
    for b in mats:
        if b.shape[0] != b.shape[1]:
            raise ValueError(f"direct_sum blocks must be square, got {b.shape}")
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    k = 0
    for b in mats:
        d = b.shape[0]
        out[k:k + d, k:k + d] = b
        k += d
    return out


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the max-entry deviation of m†m from the identity is within tol."""
    return unitarity_deviation(m) <= tol


def unitarity_deviation(m) -> float:
    """Max-entry deviation of m†m from the identity; m must be square."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity needs a square matrix, got {a.shape}")
    return float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b; zero iff the matrices are equal."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return float(np.linalg.norm(ma - mb))


# ---------------------------------------------------------------------------
# Matrix text format (used by the CLI):
#   line 1: integer N (dimension)
#   lines 2..N+1: 2N whitespace-separated floats, alternating re/im per entry.
# Parsers accept arbitrary whitespace; serializers emit 17 significant digits.
# ---------------------------------------------------------------------------

class MatrixFormatError(ValueError):
    """Raised when a matrix text file cannot be parsed."""


def parse_matrix_text(text: str) -> np.ndarray:
    tokens = text.split()
    if not tokens:
        raise MatrixFormatError("empty matrix file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MatrixFormatError(f"first token must be the dimension, got {tokens[0]!r}") from None
    if n < 1:
        raise MatrixFormatError(f"dimension must be >= 1, got {n}")
    values = tokens[1:]
    if len(values) != 2 * n * n:
        raise MatrixFormatError(
            f"expected {2 * n * n} numbers for a {n}x{n} matrix, got {len(values)}")
    try:
        flat = np.array([float(v) for v in values], dtype=np.float64)
    except ValueError as exc:
        raise MatrixFormatError(f"bad number in matrix file: {exc}") from None
    if not np.all(np.isfinite(flat)):
        raise MatrixFormatError("matrix entries must be finite")
    return (flat[0::2] + 1j * flat[1::2]).reshape(n, n)


def format_matrix_text(m) -> str:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise MatrixFormatError(f"matrix text format requires a square matrix, got {a.shape}")
    n = a.shape[0]
    rows = np.stack([a.real, a.imag], axis=-1).reshape(n, 2 * n).tolist()   # re, im, ...
    return "\n".join([str(n)] + [" ".join(map("{:.17g}".format, row)) for row in rows]) + "\n"


def read_matrix_file(f: TextIO | str) -> np.ndarray:
    if isinstance(f, str):
        with open(f, "r", encoding="utf-8") as fh:
            return parse_matrix_text(fh.read())
    return parse_matrix_text(f.read())


def write_matrix_file(f: TextIO | str, m) -> None:
    text = format_matrix_text(m)
    if isinstance(f, str):
        with open(f, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        f.write(text)
