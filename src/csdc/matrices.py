"""Dense complex matrix helpers and structural predicates.

Conventions used throughout the package:
  * Matrices are square ``complex128`` ndarrays in row-major order and are
    treated as immutable values: no function mutates its arguments.
  * State indices are read as bit strings, bit 0 being the least significant
    (rightmost) bit, so in ``np.kron(a, b)`` ``a`` acts on the high bits and
    ``b`` on the low bits.
  * Angle and tolerance defaults live here so every module shares them.
  * A check that XᴴX is the identity goes through one kernel,
    ``gram_deviations``, which forms XᴴX by ZHERK (its upper triangle, half
    the flops of a product) from side GRAM_HERK_MIN_N on, and by one batched
    product below.  Products whose values feed a result stay products.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import zherk

# Default comparison threshold: double precision leaves ~5 digits of headroom
# at dimension 1024, so 1e-10 is safe for every desk-scale dimension.
DEFAULT_TOL = 1e-10

# The most bytes each cache-resident work array of a chunked job holds: each
# of a dense flush's four (at least one row pair), a batch of segment angles
# (16 * 2**nb bytes a segment: a whole Haar program at nb = 6, 8 segments at
# nb = 10) and a chunk of frobenius_distance's rows.  On a Xeon with 2 MB of
# L2 (1 BLAS thread), flushes of 128-192 KB rebuilt Haar nb = 8, 9 and
# Hadamard nb = 10 programs 5-10 % faster than 96 or 256 KB; angle batches of
# 16, 64, 128, 512 and 2048 KB rebuilt Haar nb = 8 in 124, 113, 101, 99, 99 ms.
CHUNK_BYTES = 128 << 10


def check_tol(tol: float) -> float:
    """tol itself if 0 < tol < inf; ValueError otherwise.  A NaN tolerance
    would make every ``dev > tol`` test false and so disable the checks."""
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


class NotUnitaryError(ValueError):
    """Raised when an input that must be unitary is not, within tolerance;
    ``deviation`` is its max-entry deviation of UᴴU from I, where known."""

    def __init__(self, message: str, deviation: float | None = None):
        super().__init__(message)
        self.deviation = deviation


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


def unitarity_deviation(m) -> float:
    """Max-entry deviation of m†m from the identity; m must be square."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity needs a square matrix, got {a.shape}")
    return float(gram_deviations(a[None])[0])


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.conj(np.swapaxes(x, -1, -2))


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of matrices.  An inner dimension of at most 2 is
    summed as broadcast products: ``@`` makes one BLAS call per matrix of a
    stack, which costs more than the arithmetic of a 2x2 product."""
    n = a.shape[-1]
    if n > 2:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    if n == 2:
        out += a[..., :, 1:] * b[..., 1:, :]
    return out


# gram_deviations forms XᴴX by ZHERK from this side on, by one batched product
# below.  Measured with 1 BLAS thread on a shared 2-vCPU Xeon host: 32 matrices
# of 32x32 took 0.41 ms as one product and 0.46 ms as 32 ZHERK calls; 8 of
# 128x128, 4.8 against 2.1 ms; one 1024x1024, 151 against 86 ms.  At 64x64
# ZHERK saves about 0.03 ms a matrix, but a process's first ZHERK call raises
# its peak RSS by about 0.4 MB: a 64x64 compile would trade 0.4 MB for 0.03 ms.
GRAM_HERK_MIN_N = 128


def gram_deviations(x: np.ndarray) -> np.ndarray:
    """Max-entry deviation of XᴴX from I, per matrix of a (k, n, n) stack.
    A non-finite entry of X makes its deviation non-finite, so that
    ``dev <= tol`` is false.

    From n = GRAM_HERK_MIN_N on, each XᴴX is one ZHERK (Dongarra et al.,
    ACM TOMS 16, 1990) on X.T, a Fortran-ordered view of a C-ordered X: it
    returns the upper triangle of conj(XᴴX) with zeros below, at half the
    flops of a product, and since XᴴX is Hermitian that triangle holds the
    max.  Below, where a loop of BLAS calls saves little or nothing, XᴴX is
    one batched ``_mm`` product.
    """
    n = x.shape[-1]
    if n < GRAM_HERK_MIN_N:
        return np.abs(_mm(_ct(x), x) - np.eye(n)).max(axis=(-2, -1))
    diag = np.arange(n)
    out = np.empty(len(x))
    for k in range(len(x)):
        g = zherk(1.0, x[k].T, trans=0)
        g[diag, diag] -= 1.0
        out[k] = np.abs(g).max()
    return out


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b; zero iff the matrices are equal.

    The squares are summed a chunk of rows at a time, each chunk's difference
    at most CHUNK_BYTES (at least one row) in one reused buffer, so no
    difference of the whole matrices is formed: at nb = 10 that would be
    16 MB.
    """
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    step = max(1, CHUNK_BYTES // ma[0].nbytes)
    buf = np.empty((min(step, len(ma)), ma.shape[1]), dtype=np.complex128)
    total = 0.0
    for i in range(0, len(ma), step):
        d = np.subtract(ma[i:i + step], mb[i:i + step], out=buf[:len(ma) - i])
        v = d.reshape(-1).view(np.float64)   # real and imaginary parts
        total += float(v @ v)
    return math.sqrt(total)


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
        flat = np.array(values, dtype=np.float64)
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


def read_matrix_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def write_matrix_file(path: str, m) -> None:
    text = format_matrix_text(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
