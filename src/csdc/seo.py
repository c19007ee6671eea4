"""Gate sequences (SEO files) as programs of five columns.

A program is an ordered sequence of instructions over six kinds:

  ROTY a ang      qubit rotation exp(i sigma_y(a) ang pi/180)
  ROTZ a ang      qubit rotation exp(i sigma_z(a) ang pi/180)
  SIGX a          unconditional NOT: sigma_x(a)
  CNOT a1 c1 ... ar cr b    controlled not: flip b if every control matches
  PHAS ang        global phase factor exp(i ang pi/180)
  CPHA a1 c1 ... ar cr ang  controlled phase factor

Angles are degrees.  Control characters are T (bit must be 1) and F (bit must
be 0).  The first line of a file is the first operation applied to a ket, so
the matrix of a program is the product of its instruction matrices taken last
to first.

A :class:`Program` stores its instructions as five numpy columns, one entry
per instruction:

  kind       int64 code into KINDS
  target     int64 target bit, -1 for the kinds without one (PHAS, CPHA)
  ctrl_mask  int64: bit b is a control iff it is set
  ctrl_val   int64: the control on bit b is T iff it is set (a subset of
             ctrl_mask)
  angle      float64 degrees, 0.0 for the kinds without one (SIGX, CNOT)

A program is built from SEO text by ``parse`` or from its columns by
``Program(nb, kind, target, ctrl_mask, ctrl_val, angle)``; either way the
columns are checked once, vectorised.  The stages here (concat, rename_bits,
expand_controls, serialize, the simulator) work on them with array
operations.  Controls are written in increasing bit order.
"""
from __future__ import annotations

import cmath
import math
import os

import numpy as np

from . import bitops

KINDS = ("ROTY", "ROTZ", "SIGX", "CNOT", "PHAS", "CPHA")
ROTY, ROTZ, SIGX, CNOT, PHAS, CPHA = range(len(KINDS))
_CODE = {name: code for code, name in enumerate(KINDS)}

# Per kind code: whether the kind takes a target, an angle, controls.
_TAKES_TARGET = np.array([True, True, True, True, False, False])
_TAKES_ANGLE = np.array([True, True, False, False, True, True])
_TAKES_CONTROLS = np.array([False, False, False, True, False, True])
_ANGLED = _TAKES_ANGLE.tolist()

# Control masks are int64, so bit indices stay below 63.
MAX_NB = 63

# Rotations at or below this angle (degrees) are suppressed and their flanking
# c-nots merged; this is what lets structured inputs collapse to short programs.
PRUNE_TOL = 1e-10

# A dense simulation holds about this many 2**nb x 2**nb complex128 arrays at
# its peak (measured with tracemalloc on program_to_matrix).
DENSE_PEAK_ARRAYS = 3


class SeoParseError(ValueError):
    """Raised on malformed SEO text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DenseTooLargeError(ValueError):
    """Raised before a dense simulation whose matrices would not fit in memory."""


def _bits_of(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def _reject(bad: np.ndarray, kind: np.ndarray, message: str) -> None:
    """Raise ValueError naming the first row where ``bad`` holds."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"instruction {i}: " + message.format(kind=KINDS[kind[i]]))


class Program:
    """A gate sequence on ``nb`` bits, stored as five columns (module docstring).

    Treated as an immutable value: no function here writes to a column.
    """

    __slots__ = ("nb", "kind", "target", "ctrl_mask", "ctrl_val", "angle")

    def __init__(self, nb: int, kind=(), target=(), ctrl_mask=(), ctrl_val=(), angle=(),
                 validate: bool = True):
        """A program with the given columns; ``Program(nb)`` is empty.
        ``validate=False`` is for callers that build the columns valid by
        construction."""
        self.nb = int(nb)
        self.kind = np.asarray(kind, dtype=np.int64)
        self.target = np.asarray(target, dtype=np.int64)
        self.ctrl_mask = np.asarray(ctrl_mask, dtype=np.int64)
        self.ctrl_val = np.asarray(ctrl_val, dtype=np.int64)
        self.angle = np.asarray(angle, dtype=np.float64)
        if validate:
            self.validate()

    def validate(self) -> None:
        """Check every rule of the column encoding; raise ValueError if one fails."""
        nb = self.nb
        if not 1 <= nb <= MAX_NB:
            raise ValueError(f"a program needs 1 <= nb <= {MAX_NB}, got {nb}")
        cols = self.columns
        if any(c.ndim != 1 or c.shape != self.kind.shape for c in cols):
            raise ValueError("program columns must be 1-D and of equal length")
        if not len(self):
            return
        kind, target, mask, val, angle = cols
        if kind.min() < 0 or kind.max() >= len(KINDS):
            raise ValueError(f"instruction kind codes must lie in [0, {len(KINDS)})")
        has_target = target >= 0
        _reject(has_target != _TAKES_TARGET[kind], kind,
                "{kind} must have a target bit iff it takes one (-1 for none)")
        _reject((target < -1) | (target >= nb), kind, f"target bit out of range for nb={nb}")
        _reject((mask < 0) | (mask >> nb != 0), kind, f"control bit out of range for nb={nb}")
        _reject(val & ~mask != 0, kind, "control values must be a subset of the control mask")
        _reject(has_target & (mask >> np.maximum(target, 0) & 1 != 0), kind,
                "{kind} bits must be distinct: the target is also a control")
        _reject((mask != 0) != _TAKES_CONTROLS[kind], kind,
                "{kind} needs at least one control iff it takes controls")
        _reject(~np.isfinite(angle), kind, "{kind} needs a finite angle")
        _reject((angle != 0.0) & ~_TAKES_ANGLE[kind], kind, "{kind} carries no angle")

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """(kind, target, ctrl_mask, ctrl_val, angle)."""
        return self.kind, self.target, self.ctrl_mask, self.ctrl_val, self.angle

    def __len__(self) -> int:
        return len(self.kind)

    def __eq__(self, other):
        if not isinstance(other, Program):
            return NotImplemented
        return self.nb == other.nb and all(
            np.array_equal(a, b) for a, b in zip(self.columns, other.columns))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Program(nb={self.nb}, {len(self)} instructions)"

    def count_by_kind(self) -> dict[str, int]:
        counts = np.bincount(self.kind, minlength=len(KINDS)).tolist()
        return dict(zip(KINDS, counts))


def concat(*programs: Program) -> Program:
    """Concatenate programs in application order."""
    if not programs:
        raise ValueError("concat needs at least one program")
    nb = max(p.nb for p in programs)
    cols = [np.concatenate(c) for c in zip(*(p.columns for p in programs))]
    return Program(nb, *cols, validate=False)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _prefix(kind: int, target: int, mask: int, val: int) -> str:
    """A line without its angle; angled kinds end in a space."""
    parts = [KINDS[kind]]
    for b in _bits_of(mask):
        parts.append(f"{b} {'T' if val >> b & 1 else 'F'}")
    if target >= 0:
        parts.append(str(target))
    return " ".join(parts) + (" " if _ANGLED[kind] else "")


def serialize(p: Program) -> str:
    """One line per instruction, single-space separated, first-applied first.

    Each distinct (kind, target, controls) prefix is formatted once; angles
    are written with ``.15g``.
    """
    prefixes: dict = {}
    lines = []
    for k, t, m, v, a in zip(*(c.tolist() for c in p.columns)):
        key = (k, t, m, v)
        pre = prefixes.get(key)
        if pre is None:
            pre = prefixes[key] = _prefix(k, t, m, v)
        lines.append(f"{pre}{a:.15g}" if _ANGLED[k] else pre)
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_bit(tok: str, lineno: int) -> int:
    try:
        b = int(tok)
    except ValueError:
        raise SeoParseError(lineno, f"expected a bit index, got {tok!r}") from None
    if b < 0:
        raise SeoParseError(lineno, f"bit index must be non-negative, got {b}")
    if b >= MAX_NB:
        raise SeoParseError(lineno, f"bit index must be below {MAX_NB}, got {b}")
    return b


def _parse_angle(tok: str, lineno: int) -> float:
    try:
        a = float(tok)
    except ValueError:
        raise SeoParseError(lineno, f"expected an angle, got {tok!r}") from None
    if not np.isfinite(a):
        raise SeoParseError(lineno, f"angle must be finite, got {tok!r}")
    return a


def _parse_controls(tokens: list[str], lineno: int) -> list[tuple[int, bool]]:
    controls = []
    for i in range(0, len(tokens), 2):
        bit = _parse_bit(tokens[i], lineno)
        pol = tokens[i + 1]
        if pol not in ("T", "F"):
            raise SeoParseError(lineno, f"control polarity must be T or F, got {pol!r}")
        controls.append((bit, pol == "T"))
    return controls


def _parse_tokens(tokens: list[str], lineno: int) -> tuple[tuple[int, int, int, int], float]:
    """Parse one line's tokens into its (kind, target, mask, val) and angle."""
    kind, args = tokens[0], tokens[1:]
    target, controls, angle = -1, [], 0.0
    if kind == "ROTY" or kind == "ROTZ":
        if len(args) != 2:
            raise SeoParseError(lineno, f"{kind} takes a target and an angle")
        target, angle = _parse_bit(args[0], lineno), _parse_angle(args[1], lineno)
    elif kind == "SIGX":
        if len(args) != 1:
            raise SeoParseError(lineno, "SIGX takes a single target bit")
        target = _parse_bit(args[0], lineno)
    elif kind == "CNOT":
        if len(args) < 3 or len(args) % 2 == 0:
            raise SeoParseError(lineno, "CNOT takes control/polarity pairs and a target")
        target = _parse_bit(args[-1], lineno)
        controls = _parse_controls(args[:-1], lineno)
    elif kind == "PHAS":
        # A controlled phase must be written CPHA; PHAS takes only an angle.
        if len(args) != 1:
            raise SeoParseError(lineno, "PHAS takes a single angle (use CPHA for controls)")
        angle = _parse_angle(args[0], lineno)
    elif kind == "CPHA":
        if len(args) < 3 or len(args) % 2 == 0:
            raise SeoParseError(lineno, "CPHA takes control/polarity pairs and an angle")
        controls = _parse_controls(args[:-1], lineno)
        angle = _parse_angle(args[-1], lineno)
    else:
        raise SeoParseError(lineno, f"unknown keyword {kind!r}")
    bits = tuple(b for b, _ in controls) + ((target,) if target >= 0 else ())
    if len(bits) != len(set(bits)):
        raise SeoParseError(lineno, f"{kind} bits must be distinct, got {bits}")
    mask = sum(1 << b for b, _ in controls)
    val = sum(1 << b for b, pol in controls if pol)
    return (_CODE[kind], target, mask, val), angle


def parse(text: str, nb: int | None = None) -> Program:
    """Parse SEO text; nb is inferred as 1 + max referenced bit unless given.

    A line is first looked up whole (kinds without an angle), then without its
    last space-separated token (kinds with an angle) among the lines already
    parsed; only a line not seen before is tokenised and checked.
    """
    if nb is not None and not 1 <= nb <= MAX_NB:
        raise ValueError(f"a program needs 1 <= nb <= {MAX_NB}, got {nb}")
    whole: dict[str, tuple] = {}   # line -> row, kinds without an angle
    heads: dict[str, tuple] = {}   # line without its angle -> row, angled kinds
    rows = []
    angles = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = whole.get(raw)
        angle = 0.0
        if row is None:
            head, _, tail = raw.rpartition(" ")
            row = heads.get(head)
            if row is not None:
                try:
                    angle = float(tail)
                except ValueError:
                    row = None
                else:
                    if not math.isfinite(angle):
                        row = None
            if row is None:
                tokens = raw.split()
                if not tokens:
                    continue
                row, angle = _parse_tokens(tokens, lineno)
                row_top = max([row[1], *_bits_of(row[2])])
                if nb is not None and row_top >= nb:
                    raise SeoParseError(lineno, f"bit {row_top} out of range for nb={nb}")
                top = max(top, row_top)
                if _ANGLED[row[0]]:
                    heads[" ".join(tokens[:-1])] = row
                else:
                    whole[" ".join(tokens)] = row
        rows.append(row)
        angles.append(angle)
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return Program(top + 1 if nb is None else nb, *cols, angles, validate=False)


# ---------------------------------------------------------------------------
# Matrix semantics
# ---------------------------------------------------------------------------

def physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_dense(nb: int) -> None:
    """Raise DenseTooLargeError if a dense simulation on nb bits would need
    more than the physical memory: about DENSE_PEAK_ARRAYS * 16 * 4**nb bytes."""
    need = DENSE_PEAK_ARRAYS * 16 * 4 ** nb
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        raise DenseTooLargeError(
            f"a dense {1 << nb} x {1 << nb} simulation (nb={nb}) needs about {need} bytes, "
            f"more than the {limit} bytes of physical memory")


def _simulate(arr: np.ndarray, p: Program) -> np.ndarray:
    """Apply the instructions of p, first to last, to the rows of arr, shape
    (2**nb, m).

    The operator applied so far is held as F · R · arr:

      * F, the frame, is monomial: row d of F·x is g * ph[d] * x[pos[d]], g a
        global phase.  SIGX, CNOT, ROTZ, PHAS and CPHA are monomial, so they
        update only pos, ph and g, in O(2**nb) each.
      * R is a pending run of ROTYs that share one pairing of rows: row i of
        R·x is coef[i, 0] * x[i] + coef[i, 1] * x[partner[i]].  A ROTY moved
        through F becomes a rotation on the row pairs (pos[lo], pos[hi]) whose
        off-diagonal entries are scaled by ph[hi]/ph[lo].  It is folded into R
        in O(2**nb) when its pairing is R's; otherwise R is first applied to
        arr and a new run starts.

    At the end R, then F, is applied.  The cost is
    O(#dense runs * 2**nb * m + len * 2**nb); a ROTY ladder on one target, with
    the c-nots on that target between its rotations, is one dense run.  Index
    plans are cached per call, keyed by the ints of the columns, and every
    dense run reuses the same four half-size work arrays.  arr may be
    overwritten; the result is returned.
    """
    n = 1 << p.nb
    rows = np.arange(n)
    pos = rows
    ph = np.ones(n, dtype=np.complex128)
    g = 1.0 + 0.0j
    # Index plans: swaps by (target, mask, val), CPHA rows by (mask, val),
    # ROTZ high-bit masks and ROTY (lo, hi) pairs by target.
    swaps: dict = {}
    phased: dict = {}
    highs: dict = {}
    pairs: dict = {}
    run = None  # pending R: (rows a, their partners b, partner, coef)
    bufs: list[np.ndarray] = []   # four (2**nb / 2, m) work arrays, shared by the flushes

    def flush(arr, run):
        # Two half-row passes: the lo rows of every pair, then the hi rows.
        a, b, _, coef = run
        if not bufs:
            bufs.extend(np.empty((len(a),) + arr.shape[1:], dtype=arr.dtype) for _ in range(4))
        xa, xb, out, tmp = bufs
        ca, cb = coef[a], coef[b]
        # mode="clip" (the rows are in range) keeps take from buffering its output
        np.take(arr, a, axis=0, out=xa, mode="clip")
        np.take(arr, b, axis=0, out=xb, mode="clip")
        np.multiply(xa, ca[:, :1], out=out)
        out += np.multiply(xb, ca[:, 1:], out=tmp)
        arr[a] = out
        xb *= cb[:, :1]
        xa *= cb[:, 1:]
        xb += xa
        arr[b] = xb

    for kind, t, m, v, angle in zip(*(c.tolist() for c in p.columns)):
        if kind == PHAS:
            g *= cmath.exp(1j * math.radians(angle))
        elif kind == CPHA:
            idx = phased.get((m, v))
            if idx is None:
                idx = phased[(m, v)] = np.flatnonzero(rows & m == v)
            ph[idx] *= cmath.exp(1j * math.radians(angle))
        elif kind == ROTZ:
            high = highs.get(t)
            if high is None:
                high = highs[t] = ((rows >> t) & 1).astype(bool)
            e = cmath.exp(1j * math.radians(angle))
            ph *= np.where(high, e.conjugate(), e)
        elif kind == SIGX or kind == CNOT:
            key = (t, m, v)
            q = swaps.get(key)
            if q is None:
                q = swaps[key] = np.where(rows & m == v, rows ^ (1 << t), rows)
            pos = pos[q]
            ph = ph[q]
        else:  # ROTY
            lohi = pairs.get(t)
            if lohi is None:
                bit = (rows >> t) & 1
                lohi = pairs[t] = (rows[bit == 0], rows[bit == 1])
            lo, hi = lohi
            rad = math.radians(angle)
            c, s = math.cos(rad), math.sin(rad)
            a, b = pos[lo], pos[hi]
            r = ph[hi] / ph[lo]
            up = (s * r)[:, None]
            down = (s / r)[:, None]
            if run is not None and (run[2][a] == b).all():
                coef = run[3]
                ca, cb = coef[a], coef[b]
                coef[a] = c * ca + up * cb[:, ::-1]
                coef[b] = c * cb - down * ca[:, ::-1]
                continue
            if run is not None:
                flush(arr, run)
            partner = np.empty(n, dtype=np.intp)
            partner[a] = b
            partner[b] = a
            coef = np.empty((n, 2), dtype=np.complex128)
            coef[a, 0] = c
            coef[a, 1:] = up
            coef[b, 0] = c
            coef[b, 1:] = -down
            run = (a, b, partner, coef)
    if run is not None:
        flush(arr, run)
    bufs.clear()   # before the gather below, which allocates a full copy
    if not (pos == rows).all():
        arr = arr[pos]
    ph *= g
    if not (ph == 1).all():
        arr *= ph[:, None]
    return arr


def program_to_matrix(p: Program) -> np.ndarray:
    """Dense unitary of a program: the first instruction acts first on a ket.

    Costs O(#dense runs * 4**nb + len * 2**nb): only runs of ROTYs touch the
    dense matrix; every other gate is tracked as a permutation and phases.
    Raises DenseTooLargeError, before allocating, when about
    DENSE_PEAK_ARRAYS * 16 * 4**nb bytes exceed the physical memory.
    """
    _check_dense(p.nb)
    return _simulate(np.eye(1 << p.nb, dtype=np.complex128), p)


def apply_to_state(p: Program, state) -> np.ndarray:
    """Apply a program to a state vector, or to the columns of a (2**nb, m) array.

    Costs O(#dense runs * 2**nb * m + len * 2**nb).
    """
    v = np.array(state, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[0] != 1 << p.nb:
        raise ValueError(f"state shape {v.shape} does not match nb={p.nb}")
    out = _simulate(v if v.ndim == 2 else v[:, None], p)
    return out.reshape(v.shape)


# ---------------------------------------------------------------------------
# Derived constructions
# ---------------------------------------------------------------------------

def exchanger_program(alpha: int, beta: int, nb: int) -> Program:
    """Three c-nots realizing the transposition of bit positions alpha and beta."""
    if alpha == beta:
        raise ValueError("exchanger needs two distinct bits")
    ctrl = [1 << beta, 1 << alpha, 1 << beta]
    return Program(nb, [CNOT] * 3, [alpha, beta, alpha], ctrl, ctrl, [0.0] * 3)


def z_ladder(bits: list[int], thetas: np.ndarray, prune_tol: float) -> Program:
    """Program for prod_b exp(i theta_b Z_b) over subsets of ``bits``, on
    max(bits) + 1 bits.

    ``thetas[m]`` (degrees) multiplies the product of sigma_z over the bits
    selected by mask m; m = 0 contributes a global phase.  Factors are walked
    in lazy (Gray) order so that the c-not conjugations of adjacent factors
    mostly cancel: each factor rotates its lowest selected bit, conjugated by
    c-nots from the remaining selected bits, and consecutive factors sharing a
    rotation bit are linked by the c-nots of their control-set difference.
    """
    k = len(bits)
    if len(thetas) != 1 << k:
        raise ValueError(f"need {1 << k} angles for {k} bits, got {len(thetas)}")
    kinds: list[int] = []
    targets: list[int] = []
    masks: list[int] = []
    angles: list[float] = []

    def emit(kind: int, target: int, mask: int, angle: float) -> None:
        kinds.append(kind)
        targets.append(target)
        masks.append(mask)
        angles.append(angle)

    def cnots(mask: int, target_bit: int) -> None:
        for j in range(k):
            if mask >> j & 1:
                emit(CNOT, target_bit, 1 << bits[j], 0.0)

    prev: tuple[int, int] | None = None  # (target index, control mask) awaiting closure
    for m in bitops.gray_sequence(k) if k else [0]:
        theta = float(thetas[m])
        if m == 0:
            if abs(theta) > prune_tol:
                emit(PHAS, -1, 0, theta)
            continue
        if abs(theta) <= prune_tol:
            continue
        tj = (m & -m).bit_length() - 1  # lowest selected bit rotates
        mask = m & ~(1 << tj)
        if prev is not None and prev[0] == tj:
            cnots(prev[1] ^ mask, bits[tj])
        else:
            if prev is not None:
                cnots(prev[1], bits[prev[0]])
            cnots(mask, bits[tj])
        emit(ROTZ, bits[tj], 0, theta)
        prev = (tj, mask)
    if prev is not None:
        cnots(prev[1], bits[prev[0]])
    return Program(max(bits, default=0) + 1, kinds, targets, masks, masks, angles,
                   validate=False)


def _uncontrolled(nb: int, rows: list[tuple[int, int, float]]) -> Program:
    """Program of (kind, target, angle) rows without controls."""
    kinds, targets, angles = zip(*rows) if rows else ((), (), ())
    zeros = [0] * len(kinds)
    return Program(nb, kinds, targets, zeros, zeros, angles, validate=False)


def _expansion(nb: int, kind: int, target: int, mask: int, val: int,
               pruned: bool) -> Program:
    """The expansion of one multi-control gate over instructions touching <= 2
    bits.  For CPHA it is built for angle 1 and scales linearly in the angle:
    every ladder angle is +-angle / 2**k, exact in floating point, so the
    caller multiplies the angle column by the gate's angle, and ``pruned``
    drops the whole ladder."""
    ctrl_bits = _bits_of(mask)
    # Normalize F controls by conjugating with SIGX on those bits.
    flips = [(SIGX, b, 0.0) for b in ctrl_bits if not val >> b & 1]
    if kind == CPHA:
        involved = ctrl_bits
        wrap, closing = [], []
        angle, tol = 1.0, -1.0
    else:  # CNOT: sigma_x(t)^P = V sigma_z(t)^P V*, V = exp(-i 45deg sigma_y(t))
        involved = [target] + ctrl_bits
        wrap, closing = [(ROTY, target, 45.0)], [(ROTY, target, -45.0)]
        angle, tol = 180.0, PRUNE_TOL
    parts = [_uncontrolled(nb, flips + wrap)]
    if not pruned:
        # sigma_z powers: exp(i angle n...n) has Hadamard-transformed z-string
        # coefficients angle * (-1)**|m| / 2**k over control-bit subsets m.
        k = len(involved)
        signs = np.where(bitops.popcount(np.arange(1 << k)) & 1, -1.0, 1.0)
        parts.append(z_ladder(involved, angle * signs / (1 << k), tol))
    parts.append(_uncontrolled(nb, closing + flips[::-1]))
    return concat(*parts)


def expand_controls(p: Program) -> Program:
    """Expand multi-control gates so every instruction touches at most 2 bits.

    CNOT with >= 2 controls and CPHA with >= 3 controls are rewritten in the
    sigma_z basis; everything already elementary passes through unchanged.
    Each distinct (kind, target, controls) is expanded once per call.  A CPHA
    expansion is then scaled by the gate's angle, or its ladder is dropped
    whole (its F-control flips stay) when every ladder angle, |angle| / 2**k,
    is at most PRUNE_TOL.
    """
    kind, target, mask, val, angle = p.columns
    nctrl = bitops.popcount(mask)
    cpha = kind == CPHA
    rows = np.flatnonzero(((kind == CNOT) & (nctrl >= 2)) | (cpha & (nctrl >= 3)))
    if not rows.size:
        return p
    pruned = cpha[rows] & (np.ldexp(np.abs(angle[rows]), -nctrl[rows]) <= PRUNE_TOL)
    keys = np.stack([kind[rows], target[rows], mask[rows], val[rows], pruned], axis=1)
    uniq, which = np.unique(keys, axis=0, return_inverse=True)
    which = which.reshape(-1)
    templates = [_expansion(p.nb, *key) for key in uniq.tolist()]
    # Output slots: every row keeps one, an expanded row takes its template's.
    lens = np.ones(len(p), dtype=np.int64)
    lens[rows] = np.array([len(t) for t in templates])[which]
    start = np.cumsum(lens) - lens
    out = [np.empty(int(lens.sum()), dtype=c.dtype) for c in p.columns]
    kept = np.ones(len(p), dtype=bool)
    kept[rows] = False
    for o, c in zip(out, p.columns):
        o[start[kept]] = c[kept]
    groups = np.split(rows[np.argsort(which, kind="stable")],
                      np.cumsum(np.bincount(which))[:-1])
    for key, tpl, group in zip(uniq.tolist(), templates, groups):
        slots = start[group][:, None] + np.arange(len(tpl))
        for o, c in zip(out, tpl.columns[:4]):
            o[slots] = c
        out[4][slots] = tpl.angle * angle[group][:, None] if key[0] == CPHA else tpl.angle
    return Program(p.nb, *out, validate=False)


def rename_bits(p: Program, mapping) -> Program:
    """Rewrite every bit index through ``mapping`` (callable or sequence),
    which must be defined on every bit 0..nb-1.

    Targets go through a lookup table and masks through one shift per bit.
    The result is checked only when the mapping is not injective into
    0..nb-1; then two controls of one row that land on one bit raise
    ValueError, as do a target and a control.
    """
    get = mapping.__getitem__ if hasattr(mapping, "__getitem__") else mapping
    images = [int(get(b)) for b in range(p.nb)]
    if min(images) < 0 or max(images) >= p.nb:
        raise ValueError(f"bit mapping leaves 0..{p.nb - 1}: {images}")
    mask = np.zeros_like(p.ctrl_mask)
    val = np.zeros_like(p.ctrl_val)
    for b, dest in enumerate(images):
        mask |= (p.ctrl_mask >> b & 1) << dest
        val |= (p.ctrl_val >> b & 1) << dest
    lut = np.array(images + [-1])   # a target of -1 stays -1
    out = Program(p.nb, p.kind, lut[p.target], mask, val, p.angle, validate=False)
    if len(set(images)) != p.nb:
        _reject(bitops.popcount(mask) != bitops.popcount(p.ctrl_mask), p.kind,
                "{kind} bits must be distinct: two controls land on one bit")
        out.validate()
    return out
