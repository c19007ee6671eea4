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
from .matrices import CHUNK_BYTES

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


def gather(nb: int, pieces: list) -> Program:
    """The instructions of ``pieces``, triples (program, owner of each of its
    instructions, key of each owner), in the order of their keys; the sort is
    stable, so the instructions of one key keep their order.  ``pieces`` is
    emptied, and the result is built one column at a time, each column of
    the pieces let go once it is gathered, so the pieces and the result are
    not both held whole."""
    cols = [list(p.columns) for p, _, _ in pieces]
    key = np.concatenate([key[owner] for _, owner, key in pieces])
    pieces.clear()
    at = np.argsort(key, kind="stable")
    del key
    out = []
    for i in range(5):
        col = np.concatenate([c[i] for c in cols])
        for c in cols:
            c[i] = None
        out.append(col[at])
    return Program(nb, *out, validate=False)


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


def _chunk_pairs(row_bytes: int, pairs: int) -> int:
    """Row pairs per chunk of a ladder's dense update over rows of row_bytes bytes."""
    return min(pairs, max(1, CHUNK_BYTES // row_bytes)) if row_bytes else pairs


def dense_peak_bytes(nb: int) -> int:
    """Bytes of the dense arrays program_to_matrix holds at its peak on nb bits.

    That is the 2**nb x 2**nb complex128 matrix plus the larger of the final
    gather's copy (one more matrix) and the four work arrays of one chunk of
    a ladder's update: three matrices up to nb = 7, where a chunk takes every
    row pair, and two from nb = 8 on.  Measured with tracemalloc, the peak
    also holds vectors over the 2**nb rows, numpy's fixed-size ufunc buffer
    (128 KB), the segment plan, at most 64 bytes per instruction (about 19
    for a Haar program, 46 expanded), and one batch of segment angles, about
    46 * 2**nb bytes per segment and so about 3 * CHUNK_BYTES (384 KB) for a
    full batch; the guard counts the dense arrays only.
    """
    n = 1 << nb
    row = 16 * n
    return n * row + max(n * row, 4 * row * _chunk_pairs(row, n >> 1))


def _check_dense(nb: int) -> None:
    """Raise DenseTooLargeError if a dense simulation on nb bits would need
    more than the physical memory: about dense_peak_bytes(nb) bytes."""
    need = dense_peak_bytes(nb)
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        raise DenseTooLargeError(
            f"a dense {1 << nb} x {1 << nb} simulation (nb={nb}) needs about {need} bytes, "
            f"more than the {limit} bytes of physical memory")


# Segment kinds of the simulator.
_LADDER, _PHASE, _SWAP = range(3)


class _Plan:
    """The segments of a program, found with array passes over its columns.

    A segment is one of:

      * a ladder: a maximal run of ROTYs on one target w and single-control
        CNOTs into w, holding at least one ROTY;
      * a phase segment: a run of ROTZ, PHAS, CPHA, SIGX and the other
        single-control CNOTs;
      * one multi-control CNOT.

    Across a segment every bit b is an affine GF(2) form of the bits at its
    start: x_b, XOR the parity of x & S, XOR a constant c.  SIGX and the
    single-control CNOTs into b add to S and c; they are the only gates that
    move the forms.  Only gates on a moved bit share its segment: a phase
    segment is cut wherever a gate on another bit (a SIGX, CNOT or ROTZ on
    another target, or any CPHA) follows the moves of a target whose (S, c)
    is not back to zero.  So at most one bit of a segment, the target of its
    last SIGX or CNOT, has a form other than x_b, its (S, c) is the XOR
    prefix of the packed contributions ``mask | flip << nb`` since the
    segment start, and only a ROTZ on that bit reads it.  Then:

      * a ladder is, on each w-pair p, X**e(p) · Ry(phi(p)) with
        phi(p) = sum_j theta_j (-1)**(|S_j & p| + c_j) over its rotations j:
        one scatter-add of the angles at S_j and one Walsh-Hadamard
        transform over the pairs;
      * a phase segment is a permutation times exp(i Phi) in the coordinates
        of its start, Phi = the Walsh-Hadamard transform of the ROTZ
        coefficients plus, per F-pattern f of its CPHAs, the subset sum
        (zeta transform) zeta_f[d ^ f] of their angles by control mask;
      * the permutation of either is d -> d ^ (e(d) << t),
        e(d) = |S & d| + c mod 2, for the moved bit t and its final (S, c).

    Per segment the plan holds its kind, target, first row, final packed
    (S, c) and the slices of its Walsh terms (index, degrees) and zeta terms
    (f, mask, degrees).  PHAS angles, which commute with everything, are
    summed into ``phas``.
    """

    def __init__(self, p: Program):
        nb = p.nb
        kind, target, mask, val, angle = p.columns
        # Every gate is 360°-periodic in its angle.  fmod is exact, so this
        # changes no angle below 360° and keeps the sums below from
        # overflowing (two ROTY 1e308) or outgrowing their own reduction.
        angle = np.fmod(angle, 360.0)
        rot_y = kind == ROTY
        multi = (kind == CNOT) & (mask & (mask - 1) != 0)
        cnot1 = (kind == CNOT) ^ multi
        moving = cnot1 | (kind == SIGX)
        # Ladders: runs of one ladder target that hold a ROTY.
        lt = np.where(rot_y | cnot1, target, -1)
        runs = np.flatnonzero(np.concatenate(([True], lt[1:] != lt[:-1])))
        ladder = np.repeat(np.logical_or.reduceat(rot_y, runs), np.diff(runs, append=len(p)))
        ladder &= lt >= 0
        del lt, runs
        start = multi.copy()
        start[0] = True
        start[1:] |= ((ladder[1:] != ladder[:-1]) | (ladder[1:] & (target[1:] != target[:-1]))
                      | multi[:-1])
        # a SIGX or single-control CNOT adds its control to S, and flips c
        # if it is a SIGX or its control is F
        contrib = (val == 0).astype(np.int64)
        contrib <<= nb
        contrib |= mask
        contrib[~moving] = 0
        # Cut a phase segment where a gate on another bit follows a run of
        # moves that does not return its target to x_t.  ROTZs group under
        # their target and CPHAs under -1, and neither moves a bit.
        free = moving & ~ladder
        if free.any():
            rows = np.flatnonzero(free | (kind == ROTZ) | (kind == CPHA))
            seg = np.searchsorted(np.flatnonzero(start), rows, "right")
            t = target[rows]
            new_target = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
            sub = np.flatnonzero(np.concatenate(([True], new_target)))
            is_open = np.bitwise_xor.reduceat(contrib[rows], sub) != 0
            cut = (seg[sub[1:]] == seg[sub[:-1]]) & is_open[:-1]
            start[rows[sub[1:][cut]]] = True
        del free
        first = np.flatnonzero(start)
        del start
        end = np.append(first[1:], len(p)) - 1
        cum = np.bitwise_xor.accumulate(contrib)
        cum ^= contrib   # exclusive prefix
        base = cum[first]
        self.final = cum[end] ^ contrib[end] ^ base
        del contrib
        self.first = first
        self.kind = np.where(ladder[first], _LADDER, np.where(multi[first], _SWAP, _PHASE))
        self.target = target[first]
        # an open phase segment's moved bit is the target of its last move
        open_end = np.flatnonzero((self.kind == _PHASE) & (self.final != 0))
        moves = np.flatnonzero(moving)
        self.target[open_end] = target[moves[np.searchsorted(moves, end[open_end], "right") - 1]]
        del ladder, multi, end, open_end, moves
        # Walsh terms: ladder ROTYs (indexed by pair) and ROTZs, each with
        # its (S, c) relative to its segment's start.  Every bit but a ROTZ's
        # own is x_b at its row, so that (S, c) is its own bit's.
        wr = np.flatnonzero(rot_y | (kind == ROTZ))
        w_seg = np.searchsorted(first, wr, "right") - 1
        w_idx = cum[wr]
        w_idx ^= base[w_seg]
        del cum
        t = target[wr]
        w_deg = angle[wr]
        z = np.flatnonzero(kind[wr] == ROTZ)
        del wr
        np.negative(w_deg, out=w_deg, where=w_idx >> nb != 0)
        w_idx &= (1 << nb) - 1   # S
        w_idx[z] ^= 1 << t[z]
        t[z] = -1
        y = np.flatnonzero(t >= 0)
        s, t = w_idx[y], t[y]
        w_idx[y] = (s & ((1 << t) - 1)) | (s >> (t + 1) << t)   # the pair of S, bit t dropped
        del z, y, s, t
        # CPHAs: zeta terms by F-pattern; every bit is x_b at a CPHA.
        cz = np.flatnonzero(kind == CPHA)
        z_seg = np.searchsorted(first, cz, "right") - 1
        mc = mask[cz]
        f = mc & ~val[cz]
        order = np.lexsort((f, z_seg))
        self.w_idx, self.w_deg = w_idx, w_deg
        self.z_f, self.z_mask, self.z_deg = f[order], mc[order], angle[cz][order]
        segs = np.arange(len(first) + 1)
        self.w_off = np.searchsorted(w_seg, segs)
        self.z_off = np.searchsorted(z_seg[order], segs)
        self.phas = float(angle[kind == PHAS].sum())


def _batch_angles(plan: _Plan, j0: int, j1: int, nb: int) -> list:
    """The angles of segments j0..j1-1, one entry per segment: (cos phi,
    sin phi), each of shape (2**(nb-1), 1), for a ladder; exp(i Phi) over the
    2**nb rows for a phase segment with terms; None for the others.

    A few array passes serve all of them.  The Walsh terms of the ladders go
    into one (ladders, 2**(nb-1)) stack by one bincount, those of the phase
    segments into one (phase segments, 2**nb) stack, and each stack takes
    one Walsh transform.  The zeta terms of each (segment, F-pattern) group
    go into one row of a zeta stack, at most _chunk_segments(nb) groups at a
    time; each row is transformed, read at d ^ f and added to its segment's
    row, one group after the other in plan order.  Then one cos and sin, and
    one exp.  Every step acts on each row alone and the groups are added in
    one fixed order, so the angles do not depend on where chunks are cut.
    """
    n = 1 << nb
    w_off, z_off = plan.w_off[j0:j1 + 1], plan.z_off[j0:j1 + 1]
    kind = plan.kind[j0:j1]
    ladder = kind == _LADDER
    phase = (kind == _PHASE) & ((np.diff(w_off) > 0) | (np.diff(z_off) > 0))
    row = np.cumsum(ladder) - 1   # each segment's row in its kind's stack
    row[phase] = np.arange(np.count_nonzero(phase))
    w = slice(w_off[0], w_off[-1])
    idx, deg = plan.w_idx[w], plan.w_deg[w]
    w_seg = np.repeat(np.arange(j1 - j0), np.diff(w_off))
    stacks = []
    for is_kind, size in ((ladder, n >> 1), (phase, n)):
        on = is_kind[w_seg]
        m = np.count_nonzero(is_kind)
        a = np.bincount(row[w_seg[on]] * size + idx[on], weights=deg[on], minlength=m * size)
        a = a.astype(np.float64, copy=False)   # a bincount of no terms is int64
        a = bitops.kron_transform(a.reshape(m, size), "walsh")
        stacks.append(np.radians(a, out=a))
    phi, phase_phi = stacks
    cos, sin = np.cos(phi[..., None]), np.sin(phi[..., None])
    z = slice(z_off[0], z_off[-1])
    z_seg = np.repeat(np.arange(j1 - j0), np.diff(z_off))
    f, mask, z_deg = plan.z_f[z], plan.z_mask[z], plan.z_deg[z]
    new_group = np.ones(len(f), dtype=bool)
    new_group[1:] = (z_seg[1:] != z_seg[:-1]) | (f[1:] != f[:-1])
    group = np.cumsum(new_group) - 1
    head = np.append(np.flatnonzero(new_group), len(f))
    step = _chunk_segments(nb)
    rows = np.arange(n)
    for g0 in range(0, len(head) - 1, step):
        g1 = min(g0 + step, len(head) - 1)
        t = slice(head[g0], head[g1])
        zeta = np.bincount((group[t] - g0) * n + mask[t], weights=z_deg[t], minlength=(g1 - g0) * n)
        zeta = np.radians(bitops.kron_transform(zeta.reshape(g1 - g0, n), "zeta"))
        firsts = head[g0:g1]
        zeta = np.take_along_axis(zeta, rows ^ f[firsts, None], axis=1)
        np.add.at(phase_phi, row[z_seg[firsts]], zeta)
    ex = np.exp(1j * phase_phi)
    return [(cos[r], sin[r]) if is_ladder else ex[r] if is_phase else None
            for r, is_ladder, is_phase in zip(row.tolist(), ladder.tolist(), phase.tolist())]


def _chunk_segments(nb: int) -> int:
    """Segments (or zeta groups) per batch of _batch_angles on nb bits."""
    return max(1, CHUNK_BYTES >> nb + 4)


def _simulate(arr: np.ndarray, p: Program) -> np.ndarray:
    """Apply the instructions of p, first to last, to the rows of arr, shape
    (2**nb, m), one segment (see :class:`_Plan`) at a time.

    The operator applied so far is held as F · arr, where F, the frame, is
    monomial: row d of F·x is g * ph[d] * x[pos[d]], g a global phase.  A
    phase segment multiplies ph by exp(i Phi), then permutes pos and ph once;
    a multi-control CNOT permutes them.  A ladder on w moved through F
    becomes a rotation by phi(p) on the row pairs (pos[lo], pos[hi]) of its
    w-pairs, whose off-diagonal entries are scaled by ph[hi]/ph[lo]; it is
    applied to arr at once, then its X**e permutes pos and ph.

    The segments are taken in batches of _chunk_segments(nb): CHUNK_BYTES
    over the 16 * 2**nb bytes of one phase segment's exp(i Phi).  Each batch
    first gets the angles of all its segments from a few stacked transforms
    (:func:`_batch_angles`), so the loop over segments only updates F and arr.
    A batch holds about 46 * 2**nb bytes per segment at its peak (measured
    with tracemalloc at nb = 9), so about 3 * CHUNK_BYTES when full.

    At the end F is applied.  The cost is
    O(#ladders * 2**nb * m + len * log(len) + #segments * nb * 2**nb):
    the plan is array passes over the columns, the angles are stacked
    O(nb 2**nb) transforms per segment, each segment costs O(2**nb) frame
    updates, and only a ladder touches arr.  A ladder goes through its row
    pairs in chunks of at most CHUNK_BYTES per work array, and every chunk
    of every ladder reuses the same four work arrays.  arr may be
    overwritten; the result is returned.
    """
    if not len(p):
        return arr
    nb = p.nb
    n = 1 << nb
    rows = np.arange(n)
    pos = rows
    ph = np.ones(n, dtype=np.complex128)
    plan = _Plan(p)
    g = cmath.exp(1j * math.radians(plan.phas))
    parity = None
    pairs: dict = {}   # (lo, hi) rows of the w-pairs, by w
    # Per chunk of row pairs, the same for every ladder: its slice and four
    # views of the four (chunk, m) work arrays that all ladders share.
    half = n >> 1
    chunk = _chunk_pairs(arr[0].nbytes, half)
    bufs = [np.empty((chunk,) + arr.shape[1:], dtype=arr.dtype) for _ in range(4)]
    chunks = [(slice(j, j + chunk), [x[:half - j] for x in bufs]) for j in range(0, half, chunk)]
    del bufs

    def rotate(a, b, c, up, down):
        # Row a[i] becomes c x[a] + up x[b] and row b[i] c x[b] + down x[a],
        # chunk by chunk, in two passes: the lo rows of its pairs, then the
        # hi rows.  A chunk reads and writes only the rows of its own pairs,
        # and every step is element-wise, so chunking leaves the result
        # unchanged.
        for k, (xa, xb, out, tmp) in chunks:
            sa, sb = a[k], b[k]
            # mode="clip" (the rows are in range) keeps take from buffering its output
            np.take(arr, sa, axis=0, out=xa, mode="clip")
            np.take(arr, sb, axis=0, out=xb, mode="clip")
            np.multiply(xa, c[k], out=out)
            out += np.multiply(xb, up[k], out=tmp)
            arr[sa] = out
            xb *= c[k]
            xa *= down[k]
            xb += xa
            arr[sb] = xb

    low = n - 1
    step = _chunk_segments(nb)
    kinds, targets = plan.kind.tolist(), plan.target.tolist()
    finals, firsts = plan.final.tolist(), plan.first.tolist()
    for j0 in range(0, len(kinds), step):
        j1 = min(j0 + step, len(kinds))
        angles = _batch_angles(plan, j0, j1, nb)
        for kind, t, final, i, angle in zip(kinds[j0:j1], targets[j0:j1], finals[j0:j1],
                                            firsts[j0:j1], angles):
            if kind == _SWAP:
                m, v = int(p.ctrl_mask[i]), int(p.ctrl_val[i])
                q = np.where(rows & m == v, rows ^ (1 << t), rows)
                pos = pos[q]
                ph = ph[q]
                continue
            if kind == _LADDER:
                lohi = pairs.get(t)
                if lohi is None:
                    bit = (rows >> t) & 1
                    lohi = pairs[t] = (rows[bit == 0], rows[bit == 1])
                lo, hi = lohi
                c, s = angle
                r = (ph[hi] / ph[lo])[:, None]
                # c as complex, like the matrix: a real factor would be cast
                # in buffered pieces on every product
                rotate(pos[lo], pos[hi], c.astype(np.complex128), s * r, -(s / r))
            elif angle is not None:
                ph *= angle
            if final:
                if parity is None:
                    parity = bitops.popcount(rows) & 1
                e = parity[rows & (final & low)] ^ (final >> nb) if final & low else final >> nb
                q = rows ^ (e << t)
                pos = pos[q]
                ph = ph[q]
    # free the work arrays and the last batch of angles before the gather
    # below, which allocates a full copy
    chunks.clear()
    del angles
    if not (pos == rows).all():
        arr = arr[pos]
    ph *= g
    if not (ph == 1).all():
        arr *= ph[:, None]
    return arr


def program_to_matrix(p: Program) -> np.ndarray:
    """Dense unitary of a program: the first instruction acts first on a ket.

    Costs O(#ladders * 4**nb + len * log(len) + #segments * nb * 2**nb):
    the program is simulated one segment at a time (a ROTY ladder, a phase
    run or a multi-control CNOT, see ``_Plan``), and only the ladders touch
    the dense matrix, once each, a cache-sized chunk of row pairs at a time;
    everything else is tracked as a permutation and phases.  The angles of
    the segments come from stacked transforms, a batch of
    CHUNK_BYTES / (16 * 2**nb) segments at a time, about 46 * 2**nb bytes
    per segment.  The peak holds three dense matrices up to nb = 7 and two
    from nb = 8 on (:func:`dense_peak_bytes`), plus the plan and one batch.
    Raises DenseTooLargeError, before allocating, when about
    dense_peak_bytes(nb) bytes exceed the physical memory.
    """
    _check_dense(p.nb)
    return _simulate(np.eye(1 << p.nb, dtype=np.complex128), p)


def apply_to_state(p: Program, state) -> np.ndarray:
    """Apply a program to a state vector, or to the columns of a (2**nb, m) array.

    Costs O(#ladders * 2**nb * m + len * log(len) + #segments * nb * 2**nb)
    for m columns, as :func:`program_to_matrix`.
    """
    v = np.array(state, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[0] != 1 << p.nb:
        raise ValueError(f"state shape {v.shape} does not match nb={p.nb}")
    out = _simulate(v if v.ndim == 2 else v[:, None], p)
    return out.reshape(v.shape)


# ---------------------------------------------------------------------------
# Derived constructions
# ---------------------------------------------------------------------------

def _ladder_rows(target, steps, angles, owner=0):
    """The lazy ladder of :func:`rotation_ladder` as rows of c-not control
    masks over its kept steps: returns the mask of kept steps, their targets
    and owners, and the rows.

    Row 2i + 1 holds kept step i's c-nots, followed by its rotation; row
    2i + 2 holds the c-nots closing step i's run, none unless the run ends
    there.  Row 0 is empty.
    """
    keep = np.abs(angles) > PRUNE_TOL
    mask = np.asarray(steps, dtype=np.int64)[keep]
    zero = np.zeros(len(angles), dtype=np.int64)
    tgt, own = (zero + target)[keep], (zero + owner)[keep]
    k = len(mask)
    # Step i's c-nots are m_i ^ m_(i-1) ^ (row 2i), m_-1 = 0: the XOR with
    # the previous step inside a run, m_i alone after a closed one.
    rows = np.zeros(2 * k + 1, dtype=np.int64)
    rows[2::2] = mask
    rows[1::2] = mask ^ rows[:-1:2]
    rows[2:-1:2] *= (tgt[1:] != tgt[:-1]) | (own[1:] != own[:-1])
    rows[1::2] ^= rows[:-1:2]
    return keep, tgt, own, rows


def rotation_ladder(nb: int, kind: int, target, steps, angles,
                    owner=0) -> tuple[Program, np.ndarray]:
    """The lazy ladder of uncontrolled ``kind`` rotations (ROTY or ROTZ), each
    conjugated by c-nots from its controls, on ``nb`` bits, and the owner of
    each of its rows.

    Step i rotates ``target[i]`` (or the scalar ``target``) by ``angles[i]``;
    its controls are the bits set in ``steps[i]``.  Steps with
    |angle| <= PRUNE_TOL are dropped.  Over the kept steps, a run on one
    target and one ``owner`` (per step, or a scalar) emits before each
    rotation the c-nots of the XOR of its control set with the previous
    step's (all of its own for the first step of the run), and closes with
    the c-nots of its last step; so adjacent conjugations cancel except for
    one c-not per Gray step.  Within a step the c-nots follow increasing bit
    order.  Owners never share a run, so one call emits the ladders of
    several owners side by side.
    """
    angles = np.asarray(angles, dtype=np.float64)
    keep, tgt, own, rows = _ladder_rows(target, steps, angles, owner)
    bit = np.concatenate((1 << np.arange(nb, dtype=np.int64), [0]))
    hit = rows[:, None] & bit != 0   # each row's c-nots by bit,
    hit[1::2, nb] = True             # then an odd row's rotation
    row, col = np.nonzero(hit)
    step = (row - 1) >> 1
    is_rot = col == nb
    ctrl = bit[col]
    angle = np.zeros(len(col))
    angle[is_rot] = angles[keep]
    return Program(nb, np.where(is_rot, kind, CNOT), tgt[step], ctrl, ctrl, angle,
                   validate=False), own[step]


def _z_steps(k: int):
    """The steps of a sigma_z ladder over k bits: the nonzero Gray codes, the
    index of each one's lowest selected bit (the bit it rotates) and its
    other bits (its controls)."""
    seq = bitops.gray_codes(k)[1:]
    low = seq & -seq
    # frexp gives the index of the lowest bit + 1
    return seq, np.frexp(low)[1] - 1, seq ^ low


def z_ladder(bits, thetas) -> tuple[Program, np.ndarray]:
    """Program for prod_b exp(i theta_b Z_b) over subsets of ``bits``, on
    1 + the largest bit, for ``thetas`` or for each row r of an (m, 2**k)
    stack of them, side by side; and the row r that owns each instruction.
    ``bits`` is one list of k bits for every row, or an (m, k) array of each
    row's own.

    ``thetas[m]`` (degrees) multiplies the product of sigma_z over the bits
    selected by mask m (bit j of m selects ``bits[j]``); m = 0 contributes a
    global phase, its row's first instruction.  Factors are walked in lazy
    (Gray) order, as one :func:`rotation_ladder` over every row: each factor
    rotates its lowest selected bit, conjugated by c-nots from the remaining
    selected bits, which fire in increasing bit order, whatever their order
    in ``bits``.  Every caller passes bits whose c-nots come in the order of
    ``bits`` anyway: ``range(nb)``, or a CNOT's target (only ever rotated)
    followed by its controls in increasing order.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    m, size = thetas.shape
    bits = np.asarray(bits, dtype=np.int64)
    k = bits.shape[-1]
    if size != 1 << k:
        raise ValueError(f"need {1 << k} angles for {k} bits, got {size}")
    nb = int(bits.max(initial=0)) + 1
    seq, rot, ctrl = _z_steps(k)
    # each step's target and control mask, for the one row of bits or each
    target = bits[..., rot]
    steps = (1 << bits) @ (ctrl[:, None] >> np.arange(k) & 1).T
    shape = (m, len(seq))
    ladder, owner = rotation_ladder(
        nb, ROTZ, np.broadcast_to(target, shape).reshape(-1),
        np.broadcast_to(steps, shape).reshape(-1), thetas[:, seq].reshape(-1),
        np.repeat(np.arange(m), len(seq)))
    ph = np.flatnonzero(np.abs(thetas[:, 0]) > PRUNE_TOL)
    none = np.zeros(len(ph), dtype=np.int64)
    phas = Program(nb, none + PHAS, none - 1, none, none, thetas[ph, 0], validate=False)
    return concat(phas, ladder), np.concatenate((ph, owner))


def z_ladder_cnots(thetas: np.ndarray) -> int:
    """The number of c-nots in ``z_ladder(bits, thetas)``, for any bits, read
    off the rows of its lazy ladder without emitting it."""
    k = len(thetas).bit_length() - 1
    seq, rot, ctrl = _z_steps(k)
    rows = _ladder_rows(rot, ctrl, np.asarray(thetas, dtype=np.float64)[seq])[3]
    return int(bitops.popcount(rows).sum())


def cpha_ladder_pruned(angle, nctrl) -> np.ndarray:
    """Whether the expansion of a CPHA with ``nctrl`` controls drops its
    ladder: every ladder angle, |angle| / 2**nctrl, is at most PRUNE_TOL."""
    return np.ldexp(np.abs(angle), -nctrl) <= PRUNE_TOL


def _expanded_rows(kind: np.ndarray, nctrl: np.ndarray) -> np.ndarray:
    """The rows ``expand_controls`` rewrites, CNOT with >= 2 controls and
    CPHA with >= 3, given the control count of every row."""
    return np.flatnonzero(((kind == CNOT) & (nctrl >= 2)) | ((kind == CPHA) & (nctrl >= 3)))


def two_qubit_gates(p: Program) -> int:
    """The number of instructions on exactly two bits in ``expand_controls(p)``,
    read off the rows of ``p`` without expanding them.

    A row that stays counts when it touches two bits.  An expanded row on m
    bits (its controls, and a CNOT's target) is one sigma_z ladder over all
    subsets of those bits, whose 2**m - 2 c-nots are its only two-bit rows
    (its F-control flips and the CNOT's ROTY wrap touch one bit each).  Every
    step of a ladder has the same |angle|, |gate angle| / 2**m, so the
    ladder is kept or pruned whole: a CPHA's when :func:`cpha_ladder_pruned`
    says so, costing 0; a CNOT's, at 180°/2**m, stays above PRUNE_TOL up to
    m = 40, past any expansion that can be built.  The counts are summed in
    Python ints, as 2**m outgrows int64 for m = 63.
    """
    nctrl = bitops.popcount(p.ctrl_mask)
    rows = _expanded_rows(p.kind, nctrl)
    two = nctrl + (p.target >= 0) == 2
    two[rows] = False
    live = rows[~((p.kind[rows] == CPHA) & cpha_ladder_pruned(p.angle[rows], nctrl[rows]))]
    per_width = np.bincount(nctrl[live] + (p.kind[live] == CNOT)).tolist()
    return int(np.count_nonzero(two)) + sum(
        ((1 << m) - 2) * n for m, n in enumerate(per_width) if n)


def expand_controls(p: Program) -> Program:
    """Expand multi-control gates so every instruction touches at most 2 bits.

    CNOT with >= 2 controls and CPHA with >= 3 controls are rewritten in the
    sigma_z basis; everything already elementary passes through unchanged.
    An expanded row becomes: SIGX on each F control, in increasing bit order;
    for a CNOT, ROTY(target, 45°); the sigma_z ladder (:func:`z_ladder`) over
    its bits, the CNOT's target first, then its controls in increasing order,
    whose coefficients over the bit subsets s are angle * (-1)**|s| / 2**k,
    angle being 180° for a CNOT and the gate's own for a CPHA; for a CNOT,
    ROTY(target, -45°); the SIGX flips again, in decreasing bit order.  Every
    ladder angle of a row has the same size, so a CPHA whose
    |angle| / 2**k is at most PRUNE_TOL keeps only its flips.

    One :func:`z_ladder` call per ladder width and kind emits the ladders of
    all rows of that shape side by side, and one :func:`gather` puts every
    piece in row order.
    """
    kind, target, mask, val, angle = p.columns
    nctrl = bitops.popcount(mask)
    rows = _expanded_rows(kind, nctrl)
    if not rows.size:
        return p
    nb = p.nb
    at = np.arange(len(p))

    def uncontrolled(kinds, targets, angles):
        none = np.zeros(len(targets), dtype=np.int64)
        return Program(nb, none + kinds, targets, none, none, none + angles, validate=False)

    kept = np.delete(at, rows)
    # Within a row, the pieces keep the order of this list (gather is stable).
    pieces = [(Program(nb, *(c[kept] for c in p.columns), validate=False), kept, at)]
    flip, bit = np.nonzero((mask[rows] & ~val[rows])[:, None] >> np.arange(nb) & 1)
    flip = rows[flip]
    pieces.append((uncontrolled(SIGX, bit, 0.0), flip, at))
    cnot = kind[rows] == CNOT
    wrapped = rows[cnot]
    pieces.append((uncontrolled(ROTY, target[wrapped], 45.0), wrapped, at))
    width = nctrl[rows] + cnot
    for k in np.unique(width).tolist():
        signs = np.where(bitops.popcount(np.arange(1 << k)) & 1, -1.0, 1.0)
        for is_cnot in (True, False):
            grp = rows[(width == k) & (cnot == is_cnot)]
            if not grp.size:
                continue
            bits = np.nonzero(mask[grp, None] >> np.arange(nb) & 1)[1].reshape(len(grp), -1)
            if is_cnot:   # sigma_x(t)^P = V sigma_z(t)^P V*, V = exp(-i 45° sigma_y(t))
                bits = np.column_stack((target[grp], bits))
            scale = np.where(is_cnot, 180.0, angle[grp, None])
            ladder, owner = z_ladder(bits, scale * signs / (1 << k))
            pieces.append((ladder, grp[owner], at))
    pieces.append((uncontrolled(ROTY, target[wrapped], -45.0), wrapped, at))
    pieces.append((uncontrolled(SIGX, bit[::-1], 0.0), flip[::-1], at))
    return gather(nb, pieces)


def rename_bits(p: Program, perm: bitops.BitPermutation) -> Program:
    """Move every bit b of the program to ``perm(b)``; ``perm`` must permute
    the program's nb bits.

    Targets go through a lookup table, control masks and values through
    ``perm.move_bits``.
    """
    if perm.nb != p.nb:
        raise ValueError(f"a permutation of {perm.nb} bits cannot rename a program "
                         f"on {p.nb} bits")
    lut = np.array(perm.mapping + (-1,))   # a target of -1 stays -1
    return Program(p.nb, p.kind, lut[p.target], perm.move_bits(p.ctrl_mask),
                   perm.move_bits(p.ctrl_val), p.angle, validate=False)
