"""Instruction model for gate sequences (SEO files).

A program is an ordered list of instructions over six kinds:

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
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import bitops

KINDS = ("ROTY", "ROTZ", "SIGX", "CNOT", "PHAS", "CPHA")

_ANGLE_KINDS = {"ROTY", "ROTZ", "PHAS", "CPHA"}
_TARGET_KINDS = {"ROTY", "ROTZ", "SIGX", "CNOT"}
_CONTROL_KINDS = {"CNOT", "CPHA"}


class SeoParseError(ValueError):
    """Raised on malformed SEO text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Control:
    bit: int
    polarity: bool  # True for T (bit must be 1), False for F

    def __post_init__(self):
        if self.bit < 0:
            raise ValueError(f"control bit must be non-negative, got {self.bit}")


@dataclass(frozen=True)
class Instruction:
    kind: str
    target: int | None = None
    controls: tuple[Control, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instruction kind {self.kind!r}")
        if self.kind in _TARGET_KINDS:
            if self.target is None or self.target < 0:
                raise ValueError(f"{self.kind} needs a non-negative target bit")
        elif self.target is not None:
            raise ValueError(f"{self.kind} carries no target")
        if self.kind in _ANGLE_KINDS:
            if self.angle is None or not np.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} carries no angle")
        if self.kind in _CONTROL_KINDS:
            if len(self.controls) < 1:
                raise ValueError(f"{self.kind} needs at least one control")
        elif self.controls:
            raise ValueError(f"{self.kind} carries no controls")
        bits = self.bits()
        if len(bits) != len(set(bits)):
            raise ValueError(f"{self.kind} bits must be distinct, got {bits}")

    def bits(self) -> tuple[int, ...]:
        """All bit indices the instruction touches, controls first."""
        out = tuple(c.bit for c in self.controls)
        if self.target is not None:
            out += (self.target,)
        return out


@dataclass(frozen=True)
class Program:
    nb: int
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self):
        if self.nb < 1:
            raise ValueError("a program needs nb >= 1")
        object.__setattr__(self, "instructions", tuple(self.instructions))
        for ins in self.instructions:
            for b in ins.bits():
                if b >= self.nb:
                    raise ValueError(f"bit {b} out of range for nb={self.nb}")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def count_by_kind(self) -> dict[str, int]:
        out = {k: 0 for k in KINDS}
        for ins in self.instructions:
            out[ins.kind] += 1
        return out


def concat(*programs: Program) -> Program:
    """Concatenate programs in application order."""
    if not programs:
        raise ValueError("concat needs at least one program")
    nb = max(p.nb for p in programs)
    ins: tuple[Instruction, ...] = ()
    for p in programs:
        ins += p.instructions
    return Program(nb, ins)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _fmt_angle(a: float) -> str:
    return f"{a:.15g}"


def serialize(p: Program) -> str:
    """One line per instruction, single-space separated, first-applied first."""
    lines = []
    for ins in p.instructions:
        parts = [ins.kind]
        for c in ins.controls:
            parts.append(str(c.bit))
            parts.append("T" if c.polarity else "F")
        if ins.target is not None:
            parts.append(str(ins.target))
        if ins.angle is not None:
            parts.append(_fmt_angle(ins.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_bit(tok: str, lineno: int) -> int:
    try:
        b = int(tok)
    except ValueError:
        raise SeoParseError(lineno, f"expected a bit index, got {tok!r}") from None
    if b < 0:
        raise SeoParseError(lineno, f"bit index must be non-negative, got {b}")
    return b


def _parse_angle(tok: str, lineno: int) -> float:
    try:
        a = float(tok)
    except ValueError:
        raise SeoParseError(lineno, f"expected an angle, got {tok!r}") from None
    if not np.isfinite(a):
        raise SeoParseError(lineno, f"angle must be finite, got {tok!r}")
    return a


def _parse_controls(tokens: list[str], lineno: int) -> tuple[Control, ...]:
    controls = []
    for i in range(0, len(tokens), 2):
        bit = _parse_bit(tokens[i], lineno)
        pol = tokens[i + 1]
        if pol not in ("T", "F"):
            raise SeoParseError(lineno, f"control polarity must be T or F, got {pol!r}")
        controls.append(Control(bit, pol == "T"))
    return tuple(controls)


def parse(text: str, nb: int | None = None) -> Program:
    """Parse SEO text; nb is inferred as 1 + max referenced bit unless given."""
    instructions = []
    max_bit = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        try:
            if kind == "ROTY" or kind == "ROTZ":
                if len(args) != 2:
                    raise SeoParseError(lineno, f"{kind} takes a target and an angle")
                ins = Instruction(kind, target=_parse_bit(args[0], lineno),
                                  angle=_parse_angle(args[1], lineno))
            elif kind == "SIGX":
                if len(args) != 1:
                    raise SeoParseError(lineno, "SIGX takes a single target bit")
                ins = Instruction(kind, target=_parse_bit(args[0], lineno))
            elif kind == "CNOT":
                if len(args) < 3 or len(args) % 2 == 0:
                    raise SeoParseError(lineno, "CNOT takes control/polarity pairs and a target")
                ins = Instruction(kind, target=_parse_bit(args[-1], lineno),
                                  controls=_parse_controls(args[:-1], lineno))
            elif kind == "PHAS":
                # A controlled phase must be written CPHA; PHAS takes only an angle.
                if len(args) != 1:
                    raise SeoParseError(lineno, "PHAS takes a single angle (use CPHA for controls)")
                ins = Instruction(kind, angle=_parse_angle(args[0], lineno))
            elif kind == "CPHA":
                if len(args) < 3 or len(args) % 2 == 0:
                    raise SeoParseError(lineno, "CPHA takes control/polarity pairs and an angle")
                ins = Instruction(kind, controls=_parse_controls(args[:-1], lineno),
                                  angle=_parse_angle(args[-1], lineno))
            else:
                raise SeoParseError(lineno, f"unknown keyword {kind!r}")
        except SeoParseError:
            raise
        except ValueError as exc:
            raise SeoParseError(lineno, str(exc)) from None
        bits = ins.bits()
        if bits:
            top = max(bits)
            if nb is not None and top >= nb:
                raise SeoParseError(lineno, f"bit {top} out of range for nb={nb}")
            max_bit = max(max_bit, top)
        instructions.append(ins)
    return Program(max_bit + 1 if nb is None else nb, tuple(instructions))


# ---------------------------------------------------------------------------
# Matrix semantics
# ---------------------------------------------------------------------------

def _simulate(arr: np.ndarray, instructions, nb: int) -> np.ndarray:
    """Apply instructions, first to last, to the rows of arr, shape (2**nb, m).

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
    the c-nots on that target between its rotations, is one dense run.  arr may
    be overwritten; the result is returned.
    """
    n = 1 << nb
    rows = np.arange(n)
    pos = rows
    ph = np.ones(n, dtype=np.complex128)
    g = 1.0 + 0.0j
    # Index plans, cached per call: swaps by (target, controls), CPHA rows by
    # controls, ROTZ high-bit masks and ROTY (lo, hi) pairs by target.
    swaps: dict = {}
    phased: dict = {}
    highs: dict = {}
    pairs: dict = {}
    run = None  # pending R: (rows a, their partners b, partner, coef)

    def matches(controls):
        sel = np.ones(n, dtype=bool)
        for c in controls:
            sel &= ((rows >> c.bit) & 1).astype(bool) == c.polarity
        return sel

    def flush(arr, run):
        # Two half-row passes: the lo rows of every pair, then the hi rows.
        a, b, _, coef = run
        ca, cb = coef[a], coef[b]
        xa, xb = arr[a], arr[b]
        out = xa * ca[:, :1]
        out += xb * ca[:, 1:]
        arr[a] = out
        xb *= cb[:, :1]
        xa *= cb[:, 1:]
        xb += xa
        arr[b] = xb

    for ins in instructions:
        kind = ins.kind
        if kind == "PHAS":
            g *= cmath.exp(1j * math.radians(ins.angle))
        elif kind == "CPHA":
            idx = phased.get(ins.controls)
            if idx is None:
                idx = phased[ins.controls] = np.flatnonzero(matches(ins.controls))
            ph[idx] *= cmath.exp(1j * math.radians(ins.angle))
        elif kind == "ROTZ":
            t = ins.target
            high = highs.get(t)
            if high is None:
                high = highs[t] = ((rows >> t) & 1).astype(bool)
            e = cmath.exp(1j * math.radians(ins.angle))
            ph *= np.where(high, e.conjugate(), e)
        elif kind == "SIGX" or kind == "CNOT":
            key = (ins.target, ins.controls)
            q = swaps.get(key)
            if q is None:
                q = swaps[key] = np.where(matches(ins.controls), rows ^ (1 << ins.target), rows)
            pos = pos[q]
            ph = ph[q]
        elif kind == "ROTY":
            t = ins.target
            lohi = pairs.get(t)
            if lohi is None:
                bit = (rows >> t) & 1
                lohi = pairs[t] = (rows[bit == 0], rows[bit == 1])
            lo, hi = lohi
            rad = math.radians(ins.angle)
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
        else:
            raise AssertionError(f"unhandled kind {kind}")
    if run is not None:
        flush(arr, run)
    if not (pos == rows).all():
        arr = arr[pos]
    ph *= g
    if not (ph == 1).all():
        arr *= ph[:, None]
    return arr


def instruction_matrix(ins: Instruction, nb: int) -> np.ndarray:
    """Dense 2**nb unitary of a single instruction."""
    for b in ins.bits():
        if b >= nb:
            raise ValueError(f"bit {b} out of range for nb={nb}")
    return _simulate(np.eye(1 << nb, dtype=np.complex128), (ins,), nb)


def program_to_matrix(p: Program) -> np.ndarray:
    """Dense unitary of a program: the first instruction acts first on a ket.

    Costs O(#dense runs * 4**nb + len * 2**nb): only runs of ROTYs touch the
    dense matrix; every other gate is tracked as a permutation and phases.
    """
    return _simulate(np.eye(1 << p.nb, dtype=np.complex128), p.instructions, p.nb)


def apply_to_state(p: Program, state) -> np.ndarray:
    """Apply a program to a state vector, or to the columns of a (2**nb, m) array.

    Costs O(#dense runs * 2**nb * m + len * 2**nb).
    """
    v = np.array(state, dtype=np.complex128)
    if v.ndim not in (1, 2) or v.shape[0] != 1 << p.nb:
        raise ValueError(f"state shape {v.shape} does not match nb={p.nb}")
    out = _simulate(v if v.ndim == 2 else v[:, None], p.instructions, p.nb)
    return out.reshape(v.shape)


# ---------------------------------------------------------------------------
# Derived constructions
# ---------------------------------------------------------------------------

def exchanger_program(alpha: int, beta: int, nb: int) -> Program:
    """Three c-nots realizing the transposition of bit positions alpha and beta."""
    if alpha == beta:
        raise ValueError("exchanger needs two distinct bits")
    outer = Instruction("CNOT", target=alpha, controls=(Control(beta, True),))
    inner = Instruction("CNOT", target=beta, controls=(Control(alpha, True),))
    return Program(nb, (outer, inner, outer))


def z_ladder(bits: list[int], thetas: np.ndarray, prune_tol: float) -> list[Instruction]:
    """Instructions for prod_b exp(i theta_b Z_b) over subsets of ``bits``.

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
    out: list[Instruction] = []

    def cnots(mask: int, target_bit: int) -> None:
        for j in range(k):
            if mask >> j & 1:
                out.append(Instruction("CNOT", target=target_bit,
                                       controls=(Control(bits[j], True),)))

    prev: tuple[int, int] | None = None  # (target index, control mask) awaiting closure
    for m in bitops.gray_sequence(k) if k else [0]:
        theta = float(thetas[m])
        if m == 0:
            if abs(theta) > prune_tol:
                out.append(Instruction("PHAS", angle=theta))
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
        out.append(Instruction("ROTZ", target=bits[tj], angle=theta))
        prev = (tj, mask)
    if prev is not None:
        cnots(prev[1], bits[prev[0]])
    return out


def _expand_one(ins: Instruction, prune_tol: float) -> list[Instruction]:
    """Rewrite one multi-control gate over instructions touching <= 2 bits."""
    # Normalize F controls by conjugating with SIGX on those bits.
    flips = [Instruction("SIGX", target=c.bit) for c in ins.controls if not c.polarity]
    ctrl_bits = [c.bit for c in ins.controls]

    if ins.kind == "CPHA":
        involved = ctrl_bits
        wrap: list[Instruction] = []
        angle = ins.angle
    else:  # CNOT: sigma_x(t)^P = V sigma_z(t)^P V*, V = exp(-i 45deg sigma_y(t))
        involved = [ins.target] + ctrl_bits
        wrap = [Instruction("ROTY", target=ins.target, angle=45.0)]
        angle = 180.0
    # sigma_z powers: exp(i angle n...n) has Hadamard-transformed z-string
    # coefficients angle * (-1)**|m| / 2**k over control-bit subsets m.
    k = len(involved)
    masks = np.arange(1 << k)
    signs = np.where(bitops.popcount(masks) & 1, -1.0, 1.0)
    thetas = angle * signs / (1 << k)
    body = z_ladder(involved, thetas, prune_tol)
    closing = [Instruction("ROTY", target=ins.target, angle=-45.0)] if ins.kind == "CNOT" else []
    return flips + wrap + body + closing + list(reversed(flips))


def expand_controls(p: Program, prune_tol: float = 1e-10) -> Program:
    """Expand multi-control gates so every instruction touches at most 2 bits.

    CNOT with >= 2 controls and CPHA with >= 3 controls are rewritten in the
    sigma_z basis; everything already elementary passes through unchanged.
    """
    out: list[Instruction] = []
    for ins in p.instructions:
        if ins.kind == "CNOT" and len(ins.controls) >= 2:
            out.extend(_expand_one(ins, prune_tol))
        elif ins.kind == "CPHA" and len(ins.controls) >= 3:
            out.extend(_expand_one(ins, prune_tol))
        else:
            out.append(ins)
    return Program(p.nb, tuple(out))


def rename_bits(p: Program, mapping) -> Program:
    """Rewrite every bit index through ``mapping`` (callable or sequence)."""
    get = mapping.__getitem__ if hasattr(mapping, "__getitem__") else mapping
    out = []
    for ins in p.instructions:
        out.append(Instruction(
            ins.kind,
            target=None if ins.target is None else get(ins.target),
            controls=tuple(Control(get(c.bit), c.polarity) for c in ins.controls),
            angle=ins.angle,
        ))
    return Program(p.nb, tuple(out))
