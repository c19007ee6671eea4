"""Turn central matrices into gate programs.

A central matrix is the payload of one tree node: a direct sum of 2**(level-1)
D matrices (real or complex), or a diagonal unitary.  A level-``level`` direct
sum equals a bit relabeling of a single big D matrix whose rotation sits on
bit nb-1, so one emission routine serves every level: build the program for
the un-relabeled form, then rename bits through the level's alias permutation.

Rotation ladders follow the lazy (Gray) ordering so that one c-not survives
between adjacent rotations, and rotations with negligible angles are dropped
with their flanking c-nots merged.

Every routine emits the columns of a :class:`~csdc.seo.Program` directly with
array operations: a ladder is a mask over the Gray sequence, and a diagonal's
PHAS/ROTZ/CPHA rows are index arithmetic on its transformed phases.  No
routine builds a 4**nb matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# basis_change_matrix is not called here; it stays importable from this
# module, where perfbench/spans.py traces it by name.
from .bitops import (BitPermutation, basis_change_matrix, gray_sequence,  # noqa: F401
                     hadamard_transform)
from .csd import PhaseFactors, _wrap_deg
from .seo import CNOT, CPHA, PHAS, ROTY, ROTZ, Program, concat, rename_bits, z_ladder

# Rotations at or below this angle (degrees) are suppressed and their flanking
# c-nots merged; this is what lets structured inputs collapse to short programs.
PRUNE_TOL = 1e-10

# Angle tolerance for recognizing the {0deg, 90deg} special case.
RIGHT_ANGLE_TOL = 1e-8

_PHASE_FIELDS = ("omega", "omega_l", "omega_r", "thetas")


@dataclass(frozen=True)
class CentralMatrix:
    """Tagged central-matrix payload.

    variant "realD":    ``angles`` holds the 2**(nb-1) rotation angles, block
                        by block (level ``level`` means 2**(level-1) blocks).
    variant "complexD": ``factors`` holds the parameters of every D block as
                        one PhaseFactors whose four fields are
                        (2**(level-1), 2**(nb-level)) arrays, a row per block.
    variant "diagonal": ``phases`` holds the 2**nb diagonal phases; level is
                        nb+1 by convention.
    """

    variant: str
    nb: int
    level: int
    angles: np.ndarray | None = None
    factors: PhaseFactors | None = None
    phases: np.ndarray | None = None

    def __post_init__(self):
        if self.variant == "realD":
            if self.angles is None or len(self.angles) != 1 << (self.nb - 1):
                raise ValueError(f"realD central needs {1 << (self.nb - 1)} angles")
            if not 1 <= self.level <= self.nb:
                raise ValueError(f"realD level must be in [1, nb], got {self.level}")
        elif self.variant == "complexD":
            if not 1 <= self.level <= self.nb:
                raise ValueError(f"complexD level must be in [1, nb], got {self.level}")
            shape = (1 << (self.level - 1), 1 << (self.nb - self.level))
            for name in _PHASE_FIELDS:
                got = np.shape(getattr(self.factors, name, None))
                if got != shape:
                    raise ValueError(f"complexD central at level {self.level} needs "
                                     f"{shape[0]} blocks of size {shape[1]}, "
                                     f"got {name} of shape {got}")
        elif self.variant == "diagonal":
            if self.phases is None or len(self.phases) != 1 << self.nb:
                raise ValueError(f"diagonal central needs {1 << self.nb} phases")
        else:
            raise ValueError(f"unknown central-matrix variant {self.variant!r}")


def real_d_central(nb: int, level: int, angles) -> CentralMatrix:
    return CentralMatrix("realD", nb, level, angles=np.asarray(angles, dtype=np.float64))


def complex_d_central(nb: int, level: int, blocks) -> CentralMatrix:
    """``blocks``: one PhaseFactors per D block, or one whose fields hold a
    row per block."""
    if isinstance(blocks, PhaseFactors):
        fields = [getattr(blocks, name) for name in _PHASE_FIELDS]
    else:
        blocks = list(blocks)
        if not blocks:
            raise ValueError("complexD central needs at least one block")
        fields = [np.stack([getattr(pf, name) for pf in blocks]) for name in _PHASE_FIELDS]
    factors = PhaseFactors(*(np.asarray(x, dtype=np.float64) for x in fields))
    return CentralMatrix("complexD", nb, level, factors=factors)


def diagonal_central(nb: int, phases) -> CentralMatrix:
    return CentralMatrix("diagonal", nb, nb + 1,
                         phases=np.asarray(phases, dtype=np.float64))


def level_alias(nb: int, level: int) -> BitPermutation:
    """Bit relabeling that turns the rotation-on-top D form into a direct sum
    of 2**(level-1) blocks: the rotation bit nb-1 moves to nb-level and the
    displaced bits shift up by one."""
    if not 1 <= level <= nb:
        raise ValueError(f"level must be in [1, nb], got {level}")
    cut = nb - level
    mapping = [p + 1 if cut <= p <= nb - 2 else p for p in range(nb)]
    mapping[nb - 1] = cut
    return BitPermutation(nb, tuple(mapping))


def angles_to_theta(phi) -> np.ndarray:
    """Hadamard-transformed rotation angles: theta = H_k phi / 2**k.

    The inverse map is phi = H_k theta, so the round trip is exact up to
    floating point.
    """
    v = np.asarray(phi, dtype=np.float64)
    n = len(v)
    if n == 0 or n & (n - 1):
        raise ValueError(f"angle vector length must be a power of two, got {n}")
    return hadamard_transform(v) / n


def _alias_rename(prog: Program, nb: int, level: int) -> Program:
    perm = level_alias(nb, level)
    return prog if perm.is_identity() else rename_bits(prog, perm)


def _program(nb: int, kind, target, mask, val, angle) -> Program:
    """A program from emitted columns, valid by construction."""
    return Program(nb, kind, target, mask, val, angle, validate=False)


def decompose_real_d(c: CentralMatrix, prune_tol: float = PRUNE_TOL) -> Program:
    """ROTY ladder for a real D direct sum.

    Walking the Gray sequence, each step contributes a rotation of the top bit
    by the transformed angle followed by one c-not controlled by the bit the
    step flips; skipped (negligible) rotations merge their flanking c-nots by
    XOR-ing the accumulated control set.  So, over the kept steps s_1..s_K,
    the c-nots before rotation j are the bits of s_j ^ s_(j-1) (s_0 = 0), and
    the closing c-nots are the bits of s_K.
    """
    if c.variant != "realD":
        raise ValueError("decompose_real_d needs a realD central matrix")
    nb = c.nb
    theta = _wrap_deg(angles_to_theta(c.angles))
    if nb == 1:
        n = int(abs(theta[0]) > prune_tol)
        return _program(1, [ROTY] * n, [0] * n, [0] * n, [0] * n, theta[:n])
    w = nb - 1                     # the rotation bit, and the count of control bits
    seq = np.array(gray_sequence(w))
    kept = seq[np.abs(theta[seq]) > prune_tol]
    k = len(kept)
    masks = np.zeros(k + 1, dtype=np.int64)
    masks[:k] = kept
    masks[1:] ^= kept
    # One row of slots per mask: a c-not per control bit, then the rotation.
    slots = np.zeros((k + 1, nb), dtype=bool)
    slots[:, :w] = (masks[:, None] >> np.arange(w)) & 1
    slots[:k, w] = True
    _, col = np.nonzero(slots)
    rot = col == w
    ctrl = np.where(rot, 0, 1 << col)
    angle = np.zeros(len(col))
    angle[rot] = theta[kept]
    prog = _program(nb, np.where(rot, ROTY, CNOT), np.full(len(col), w), ctrl, ctrl, angle)
    return _alias_rename(prog, nb, c.level)


def _number_coefficients(phases: np.ndarray, nb: int) -> np.ndarray:
    """Coefficients of a diagonal's phases over products of number operators:
    theta = M^T phi with M the projector-to-number basis change, that is
    theta[b] = sum over the subsets a of b of (-1)**|b - a| phi[a].

    One in-place butterfly per bit, O(nb 2**nb): the entries with bit b set
    subtract their partners without it.
    """
    t = np.array(phases, dtype=np.float64)
    for b in range(nb):
        pairs = t.reshape(-1, 2, 1 << b)
        pairs[:, 1] -= pairs[:, 0]
    return t


def decompose_diagonal(c: CentralMatrix, mode: str = "rotz-chain",
                       prune_tol: float = PRUNE_TOL) -> Program:
    """Program for a diagonal unitary diag(exp(i phases)).

    ``rotz-chain``: Hadamard-transform the phases and emit the sigma_z ladder
    (PHAS for the empty subset, ROTZ for single bits, c-not conjugated ROTZ
    for larger subsets), Gray-ordered with c-not cancellation.

    ``controlled-phase``: rewrite over products of number operators; the
    all-T controlled phases come out directly as CPHA instructions, single-bit
    terms as one accumulated PHAS plus a ROTZ per bit.  Rows: the PHAS, then
    the ROTZs by bit, then the CPHAs by subset.
    """
    if c.variant != "diagonal":
        raise ValueError("decompose_diagonal needs a diagonal central matrix")
    nb = c.nb
    if mode == "rotz-chain":
        theta = _wrap_deg(angles_to_theta(c.phases))
        return z_ladder(list(range(nb)), theta, prune_tol)
    if mode != "controlled-phase":
        raise ValueError(f"unknown diagonal mode {mode!r}")
    theta = _wrap_deg(_number_coefficients(np.asarray(c.phases, dtype=np.float64), nb))
    keep = np.abs(theta) > prune_tol
    # exp(i t n(beta)) = exp(i t/2) exp(-i (t/2) sigma_z(beta))
    rotz_bits = np.flatnonzero(keep[1 << np.arange(nb)])
    t_single = theta[1 << rotz_bits]
    phas_total = float(theta[0])
    for t in t_single.tolist():   # summed in bit order, one term at a time
        phas_total += t / 2.0
    phas_total = float(_wrap_deg(phas_total))
    phas = [phas_total] if abs(phas_total) > prune_tol else []
    subsets = np.arange(1 << nb)
    cpha = np.flatnonzero(keep & (subsets & (subsets - 1) != 0))
    n_p, n_z, n_c = len(phas), len(rotz_bits), len(cpha)
    kind = np.repeat([PHAS, ROTZ, CPHA], [n_p, n_z, n_c])
    target = np.concatenate([np.full(n_p, -1), rotz_bits, np.full(n_c, -1)])
    ctrl = np.concatenate([np.zeros(n_p + n_z, dtype=np.int64), cpha])
    angle = np.concatenate([phas, -t_single / 2.0, theta[cpha]])
    return _program(nb, kind, target, ctrl, ctrl, angle)


def decompose_complex_d(c: CentralMatrix, diag_mode: str = "controlled-phase",
                        use_right_angle: bool = False,
                        prune_tol: float = PRUNE_TOL) -> Program:
    """Split a complex D direct sum into right diagonal, real core, left diagonal.

    Per block, the parameters give Δ_L = I ⊕ Γ_L and Δ_R = Γ ⊕ Γ Γ_R around a
    real rotation core; the three pieces are emitted in application order
    (right diagonal first).
    """
    if c.variant != "complexD":
        raise ValueError("decompose_complex_d needs a complexD central matrix")
    nb, level, f = c.nb, c.level, c.factors
    rot = nb - level                      # aliased rotation bit position
    states = np.arange(1 << nb)
    blk = states >> (rot + 1)
    hi = (states >> rot) & 1
    j = states & ((1 << rot) - 1)
    phi_r = f.omega[blk, j] + hi * f.omega_r[blk, j]
    phi_l = hi * f.omega_l[blk, j]
    core = real_d_central(nb, level, f.thetas.reshape(-1))
    prog_r = decompose_diagonal(diagonal_central(nb, phi_r), diag_mode, prune_tol)
    prog_core = _real_core_program(core, use_right_angle, prune_tol)
    prog_l = decompose_diagonal(diagonal_central(nb, phi_l), diag_mode, prune_tol)
    return concat(prog_r, prog_core, prog_l)


def is_right_angle(angles, tol: float = RIGHT_ANGLE_TOL) -> bool:
    """True iff every angle is 0 or 90 degrees within tol."""
    a = np.asarray(angles, dtype=np.float64)
    return bool(np.all((np.abs(a) <= tol) | (np.abs(a - 90.0) <= tol)))


def decompose_right_angle_case(c: CentralMatrix, prune_tol: float = PRUNE_TOL) -> Program:
    """Special handling when every D angle is 0 or 90 degrees.

    A bare 90-degree rotation stays a single ROTY; the one-control form (the
    90s fill exactly the half selected by one control bit) becomes a c-not
    followed by a two-control 180-degree phase; anything else falls back to
    the generic ladder.
    """
    if c.variant != "realD":
        raise ValueError("decompose_right_angle_case needs a realD central matrix")
    if not is_right_angle(c.angles):
        raise ValueError("decompose_right_angle_case needs angles in {0, 90} degrees")
    nb = c.nb
    on = np.abs(np.asarray(c.angles, dtype=np.float64) - 90.0) <= RIGHT_ANGLE_TOL
    target = nb - 1
    if not np.any(on):
        return _program(nb, [], [], [], [], [])
    if np.all(on):
        prog = _program(nb, [ROTY], [target], [0], [0], [90.0])
        return _alias_rename(prog, nb, c.level)
    idx = np.arange(1 << (nb - 1))
    for delta in range(nb - 1):
        for pol in (True, False):
            if np.array_equal(on, ((idx >> delta) & 1) == (1 if pol else 0)):
                ctrl, val = 1 << delta, (1 << delta) if pol else 0
                top = 1 << target
                prog = _program(nb, [CNOT, CPHA], [target, -1], [ctrl, ctrl | top],
                                [val, val | top], [0.0, 180.0])
                return _alias_rename(prog, nb, c.level)
    return decompose_real_d(c, prune_tol)


def _real_core_program(c: CentralMatrix, use_right_angle: bool, prune_tol: float) -> Program:
    if use_right_angle and is_right_angle(c.angles):
        return decompose_right_angle_case(c, prune_tol)
    return decompose_real_d(c, prune_tol)


def decompose_central(c: CentralMatrix, diag_mode: str = "controlled-phase",
                      use_right_angle: bool = True,
                      prune_tol: float = PRUNE_TOL) -> Program:
    """Dispatch a central matrix to its emission routine."""
    if c.variant == "diagonal":
        return decompose_diagonal(c, diag_mode, prune_tol)
    if c.variant == "realD":
        return _real_core_program(c, use_right_angle, prune_tol)
    return decompose_complex_d(c, diag_mode, use_right_angle, prune_tol)
