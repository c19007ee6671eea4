"""Turn central matrices into gate programs.

A central matrix is the payload of one tree node: a direct sum of 2**(level-1)
D matrices (real or complex), or a diagonal unitary.  A level-``level`` direct
sum equals a bit relabeling of a single big D matrix whose rotation sits on
bit nb-1: the rotation moves to bit nb-level and the other bits keep their
order.  So one emission routine serves every level, and it writes the final
bit positions directly: the rotation goes on bit nb-level, and the Gray
sequence's control bits go, in increasing order, on the remaining bits.

Rotation ladders, the ROTY core of a D matrix and the ROTZ chain of a
rotz-chain diagonal, are both :func:`~csdc.seo.rotation_ladder`: the lazy
(Gray) ordering, so that one c-not survives between adjacent rotations, with
rotations of negligible angle dropped and their flanking c-nots merged.

A diagonal has two forms, controlled phases and a ROTZ chain.  When the
program is bound for :func:`~csdc.seo.expand_controls`, each diagonal takes
the form whose expansion has fewer two-qubit gates, as counted by
:func:`~csdc.seo.two_qubit_gates` on its unexpanded rows.

Every routine emits the columns of a :class:`~csdc.seo.Program` directly with
array operations: a ladder is a mask over the Gray sequence, and a diagonal's
PHAS/ROTZ/CPHA rows are index arithmetic on its transformed phases.  No
routine builds a 4**nb matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# basis_change_matrix, gray_sequence, hadamard_transform and rename_bits are not
# called here; they stay importable from this module, where perfbench/spans.py
# traces them by name.
from .bitops import (basis_change_matrix, gray_codes, gray_sequence,  # noqa: F401
                     hadamard_transform, kron_transform)
from .csd import PhaseFactors, _wrap_deg
from .seo import (CNOT, CPHA, PHAS, PRUNE_TOL, ROTY, ROTZ, Program, concat,  # noqa: F401
                  rename_bits, rotation_ladder, two_qubit_gates, z_ladder)

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


def angles_to_theta(phi) -> np.ndarray:
    """Hadamard-transformed rotation angles: theta = H_k phi / 2**k, by
    :func:`~csdc.bitops.kron_transform`'s ``walsh``.

    The inverse map is phi = H_k theta, so the round trip is exact up to
    floating point.
    """
    v = np.asarray(phi, dtype=np.float64)
    n = len(v)
    if n == 0 or n & (n - 1):
        raise ValueError(f"angle vector length must be a power of two, got {n}")
    return kron_transform(v, "walsh") / n


def _program(nb: int, kind, target, mask, val, angle) -> Program:
    """A program from emitted columns, valid by construction."""
    return Program(nb, kind, target, mask, val, angle, validate=False)


def _places(nb: int, level: int) -> tuple[int, np.ndarray]:
    """Where a level's D matrices sit: the rotation bit nb-level, and the bits
    that the control bits 0..nb-2 of the rotation-on-top form land on, which
    are the other bits in increasing order."""
    rot = nb - level
    ctrl_bits = np.arange(nb - 1)
    return rot, ctrl_bits + (ctrl_bits >= rot)


def decompose_real_d(c: CentralMatrix) -> Program:
    """ROTY ladder for a real D direct sum: one :func:`~csdc.seo.rotation_ladder`
    on the rotation bit over the Gray sequence of the control bits, each step
    rotating by the transformed angle at its Gray code."""
    if c.variant != "realD":
        raise ValueError("decompose_real_d needs a realD central matrix")
    rot, ctrl_bits = _places(c.nb, c.level)
    theta = _wrap_deg(angles_to_theta(c.angles))
    seq = gray_codes(c.nb - 1)
    return rotation_ladder(c.nb, ROTY, rot, ctrl_bits, seq, theta[seq], PRUNE_TOL)


def _number_coefficients(phases: np.ndarray) -> np.ndarray:
    """Coefficients of a diagonal's phases over products of number operators:
    theta = M^T phi with M the projector-to-number basis change, that is
    theta[b] = sum over the subsets a of b of (-1)**|b - a| phi[a], the
    Möbius transform of :func:`~csdc.bitops.kron_transform`.
    """
    return kron_transform(np.asarray(phases, dtype=np.float64), "mobius")


def decompose_diagonal(c: CentralMatrix, mode: str = "rotz-chain") -> Program:
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
        return z_ladder(list(range(nb)), theta, PRUNE_TOL)
    if mode != "controlled-phase":
        raise ValueError(f"unknown diagonal mode {mode!r}")
    theta = _wrap_deg(_number_coefficients(c.phases))
    keep = np.abs(theta) > PRUNE_TOL
    # exp(i t n(beta)) = exp(i t/2) exp(-i (t/2) sigma_z(beta))
    rotz_bits = np.flatnonzero(keep[1 << np.arange(nb)])
    t_single = theta[1 << rotz_bits]
    phas_total = float(theta[0])
    for t in t_single.tolist():   # summed in bit order, one term at a time
        phas_total += t / 2.0
    phas_total = float(_wrap_deg(phas_total))
    phas = [phas_total] if abs(phas_total) > PRUNE_TOL else []
    subsets = np.arange(1 << nb)
    cpha = np.flatnonzero(keep & (subsets & (subsets - 1) != 0))
    n_p, n_z, n_c = len(phas), len(rotz_bits), len(cpha)
    kind = np.repeat([PHAS, ROTZ, CPHA], [n_p, n_z, n_c])
    target = np.concatenate([np.full(n_p, -1), rotz_bits, np.full(n_c, -1)])
    ctrl = np.concatenate([np.zeros(n_p + n_z, dtype=np.int64), cpha])
    angle = np.concatenate([phas, -t_single / 2.0, theta[cpha]])
    return _program(nb, kind, target, ctrl, ctrl, angle)


def decompose_complex_d(c: CentralMatrix, extract_phases: bool = True,
                        expand_controls: bool = False) -> Program:
    """Split a complex D direct sum into right diagonal, real core, left diagonal.

    Per block, the parameters give Δ_L = I ⊕ Γ_L and Δ_R = Γ ⊕ Γ Γ_R around a
    real rotation core; the three pieces are emitted in application order
    (right diagonal first), each by :func:`decompose_central` with
    ``extract_phases`` and ``expand_controls``.
    """
    if c.variant != "complexD":
        raise ValueError("decompose_complex_d needs a complexD central matrix")
    nb, level, f = c.nb, c.level, c.factors
    rot = nb - level                      # the rotation bit
    states = np.arange(1 << nb)
    blk = states >> (rot + 1)
    hi = (states >> rot) & 1
    j = states & ((1 << rot) - 1)
    phi_r = f.omega[blk, j] + hi * f.omega_r[blk, j]
    phi_l = hi * f.omega_l[blk, j]
    pieces = (diagonal_central(nb, phi_r), real_d_central(nb, level, f.thetas.reshape(-1)),
              diagonal_central(nb, phi_l))
    return concat(*(decompose_central(piece, extract_phases, expand_controls)
                    for piece in pieces))


def is_right_angle(angles, tol: float = RIGHT_ANGLE_TOL) -> bool:
    """True iff every angle is 0 or 90 degrees within tol."""
    a = np.asarray(angles, dtype=np.float64)
    return bool(np.all((np.abs(a) <= tol) | (np.abs(a - 90.0) <= tol)))


def decompose_right_angle_case(c: CentralMatrix) -> Program:
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
    rot, ctrl_bits = _places(nb, c.level)
    if not np.any(on):
        return _program(nb, [], [], [], [], [])
    if np.all(on):
        return _program(nb, [ROTY], [rot], [0], [0], [90.0])
    idx = np.arange(1 << (nb - 1))
    top = 1 << rot
    for delta in range(nb - 1):
        for pol in (True, False):
            if np.array_equal(on, ((idx >> delta) & 1) == (1 if pol else 0)):
                ctrl = 1 << int(ctrl_bits[delta])
                val = ctrl if pol else 0
                return _program(nb, [CNOT, CPHA], [rot, -1], [ctrl, ctrl | top],
                                [val, val | top], [0.0, 180.0])
    return decompose_real_d(c)


def decompose_central(c: CentralMatrix, extract_phases: bool = True,
                      expand_controls: bool = False) -> Program:
    """Dispatch a central matrix to its emission routine.

    ``extract_phases`` (the compile option) picks the emission: diagonals as
    controlled phases and real cores through the right-angle special case
    when set; rotz-chain diagonals and the plain ladder otherwise.  With
    ``expand_controls`` (the program is bound for the two-qubit gate set of
    :func:`~csdc.seo.expand_controls`), each diagonal instead takes whichever
    of its two forms expands to fewer two-qubit gates; a tie keeps the form
    ``extract_phases`` picks.
    """
    if c.variant == "diagonal":
        modes = (("controlled-phase", "rotz-chain") if extract_phases
                 else ("rotz-chain", "controlled-phase"))
        if not expand_controls:
            return decompose_diagonal(c, modes[0])
        return min((decompose_diagonal(c, mode) for mode in modes), key=two_qubit_gates)
    if c.variant == "realD":
        if extract_phases and is_right_angle(c.angles):
            return decompose_right_angle_case(c)
        return decompose_real_d(c)
    return decompose_complex_d(c, extract_phases, expand_controls)
