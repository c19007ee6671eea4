"""Turn central matrices into gate programs.

A central matrix is the payload of one tree node: a direct sum of 2**(level-1)
D matrices (real or complex), or a diagonal unitary.  A level-``level`` direct
sum equals a bit relabeling of a single big D matrix whose rotation sits on
bit nb-1: the rotation moves to bit nb-level and the other bits keep their
order.  So one emission routine serves every level, and it writes the final
bit positions directly: the rotation goes on bit nb-level, and the Gray
sequence's control bits go, in increasing order, on the remaining bits.

Rotation ladders, the ROTY core of a D matrix, a ROTZ multiplexor and the
ROTZ chain of a rotz-chain diagonal, are all
:func:`~csdc.seo.rotation_ladder`: the lazy (Gray) ordering, so that one
c-not survives between adjacent rotations, with rotations of negligible angle
dropped and their flanking c-nots merged.

A diagonal has two forms, controlled phases and a ROTZ chain.
:func:`diagonal_costs` counts the two-qubit gates of each form's expansion
in closed form, without emitting either; the compiler uses it, and the
phase split of :func:`split_on_bit` and :func:`multiplexors`, to carry phases
through the cores of a program bound for :func:`~csdc.seo.expand_controls`.

Every routine emits the columns of a :class:`~csdc.seo.Program` directly with
array operations: a ladder is a mask over the Gray sequence, and a diagonal's
PHAS/ROTZ/CPHA rows are index arithmetic on its transformed phases.  No
routine builds a 4**nb matrix.  The stack routines (:func:`multiplexors`,
:func:`decompose_diagonals`, :func:`decompose_level`) emit many centrals in
one pass and say which one owns each instruction; :func:`decompose_central`
emits a single central as a stack of one.  Every real D core is one ROTY
ladder, whatever its angles; ``extract_phases`` only picks the form of the
diagonals.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# basis_change_matrix, gray_sequence, hadamard_transform, concat and rename_bits
# are not called here; they stay importable from this module, where
# perfbench/spans.py traces them by name.
from .bitops import (basis_change_matrix, gray_codes, gray_sequence,  # noqa: F401
                     hadamard_transform, kron_transform, popcount)
from .csd import PhaseFactors, _wrap_deg
from .seo import (CPHA, PHAS, PRUNE_TOL, ROTY, ROTZ, Program, concat,  # noqa: F401
                  cpha_ladder_pruned, gather, rename_bits, rotation_ladder, z_ladder,
                  z_ladder_cnots)

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
    :func:`~csdc.bitops.kron_transform`'s ``walsh``, along the last axis.

    The inverse map is phi = H_k theta, so the round trip is exact up to
    floating point.
    """
    v = np.asarray(phi, dtype=np.float64)
    n = v.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"angle vector length must be a power of two, got {n}")
    return kron_transform(v, "walsh") / n


def _places(nb: int, level: int) -> tuple[int, np.ndarray]:
    """Where a level's D matrices sit: the rotation bit nb-level, and the bits
    that the control bits 0..nb-2 of the rotation-on-top form land on, which
    are the other bits in increasing order."""
    rot = nb - level
    ctrl_bits = np.arange(nb - 1)
    return rot, ctrl_bits + (ctrl_bits >= rot)


def multiplexors(nb: int, level: int, kind: int, angles) -> tuple[Program, np.ndarray]:
    """``kind`` (ROTY or ROTZ) rotations on a level's rotation bit, one
    multiplexor per row r of the (n, 2**(nb-1)) stack ``angles``, side by
    side, and the row r that owns each instruction.  Row r rotates by
    ``angles[r, i]`` where the other bits, in increasing order, hold i: one
    :func:`~csdc.seo.rotation_ladder` walks every row's Gray sequence of
    those bits, each step rotating by the transformed angle at its Gray code.
    """
    rot, ctrl_bits = _places(nb, level)
    seq = gray_codes(nb - 1)
    theta = _wrap_deg(angles_to_theta(angles))[:, seq]
    n, m = theta.shape
    return rotation_ladder(nb, kind, rot, ctrl_bits, np.tile(seq, n), theta.reshape(-1),
                           PRUNE_TOL, np.repeat(np.arange(n), m))


def _number_coefficients(phases: np.ndarray) -> np.ndarray:
    """Coefficients of a diagonal's phases over products of number operators:
    theta = M^T phi with M the projector-to-number basis change, that is
    theta[b] = sum over the subsets a of b of (-1)**|b - a| phi[a], the
    Möbius transform of :func:`~csdc.bitops.kron_transform`.
    """
    return kron_transform(np.asarray(phases, dtype=np.float64), "mobius")


def decompose_diagonals(phases, mode: str) -> tuple[Program, np.ndarray]:
    """Programs for the diagonal unitaries diag(exp(i phases[r])) of every row
    r of an (m, 2**nb) stack, side by side, and the row r that owns each
    instruction; the instructions of one owner keep their order, those of
    different owners interleave.  One transform serves every row.

    ``rotz-chain``: Hadamard-transform the phases and emit the sigma_z ladder
    (PHAS for the empty subset, ROTZ for single bits, c-not conjugated ROTZ
    for larger subsets), Gray-ordered with c-not cancellation.

    ``controlled-phase``: rewrite over products of number operators; the
    all-T controlled phases come out directly as CPHA instructions, single-bit
    terms as one accumulated PHAS plus a ROTZ per bit.  Rows: the PHAS, then
    the ROTZs by bit, then the CPHAs by subset.
    """
    phases = np.asarray(phases, dtype=np.float64)
    nb = phases.shape[1].bit_length() - 1
    if mode == "rotz-chain":
        return z_ladder(list(range(nb)), _wrap_deg(angles_to_theta(phases)), PRUNE_TOL)
    if mode != "controlled-phase":
        raise ValueError(f"unknown diagonal mode {mode!r}")
    theta = _wrap_deg(_number_coefficients(phases))
    keep = np.abs(theta) > PRUNE_TOL
    # exp(i t n(beta)) = exp(i t/2) exp(-i (t/2) sigma_z(beta))
    single = 1 << np.arange(nb)
    half = np.where(keep[:, single], theta[:, single] / 2.0, 0.0)
    total = theta[:, 0].copy()
    for b in range(nb):   # summed in bit order, one term at a time
        total += half[:, b]
    total = _wrap_deg(total)
    p_own = np.flatnonzero(np.abs(total) > PRUNE_TOL)
    z_own, z_bit = np.nonzero(keep[:, single])
    subsets = np.arange(1 << nb)
    c_own, cpha = np.nonzero(keep & (subsets & (subsets - 1) != 0))
    n_p, n_z, n_c = len(p_own), len(z_own), len(c_own)
    kind = np.repeat([PHAS, ROTZ, CPHA], [n_p, n_z, n_c])
    target = np.concatenate([np.full(n_p, -1), z_bit, np.full(n_c, -1)])
    ctrl = np.concatenate([np.zeros(n_p + n_z, dtype=np.int64), cpha])
    angle = np.concatenate([total[p_own], -half[z_own, z_bit], theta[c_own, cpha]])
    return (Program(nb, kind, target, ctrl, ctrl, angle, validate=False),
            np.concatenate([p_own, z_own, c_own]))


def diagonal_costs(phases) -> tuple[int, int]:
    """Two-qubit gates in the expansion of diag(exp(i phases)) emitted as a
    rotz chain and as controlled phases, counted without emitting either.

    The chain's are the c-nots of its lazy ladder, read off the nonzero
    pattern of its Walsh coefficients by :func:`~csdc.seo.z_ladder_cnots`.
    The controlled phases cost, per kept Möbius coefficient, 1 on two bits
    and 2**m - 2 on m >= 3 bits unless its expansion's ladder is pruned, as
    :func:`~csdc.seo.two_qubit_gates` counts them.
    """
    chain = z_ladder_cnots(_wrap_deg(angles_to_theta(phases)), PRUNE_TOL)
    theta = _wrap_deg(_number_coefficients(phases))
    size, cost = _cpha_costs(len(theta).bit_length() - 1)
    live = (np.abs(theta) > PRUNE_TOL) & ((size < 3) | ~cpha_ladder_pruned(theta, size))
    return chain, int(cost[live].sum())


@functools.cache
def _cpha_costs(nb: int) -> tuple[np.ndarray, np.ndarray]:
    """Per subset of nb bits: its size m, and the two-qubit gates of its
    expanded CPHA: 0 for m < 2, 1 for m = 2, 2**m - 2 above."""
    size = popcount(np.arange(1 << nb))
    cost = np.where(size < 3, size == 2, (1 << size) - 2)
    size.flags.writeable = cost.flags.writeable = False   # shared by every caller
    return size, cost


def _default_mode(extract_phases: bool) -> str:
    return "controlled-phase" if extract_phases else "rotz-chain"


def cheaper_mode(costs: tuple[int, int], extract_phases: bool) -> str:
    """The diagonal mode of fewer two-qubit gates, given ``diagonal_costs``;
    a tie keeps the mode ``extract_phases`` picks."""
    chain, cpha = costs
    if chain == cpha:
        return _default_mode(extract_phases)
    return "rotz-chain" if chain < cpha else "controlled-phase"


def side_phases(nb: int, level: int, f: PhaseFactors) -> tuple[np.ndarray, np.ndarray]:
    """The side diagonals of the complex D centrals of a level, one per row
    of ``f`` (fields (n, 2**(nb-1)), block by block): per block,
    Δ_R = Γ ⊕ Γ Γ_R and Δ_L = I ⊕ Γ_L around the real D core, each as an
    (n, 2**nb) stack of phases."""
    rot = nb - level                    # the rotation bit
    states = np.arange(1 << nb)
    hi = (states >> rot) & 1
    col = states >> (rot + 1) << rot | states & ((1 << rot) - 1)   # block, entry
    return f.omega[:, col] + hi * f.omega_r[:, col], hi * f.omega_l[:, col]


def split_on_bit(phases: np.ndarray, rot: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) with phases(x) = alpha(x) + (-1)**x_rot beta(x), neither
    depending on bit ``rot``: alpha over all 2**nb states, beta over the other
    bits in increasing order, as :func:`multiplexors` takes its angles."""
    p = phases.reshape(-1, 2, 1 << rot)
    return ((p + p[:, ::-1]) / 2).reshape(-1), ((p[:, 0] - p[:, 1]) / 2).reshape(-1)


def decompose_level(nb: int, level: int, thetas, factors: PhaseFactors | None, phased,
                    extract_phases: bool = True) -> list[tuple[Program, np.ndarray]]:
    """The centrals of a tree level, one per row i of the (n, 2**(nb-1))
    stack ``thetas``, as (program, owner of each instruction) pieces, the
    owner 3i + s.

    s = 1 marks central i's real D core; one :func:`multiplexors` call emits
    every core.  Given the level's ``factors``, s = 0 and 2 mark the right
    and left side diagonals of each ``phased`` central (:func:`side_phases`):
    one :func:`decompose_diagonals` call per side.  ``extract_phases`` only
    picks the form of these side diagonals.
    """
    program, owner = multiplexors(nb, level, ROTY, thetas)
    pieces = [(program, 3 * owner + 1)]
    if factors is not None:
        rows = np.flatnonzero(phased)
        for s, phases in enumerate(side_phases(nb, level, factors)):
            program, owner = decompose_diagonals(phases[rows], _default_mode(extract_phases))
            pieces.append((program, 3 * rows[owner] + 2 * s))
    return pieces


def decompose_central(c: CentralMatrix, extract_phases: bool = True) -> Program:
    """The program of one central matrix: a diagonal's
    :func:`decompose_diagonals`, a real or complex D one as a level of one
    central (:func:`decompose_level`).

    ``extract_phases`` (the compile option) picks the form of the diagonals,
    the central itself or a complex D one's sides: controlled phases when
    set, a rotz chain otherwise.  The real D core is the same ROTY ladder
    either way.
    """
    if c.variant == "diagonal":
        return decompose_diagonals(c.phases[None], _default_mode(extract_phases))[0]
    f = c.factors.map(lambda x: x.reshape(1, -1)) if c.variant == "complexD" else None
    thetas = (c.angles if f is None else f.thetas).reshape(1, -1)
    pieces = decompose_level(c.nb, c.level, thetas, f, [True], extract_phases)
    return gather(c.nb, [(program, owner, np.arange(3)) for program, owner in pieces])
