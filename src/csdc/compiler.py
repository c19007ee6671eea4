"""Recursive CSD tree construction and program assembly.

The root holds the input matrix; each node cosine-sine decomposes the side
matrices handed down by its parent, keeps the D factors as its central matrix
and passes the new side matrices to (up to) two children.  A side whose
matrices are all identity spawns no child.  The product of the central
matrices, read right subtree / node / left subtree in application order,
rebuilds the input.

Optimizations (all per the compile options):
  * lighten: gauge-fix each CSD so the right sides drift toward identity.
  * extract_phases: treat an already complex-D side matrix as an aborted CSD,
    and fold diagonal side matrices left over after lightening into the D
    factor, which keeps structured inputs on a single spine of nodes.
  * root-exhaustive permutation search: compile every bit relabeling of the
    input and keep the shortest program.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bitops import BitPermutation, apply_bit_permutation
from .central import (CentralMatrix, PRUNE_TOL, complex_d_central, decompose_central,
                      diagonal_central, real_d_central)
from .csd import (PhaseFactors, csd, d_matrix, extract_phases, is_complex_d,
                  lighten)
from .matrices import DEFAULT_TOL, NotUnitaryError, as_matrix, unitarity_deviation
from .seo import Program, concat, expand_controls, rename_bits

# A side matrix whose max-entry deviation from the identity is below this
# terminates its branch.  Looser than the csd tolerance, tighter than the
# round-trip budget, so lightened near-identities actually stop the recursion.
IDENTITY_TOL = 1e-9

# Root-exhaustive permutation search compiles nb! candidates; 8! = 40320 is
# the most that stays reasonable.
PERM_SEARCH_MAX_NB = 8


@dataclass(frozen=True)
class CompileOptions:
    lighten: bool = True
    extract_phases: bool = True
    expand_controls: bool = False
    perm_search: str = "none"  # "none" or "root-exhaustive"
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.perm_search not in ("none", "root-exhaustive"):
            raise ValueError(f"unknown perm_search mode {self.perm_search!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class CsdNode:
    level: int
    central: CentralMatrix
    perm: BitPermutation | None = None
    left: "CsdNode | None" = None
    right: "CsdNode | None" = None

    def node_count(self) -> int:
        n = 1
        if self.left:
            n += self.left.node_count()
        if self.right:
            n += self.right.node_count()
        return n

    def child_count(self) -> int:
        return (self.left is not None) + (self.right is not None)


def pad_to_power_of_two(u, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Embed a unitary into the next power-of-two dimension as u ⊕ I."""
    a = as_matrix(u)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    dev = unitarity_deviation(a)
    if dev > tol:
        raise NotUnitaryError(f"input is not unitary: max deviation {dev:.3e} > {tol:.1e}")
    dim = a.shape[0]
    n = 1
    while (1 << n) < dim:
        n += 1
    full = 1 << n
    if full == dim:
        return a.copy(), dim
    out = np.eye(full, dtype=np.complex128)
    out[:dim, :dim] = a
    return out, dim


def _is_identity(m: np.ndarray) -> bool:
    return bool(np.abs(m - np.eye(m.shape[0])).max() <= IDENTITY_TOL)


def _diag_if_diagonal(m: np.ndarray, tol: float) -> np.ndarray | None:
    off = m - np.diag(np.diag(m))
    if np.abs(off).max() <= tol:
        return np.diag(m)
    return None


@dataclass
class _Step:
    """Result of one CSD pass on one side matrix."""

    lefts: tuple[np.ndarray, np.ndarray]
    rights: tuple[np.ndarray, np.ndarray]
    real_thetas: np.ndarray | None = None   # real block
    phase_block: PhaseFactors | None = None  # complex block


def _classify_block(pf: PhaseFactors, tol: float) -> _Step:
    h = pf.half_dim
    eye = np.eye(h, dtype=np.complex128)
    if pf.is_real(tol):
        return _Step((eye, eye.copy()), (eye.copy(), eye.copy()), real_thetas=pf.thetas)
    return _Step((eye, eye.copy()), (eye.copy(), eye.copy()), phase_block=pf)


def _csd_step(m: np.ndarray, opts: CompileOptions) -> _Step:
    if opts.extract_phases and is_complex_d(m, opts.tol):
        # Aborted CSD: the matrix is already a (complex) D matrix; keep it
        # whole and return identity sides.
        return _classify_block(extract_phases(m, opts.tol), opts.tol)
    f = csd(m, opts.tol)
    if opts.lighten:
        f = lighten(f, opts.tol)
    l0, l1, r0, r1 = f.l0, f.l1, f.r0, f.r1
    if not opts.extract_phases:
        return _Step((l0, l1), (r0, r1), real_thetas=f.thetas)
    # Fold diagonal (but non-identity) side matrices into the D factor; the
    # dressed block stays a complex D matrix and the side stops growing.
    h = f.half_dim
    ldiag = rdiag = None
    if not (_is_identity(r0) and _is_identity(r1)):
        dr0, dr1 = _diag_if_diagonal(r0, opts.tol), _diag_if_diagonal(r1, opts.tol)
        if dr0 is not None and dr1 is not None:
            rdiag = np.concatenate([dr0, dr1])
    if not (_is_identity(l0) and _is_identity(l1)):
        dl0, dl1 = _diag_if_diagonal(l0, opts.tol), _diag_if_diagonal(l1, opts.tol)
        if dl0 is not None and dl1 is not None:
            ldiag = np.concatenate([dl0, dl1])
    if ldiag is None and rdiag is None:
        return _Step((l0, l1), (r0, r1), real_thetas=f.thetas)
    block = d_matrix(f.thetas)
    if rdiag is not None:
        block = block * rdiag[None, :]
    if ldiag is not None:
        block = ldiag[:, None] * block
    eye = np.eye(h, dtype=np.complex128)
    lefts = (l0, l1) if ldiag is None else (eye, eye.copy())
    rights = (r0, r1) if rdiag is None else (eye.copy(), eye.copy())
    return _Step(lefts, rights, phase_block=extract_phases(block, opts.tol))


def _build(mats: list[np.ndarray], level: int, nb: int, opts: CompileOptions) -> CsdNode:
    if level == nb + 1:
        phases = np.degrees(np.angle(np.array([m[0, 0] for m in mats])))
        return CsdNode(level, diagonal_central(nb, phases))
    steps = [_csd_step(m, opts) for m in mats]
    if all(s.phase_block is None for s in steps):
        central = real_d_central(nb, level,
                                 np.concatenate([s.real_thetas for s in steps]))
    else:
        blocks = []
        for s in steps:
            if s.phase_block is not None:
                blocks.append(s.phase_block)
            else:
                z = np.zeros(len(s.real_thetas))
                blocks.append(PhaseFactors(z, z.copy(), z.copy(), s.real_thetas))
        central = complex_d_central(nb, level, blocks)
    node = CsdNode(level, central)
    lefts = [m for s in steps for m in s.lefts]
    rights = [m for s in steps for m in s.rights]
    if not all(_is_identity(m) for m in lefts):
        node.left = _build(lefts, level + 1, nb, opts)
    if not all(_is_identity(m) for m in rights):
        node.right = _build(rights, level + 1, nb, opts)
    return node


def _nb_of(u: np.ndarray) -> int:
    dim = u.shape[0]
    nb = max(1, dim.bit_length() - 1)
    if u.shape[0] != u.shape[1] or (1 << nb) != dim:
        raise ValueError(f"expected a square power-of-two matrix, got {u.shape}")
    return nb


def build_tree(u, opts: CompileOptions = CompileOptions()) -> CsdNode:
    """Build the CSD tree of a 2**nb unitary.

    With perm_search="root-exhaustive", every bit permutation of the input is
    compiled and the root of the shortest-program tree is returned, carrying
    the winning permutation for un-relabeling at assembly time.
    """
    a = as_matrix(u)
    nb = _nb_of(a)
    dev = unitarity_deviation(a)
    if dev > opts.tol:
        raise NotUnitaryError(f"input is not unitary: max deviation {dev:.3e} > {opts.tol:.1e}")
    if opts.perm_search == "none":
        return _build([a], 1, nb, opts)
    if nb > PERM_SEARCH_MAX_NB:
        raise ValueError(f"root-exhaustive permutation search supports nb <= "
                         f"{PERM_SEARCH_MAX_NB}, got nb={nb}")
    best: CsdNode | None = None
    best_len = -1
    for mapping in itertools.permutations(range(nb)):
        perm = BitPermutation(nb, mapping)
        root = _build([apply_bit_permutation(perm, a)], 1, nb, opts)
        root.perm = None if perm.is_identity() else perm
        n = len(program_for_tree(root, opts))
        if best is None or n < best_len:
            best, best_len = root, n
    return best


def assemble(root: CsdNode) -> list[tuple[CentralMatrix, BitPermutation | None]]:
    """Central matrices in application order: right subtree, node, left subtree.

    Each entry carries the bit permutation composed along its root path (None
    when trivial); the product of the un-relabeled entries, last applied
    leftmost, equals the tree's input matrix.
    """
    out: list[tuple[CentralMatrix, BitPermutation | None]] = []

    def walk(node: CsdNode, acc: BitPermutation | None) -> None:
        cum = acc
        if node.perm is not None:
            cum = node.perm if acc is None else node.perm.compose(acc)
        if node.right:
            walk(node.right, cum)
        out.append((node.central, cum))
        if node.left:
            walk(node.left, cum)

    walk(root, None)
    return out


def program_for_tree(root: CsdNode, opts: CompileOptions = CompileOptions()) -> Program:
    """Emit the program of an assembled tree (including control expansion)."""
    nb = root.central.nb
    diag_mode = "controlled-phase" if opts.extract_phases else "rotz-chain"
    parts = []
    for central, perm in assemble(root):
        prog = decompose_central(central, diag_mode=diag_mode,
                                 use_right_angle=opts.extract_phases,
                                 prune_tol=PRUNE_TOL)
        if perm is not None:
            prog = rename_bits(prog, perm.inverse())
        parts.append(prog)
    program = concat(*parts) if parts else Program(nb)
    if opts.expand_controls:
        program = expand_controls(program)
    return program


def compile_unitary(u, opts: CompileOptions = CompileOptions()) -> Program:
    """Compile a unitary matrix (any dimension; padded to a power of two)
    into a gate program whose matrix reproduces the padded input."""
    padded, _ = pad_to_power_of_two(u, opts.tol)
    root = build_tree(padded, opts)
    return program_for_tree(root, opts)
