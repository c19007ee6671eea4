"""CSD tree construction and program assembly.

The root holds the input matrix; each node cosine-sine decomposes the side
matrices handed down by its parent, keeps the D factors as its central matrix
and passes the new side matrices to (up to) two children.  A side whose
matrices are all identity spawns no child.  The product of the central
matrices, read right subtree / node / left subtree in application order,
rebuilds the input.

The tree is built level by level.  Level L holds every side matrix of that
depth, 2**(L-1) per node, as one (k, d, d) array with d = 2**(nb-L+1); a node
is a slice of it, and each step below is one vectorised pass over the level:
  * complex-D test and phase extraction (``is_complex_d_stack``,
    ``extract_phases_stack``); every 2x2 leaf is a complex D matrix;
  * CSD of the rest: ``csd_stack`` (an SVD-based CSD, in closed form where
    the angles form one cluster) at every size, then ``lighten_stack``;
    ``csd_stack`` itself hands ``csd`` (LAPACK through scipy's ``cossin``)
    every matrix it cannot factor accurately (angles near 0° or 90°, failed
    side or residual checks);
  * identity-side and diagonal-side tests, as per-matrix reductions.

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
from .central import (CentralMatrix, complex_d_central, decompose_central, diagonal_central,
                      real_d_central)
# csd, lighten, is_complex_d and extract_phases are not called here; they stay
# importable from this module, where perfbench/spans.py traces them by name.
from .csd import (PhaseFactors, csd, csd_stack, extract_phases,  # noqa: F401
                  extract_phases_stack, is_complex_d, is_complex_d_stack, lighten,
                  lighten_stack, phase_parameters)
from .matrices import DEFAULT_TOL, NotUnitaryError, as_matrix, check_tol, unitarity_deviation
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
        check_tol(self.tol)


@dataclass
class CsdNode:
    level: int
    central: CentralMatrix
    perm: BitPermutation | None = None   # set on the root by permutation search
    left: "CsdNode | None" = None
    right: "CsdNode | None" = None

    def node_count(self) -> int:
        n = 1
        if self.left:
            n += self.left.node_count()
        if self.right:
            n += self.right.node_count()
        return n


def pad_to_power_of_two(u, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Embed a unitary into the next power-of-two dimension as u ⊕ I."""
    a = as_matrix(u)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    dev = unitarity_deviation(a)
    if dev > tol:
        raise NotUnitaryError(f"input is not unitary: max deviation {dev:.3e} > {tol:.1e}")
    return _embed(a), a.shape[0]


def _embed(a: np.ndarray) -> np.ndarray:
    """a ⊕ I in the next power-of-two dimension (at least 2), as a new array;
    a is square and unchecked."""
    dim = a.shape[0]
    n = 1
    while (1 << n) < dim:
        n += 1
    full = 1 << n
    if full == dim:
        return a.copy()
    out = np.eye(full, dtype=np.complex128)
    out[:dim, :dim] = a
    return out


def _identity_mask(sides: np.ndarray) -> np.ndarray:
    """Per leading index of a (k, 2, h, h) side stack: both sides are the
    identity within IDENTITY_TOL."""
    return np.abs(sides - np.eye(sides.shape[-1])).max(axis=(1, 2, 3)) <= IDENTITY_TOL


def _diagonal_mask(sides: np.ndarray, tol: float) -> np.ndarray:
    """Per leading index of a (k, 2, h, h) side stack: both sides are diagonal
    within tol."""
    mag = np.abs(sides)
    j = np.arange(sides.shape[-1])
    mag[..., j, j] = 0.0
    return mag.max(axis=(1, 2, 3)) <= tol


@dataclass
class _Split:
    """One CSD pass over the k side matrices (each 2h x 2h) of a tree level.

    Matrix i contributes angles ``thetas[i]``, the sides ``lefts[i]`` =
    (l0, l1) and ``rights[i]`` = (r0, r1), and either a real D block or, where
    ``phased[i]``, the complex D block (omega[i], omega_l[i], omega_r[i],
    thetas[i]); omegas are zero where not phased.
    """

    thetas: np.ndarray        # (k, h)
    omegas: np.ndarray        # (3, k, h): omega, omega_l, omega_r
    phased: np.ndarray        # (k,)
    lefts: np.ndarray         # (k, 2, h, h)
    rights: np.ndarray        # (k, 2, h, h)
    left_identity: np.ndarray   # (k,)
    right_identity: np.ndarray  # (k,)

    def central(self, nb: int, level: int, rows: slice) -> CentralMatrix:
        if not self.phased[rows].any():
            return real_d_central(nb, level, self.thetas[rows].reshape(-1))
        om, om_l, om_r = self.omegas[:, rows]
        return complex_d_central(nb, level, PhaseFactors(om, om_l, om_r, self.thetas[rows]))


def _set_phases(split: _Split, idx: np.ndarray, pf: PhaseFactors, phased: np.ndarray) -> None:
    split.thetas[idx] = pf.thetas
    split.phased[idx] = phased
    keep = idx[phased]
    for j, values in enumerate((pf.omega, pf.omega_l, pf.omega_r)):
        split.omegas[j, keep] = values[phased]


def _split_level(mats: np.ndarray, opts: CompileOptions) -> _Split:
    """CSD every matrix of a (k, d, d) level stack.

    Complex D matrices are kept whole (aborted CSD, identity sides).  The
    others are cosine-sine decomposed by one ``csd_stack`` call.  Diagonal but
    non-identity sides left over after lightening are then folded into the D
    block, which stops that side.
    """
    k, d, _ = mats.shape
    h = d // 2
    aborted = (is_complex_d_stack(mats, opts.tol) if opts.extract_phases
               else np.zeros(k, dtype=bool))
    rest = np.flatnonzero(~aborted)
    # Factored before the level's side arrays exist, so that a large CSD does
    # not run beside them.
    if rest.size:
        f = csd_stack(mats if rest.size == k else mats[rest], opts.tol)
        if opts.lighten:
            f = lighten_stack(f)   # rebinding frees the unlightened factors
    split = _Split(thetas=np.empty((k, h)), omegas=np.zeros((3, k, h)),
                   phased=np.zeros(k, dtype=bool),
                   lefts=np.empty((k, 2, h, h), dtype=np.complex128),
                   rights=np.empty((k, 2, h, h), dtype=np.complex128),
                   left_identity=np.ones(k, dtype=bool), right_identity=np.ones(k, dtype=bool))
    idx = np.flatnonzero(aborted)
    if idx.size:
        pf = extract_phases_stack(mats[idx], opts.tol)
        _set_phases(split, idx, pf, ~pf.real_mask(opts.tol))
        eye = np.eye(h, dtype=np.complex128)
        split.lefts[idx] = eye
        split.rights[idx] = eye
    if not rest.size:
        return split
    split.thetas[rest] = f.thetas
    split.lefts[rest, 0], split.lefts[rest, 1] = f.l0, f.l1
    split.rights[rest, 0], split.rights[rest, 1] = f.r0, f.r1
    split.left_identity = _identity_mask(split.lefts)
    split.right_identity = _identity_mask(split.rights)
    if opts.extract_phases:
        _fold_diagonal_sides(split, ~aborted, opts.tol)
    return split


def _fold_diagonal_sides(split: _Split, candidates: np.ndarray, tol: float) -> None:
    """Fold diagonal, non-identity sides into the D block: the block becomes
    diag(L) · D · diag(R), a complex D matrix, and the folded side becomes
    the identity."""
    lfold = candidates & ~split.left_identity & _diagonal_mask(split.lefts, tol)
    rfold = candidates & ~split.right_identity & _diagonal_mask(split.rights, tol)
    idx = np.flatnonzero(lfold | rfold)
    if not idx.size:
        return
    th = np.radians(split.thetas[idx])
    c, s = np.cos(th).astype(np.complex128), np.sin(th)
    d00, d01, d10, d11 = c, s.astype(np.complex128), (-s).astype(np.complex128), c
    rd = np.diagonal(split.rights[idx], axis1=2, axis2=3)   # (n, 2, h): r0, r1
    r = rfold[idx, None]
    d00, d01 = np.where(r, d00 * rd[:, 0], d00), np.where(r, d01 * rd[:, 1], d01)
    d10, d11 = np.where(r, d10 * rd[:, 0], d10), np.where(r, d11 * rd[:, 1], d11)
    ld = np.diagonal(split.lefts[idx], axis1=2, axis2=3)    # (n, 2, h): l0, l1
    lf = lfold[idx, None]
    d00, d01 = np.where(lf, ld[:, 0] * d00, d00), np.where(lf, ld[:, 0] * d01, d01)
    d10, d11 = np.where(lf, ld[:, 1] * d10, d10), np.where(lf, ld[:, 1] * d11, d11)
    _set_phases(split, idx, phase_parameters(d00, d01, d10, d11),
                np.ones(idx.size, dtype=bool))
    eye = np.eye(split.lefts.shape[-1], dtype=np.complex128)
    split.lefts[idx[lfold[idx]]] = eye
    split.rights[idx[rfold[idx]]] = eye
    split.left_identity[lfold] = True
    split.right_identity[rfold] = True


def _build(a: np.ndarray, nb: int, opts: CompileOptions) -> CsdNode:
    """Build the CSD tree of a 2**nb unitary level by level.

    Level L is one (k, d, d) stack with d = 2**(nb-L+1); each of its nodes
    owns 2**(L-1) consecutive matrices, and ``slots`` says where each node
    hangs.  Level nb+1 holds 1x1 matrices: each node there is a diagonal.
    """
    root: CsdNode | None = None
    mats = a[None]
    slots: list[tuple[CsdNode | None, str]] = [(None, "")]
    for level in range(1, nb + 2):
        per = 1 << (level - 1)
        rows = [slice(j * per, (j + 1) * per) for j in range(len(slots))]
        children: list[tuple[int, str]] = []   # (node index, side) per child
        if level == nb + 1:
            phases = np.degrees(np.angle(mats[:, 0, 0]))
            centrals = [diagonal_central(nb, phases[r]) for r in rows]
        else:
            split = _split_level(mats, opts)
            h = split.lefts.shape[-1]
            parts = []
            for j, r in enumerate(rows):
                for side, sides, ident in (("left", split.lefts, split.left_identity),
                                           ("right", split.rights, split.right_identity)):
                    if not ident[r].all():
                        children.append((j, side))
                        parts.append(sides[r].reshape(-1, h, h))
            # Assemble the next level, and drop this one and the sides no child
            # takes, before the centrals are built: the leaf-level centrals are
            # most of the tree's memory, and the level arrays would add to it.
            if len(parts) == 1:
                mats = parts[0]   # a view: a spine's one side is not copied
            else:
                mats = np.concatenate(parts) if parts else None
            parts = split.lefts = split.rights = None
            centrals = [split.central(nb, level, r) for r in rows]
        nodes = []
        for (parent, side), central in zip(slots, centrals):
            node = CsdNode(level, central)
            if parent is None:
                root = node
            else:
                setattr(parent, side, node)
            nodes.append(node)
        slots = [(nodes[j], side) for j, side in children]
        if not slots:
            break
    return root


def _nb_of(u: np.ndarray) -> int:
    dim = u.shape[0]
    nb = max(1, dim.bit_length() - 1)
    if u.shape[0] != u.shape[1] or (1 << nb) != dim:
        raise ValueError(f"expected a square power-of-two matrix, got {u.shape}")
    return nb


def build_tree(u, opts: CompileOptions = CompileOptions()) -> CsdNode:
    """Build the CSD tree of a 2**nb unitary.

    With perm_search="root-exhaustive", every bit permutation of the input is
    compiled and the root of the shortest-program tree is returned.  The root
    carries the winning permutation (None when it is the identity), and
    ``program_for_tree`` undoes it by one rename of the finished program.
    """
    a = as_matrix(u)
    nb = _nb_of(a)
    dev = unitarity_deviation(a)
    if dev > opts.tol:
        raise NotUnitaryError(f"input is not unitary: max deviation {dev:.3e} > {opts.tol:.1e}")
    return _tree(a, nb, opts)


def _tree(a: np.ndarray, nb: int, opts: CompileOptions) -> CsdNode:
    """build_tree on a matrix already checked to be unitary."""
    if opts.perm_search == "none":
        return _build(a, nb, opts)
    if nb > PERM_SEARCH_MAX_NB:
        raise ValueError(f"root-exhaustive permutation search supports nb <= "
                         f"{PERM_SEARCH_MAX_NB}, got nb={nb}")
    best: CsdNode | None = None
    best_len = -1
    for mapping in itertools.permutations(range(nb)):
        perm = BitPermutation(nb, mapping)
        root = _build(apply_bit_permutation(perm, a), nb, opts)
        root.perm = None if perm.is_identity() else perm
        n = len(program_for_tree(root, opts))
        if best is None or n < best_len:
            best, best_len = root, n
    return best


def assemble(root: CsdNode) -> list[CentralMatrix]:
    """Central matrices in application order: right subtree, node, left subtree.

    The product of the entries, last applied leftmost, equals the tree's
    input matrix, relabeled by ``root.perm`` when that is set.
    """
    out: list[CentralMatrix] = []

    def walk(node: CsdNode) -> None:
        if node.right:
            walk(node.right)
        out.append(node.central)
        if node.left:
            walk(node.left)

    walk(root)
    return out


def program_for_tree(root: CsdNode, opts: CompileOptions = CompileOptions()) -> Program:
    """Emit the program of an assembled tree, un-relabel it by the root's
    permutation, and expand its controls if asked."""
    diag_mode = "controlled-phase" if opts.extract_phases else "rotz-chain"
    program = concat(*(decompose_central(central, diag_mode=diag_mode,
                                         use_right_angle=opts.extract_phases)
                       for central in assemble(root)))
    if root.perm is not None:
        program = rename_bits(program, root.perm.inverse())
    if opts.expand_controls:
        program = expand_controls(program)
    return program


def compile_unitary(u, opts: CompileOptions = CompileOptions()) -> Program:
    """Compile a unitary matrix (any dimension; padded to a power of two)
    into a gate program whose matrix reproduces the padded input.

    The input's unitarity is checked once, by ``pad_to_power_of_two``."""
    padded, _ = pad_to_power_of_two(u, opts.tol)   # the one unitarity check
    return program_for_tree(_tree(padded, _nb_of(padded), opts), opts)
