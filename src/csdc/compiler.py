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
  * complex-D test (``is_complex_d_stack``); every 2x2 leaf is a complex D
    matrix;
  * CSD of the rest: ``csd_stack`` (an SVD-based CSD, in closed form where
    the angles form one cluster) at every size, then ``lighten_stack``;
    ``csd_stack`` itself hands ``csd`` (LAPACK through scipy's ``cossin``)
    every matrix it cannot factor accurately (angles near 0° or 90°, failed
    side or residual checks);
  * identity-side and diagonal-side tests, as per-matrix reductions;
  * phase extraction: one ``phase_parameters`` call on the four block
    diagonals of every aborted or folded D block (none on a plain level).

Optimizations (all per the compile options):
  * lighten: gauge-fix each CSD so the right sides drift toward identity.
  * extract_phases: treat an already complex-D side matrix as an aborted CSD,
    and fold diagonal side matrices left over after lightening into the D
    factor, which keeps structured inputs on a single spine of nodes.
  * root-exhaustive permutation search: compile every bit relabeling of the
    input, rename each finished program back and keep the first shortest.
  * expand_controls: rewrite the program over instructions on at most two
    bits, each diagonal emitted in the form that expands to fewer two-qubit
    gates.
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
from .csd import (PhaseFactors, _block_diagonal_index, csd, csd_stack,  # noqa: F401
                  extract_phases, is_complex_d, is_complex_d_stack, lighten, lighten_stack,
                  phase_parameters)
from .matrices import DEFAULT_TOL, NotUnitaryError, as_matrix, check_tol, unitarity_deviation
from .seo import Program, concat, expand_controls, rename_bits

# A side matrix whose max-entry deviation from the identity is below this
# terminates its branch.  Looser than the csd tolerance, tighter than the
# round-trip budget, so lightened near-identities actually stop the recursion.
IDENTITY_TOL = 1e-9

# Root-exhaustive permutation search compiles nb! candidates.  On a Haar input
# with one BLAS thread (shared 2-vCPU x86 host) the search took 1.7-2.0 s at
# nb = 5 (120 compiles) and 24-28 s at nb = 6 (720); nb = 7 would be 5040.
PERM_SEARCH_MAX_NB = 6


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
    left: "CsdNode | None" = None
    right: "CsdNode | None" = None


def _check_unitary(a: np.ndarray, tol: float) -> None:
    """Raise NotUnitaryError if a deviates from unitarity by more than tol."""
    dev = unitarity_deviation(a)
    if dev > tol:
        raise NotUnitaryError(f"input is not unitary: max deviation {dev:.3e} > {tol:.1e}")


def pad_to_power_of_two(u, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Embed a unitary into the next power-of-two dimension as u ⊕ I."""
    a = as_matrix(u)
    _check_unitary(a, tol)
    return _embed(a), a.shape[0]


def _embed(a: np.ndarray) -> np.ndarray:
    """a ⊕ I in the next power-of-two dimension (at least 2), as a new array;
    a must be square, and is not checked to be unitary."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
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

    Matrix i contributes the sides ``lefts[i]`` = (l0, l1) and ``rights[i]`` =
    (r0, r1) and row i of ``phases``: the complex D block of those parameters
    where ``phased[i]``, else the real D block of its angles, with zero phases.
    """

    phases: PhaseFactors      # fields (k, h)
    phased: np.ndarray        # (k,)
    lefts: np.ndarray         # (k, 2, h, h)
    rights: np.ndarray        # (k, 2, h, h)
    left_identity: np.ndarray   # (k,)
    right_identity: np.ndarray  # (k,)

    def central(self, nb: int, level: int, rows: slice) -> CentralMatrix:
        pf = self.phases
        if not self.phased[rows].any():
            return real_d_central(nb, level, pf.thetas[rows].reshape(-1))
        return complex_d_central(nb, level, PhaseFactors(
            pf.omega[rows], pf.omega_l[rows], pf.omega_r[rows], pf.thetas[rows]))


def _split_level(mats: np.ndarray, opts: CompileOptions) -> _Split:
    """CSD every matrix of a (k, d, d) level stack.

    Complex D matrices are kept whole (aborted CSD, identity sides).  The
    others are cosine-sine decomposed by one ``csd_stack`` call.  Diagonal but
    non-identity sides left over after lightening are then folded into the D
    block, diag(L) · D · diag(R), which stops that side.  One
    ``phase_parameters`` call reads the aborted and folded D blocks off their
    four block diagonals; a plain CSD block keeps the angles of ``csd_stack``
    and zero phases, so a level without aborted or folded blocks makes no
    call.
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
    thetas = np.zeros((k, h))
    lefts = np.empty((k, 2, h, h), dtype=np.complex128)
    rights = np.empty((k, 2, h, h), dtype=np.complex128)
    eye = np.eye(h, dtype=np.complex128)
    lefts[aborted] = rights[aborted] = eye
    left_identity, right_identity = np.ones(k, dtype=bool), np.ones(k, dtype=bool)
    lfold = rfold = np.zeros(k, dtype=bool)
    if rest.size:
        thetas[rest] = f.thetas
        lefts[rest, 0], lefts[rest, 1] = f.l0, f.l1
        rights[rest, 0], rights[rest, 1] = f.r0, f.r1
        left_identity, right_identity = _identity_mask(lefts), _identity_mask(rights)
        if opts.extract_phases:
            lfold = ~aborted & ~left_identity & _diagonal_mask(lefts, opts.tol)
            rfold = ~aborted & ~right_identity & _diagonal_mask(rights, opts.tol)
    folded = lfold | rfold
    phased = folded.copy()
    pf = PhaseFactors(np.zeros((k, h)), np.zeros((k, h)), np.zeros((k, h)), thetas)
    read = np.flatnonzero(aborted | folded)
    if read.size:
        # d00, d01, d10, d11 of the D blocks read: an aborted matrix is its own
        # D block; a folded one starts from its CSD's, and its diagonal sides
        # are multiplied in, the right side first
        rows, cols = _block_diagonal_index(d)
        blocks = mats[read[:, None], rows, cols].reshape(-1, 4, h).swapaxes(0, 1)
        fi, ri, li = (np.flatnonzero(m[read]) for m in (folded, rfold, lfold))
        th = np.radians(thetas[read[fi]])
        c, s = np.cos(th), np.sin(th)
        blocks[:, fi] = c, s, -s, c
        rd = np.diagonal(rights[read[ri]], axis1=2, axis2=3)   # (n, 2, h): r0, r1
        blocks[:, ri] *= rd[:, [0, 1, 0, 1]].swapaxes(0, 1)
        ld = np.diagonal(lefts[read[li]], axis1=2, axis2=3)    # (n, 2, h): l0, l1
        blocks[:, li] = ld[:, [0, 0, 1, 1]].swapaxes(0, 1) * blocks[:, li]
        lefts[lfold] = eye
        rights[rfold] = eye
        left_identity |= lfold
        right_identity |= rfold
        got = phase_parameters(*blocks)
        # an aborted block that is real within tol keeps zero phases
        keep = folded[read] | ~got.real_mask(opts.tol)
        phased[read] = keep
        thetas[read] = got.thetas
        for name in ("omega", "omega_l", "omega_r"):
            getattr(pf, name)[read[keep]] = getattr(got, name)[keep]
    return _Split(pf, phased, lefts, rights, left_identity, right_identity)


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


def build_tree(u, opts: CompileOptions = CompileOptions()) -> CsdNode:
    """Build the CSD tree of a 2**nb unitary, after checking that it is one."""
    a = as_matrix(u)
    dim = a.shape[0]
    nb = max(1, dim.bit_length() - 1)
    if a.shape[1] != dim or (1 << nb) != dim:
        raise ValueError(f"expected a square power-of-two matrix, got {a.shape}")
    _check_unitary(a, opts.tol)
    return _build(a, nb, opts)


def assemble(root: CsdNode) -> list[CentralMatrix]:
    """Central matrices in application order: right subtree, node, left subtree.

    The product of the entries, last applied leftmost, is the tree's input.
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
    """Emit the program of an assembled tree, and expand its controls if asked
    (each diagonal is then emitted in the form that expands to fewer two-qubit
    gates)."""
    program = concat(*(decompose_central(central, opts.extract_phases, opts.expand_controls)
                       for central in assemble(root)))
    if opts.expand_controls:
        program = expand_controls(program)
    return program


def compile_unitary(u, opts: CompileOptions = CompileOptions()) -> Program:
    """Compile a unitary matrix (any dimension; padded to a power of two)
    into a gate program whose matrix reproduces the padded input.

    The input's unitarity is checked once, on the padded matrix u ⊕ I, whose
    deviation from unitarity is that of u.  The permutation search compiles
    every relabeling of u ⊕ I, the identity first; above PERM_SEARCH_MAX_NB
    it is refused, after the unitarity check and before any build.
    """
    a = _embed(as_matrix(u))
    if opts.perm_search == "none":
        return program_for_tree(build_tree(a, opts), opts)
    nb = a.shape[0].bit_length() - 1
    _check_unitary(a, opts.tol)
    if nb > PERM_SEARCH_MAX_NB:
        raise ValueError(f"root-exhaustive permutation search supports nb <= "
                         f"{PERM_SEARCH_MAX_NB}, got nb={nb}")
    best = program_for_tree(_build(a, nb, opts), opts)
    for mapping in itertools.islice(itertools.permutations(range(nb)), 1, None):
        perm = BitPermutation(nb, mapping)
        tree = _build(apply_bit_permutation(perm, a), nb, opts)
        program = rename_bits(program_for_tree(tree, opts), perm.inverse())
        if len(program) < len(best):
            best = program
    return best
