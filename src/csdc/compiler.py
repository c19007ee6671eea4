"""CSD tree construction and program assembly.

The root holds the input matrix; each node cosine-sine decomposes the side
matrices handed down by its parent, keeps the D factors as its central matrix
and passes the new side matrices to (up to) two children.  A side whose
matrices are all identity spawns no child.  The product of the central
matrices, read right subtree / node / left subtree in application order,
rebuilds the input.

The tree is built and kept level by level.  Level L holds every side matrix
of that depth, 2**(L-1) per node, as one (k, d, d) array with d = 2**(nb-L+1),
and each step below is one vectorised pass over the level:
  * complex-D test (``is_complex_d_stack``); every 2x2 leaf is a complex D
    matrix;
  * CSD of the rest: ``csd_stack`` (an SVD-based CSD, in closed form where
    the angles form one cluster, with a closed-form 2x2 SVD at d = 4) at
    every size, then ``lighten_stack``;
    ``csd_stack`` itself sends the matrices it cannot factor accurately
    (angles near 0° or 90°, failed side or residual checks) to the LAPACK
    CSD (scipy's ``cossin``) in one call;
  * identity-side and diagonal-side tests, as per-matrix reductions of one
    |x| pass per side stack;
  * phase extraction: one ``phase_parameters`` call on the four block
    diagonals of every aborted or folded D block (none on a plain level).
The complex-D, diagonal-side and real-phase tests read the fixed
``STRUCTURE_TOL``; ``opts.tol`` only decides whether the input is unitary,
which the root's ``csd_stack`` decides (no dense check runs beside it), or
the exact check where the root is complex D.
The level keeps its centrals as arrays (``TreeLevel``) with one key each:
the keys link a node to its children on the next level and sort the tree in
application order, and a ``CsdNode`` is a view of one row.  Emission is one
``_emit_level`` step per level, and one sort by key puts the instructions in
application order.

Optimizations (all per the compile options):
  * lighten: gauge-fix each CSD so the right sides drift toward identity.
  * extract_phases: treat an already complex-D side matrix as an aborted CSD,
    and fold diagonal side matrices left over after lightening into the D
    factor, which keeps structured inputs on a single spine of nodes.
  * root-exhaustive permutation search: compile every bit relabeling of the
    input, rename each finished program back and keep the first shortest.
  * expand_controls: rewrite the program over instructions on at most two
    bits.  Emission then carries one pending phase vector through the cores
    (``_carry_phases``): each core pays for at most one ROTZ multiplexor, and
    the phases are emitted whole only where controlled phases are cheaper.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bitops import BitPermutation, apply_bit_permutation
from .central import (_default_mode, cheaper_mode, decompose_diagonals, diagonal_costs,
                      multiplexors, side_phases, split_on_bit)
# csd, lighten, is_complex_d and extract_phases are not called here; they stay
# importable from this module, where perfbench/spans.py traces them by name.
from .csd import (STRUCTURE_TOL, PhaseFactors, _block_diagonal_index, csd,  # noqa: F401
                  csd_stack, extract_phases, is_complex_d, is_complex_d_stack, lighten,
                  lighten_stack, phase_parameters)
from .matrices import DEFAULT_TOL, NotUnitaryError, as_matrix, check_tol, unitarity_deviation
# concat is not called here; it stays importable from this module, where
# perfbench/spans.py traces it by name.
from .seo import (PRUNE_TOL, ROTY, ROTZ, Program, concat, expand_controls,  # noqa: F401
                  gather, rename_bits)

# A side matrix whose max-entry deviation from the identity is below this
# terminates its branch.  Looser than STRUCTURE_TOL, tighter than the
# round-trip budget, so lightened near-identities actually stop the recursion.
IDENTITY_TOL = 1e-9

# Root-exhaustive permutation search compiles nb! candidates.  On a Haar input
# with one BLAS thread (shared 2-vCPU x86 host, three runs) the search takes
# 0.7-0.9 s at nb = 5 (120 compiles) and 12-14 s at nb = 6 (720); nb = 7
# would be 5040.
PERM_SEARCH_MAX_NB = 6


@dataclass(frozen=True)
class CompileOptions:
    """``tol`` is the largest max-entry deviation of UᴴU from I accepted as
    unitary, by ``build_tree`` and ``compile_unitary`` and in ``csd_stack``'s
    bound; what counts as structure does not depend on it."""

    lighten: bool = True
    extract_phases: bool = True
    expand_controls: bool = False
    perm_search: str = "none"  # "none" or "root-exhaustive"
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.perm_search not in ("none", "root-exhaustive"):
            raise ValueError(f"unknown perm_search mode {self.perm_search!r}")
        check_tol(self.tol)


def _not_unitary(dev: float, tol: float) -> NotUnitaryError:
    """The error that rejects an input deviating from unitarity by dev > tol."""
    return NotUnitaryError(f"input is not unitary: max deviation {dev:.3e} > {tol:.1e}", dev)


def _check_unitary(a: np.ndarray, tol: float) -> None:
    """Raise NotUnitaryError if a deviates from unitarity by more than tol."""
    dev = unitarity_deviation(a)
    if dev > tol:
        raise _not_unitary(dev, tol)


def pad_to_power_of_two(u, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Embed a unitary into the next power-of-two dimension as u ⊕ I; a
    complex128 u of such a dimension comes back itself, not a copy."""
    a = as_matrix(u)
    _check_unitary(a, tol)
    return _embed(a), a.shape[0]


def _embed(u) -> np.ndarray:
    """u ⊕ I in the next power-of-two dimension (at least 2): a new array, or
    u itself, not a copy, where u is a complex128 matrix of that dimension.
    u must be a square matrix; it is not checked to be finite or unitary."""
    a = np.asarray(u, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    full = 1 << max(1, (dim - 1).bit_length())
    if full == dim:
        return a
    out = np.eye(full, dtype=np.complex128)
    out[:dim, :dim] = a
    return out


def _side_masks(sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per leading index of a (k, 2, h, h) side stack: whether both sides are
    the identity within IDENTITY_TOL, and whether both are diagonal within
    STRUCTURE_TOL.  One |x| pass serves both, since off the diagonal
    |x - 0| is |x|."""
    mag = np.abs(sides)
    j = np.arange(sides.shape[-1])
    mag[..., j, j] = 0.0
    off = mag.max(axis=(1, 2, 3))
    on = np.abs(sides[..., j, j] - 1.0).max(axis=(1, 2))
    return np.maximum(off, on) <= IDENTITY_TOL, off <= STRUCTURE_TOL


def _split_level(mats: np.ndarray, opts: CompileOptions, root: bool = False) -> tuple:
    """CSD every matrix of a (k, d, d) level stack.  Return the parameters of
    its D blocks (``PhaseFactors``, fields (k, d/2)), its left and right
    sides, (l0, l1) and (r0, r1) as (k, 2, d/2, d/2) stacks, and the (k,)
    masks of the left and right sides that are the identity.

    Complex D matrices are kept whole (aborted CSD, identity sides).  The
    others are cosine-sine decomposed by one ``csd_stack`` call.  Diagonal but
    non-identity sides left over after lightening are then folded into the D
    block, diag(L) · D · diag(R), which stops that side.  One
    ``phase_parameters`` call reads the aborted and folded D blocks off their
    four block diagonals; a plain CSD block keeps the angles of ``csd_stack``
    and zero phases, so a level without aborted or folded blocks makes no
    call.

    ``root`` marks an unchecked input, the one matrix of the first level: if
    it is aborted, no CSD vouches for its unitarity, so it gets the exact
    check; else ``csd_stack`` accepts it or rejects it as the input.
    """
    k, d, _ = mats.shape
    h = d // 2
    aborted = (is_complex_d_stack(mats) if opts.extract_phases
               else np.zeros(k, dtype=bool))
    rest = np.flatnonzero(~aborted)
    if root and aborted[0]:
        _check_unitary(mats[0], opts.tol)
    # Factored before the level's side arrays exist, so that a large CSD does
    # not run beside them.
    if rest.size:
        try:
            f = csd_stack(mats if rest.size == k else mats[rest], opts.tol)
        except NotUnitaryError as exc:
            if not root:
                raise
            raise _not_unitary(exc.deviation, opts.tol) from None
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
        (left_identity, ldiag), (right_identity, rdiag) = _side_masks(lefts), _side_masks(rights)
        if opts.extract_phases:
            lfold = ~aborted & ~left_identity & ldiag
            rfold = ~aborted & ~right_identity & rdiag
    folded = lfold | rfold
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
        # an aborted block that is real within STRUCTURE_TOL keeps zero phases
        keep = folded[read] | ~got.real_mask()
        thetas[read] = got.thetas
        for name in ("omega", "omega_l", "omega_r"):
            getattr(pf, name)[read[keep]] = getattr(got, name)[keep]
    return pf, lefts, rights, left_identity, right_identity


@dataclass
class TreeLevel:
    """The n centrals of one tree level, row i for central i: on a CSD level
    the D ``factors``, fields (n, 2**(nb-1)) block by block, whose phases
    are exactly 0.0 in a real D central (``PhaseFactors.phased``); on level
    nb+1 the leaf diagonals' ``phases`` (n, 2**nb).  The keys link the tree
    and order it: a level-L node's children have its ``key`` + 2**(nb+2-L)
    (left) and - 2**(nb+2-L) (right), so the keys sort the tree in
    application order.
    """

    key: np.ndarray
    factors: PhaseFactors | None = None
    phases: np.ndarray | None = None


@dataclass(eq=False)   # compared by identity: its levels hold arrays
class CsdNode:
    """Central ``index`` of level ``level`` of the CSD tree on ``nb`` bits
    whose levels are ``levels`` (level L is ``levels[L - 1]``)."""

    nb: int
    levels: list[TreeLevel]
    level: int = 1
    index: int = 0

    def _child(self, sign: int) -> "CsdNode | None":
        if self.level == len(self.levels):
            return None
        key = self.levels[self.level - 1].key[self.index] + sign * (1 << self.nb + 2 - self.level)
        keys = self.levels[self.level].key   # strictly descending: left before right
        j = len(keys) - 1 - int(keys[::-1].searchsorted(key))   # -1 if key is above them all
        return CsdNode(self.nb, self.levels, self.level + 1, j) if keys[j] == key else None

    left = property(lambda self: self._child(1))
    right = property(lambda self: self._child(-1))


def _build(a: np.ndarray, nb: int, opts: CompileOptions, check: bool = True) -> CsdNode:
    """Build the CSD tree of a 2**nb matrix level by level; return its root.

    Level L is one (k, d, d) stack with d = 2**(nb-L+1); each of its n nodes
    owns 2**(L-1) consecutive matrices.  The next level stacks the sides
    that are not all identity, node by node, left before right.  Level nb+1
    holds 1x1 matrices: each node there is a diagonal.  The first level's
    split checks that a is unitary within opts.tol (``_split_level``'s
    ``root``), unless ``check`` is False: a is then known to be unitary.
    """
    levels = []
    mats, key = a[None], np.zeros(1, dtype=np.int64)
    for level in range(1, nb + 2):
        n = len(key)
        if level == nb + 1:
            phases = np.degrees(np.angle(mats[:, 0, 0])).reshape(n, -1)
            levels.append(TreeLevel(key, phases=phases))
            break
        pf, lefts, rights, left_identity, right_identity = _split_level(
            mats, opts, root=check and level == 1)
        h = lefts.shape[-1]
        sides = [x.reshape(n, -1, h, h) for x in (lefts, rights)]
        has = ~np.stack([left_identity, right_identity], 1).reshape(n, -1, 2).all(1)
        picks = np.flatnonzero(has)   # 2 node + side, in the next level's order
        # A spine's one side is a view, not a copy; the sides no child takes
        # are dropped before the next level is split.
        parts = [sides[p & 1][p >> 1] for p in picks.tolist()]
        mats = parts[0] if len(parts) == 1 else np.concatenate(parts) if parts else None
        parts = sides = lefts = rights = None
        levels.append(TreeLevel(key, pf.map(lambda x: x.reshape(n, -1))))
        key = key[picks >> 1] + (1 - 2 * (picks & 1)) * (1 << (nb + 2 - level))
        if not len(key):
            break
    return CsdNode(nb, levels)


def build_tree(u, opts: CompileOptions = CompileOptions()) -> CsdNode:
    """Build the CSD tree of a 2**nb unitary, rejecting it with
    NotUnitaryError if it is not unitary within opts.tol.

    The root's ``csd_stack`` bounds its deviation from unitarity and checks
    it exactly (``_lapack_csd``) where the bound cannot vouch for it; a
    complex D root, which no CSD factors, gets the exact check alone.  No
    dense check runs beside them.
    """
    a = as_matrix(u)
    dim = a.shape[0]
    nb = max(1, dim.bit_length() - 1)
    if a.shape[1] != dim or (1 << nb) != dim:
        raise ValueError(f"expected a square power-of-two matrix, got {a.shape}")
    return _build(a, nb, opts)


def _application_order(levels: list[TreeLevel]) -> list[tuple[int, int]]:
    """(level, index) of every central of a tree, sorted by key."""
    pairs = [(L, i) for L, lv in enumerate(levels, 1) for i in range(len(lv.key))]
    return [pairs[j] for j in np.argsort(np.concatenate([lv.key for lv in levels])).tolist()]


def _emit_level(nb: int, level: int, lv: TreeLevel, extract_phases: bool,
                sides: bool = True) -> list[tuple]:
    """A tree level's (program, owner of each instruction, key of each owner)
    pieces for ``gather``: every real D core, keyed by its central, from one
    ``multiplexors`` call; with ``sides``, the right and left side diagonals
    of the complex D centrals, keyed key - 1 and key + 1, from one
    ``side_phases`` call and one ``decompose_diagonals`` call per side, or
    the leaf level's diagonals.  ``extract_phases`` picks the diagonals'
    form: controlled phases when set, a rotz chain otherwise."""
    mode = _default_mode(extract_phases)
    if lv.phases is not None:
        return [(*decompose_diagonals(lv.phases, mode), lv.key)] if sides else []
    pieces = [(*multiplexors(nb, level, ROTY, lv.factors.thetas), lv.key)]
    rows = np.flatnonzero(lv.factors.phased()) if sides else ()
    if len(rows):
        right, left = side_phases(nb, level, lv.factors.map(lambda x: x[rows]))
        pieces += [(*decompose_diagonals(right, mode), lv.key[rows] - 1),
                   (*decompose_diagonals(left, mode), lv.key[rows] + 1)]
    return pieces


def decompose_central(node: CsdNode, extract_phases: bool = True) -> Program:
    """The program of one node's central matrix: the level step of
    ``program_for_tree`` without expansion (``_emit_level``) run on a level
    of the node's row alone.

    ``extract_phases`` (the compile option) picks the form of the diagonals,
    the central itself or a complex D one's sides: controlled phases when
    set, a rotz chain otherwise.  The real D core is the same ROTY ladder
    either way.
    """
    lv, row = node.levels[node.level - 1], slice(node.index, node.index + 1)
    one = (TreeLevel(lv.key[row], phases=lv.phases[row]) if lv.phases is not None
           else TreeLevel(lv.key[row], lv.factors.map(lambda x: x[row])))
    return gather(node.nb, _emit_level(node.nb, node.level, one, extract_phases))


def _carry_phases(nb: int, steps, extract_phases: bool) -> list[tuple]:
    """What a program bound for ``expand_controls`` emits besides its cores,
    as (program, owner of each instruction, key of each owner) pieces for
    ``gather``, with one pending phase vector P carried through the cores.

    ``steps`` are the centrals in application order, (key, level, right,
    left): the phases a central adds to P before and after its core, or for
    a diagonal (key, nb + 1, its phases, unused).  At a core on bit w, with
    P(x) = alpha(x) + (-1)**x_w beta(x) (``split_on_bit``):
      * carry: if beta is within PRUNE_TOL, P passes the core as it is;
      * split: else, if P as a rotz chain has fewer two-qubit gates than as
        controlled phases, beta goes before the core as one ROTZ multiplexor
        on w and alpha, which commutes with the core, carries on;
      * flush: else P goes before the core in its cheaper form and zero
        carries on.
    After the last central, P is emitted in its cheaper form.  The walk
    decides core by core; one ``multiplexors`` call per level and one
    ``decompose_diagonals`` call per form then emit what it decided.
    """
    pending = np.zeros(1 << nb)
    queued: dict[tuple, list] = {}   # (level, None) or (None, form) -> [(key, angles)]
    for key, level, right, left in steps:
        pending = pending + right
        if level > nb:
            continue
        alpha, beta = split_on_bit(pending, nb - level)
        if np.abs(beta).max() > PRUNE_TOL:
            costs = diagonal_costs(pending)
            if costs[0] < costs[1]:
                queued.setdefault((level, None), []).append((key - 1, beta))
                pending = alpha
            else:
                mode = cheaper_mode(costs, extract_phases)
                queued.setdefault((None, mode), []).append((key - 1, pending))
                pending = np.zeros(1 << nb)
        pending = pending + left
    mode = cheaper_mode(diagonal_costs(pending), extract_phases)
    queued.setdefault((None, mode), []).append((1 << (nb + 2), pending))
    pieces = []
    for (level, mode), got in queued.items():
        keys, rows = zip(*got)
        rows = np.stack(rows)
        emitted = (multiplexors(nb, level, ROTZ, rows) if mode is None
                   else decompose_diagonals(rows, mode))
        pieces.append((*emitted, np.array(keys)))
    return pieces


def program_for_tree(root: CsdNode, opts: CompileOptions = CompileOptions()) -> Program:
    """Emit the program of a tree, one ``_emit_level`` step per level, and
    expand its controls if asked (the phases are then carried through the
    cores, ``_carry_phases``).  An instruction takes its central's key, less
    or plus 1 for a complex D central's right or left side diagonal; one
    stable sort by key (``gather``) puts them in application order."""
    nb, levels, ep, expand = root.nb, root.levels, opts.extract_phases, opts.expand_controls
    pieces = [piece for level, lv in enumerate(levels, start=1)
              for piece in _emit_level(nb, level, lv, ep, sides=not expand)]
    if not expand:
        return gather(nb, pieces)
    sides = []   # per level: the phases each central adds before and after its core
    for level, lv in enumerate(levels, start=1):
        zero = np.zeros((len(lv.key), 1))
        sides.append((lv.phases, zero) if lv.phases is not None
                     else side_phases(nb, level, lv.factors) if lv.factors.phased().any()
                     else (zero, zero))
    steps = [(levels[L - 1].key[i], L, sides[L - 1][0][i], sides[L - 1][1][i])
             for L, i in _application_order(levels)]
    pieces += _carry_phases(nb, steps, ep)
    return expand_controls(gather(nb, pieces))


def compile_unitary(u, opts: CompileOptions = CompileOptions()) -> Program:
    """Compile a unitary matrix (any dimension; padded to a power of two)
    into a gate program whose matrix reproduces the padded input.

    The input's unitarity is checked on the padded matrix u ⊕ I, whose
    deviation from unitarity is that of u: by ``build_tree``, or, under the
    permutation search, once up front by the exact dense check.  The search
    compiles every relabeling of u ⊕ I, the identity first; above
    PERM_SEARCH_MAX_NB it is refused, after the unitarity check and before
    any build.  u is not copied where it needs no padding.
    """
    a = _embed(u)
    if opts.perm_search == "none":
        return program_for_tree(build_tree(a, opts), opts)
    nb = a.shape[0].bit_length() - 1
    _check_unitary(a, opts.tol)
    if nb > PERM_SEARCH_MAX_NB:
        raise ValueError(f"root-exhaustive permutation search supports nb <= "
                         f"{PERM_SEARCH_MAX_NB}, got nb={nb}")
    best = program_for_tree(_build(a, nb, opts, check=False), opts)
    for mapping in itertools.islice(itertools.permutations(range(nb)), 1, None):
        perm = BitPermutation(nb, mapping)
        tree = _build(apply_bit_permutation(perm, a), nb, opts, check=False)
        program = rename_bits(program_for_tree(tree, opts), perm.inverse())
        if len(program) < len(best):
            best = program
    return best
