"""Shared fixtures and independent dense oracles.

The dense builders below construct central matrices straight from their
projector/tensor-product definitions (using ``expm`` for the rotations), so
they share no code path with the gate-emission routines they check.
"""
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_unitary(rng, dim):
    return unitary_group.rvs(dim, random_state=rng)


def kron_all(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def projector_product(value, width):
    """P_{a_{w-1}} ⊗ ... ⊗ P_{a_0} for the width-bit string with that value."""
    return kron_all([P1 if value >> (width - 1 - i) & 1 else P0 for i in range(width)])


def dense_real_d_block(angles_deg):
    """One D matrix: sum_j expm(i phi_j sigma_y) ⊗ P_j."""
    k = len(angles_deg)
    width = k.bit_length() - 1
    assert 1 << width == k
    out = np.zeros((2 * k, 2 * k), dtype=complex)
    for j in range(k):
        rot = expm(1j * np.radians(angles_deg[j]) * SIGMA_Y)
        pj = projector_product(j, width) if width else np.eye(1, dtype=complex)
        out += np.kron(rot, pj)
    return out


def level_alias(nb, level):
    """Bit relabeling that turns the rotation-on-top D form into a direct sum
    of 2**(level-1) blocks: the rotation bit nb-1 moves to nb-level and the
    displaced bits shift up by one.  The emission routines write these final
    positions directly; this is the oracle they are checked against."""
    from csdc import BitPermutation
    if not 1 <= level <= nb:
        raise ValueError(f"level must be in [1, nb], got {level}")
    cut = nb - level
    mapping = [p + 1 if cut <= p <= nb - 2 else p for p in range(nb)]
    mapping[nb - 1] = cut
    return BitPermutation(nb, tuple(mapping))


def transposition_matrix(n, pairs):
    """n x n permutation matrix swapping the states of each pair; the pairs
    must be disjoint, so their order does not matter."""
    order = np.arange(n)
    for i, j in pairs:
        order[[i, j]] = order[[j, i]]
    return np.eye(n, dtype=complex)[:, order]


def block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    k = 0
    for b in blocks:
        d = b.shape[0]
        out[k:k + d, k:k + d] = b
        k += d
    return out


def dense_real_d_central(nb, level, angles_deg):
    """Direct sum of 2**(level-1) D matrices, angles in block-major order."""
    per = 1 << (nb - level)
    blocks = [dense_real_d_block(angles_deg[b * per:(b + 1) * per])
              for b in range(1 << (level - 1))]
    return block_diag(blocks)


def dense_complex_d_block(omega, omega_l, omega_r, thetas):
    """[I ⊕ Γ_L] D(θ) [Γ ⊕ Γ Γ_R] with every factor built explicitly."""
    h = len(omega)
    gl = np.diag(np.exp(1j * np.radians(omega_l)))
    g = np.diag(np.exp(1j * np.radians(omega)))
    gr = np.diag(np.exp(1j * np.radians(omega_r)))
    left = block_diag([np.eye(h, dtype=complex), gl])
    right = block_diag([g, g @ gr])
    return left @ dense_real_d_block(thetas) @ right


def dense_diagonal(phases_deg):
    return np.diag(np.exp(1j * np.radians(phases_deg)))


def random_phase_factors(rng, h):
    from csdc import PhaseFactors
    return PhaseFactors(
        omega=rng.uniform(-180, 180, h),
        omega_l=rng.uniform(-180, 180, h),
        omega_r=rng.uniform(-180, 180, h),
        thetas=rng.uniform(0, 90, h),
    )


def random_complex_d(rng, nb, level):
    """Parameters of a random complex D central on a level: one
    ``random_phase_factors`` per block, joined block by block."""
    from csdc import PhaseFactors
    blocks = [random_phase_factors(rng, 1 << (nb - level)) for _ in range(1 << (level - 1))]
    return PhaseFactors(*(np.concatenate([getattr(b, name) for b in blocks])
                          for name in ("omega", "omega_l", "omega_r", "thetas")))


def dense_complex_d_central(nb, level, f):
    """Direct sum of 2**(level-1) complex D matrices; the fields of the
    PhaseFactors ``f`` hold their 2**(nb-1) parameters, block by block."""
    fields = (f.omega, f.omega_l, f.omega_r, f.thetas)
    return block_diag([dense_complex_d_block(*rows) for rows in
                       zip(*(np.reshape(x, (1 << (level - 1), -1)) for x in fields))])


def dense_central(node):
    """Dense matrix of a tree node's central, read off its level row,
    straight from the definitions."""
    lv, i = node.levels[node.level - 1], node.index
    if lv.phases is not None:
        return dense_diagonal(lv.phases[i])
    if not lv.phased[i]:
        return dense_real_d_central(node.nb, node.level, lv.thetas[i])
    return dense_complex_d_central(node.nb, node.level, lv.factors.map(lambda x: x[i]))


def complex_d_program(nb, level, f, extract_phases=True):
    """The program of one complex D central, the level pass on one row; the
    fields of the PhaseFactors ``f`` hold its 2**(nb-1) parameters."""
    from csdc.central import decompose_level
    from csdc.seo import gather
    pieces = decompose_level(nb, level, f.thetas[None], f.map(lambda x: x[None]), [True],
                             extract_phases)
    return gather(nb, [(program, owner, np.arange(3)) for program, owner in pieces])


def cheaper_diagonal(phases, extract_phases=True):
    """The diagonal diag(exp(i phases)) in the form whose expansion has fewer
    two-qubit gates, as ``cheaper_mode`` picks it from ``diagonal_costs``."""
    from csdc.central import cheaper_mode, decompose_diagonals, diagonal_costs
    mode = cheaper_mode(diagonal_costs(phases), extract_phases)
    return decompose_diagonals(phases[None], mode)[0]


def rows(program):
    """The instructions of a program as (kind name, target, ctrl_mask,
    ctrl_val, angle) tuples, read from its columns one row at a time."""
    from csdc.seo import KINDS
    return [(KINDS[k], t, m, v, a)
            for k, t, m, v, a in zip(*(c.tolist() for c in program.columns))]


def program_of_rows(nb, instructions):
    """The program with these (kind name, target, ctrl_mask, ctrl_val, angle)
    rows, checked by the Program constructor."""
    from csdc import Program
    from csdc.seo import KINDS
    kind, target, mask, val, angle = zip(*instructions) if instructions else ((),) * 5
    return Program(nb, [KINDS.index(k) for k in kind], target, mask, val, angle)


def bits_of(mask):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def width(row):
    """How many bits one row touches: its controls and its target."""
    _kind, target, mask, _val, _angle = row
    return len(bits_of(mask)) + (target >= 0)


def two_bit_rows(program):
    """How many instructions of a program touch exactly two bits."""
    return sum(width(r) == 2 for r in rows(program))


def random_program(rng, nb, length, kinds=None, max_controls=4):
    """Random well-formed program over all six instruction kinds."""
    kinds = kinds or ["ROTY", "ROTZ", "SIGX", "CNOT", "PHAS", "CPHA"]
    if nb < 2:
        kinds = [k for k in kinds if k not in ("CNOT", "CPHA")]
    out = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        angle = float(np.round(rng.uniform(-360, 360), 9))
        if kind in ("ROTY", "ROTZ"):
            out.append((kind, int(rng.integers(nb)), 0, 0, angle))
        elif kind == "SIGX":
            out.append((kind, int(rng.integers(nb)), 0, 0, 0.0))
        elif kind == "PHAS":
            out.append((kind, -1, 0, 0, angle))
        else:
            r = int(rng.integers(1, min(max_controls, nb - 1) + 1))
            bits = rng.choice(nb, size=r + 1, replace=False)
            mask = val = 0
            for b in bits[:-1]:
                mask |= 1 << int(b)
                val |= int(rng.integers(2)) << int(b)
            if kind == "CNOT":
                out.append((kind, int(bits[-1]), mask, val, 0.0))
            else:
                out.append((kind, -1, mask, val, angle))
    return program_of_rows(nb, out)


def kron_instruction_matrix(row, nb):
    """Dense matrix of one (kind name, target, ctrl_mask, ctrl_val, angle)
    row, as Kronecker products of 2x2 factors.

    A controlled gate is I + (control projectors) ⊗ (V - I) on the target;
    bit 0 is the rightmost factor.
    """
    kind, target, mask, val, angle = row
    eye = np.eye(1 << nb, dtype=complex)
    rad = np.radians(angle)
    if kind == "PHAS":
        return np.exp(1j * rad) * eye
    factors = [np.eye(2, dtype=complex)] * nb
    for b in bits_of(mask):
        factors[b] = P1 if val >> b & 1 else P0
    if kind == "CPHA":
        return eye + (np.exp(1j * rad) - 1) * kron_all(reversed(factors))
    single = {
        "ROTY": expm(1j * rad * SIGMA_Y),
        "ROTZ": expm(1j * rad * SIGMA_Z),
        "SIGX": SIGMA_X,
        "CNOT": SIGMA_X,
    }[kind]
    factors[target] = single - np.eye(2)
    return eye + kron_all(reversed(factors))


def kron_program_matrix(program):
    """Dense matrix of a program: the product of its instruction matrices,
    last to first."""
    out = np.eye(1 << program.nb, dtype=complex)
    for row in rows(program):
        out = kron_instruction_matrix(row, program.nb) @ out
    return out


def concat_by_rows(*programs):
    """concat, defined instruction by instruction."""
    return program_of_rows(max(p.nb for p in programs), [r for p in programs for r in rows(p)])


def rename_by_rows(p, mapping):
    """rename_bits, defined instruction by instruction: every bit goes to
    mapping[bit]."""
    def image(mask):
        return sum(1 << mapping[b] for b in bits_of(mask))

    out = [(kind, -1 if target < 0 else mapping[target], image(mask), image(val), angle)
           for kind, target, mask, val, angle in rows(p)]
    return program_of_rows(p.nb, out)
