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


def dense_central(c):
    """Dense matrix of a CentralMatrix, straight from the definitions."""
    if c.variant == "realD":
        return dense_real_d_central(c.nb, c.level, np.asarray(c.angles))
    if c.variant == "diagonal":
        return dense_diagonal(np.asarray(c.phases))
    blocks = [dense_complex_d_block(pf.omega, pf.omega_l, pf.omega_r, pf.thetas)
              for pf in c.blocks]
    return block_diag(blocks)


def random_program(rng, nb, length, kinds=None, max_controls=4):
    """Random well-formed program over all six instruction kinds."""
    from csdc import Control, Instruction, Program
    kinds = kinds or ["ROTY", "ROTZ", "SIGX", "CNOT", "PHAS", "CPHA"]
    if nb < 2:
        kinds = [k for k in kinds if k not in ("CNOT", "CPHA")]
    out = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        angle = float(np.round(rng.uniform(-360, 360), 9))
        if kind in ("ROTY", "ROTZ"):
            out.append(Instruction(kind, target=int(rng.integers(nb)), angle=angle))
        elif kind == "SIGX":
            out.append(Instruction(kind, target=int(rng.integers(nb))))
        elif kind == "PHAS":
            out.append(Instruction(kind, angle=angle))
        else:
            r = int(rng.integers(1, min(max_controls, nb - 1) + 1))
            bits = rng.choice(nb, size=r + 1, replace=False)
            controls = tuple(Control(int(b), bool(rng.integers(2))) for b in bits[:-1])
            if kind == "CNOT":
                out.append(Instruction(kind, target=int(bits[-1]), controls=controls))
            else:
                out.append(Instruction(kind, controls=controls, angle=angle))
    return Program(nb, tuple(out))


def kron_instruction_matrix(ins, nb):
    """Dense matrix of one instruction, as Kronecker products of 2x2 factors.

    A controlled gate is I + (control projectors) ⊗ (V - I) on the target;
    bit 0 is the rightmost factor.
    """
    eye = np.eye(1 << nb, dtype=complex)
    rad = np.radians(ins.angle) if ins.angle is not None else 0.0
    if ins.kind == "PHAS":
        return np.exp(1j * rad) * eye
    factors = [np.eye(2, dtype=complex)] * nb
    for c in ins.controls:
        factors[c.bit] = P1 if c.polarity else P0
    if ins.kind == "CPHA":
        return eye + (np.exp(1j * rad) - 1) * kron_all(reversed(factors))
    single = {
        "ROTY": expm(1j * rad * SIGMA_Y),
        "ROTZ": expm(1j * rad * SIGMA_Z),
        "SIGX": SIGMA_X,
        "CNOT": SIGMA_X,
    }[ins.kind]
    factors[ins.target] = single - np.eye(2)
    return eye + kron_all(reversed(factors))


def kron_program_matrix(program):
    """Dense matrix of a program: the product of its instruction matrices,
    last to first."""
    out = np.eye(1 << program.nb, dtype=complex)
    for ins in program:
        out = kron_instruction_matrix(ins, program.nb) @ out
    return out
