"""Array emission against the loop versions it replaced.

The loops below are the earlier per-instruction implementations, kept as
references: where the arithmetic is unchanged the results must be equal;
the subset transform sums in another order and gets a tolerance.
"""
import numpy as np
import pytest

from csdc.bitops import basis_change_matrix, gray_sequence, hadamard_transform
from csdc.central import (PRUNE_TOL, _number_coefficients, angles_to_theta,
                          decompose_diagonal, decompose_real_d, diagonal_central,
                          real_d_central)
from csdc.csd import _wrap_deg

from conftest import program_of_rows


def gray_loop(n):
    out = []
    for i in range(1 << n):
        g = i ^ (i >> 1)
        out.append(sum(1 << (n - 1 - b) for b in range(n) if g >> b & 1))
    return out


def hadamard_loop(v):
    a = np.asarray(v)
    out = a.astype(np.int64) if np.issubdtype(a.dtype, np.integer) else a.copy()
    n, h = len(out), 1
    while h < n:
        for start in range(0, n, 2 * h):
            x = out[start:start + h].copy()
            y = out[start + h:start + 2 * h].copy()
            out[start:start + h] = x + y
            out[start + h:start + 2 * h] = x - y
        h *= 2
    return out


def real_d_loop(nb, theta, prune_tol=PRUNE_TOL):
    """The rotation ladder, one instruction at a time (level 1, no alias)."""
    target, out = nb - 1, []
    if nb == 1:
        if abs(theta[0]) > prune_tol:
            out.append(("ROTY", 0, 0, 0, float(theta[0])))
        return program_of_rows(1, out)

    def cnots(mask):
        out.extend(("CNOT", target, 1 << b, 1 << b, 0.0) for b in range(nb - 1) if mask >> b & 1)

    seq = gray_sequence(nb - 1)
    pending = prev = 0
    for b in seq:
        pending ^= b ^ prev
        prev = b
        if abs(theta[b]) > prune_tol:
            cnots(pending)
            pending = 0
            out.append(("ROTY", target, 0, 0, float(theta[b])))
    cnots(pending ^ seq[-1])
    return program_of_rows(nb, out)


def controlled_phase_loop(nb, theta, prune_tol=PRUNE_TOL):
    """The controlled-phase rows of a diagonal, one instruction at a time."""
    phas_total, rotz, cpha = float(theta[0]), [], []
    for b in range(1, 1 << nb):
        t = float(theta[b])
        if abs(t) <= prune_tol:
            continue
        if b & (b - 1) == 0:
            phas_total += t / 2.0
            rotz.append(("ROTZ", b.bit_length() - 1, 0, 0, -t / 2.0))
        else:
            cpha.append(("CPHA", -1, b, b, t))
    phas_total = float(_wrap_deg(phas_total))
    phas = [("PHAS", -1, 0, 0, phas_total)] if abs(phas_total) > prune_tol else []
    return program_of_rows(nb, phas + rotz + cpha)


def with_zeros(rng, n, values):
    """values with a random subset set to zero, so that pruning is exercised."""
    v = np.array(values, dtype=np.float64)
    v[rng.random(n) < 0.4] = 0.0
    return v


@pytest.mark.parametrize("n", range(1, 11))
def test_gray_sequence_equals_loop(n):
    assert gray_sequence(n) == gray_loop(n)


@pytest.mark.parametrize("n", range(0, 11))
def test_hadamard_transform_equals_loop_bit_for_bit(rng, n):
    size = 1 << n
    for v in (rng.standard_normal(size), rng.integers(-99, 99, size),
              rng.standard_normal(size) + 1j * rng.standard_normal(size)):
        got, want = hadamard_transform(v), hadamard_loop(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nb", range(1, 9))
def test_subset_transform_matches_dense_basis_change(rng, nb):
    phi = rng.uniform(-180, 180, 1 << nb)
    dense = basis_change_matrix("projector-to-number", nb).real.T @ phi
    # |theta| <= 180 * 2**nb; the two summation orders differ by rounding.
    assert np.abs(_number_coefficients(phi, nb) - dense).max() < 1e-9


@pytest.mark.parametrize("nb", range(1, 8))
def test_real_d_ladder_equals_loop(rng, nb):
    for _ in range(10):
        theta = with_zeros(rng, 1 << (nb - 1), rng.uniform(-90, 90, 1 << (nb - 1)))
        c = real_d_central(nb, 1, hadamard_transform(theta))   # pruned rotations inside
        assert decompose_real_d(c) == real_d_loop(nb, _wrap_deg(angles_to_theta(c.angles)))


@pytest.mark.parametrize("nb", range(1, 8))
def test_controlled_phase_rows_equal_loop(rng, nb):
    for _ in range(10):
        phases = with_zeros(rng, 1 << nb, rng.uniform(-180, 180, 1 << nb))
        theta = _wrap_deg(_number_coefficients(phases, nb))
        got = decompose_diagonal(diagonal_central(nb, phases), mode="controlled-phase")
        assert got == controlled_phase_loop(nb, theta)
