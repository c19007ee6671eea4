"""Array emission against the loop versions it replaced.

The loops below are the earlier per-instruction implementations, kept as
references: where the arithmetic is unchanged the results must be equal;
the subset transform sums in another order and gets a tolerance.
"""
import numpy as np
import pytest

from csdc.bitops import basis_change_matrix, gray_sequence, hadamard_transform
from csdc.central import (PRUNE_TOL, _number_coefficients, angles_to_theta,
                          decompose_diagonals, multiplexors)
from csdc.csd import _wrap_deg
from csdc.seo import ROTY, serialize, z_ladder

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


def z_ladder_loop(bits, thetas, prune_tol):
    """The sigma_z ladder, one instruction at a time: each Gray step rotates
    its lowest selected bit; a change of rotation bit closes the run before.
    A step's c-nots fire in increasing bit order."""
    k, out = len(bits), []

    def cnots(mask, target_bit):
        out.extend(("CNOT", target_bit, 1 << bits[j], 1 << bits[j], 0.0)
                   for j in sorted(range(k), key=bits.__getitem__) if mask >> j & 1)

    prev = None  # (target index, control mask) awaiting closure
    for m in gray_sequence(k):
        theta = float(thetas[m])
        if abs(theta) <= prune_tol:
            continue
        if m == 0:
            out.append(("PHAS", -1, 0, 0, theta))
            continue
        tj = (m & -m).bit_length() - 1
        mask = m & ~(1 << tj)
        if prev is not None and prev[0] == tj:
            cnots(prev[1] ^ mask, bits[tj])
        else:
            if prev is not None:
                cnots(prev[1], bits[prev[0]])
            cnots(mask, bits[tj])
        out.append(("ROTZ", bits[tj], 0, 0, theta))
        prev = (tj, mask)
    if prev is not None:
        cnots(prev[1], bits[prev[0]])
    return program_of_rows(max(bits, default=0) + 1, out)


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
    assert np.abs(_number_coefficients(phi) - dense).max() < 1e-9


@pytest.mark.parametrize("nb", range(1, 8))
def test_real_d_ladder_equals_loop(rng, nb):
    for _ in range(10):
        theta = with_zeros(rng, 1 << (nb - 1), rng.uniform(-90, 90, 1 << (nb - 1)))
        phi = hadamard_transform(theta)   # pruned rotations inside
        assert (multiplexors(nb, 1, ROTY, phi[None])[0]
                == real_d_loop(nb, _wrap_deg(angles_to_theta(phi))))


@pytest.mark.parametrize("nb", range(1, 8))
def test_controlled_phase_rows_equal_loop(rng, nb):
    for _ in range(10):
        phases = with_zeros(rng, 1 << nb, rng.uniform(-180, 180, 1 << nb))
        theta = _wrap_deg(_number_coefficients(phases))
        got = decompose_diagonals(phases[None], "controlled-phase")[0]
        assert got == controlled_phase_loop(nb, theta)


@pytest.mark.parametrize("planted", [-1.0, 1e-10, 0.3])
@pytest.mark.parametrize("k", range(0, 7))
def test_z_ladder_equals_loop(rng, k, planted):
    """Bits in any order; zeros and sub-PRUNE_TOL angles prune steps, among
    them steps between two rotation bits.  About a fifth of the angles is
    ``planted``: kept at -1.0 and 0.3, pruned at exactly PRUNE_TOL (1e-10)."""
    for _ in range(20):
        bits = rng.choice(8, size=k, replace=False).tolist()
        thetas = with_zeros(rng, 1 << k, rng.uniform(-180, 180, 1 << k))
        thetas[rng.random(1 << k) < 0.2] = 1e-11
        thetas[rng.random(1 << k) < 0.2] = planted
        assert z_ladder(bits, thetas)[0] == z_ladder_loop(bits, thetas, PRUNE_TOL)


def test_z_ladder_pruned_step_before_target_change():
    # Gray order over 3 bits: 0, 4, 6, 2, 3, 7, 5, 1.  With step 2 pruned, the
    # run on bits[1] ends at step 6, so it closes with step 6's c-not.
    thetas = np.arange(1.0, 9.0)
    thetas[2] = 0.0
    bits = [5, 1, 3]
    got = z_ladder(bits, thetas)[0]
    assert got == z_ladder_loop(bits, thetas, PRUNE_TOL)
    assert serialize(got).splitlines() == [
        "PHAS 1", "ROTZ 3 5", "CNOT 3 T 1", "ROTZ 1 7", "CNOT 3 T 1", "CNOT 1 T 5",
        "ROTZ 5 4", "CNOT 3 T 5", "ROTZ 5 8", "CNOT 1 T 5", "ROTZ 5 6", "CNOT 3 T 5",
        "ROTZ 5 2"]
