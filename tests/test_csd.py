import numpy as np
import pytest

from csdc import (CsdFactors, NotUnitaryError, csd, extract_phases, frobenius_distance,
                  is_complex_d, is_unitary, lighten, phase_factors_matrix, qr_nonneg)
from csdc.csd import d_matrix

from conftest import block_diag, random_unitary


def reconstruct(f):
    """Brute-force multiply of the three factors, independent of the library."""
    left = block_diag([f.l0, f.l1])
    right = block_diag([f.r0, f.r1])
    m = len(f.thetas)
    th = np.radians(np.asarray(f.thetas))
    mid = np.zeros((2 * m, 2 * m), dtype=complex)
    mid[:m, :m] = np.diag(np.cos(th))
    mid[m:, m:] = np.diag(np.cos(th))
    mid[:m, m:] = np.diag(np.sin(th))
    mid[m:, :m] = -np.diag(np.sin(th))
    return left @ mid @ right


def assert_canonical(thetas):
    th = np.asarray(thetas)
    assert np.all(th >= -1e-12) and np.all(th <= 90 + 1e-12)
    assert np.all(np.diff(th) >= -1e-12)


class TestCsd:
    def test_identity(self):
        f = csd(np.eye(4))
        assert np.allclose(f.thetas, [0.0, 0.0], atol=1e-12)
        assert frobenius_distance(reconstruct(f), np.eye(4)) < 1e-12

    def test_d_matrix_input_recovers_angles(self):
        u = d_matrix([30.0, 60.0])
        f = csd(u)
        assert np.allclose(f.thetas, [30.0, 60.0], atol=1e-10)
        assert frobenius_distance(reconstruct(f), u) < 1e-12
        # Singular values of the upper-left block are the cosines, checked
        # against an independent SVD.
        sv = np.linalg.svd(u[:2, :2], compute_uv=False)
        assert np.allclose(np.sort(sv), np.sort(np.cos(np.radians(f.thetas))),
                           atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_random_round_trip(self, rng, dim):
        for _ in range(25):
            u = random_unitary(rng, dim)
            f = csd(u)
            assert_canonical(f.thetas)
            assert frobenius_distance(reconstruct(f), u) < 1e-10
            for side in (f.l0, f.l1, f.r0, f.r1):
                assert is_unitary(side, 1e-12)

    def test_blockwise_factorization(self, rng):
        u = random_unitary(rng, 8)
        f = csd(u)
        th = np.radians(f.thetas)
        c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
        d = {(0, 0): c, (0, 1): s, (1, 0): -s, (1, 1): c}
        ls = {0: f.l0, 1: f.l1}
        rs = {0: f.r0, 1: f.r1}
        for i in (0, 1):
            for j in (0, 1):
                block = u[4 * i:4 * i + 4, 4 * j:4 * j + 4]
                assert frobenius_distance(ls[i] @ d[(i, j)] @ rs[j], block) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            csd(np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_non_unitary_error_is_typed(self):
        with pytest.raises(NotUnitaryError):
            csd(np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            csd(np.eye(3))

    def test_odd_even_dimensions_work(self, rng):
        u = random_unitary(rng, 6)
        f = csd(u)
        assert frobenius_distance(reconstruct(f), u) < 1e-10


class TestQrNonneg:
    def test_identity(self):
        q, r = qr_nonneg(np.eye(2))
        assert np.array_equal(q, np.eye(2).astype(complex))
        assert np.array_equal(r, np.eye(2).astype(complex))

    def test_sign_absorbed_into_q(self):
        q, r = qr_nonneg(np.diag([-1.0, 1.0]))
        assert np.allclose(q, np.diag([-1.0, 1.0]))
        assert np.allclose(r, np.eye(2))

    def test_random_unitary(self, rng):
        m = random_unitary(rng, 4)
        q, r = qr_nonneg(m)
        assert frobenius_distance(q @ r, m) < 1e-12
        d = np.diag(r)
        assert np.all(np.abs(d.imag) < 1e-12) and np.all(d.real >= -1e-12)
        assert np.all(np.abs(np.tril(r, -1)) < 1e-12)

    def test_wide_block(self, rng):
        m = random_unitary(rng, 4)[:2, :]
        q, r = qr_nonneg(m)
        assert q.shape == (2, 2) and r.shape == (2, 4)
        assert frobenius_distance(q @ r, m) < 1e-12

    def test_stack_matches_each_block(self, rng):
        # A stack of wide blocks, one of them rank-deficient with a zero
        # first diagonal entry of R, is factored block by block.
        m = np.stack([random_unitary(rng, 4)[:2, :] for _ in range(3)])
        m[1, :, 0] = 0.0
        q, r = qr_nonneg(m)
        assert q.shape == (3, 2, 2) and r.shape == (3, 2, 4)
        for i in range(3):
            qi, ri = qr_nonneg(m[i])
            assert np.abs(q[i] - qi).max() < 1e-15 and np.abs(r[i] - ri).max() < 1e-15
            assert frobenius_distance(q[i] @ r[i], m[i]) < 1e-12
        assert r[1, 0, 0] == 0.0

    def test_rejects_tall_and_non_finite_blocks(self, rng):
        with pytest.raises(ValueError):
            qr_nonneg(random_unitary(rng, 4)[:, :2])
        with pytest.raises(ValueError):
            qr_nonneg(np.full((2, 2), np.nan))


class TestLighten:
    def test_fully_degenerate_right_side_collapses(self, rng):
        g0 = random_unitary(rng, 2)
        f = CsdFactors(l0=random_unitary(rng, 2), l1=random_unitary(rng, 2),
                       r0=g0, r1=g0 @ random_unitary(rng, 2),
                       thetas=np.array([30.0, 30.0]))
        before = reconstruct(f)
        g = lighten(f)
        assert frobenius_distance(g.r0, np.eye(2)) < 1e-12
        assert frobenius_distance(reconstruct(g), before) < 1e-12
        assert np.array_equal(g.thetas, f.thetas)

    def test_distinct_angles_rescale_rows_by_phases(self, rng):
        f = CsdFactors(l0=random_unitary(rng, 2), l1=random_unitary(rng, 2),
                       r0=random_unitary(rng, 2), r1=random_unitary(rng, 2),
                       thetas=np.array([10.0, 70.0]))
        before = reconstruct(f)
        g = lighten(f)
        assert np.allclose(np.abs(g.r0), np.abs(f.r0), atol=1e-12)
        for a in range(2):
            assert abs(g.r0[a, 0].imag) < 1e-12 and g.r0[a, 0].real >= -1e-12
        assert frobenius_distance(reconstruct(g), before) < 1e-12

    def test_random_degenerate_instance(self, rng):
        # Two clusters of two equal angles each.
        f = CsdFactors(l0=random_unitary(rng, 4), l1=random_unitary(rng, 4),
                       r0=random_unitary(rng, 4), r1=random_unitary(rng, 4),
                       thetas=np.array([20.0, 20.0, 55.0, 55.0]))
        before = reconstruct(f)
        g = lighten(f)
        assert frobenius_distance(reconstruct(g), before) < 1e-10
        # Each cluster's row block of r0 has zeros below its own principal
        # diagonal and a non-negative real diagonal.
        for start in (0, 2):
            block = g.r0[start:start + 2, :]
            assert abs(block[1, 0]) < 1e-12
            for i in range(2):
                assert abs(block[i, i].imag) < 1e-12 and block[i, i].real >= -1e-12


def eq_5c3_block(omega, omega_l, omega_r, theta):
    """Single 2x2 complex D matrix written out entry by entry."""
    o, ol, or_ = np.radians([omega, omega_l, omega_r])
    c, s = np.cos(np.radians(theta)), np.sin(np.radians(theta))
    return np.array([
        [c * np.exp(1j * o), s * np.exp(1j * (o + or_))],
        [-s * np.exp(1j * (o + ol)), c * np.exp(1j * (o + ol + or_))],
    ])


class TestExtractPhases:
    def test_real_d_input_gives_zero_phases(self):
        pf = extract_phases(d_matrix([25.0, 65.0]))
        assert np.allclose(pf.omega, 0) and np.allclose(pf.omega_l, 0)
        assert np.allclose(pf.omega_r, 0)
        assert np.allclose(pf.thetas, [25.0, 65.0])

    def test_forward_construction_inverts_exactly(self):
        d = eq_5c3_block(10.0, 20.0, 30.0, 40.0)
        pf = extract_phases(d)
        assert np.allclose(pf.omega, [10.0], atol=1e-10)
        assert np.allclose(pf.omega_l, [20.0], atol=1e-10)
        assert np.allclose(pf.omega_r, [30.0], atol=1e-10)
        assert np.allclose(pf.thetas, [40.0], atol=1e-10)

    def test_negative_cosine_shifted_into_range(self):
        # c < 0 in the naive solution; the 180-degree shifts restore c, s >= 0.
        d = -eq_5c3_block(0.0, 0.0, 0.0, 40.0)
        pf = extract_phases(d)
        assert 0 <= pf.thetas[0] <= 90
        assert frobenius_distance(phase_factors_matrix(pf), d) < 1e-12

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_random_complex_d_round_trip(self, rng, h):
        for _ in range(20):
            blocks = [eq_5c3_block(*rng.uniform(-180, 180, 3), rng.uniform(0, 90))
                      for _ in range(h)]
            d = np.zeros((2 * h, 2 * h), dtype=complex)
            for j, b in enumerate(blocks):
                d[j, j], d[j, j + h] = b[0, 0], b[0, 1]
                d[j + h, j], d[j + h, j + h] = b[1, 0], b[1, 1]
            pf = extract_phases(d)
            assert np.all(pf.thetas >= 0) and np.all(pf.thetas <= 90)
            assert frobenius_distance(phase_factors_matrix(pf), d) < 1e-10

    def test_degenerate_theta_endpoints(self):
        for theta in (0.0, 90.0):
            d = eq_5c3_block(35.0, -70.0, 0.0, theta)
            pf = extract_phases(d)
            assert frobenius_distance(phase_factors_matrix(pf), d) < 1e-12

    def test_rejects_non_diagonal_blocks(self, rng):
        with pytest.raises(ValueError, match="diagonal"):
            extract_phases(random_unitary(rng, 4))

    def test_is_complex_d(self, rng):
        assert is_complex_d(d_matrix([10.0, 20.0]))
        assert is_complex_d(random_unitary(rng, 2))  # any 2x2 qualifies
        assert not is_complex_d(random_unitary(rng, 4))
        assert not is_complex_d(np.eye(3))
