import numpy as np
import pytest

from csdc import (BitPermutation, apply_bit_permutation, basis_change_matrix,
                  bit_reversal_permutation, frobenius_distance, gray_sequence,
                  hadamard_transform, sylvester_hadamard, tensor_product)
from csdc.bitops import gray_codes, kron_transform, popcount, state_permutation
from csdc.central import angles_to_theta

from conftest import SIGMA_X, random_unitary, transposition_matrix


class TestGraySequence:
    def test_n3_matches_canonical_listing(self):
        strings = [f"{v:03b}" for v in gray_sequence(3)]
        assert strings == ["000", "100", "110", "010", "011", "111", "101", "001"]

    def test_n1(self):
        assert gray_sequence(1) == [0, 1]

    def test_n2(self):
        assert [f"{v:02b}" for v in gray_sequence(2)] == ["00", "10", "11", "01"]

    def test_zero_bits_is_the_empty_string(self):
        assert gray_sequence(0) == [0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gray_sequence(-1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lazy_ordering_properties(self, n):
        seq = gray_sequence(n)
        assert sorted(seq) == list(range(1 << n))
        assert seq[0] == 0
        assert seq[-1] & (seq[-1] - 1) == 0 and seq[-1] != 0
        for a, b in zip(seq, seq[1:]):
            assert bin(a ^ b).count("1") == 1

    @pytest.mark.parametrize("n", range(0, 7))
    def test_cached_array_is_the_sequence_and_read_only(self, n):
        codes = gray_codes(n)
        assert codes is gray_codes(n)
        assert codes.dtype == np.int64 and codes.tolist() == gray_sequence(n)
        with pytest.raises(ValueError):
            codes[0] = 1


class TestHadamardTransform:
    def test_all_ones(self):
        assert np.array_equal(hadamard_transform([1, 1, 1, 1]), [4, 0, 0, 0])

    def test_two_point(self):
        assert np.array_equal(hadamard_transform([1, -1]), [0, 2])

    def test_basis_vector_gives_column(self):
        out = hadamard_transform([0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(out, [1, -1, -1, 1])

    def test_involution_up_to_scale(self, rng):
        for n in (1, 2, 5):
            v = rng.standard_normal(1 << n)
            twice = hadamard_transform(hadamard_transform(v))
            assert np.allclose(twice, (1 << n) * v, atol=1e-10)

    def test_integer_inputs_stay_exact(self):
        out = hadamard_transform(np.array([3, -7, 2, 9]))
        assert out.dtype == np.int64
        assert np.array_equal(hadamard_transform(out), 4 * np.array([3, -7, 2, 9]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            hadamard_transform([1.0, 2.0, 3.0])

    def test_matches_matrix(self, rng):
        v = rng.standard_normal(8)
        assert np.allclose(hadamard_transform(v), sylvester_hadamard(3).real @ v)


def popcount_sylvester(nb):
    """The Sylvester-Hadamard matrix by its entries, (-1)**popcount(a & b)."""
    idx = np.arange(1 << nb)
    dots = popcount(idx[:, None] & idx[None, :])
    return np.where(dots & 1, -1.0, 1.0).astype(np.complex128)


def popcount_number_basis(nb):
    """The projector-to-number basis change by its entries:
    (-1)**popcount(a ^ b) where a is a subset of b, else 0."""
    idx = np.arange(1 << nb)
    a, b = idx[:, None], idx[None, :]
    signs = np.where(popcount(a ^ b) & 1, -1.0, 1.0)
    return np.where((a & b) == a, signs, 0.0).astype(np.complex128)


class TestKronTransform:
    """One, two and three chunks of bits run for k = 0..13."""

    @pytest.mark.parametrize("k", range(14))
    def test_mobius_undoes_zeta(self, rng, k):
        v = rng.integers(-9, 10, 1 << k)
        assert np.array_equal(kron_transform(kron_transform(v, "zeta"), "mobius"), v)
        x = rng.standard_normal(1 << k)
        back = kron_transform(kron_transform(x, "zeta"), "mobius")
        assert np.abs(back - x).max() <= (1 << k) * 1e-15

    @pytest.mark.parametrize("k", range(14))
    def test_walsh_twice_scales_by_length(self, rng, k):
        v = rng.integers(-9, 10, 1 << k)
        assert np.array_equal(kron_transform(kron_transform(v, "walsh"), "walsh"), (1 << k) * v)
        x = rng.standard_normal(1 << k)
        twice = kron_transform(kron_transform(x, "walsh"), "walsh")
        assert np.allclose(twice, (1 << k) * x, rtol=0, atol=(1 << k) * 1e-13)

    @pytest.mark.parametrize("nb", range(1, 13))
    def test_angles_to_theta_matches_butterfly(self, rng, nb):
        v = rng.uniform(-180, 180, 1 << nb)
        want = hadamard_transform(v) / len(v)
        assert np.abs(angles_to_theta(v) - want).max() <= 1e-12 * np.abs(want).max()

    # The kernel gives -0.0 where the entry construction gives 0.0;
    # np.array_equal counts them equal.
    @pytest.mark.parametrize("nb", range(1, 9))
    def test_dense_matrices_equal_entry_construction(self, nb):
        h = sylvester_hadamard(nb)
        assert h.dtype == np.complex128 and np.array_equal(h, popcount_sylvester(nb))
        assert np.array_equal(basis_change_matrix("projector-to-sigma-z", nb),
                              popcount_sylvester(nb) / (1 << nb))
        assert np.array_equal(basis_change_matrix("projector-to-number", nb),
                              popcount_number_basis(nb))


class TestSylvesterHadamard:
    def test_nb1(self):
        assert np.array_equal(sylvester_hadamard(1),
                              np.array([[1, 1], [1, -1]], dtype=complex))

    def test_nb2(self):
        expected = np.array([
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ], dtype=complex)
        assert np.array_equal(sylvester_hadamard(2), expected)

    def test_nb3_entry_from_dot_product(self):
        h = sylvester_hadamard(3)
        assert h[0b011, 0b011] == 1  # (-1)**2

    def test_symmetric_and_involutory(self):
        for nb in (1, 2, 3, 4):
            h = sylvester_hadamard(nb)
            assert np.array_equal(h, h.T)
            assert np.array_equal(h @ h, (1 << nb) * np.eye(1 << nb, dtype=complex))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sylvester_hadamard(0)


class TestBitPermutation:
    def test_bit_reversal_nb3_state_transpositions(self):
        g = state_permutation(bit_reversal_permutation(3))
        assert np.array_equal(g, transposition_matrix(8, [(1, 4), (3, 6)]))

    def test_bit_reversal_nb1_identity(self):
        assert bit_reversal_permutation(1).mapping == (0,)

    def test_bit_reversal_nb2_swaps_middle_states(self):
        g = state_permutation(bit_reversal_permutation(2))
        assert np.array_equal(g, transposition_matrix(4, [(1, 2)]))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            BitPermutation(2, (0, 0))

    def test_mapping_stored_as_tuple_of_ints(self):
        p = BitPermutation(2, [1, 0])
        assert p.mapping == (1, 0) and all(type(b) is int for b in p.mapping)
        assert p == BitPermutation(2, (1, 0)) == BitPermutation(2, np.array([1, 0]))
        assert len({p, BitPermutation(2, (1, 0))}) == 1

    @pytest.mark.parametrize("nb", [1, 2, 3, 5])
    def test_state_map_moves_each_bit(self, rng, nb):
        p = BitPermutation(nb, rng.permutation(nb))
        want = [sum(1 << p(b) for b in range(nb) if s >> b & 1) for s in range(1 << nb)]
        assert p.state_map().tolist() == want

    def test_compose_and_inverse(self, rng):
        p = BitPermutation(4, tuple(rng.permutation(4)))
        q = BitPermutation(4, tuple(rng.permutation(4)))
        p_inv = p.inverse()
        assert tuple(p(p_inv(b)) for b in range(4)) == (0, 1, 2, 3)
        pq = BitPermutation(4, tuple(p(q(b)) for b in range(4)))
        for b in range(4):
            assert pq(b) == p(q(b))


class TestApplyBitPermutation:
    def test_identity_permutation(self, rng):
        m = random_unitary(rng, 4)
        assert np.array_equal(apply_bit_permutation(BitPermutation(2, (0, 1)), m), m)

    def test_swap_exchanges_tensor_factors(self, rng):
        x, y = random_unitary(rng, 2), random_unitary(rng, 2)
        swapped = apply_bit_permutation(BitPermutation(2, (1, 0)),
                                        tensor_product(x, y))
        assert frobenius_distance(swapped, tensor_product(y, x)) < 1e-12

    def test_moves_single_bit_gate(self):
        sx0 = tensor_product(np.eye(4), SIGMA_X)
        sx2 = tensor_product(SIGMA_X, np.eye(4))
        moved = apply_bit_permutation(BitPermutation(3, (2, 1, 0)), sx0)
        assert np.array_equal(moved, sx2)

    def test_composes(self, rng):
        m = random_unitary(rng, 8)
        p = BitPermutation(3, tuple(rng.permutation(3)))
        q = BitPermutation(3, tuple(rng.permutation(3)))
        pq = BitPermutation(3, tuple(p(q(b)) for b in range(3)))   # q acts first
        lhs = apply_bit_permutation(pq, m)
        rhs = apply_bit_permutation(p, apply_bit_permutation(q, m))
        assert frobenius_distance(lhs, rhs) < 1e-12

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_bit_permutation(BitPermutation(2, (0, 1)), np.eye(8))


class TestBasisChangeMatrix:
    def test_sigma_z_kind_nb1(self):
        expected = 0.5 * np.array([[1, 1], [1, -1]], dtype=complex)
        assert np.array_equal(basis_change_matrix("projector-to-sigma-z", 1), expected)

    def test_number_kind_nb1(self):
        expected = np.array([[1, -1], [0, 1]], dtype=complex)
        assert np.array_equal(basis_change_matrix("projector-to-number", 1), expected)

    def test_number_kind_nb2(self):
        expected = np.array([
            [1, -1, -1, 1],
            [0, 1, 0, -1],
            [0, 0, 1, -1],
            [0, 0, 0, 1],
        ], dtype=complex)
        assert np.array_equal(basis_change_matrix("projector-to-number", 2), expected)

    @pytest.mark.parametrize("nb", [1, 2, 3])
    def test_stated_inverses_exactly(self, nb):
        m = basis_change_matrix("projector-to-sigma-z", nb)
        assert np.array_equal(m @ sylvester_hadamard(nb), np.eye(1 << nb, dtype=complex))
        m = basis_change_matrix("projector-to-number", nb)
        inv = np.eye(1, dtype=complex)
        for _ in range(nb):
            inv = np.kron(inv, np.array([[1, 1], [0, 1]], dtype=complex))
        assert np.array_equal(m @ inv, np.eye(1 << nb, dtype=complex))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            basis_change_matrix("nope", 1)


def test_popcount():
    assert np.array_equal(popcount([0, 1, 2, 3, 255]), [0, 1, 1, 2, 8])
