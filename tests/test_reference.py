import numpy as np
import pytest

from csdc import (dft_matrix, frobenius_distance, hadamard_input, is_unitary,
                  program_to_matrix, quantum_fft_program, sylvester_hadamard,
                  tensor_product)
from csdc.bitops import bit_reversal_permutation, state_permutation

from conftest import rows


class TestDftMatrix:
    def test_nb1_is_scaled_hadamard(self):
        assert frobenius_distance(dft_matrix(1),
                                  sylvester_hadamard(1) / np.sqrt(2)) < 1e-15

    def test_nb2_entries(self):
        f = dft_matrix(2)
        assert abs(f[1, 1] - 1j / 2) < 1e-15  # omega = i at ns = 4
        assert abs(f[0, 0] - 0.5) < 1e-15

    @pytest.mark.parametrize("nb", range(1, 7))
    def test_unitary(self, nb):
        assert is_unitary(dft_matrix(nb), 1e-10)

    def test_symmetric_exactly(self):
        f = dft_matrix(4)
        assert np.array_equal(f, f.T)


class TestQuantumFftProgram:
    def test_nb1_is_hadamard_triple(self):
        p = quantum_fft_program(1)
        assert [r[0] for r in rows(p)] == ["ROTY", "ROTZ", "PHAS"]
        assert frobenius_distance(program_to_matrix(p), dft_matrix(1)) < 1e-12

    def test_nb2_single_cpha_90(self):
        p = quantum_fft_program(2)
        cphas = [r for r in rows(p) if r[0] == "CPHA"]
        assert len(cphas) == 1 and cphas[0][4] == 90.0

    @pytest.mark.parametrize("nb", [1, 2, 3, 4, 5])
    def test_matches_bit_reversed_dft(self, nb):
        expected = state_permutation(bit_reversal_permutation(nb)) @ dft_matrix(nb)
        assert frobenius_distance(program_to_matrix(quantum_fft_program(nb)),
                                  expected) < 1e-10

    def test_nb4_cpha_count(self):
        p = quantum_fft_program(4)
        assert sum(1 for r in rows(p) if r[0] == "CPHA") == 6

    @pytest.mark.parametrize("nb", [2, 3, 5])
    def test_bit_reversal_times_program_is_dft(self, nb):
        # The program realizes P_BR F, and P_BR is self-inverse, so composing
        # the bit reversal after it recovers the plain DFT matrix.
        pbr = state_permutation(bit_reversal_permutation(nb))
        got = pbr @ program_to_matrix(quantum_fft_program(nb))
        assert frobenius_distance(got, dft_matrix(nb)) < 1e-10


class TestHadamardInput:
    def test_nb1_is_standard_gate(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert frobenius_distance(hadamard_input(1), expected) < 1e-15

    def test_nb2_scaled_array(self):
        assert frobenius_distance(hadamard_input(2), sylvester_hadamard(2) / 2) < 1e-15

    def test_tensor_power_structure(self):
        h1 = hadamard_input(1)
        assert frobenius_distance(hadamard_input(3),
                                  tensor_product(h1, tensor_product(h1, h1))) < 1e-12

    def test_unitary(self):
        assert is_unitary(hadamard_input(4))


def _shuffle(k):
    """Even/odd sort on 2**k states: moves bit 0 to the top position."""
    n = 1 << k
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        j = (i >> 1) | ((i & 1) << (k - 1))
        out[j, i] = 1.0
    return out


def test_textbook_fft_recursion_matches_dft():
    # The radix-2 factored recursion at nb = 4, written out equation by
    # equation with a single omega = exp(2 pi i / 16) and twiddle factors
    # Omega**(2**j), reproduces the DFT matrix.
    omega = np.exp(2j * np.pi / 16)

    def tw(p):  # diag(1, omega**p)
        return np.diag([1.0, omega ** p])

    h = np.array([[1, 1], [1, -1]], dtype=complex)
    i2, i4, i8 = np.eye(2), np.eye(4), np.eye(8)
    f1 = h / np.sqrt(2)
    f2 = (np.kron(h, i2)
          @ np.block([[i2, np.zeros((2, 2))], [np.zeros((2, 2)), tw(4)]])
          @ np.kron(i2, f1) @ _shuffle(2)) / np.sqrt(2)
    t3 = np.kron(tw(4), tw(2))
    f3 = (np.kron(h, i4)
          @ np.block([[i4, np.zeros((4, 4))], [np.zeros((4, 4)), t3]])
          @ np.kron(i2, f2) @ _shuffle(3)) / np.sqrt(2)
    t4 = np.kron(np.kron(tw(4), tw(2)), tw(1))
    f4 = (np.kron(h, i8)
          @ np.block([[i8, np.zeros((8, 8))], [np.zeros((8, 8)), t4]])
          @ np.kron(i2, f3) @ _shuffle(4)) / np.sqrt(2)
    assert frobenius_distance(f4, dft_matrix(4)) < 1e-12


def test_combined_shuffles_form_bit_reversal():
    # (I4 x P2)(I2 x P3) P4 equals the 4-bit bit-reversal permutation.
    combined = (np.kron(np.eye(4), _shuffle(2))
                @ np.kron(np.eye(2), _shuffle(3)) @ _shuffle(4))
    pbr = state_permutation(bit_reversal_permutation(4))
    assert np.array_equal(combined, pbr)
