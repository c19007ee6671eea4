import numpy as np
import pytest

from csdc import direct_sum, frobenius_distance, is_unitary, tensor_product
from csdc.matrices import (MatrixFormatError, format_matrix_text,
                           parse_matrix_text, unitarity_deviation)

from conftest import SIGMA_X, random_unitary

KET0 = np.array([[1], [0]], dtype=complex)
KET1 = np.array([[0], [1]], dtype=complex)

H2 = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
], dtype=complex)


class TestTensorProduct:
    def test_ket0_ket1_is_state_01(self):
        out = tensor_product(KET0, KET1)
        assert np.array_equal(out, np.array([[0], [1], [0], [0]], dtype=complex))

    def test_identity_times_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_hadamard_recursion(self):
        h1 = np.array([[1, 1], [1, -1]], dtype=complex)
        assert np.array_equal(tensor_product(h1, h1), H2)

    def test_mixed_product_identity(self, rng):
        a, b = random_unitary(rng, 2), random_unitary(rng, 3)
        c, d = random_unitary(rng, 2), random_unitary(rng, 3)
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert frobenius_distance(lhs, rhs) < 1e-12

    def test_associative(self, rng):
        # Integer entries keep the double products exact on both sides.
        a, b, c = (rng.integers(-5, 6, size=(2, 2)) for _ in range(3))
        assert np.array_equal(tensor_product(tensor_product(a, b), c),
                              tensor_product(a, tensor_product(b, c)))


class TestDirectSum:
    def test_identities(self):
        assert np.array_equal(direct_sum([np.eye(2), np.eye(2)]), np.eye(4))

    def test_signs(self):
        out = direct_sum([np.array([[1]]), np.array([[-1]])])
        assert np.array_equal(out, np.diag([1, -1]).astype(complex))

    def test_sigx_block_is_00_01_transposition(self):
        out = direct_sum([SIGMA_X, np.eye(2)])
        expected = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ], dtype=complex)
        assert np.array_equal(out, expected)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            direct_sum([np.ones((2, 3))])

    def test_sum_of_unitaries_is_unitary(self, rng):
        out = direct_sum([random_unitary(rng, 2), random_unitary(rng, 4)])
        assert is_unitary(out)


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4))

    def test_diag_1_2(self):
        assert not is_unitary(np.diag([1.0, 2.0]))

    def test_scaled_hadamard(self):
        assert is_unitary(H2 / 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))

    def test_deviation_names_a_non_square_input(self):
        with pytest.raises(ValueError, match="square matrix, got \\(2, 3\\)"):
            unitarity_deviation(np.ones((2, 3)))


class TestFrobeniusDistance:
    def test_zero_on_equal(self):
        assert frobenius_distance(np.eye(2), np.eye(2)) == 0.0

    def test_identity_vs_sigx(self):
        assert frobenius_distance(np.eye(2), SIGMA_X) == pytest.approx(2.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance(np.eye(2), np.eye(3))

    def test_metric_properties(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert frobenius_distance(a, b) == pytest.approx(frobenius_distance(b, a))
            assert (frobenius_distance(a, c)
                    <= frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-12)


class TestMatrixTextFormat:
    def test_round_trip(self, rng):
        m = random_unitary(rng, 3)
        again = parse_matrix_text(format_matrix_text(m))
        assert np.array_equal(m, again)  # 17 digits round-trips doubles exactly

    def test_text_equals_entry_by_entry_formatting(self, rng):
        def by_entry(m):
            lines = [str(len(m))]
            for row in m:
                lines.append(" ".join(f"{x:.17g}" for z in row for x in (z.real, z.imag)))
            return "\n".join(lines) + "\n"

        cases = [np.array([[complex(-0.0, 0.5)]]), np.array([[1.0]]), random_unitary(rng, 5).T]
        for n in (1, 2, 7, 16):
            m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-20, 20, (n, n)) \
                + 1j * rng.standard_normal((n, n))
            m.real[0, 0], m.imag[-1, -1] = -0.0, -0.0
            cases.append(m)
        for m in cases:
            assert format_matrix_text(m) == by_entry(m)
        assert format_matrix_text(cases[0]) == "1\n-0 0.5\n"

    def test_parse_tolerates_whitespace(self):
        text = "2\n 1 0   0 0\n0 0\t1 0\n"
        assert np.array_equal(parse_matrix_text(text), np.eye(2).astype(complex))

    def test_rejects_wrong_count(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix_text("2\n1 0 0 0\n")

    def test_rejects_bad_number(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix_text("1\n1 x\n")

    def test_deviation_reported(self):
        assert unitarity_deviation(np.diag([1.0, 2.0])) == pytest.approx(3.0)
