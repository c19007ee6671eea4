import math
import tracemalloc

import numpy as np
import pytest

from csdc import frobenius_distance, matrices
from csdc.matrices import (DEFAULT_TOL, GRAM_HERK_MIN_N, MatrixFormatError, format_matrix_text,
                           gram_deviations, parse_matrix_text, unitarity_deviation)

from conftest import SIGMA_X, block_diag, kron_all, random_unitary

KET0 = np.array([[1], [0]], dtype=complex)
KET1 = np.array([[0], [1]], dtype=complex)

H2 = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
], dtype=complex)


class TestTensorProduct:
    """``kron_all``, the tensor product of the tests' dense oracles: its first
    factor acts on the high bits."""

    def test_ket0_ket1_is_state_01(self):
        out = kron_all([KET0, KET1])
        assert np.array_equal(out, np.array([[0], [1], [0], [0]], dtype=complex))

    def test_identity_times_identity(self):
        assert np.array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))

    def test_hadamard_recursion(self):
        h1 = np.array([[1, 1], [1, -1]], dtype=complex)
        assert np.array_equal(kron_all([h1, h1]), H2)

    def test_mixed_product_identity(self, rng):
        a, b = random_unitary(rng, 2), random_unitary(rng, 3)
        c, d = random_unitary(rng, 2), random_unitary(rng, 3)
        lhs = kron_all([a, b]) @ kron_all([c, d])
        rhs = kron_all([a @ c, b @ d])
        assert frobenius_distance(lhs, rhs) < 1e-12

    def test_associative(self, rng):
        # Integer entries keep the double products exact on both sides.
        a, b, c = (rng.integers(-5, 6, size=(2, 2)) for _ in range(3))
        assert np.array_equal(kron_all([kron_all([a, b]), c]), kron_all([a, kron_all([b, c])]))


class TestDirectSum:
    """``block_diag``, the direct sum of the tests' dense oracles."""

    def test_identities(self):
        assert np.array_equal(block_diag([np.eye(2), np.eye(2)]), np.eye(4))

    def test_signs(self):
        out = block_diag([np.array([[1]]), np.array([[-1]])])
        assert np.array_equal(out, np.diag([1, -1]).astype(complex))

    def test_sigx_block_is_00_01_transposition(self):
        out = block_diag([SIGMA_X, np.eye(2)])
        expected = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ], dtype=complex)
        assert np.array_equal(out, expected)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            block_diag([np.ones((2, 3))])

    def test_sum_of_unitaries_is_unitary(self, rng):
        out = block_diag([random_unitary(rng, 2), random_unitary(rng, 4)])
        assert unitarity_deviation(out) <= DEFAULT_TOL


class TestIsUnitary:
    """``unitarity_deviation(m) <= tol`` is the unitarity test."""

    def test_identity(self):
        assert unitarity_deviation(np.eye(4)) == 0.0

    def test_diag_1_2(self):
        assert not unitarity_deviation(np.diag([1.0, 2.0])) <= DEFAULT_TOL

    def test_scaled_hadamard(self):
        assert unitarity_deviation(H2 / 2) <= DEFAULT_TOL

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            unitarity_deviation(np.ones((2, 3)))

    def test_deviation_names_a_non_square_input(self):
        with pytest.raises(ValueError, match="square matrix, got \\(2, 3\\)"):
            unitarity_deviation(np.ones((2, 3)))


class TestGramDeviations:
    """gram_deviations against the dense max |XᴴX - I| on both sides of its
    crossover from one batched product to one ZHERK per matrix."""

    SIZES = [1, 2, 4, 32, 64, 128, 256]

    @staticmethod
    def dense(x):
        return np.array([np.abs(m.conj().T @ m - np.eye(m.shape[1])).max() for m in x])

    @staticmethod
    def perturbed(rng, k, n):
        """k Haar unitaries plus entries of about 1e-4: Gram deviations far
        above the rounding in which the two products may differ."""
        x = np.stack([random_unitary(rng, n) for _ in range(k)])
        return x + 1e-4 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))

    def test_one_herk_per_matrix_from_the_crossover_on(self, rng, monkeypatch):
        calls = []
        herk = matrices.zherk
        monkeypatch.setattr(matrices, "zherk",
                            lambda alpha, a, **kw: calls.append(a.shape) or herk(alpha, a, **kw))
        for n in (GRAM_HERK_MIN_N - 1, GRAM_HERK_MIN_N):
            gram_deviations(np.stack([random_unitary(rng, n)] * 2))
        assert calls == [(GRAM_HERK_MIN_N, GRAM_HERK_MIN_N)] * 2

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_dense_formula(self, rng, k, n):
        x = self.perturbed(rng, k, n)
        got = gram_deviations(x)
        assert got.shape == (k,)
        assert np.allclose(got, self.dense(x), rtol=1e-9, atol=0)
        exact = np.stack([random_unitary(rng, n) for _ in range(k)])
        assert (gram_deviations(exact) <= 1e-13).all()

    @pytest.mark.parametrize("n", [4, 32, 64, 128])
    def test_non_contiguous_view(self, rng, n):
        a = np.stack([random_unitary(rng, 2 * n) for _ in range(3)])
        a[:, :n, :n] = self.perturbed(rng, 3, n)
        view = a[:, :n, :n]
        assert not view.flags.c_contiguous
        got = gram_deviations(view)
        assert np.allclose(got, self.dense(view), rtol=1e-9, atol=0)
        assert np.array_equal(got, gram_deviations(view.copy()))

    @pytest.mark.parametrize("n", [4, 64, 128, 256])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    def test_non_finite_entry_fails_every_tolerance(self, rng, n, bad):
        x = np.stack([random_unitary(rng, n) for _ in range(3)])
        x[1, n // 2, n - 1] = bad
        with np.errstate(invalid="ignore"):    # inf * 0 in the batched product
            dev = gram_deviations(x)
        assert not dev[1] <= 1e300
        assert (dev[[0, 2]] <= 1e-13).all()

    def test_unitarity_deviation_is_the_one_matrix_case(self, rng):
        for n in (2, 32, 64, 128):
            u = self.perturbed(rng, 1, n)[0]
            assert unitarity_deviation(u) == gram_deviations(u[None])[0]


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

    @pytest.mark.parametrize("nb", [1, 6, 9, 10])
    def test_matches_an_exact_sum(self, rng, nb):
        # Summed a chunk of rows at a time, the value stays within 1e-15 of the
        # square root of the exactly summed squares; np.linalg.norm(a - b),
        # one dot product over every entry, drifts up to 2e-14 from it at nb = 10.
        n = 1 << nb
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = a + 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = (a - b).reshape(-1).view(np.float64)
        exact = math.sqrt(math.fsum(d * d))
        got = frobenius_distance(a, b)
        assert abs(got - exact) <= 1e-15 * exact
        old = float(np.linalg.norm(a - b))
        assert abs(got - old) <= abs(old - exact) + 1e-15 * exact
        assert frobenius_distance(a, a.copy()) == 0.0
        c = a.copy()
        c[-1, -1] += 1e-9
        assert frobenius_distance(a, c) == pytest.approx(1e-9, rel=1e-6)

    def test_no_dense_difference(self, rng):
        # at nb = 9 a difference of the whole matrices is 4 MB
        n = 1 << 9
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = a * (1 + 1e-3)
        frobenius_distance(a, b)
        tracemalloc.start()
        try:
            frobenius_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes // 4


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix file"),
        (" \n\t\n", "empty matrix file"),
        ("2.0\n1 0 0 0\n0 0 1 0\n", "first token must be the dimension, got '2.0'"),
        ("x\n1 0\n", "first token must be the dimension, got 'x'"),
        ("0\n", "dimension must be >= 1, got 0"),
        ("-1\n1 0\n", "dimension must be >= 1, got -1"),
        ("1\nnan 0\n", "matrix entries must be finite"),
        ("1\n1 -inf\n", "matrix entries must be finite"),
    ])
    def test_rejects_malformed_text(self, text, message):
        with pytest.raises(MatrixFormatError, match=message):
            parse_matrix_text(text)

    def test_format_rejects_non_square(self):
        with pytest.raises(MatrixFormatError, match=r"requires a square matrix, got \(2, 3\)"):
            format_matrix_text(np.ones((2, 3)))

    def test_deviation_reported(self):
        assert unitarity_deviation(np.diag([1.0, 2.0])) == pytest.approx(3.0)
