import numpy as np
import pytest

from csdc import (PhaseFactors, angles_to_theta, apply_bit_permutation, build_tree,
                  decompose_central, frobenius_distance, program_to_matrix, serialize)
from csdc.bitops import hadamard_transform, kron_transform, state_permutation
from csdc.central import decompose_diagonals, diagonal_costs, multiplexors
from csdc.compiler import CsdNode, TreeLevel
from csdc.csd import d_matrix
from csdc.seo import PRUNE_TOL, ROTY, rename_bits, two_qubit_gates

from conftest import (bits_of, cheaper_diagonal, complex_d_program, dense_complex_d_central,
                      dense_diagonal, dense_real_d_central, level_alias, random_complex_d, rows)


def real_d(nb, level, phi):
    """The ROTY ladder of one real D central: the core kernel on a stack of
    one row."""
    return multiplexors(nb, level, ROTY, np.asarray(phi, dtype=np.float64)[None])[0]


def diagonal_node(phases):
    """A tree node whose central is diag(exp(i phases)): row 0 of the leaf
    level nb + 1 (the levels above it are not read)."""
    nb = len(phases).bit_length() - 1
    leaf = TreeLevel(np.zeros(1, dtype=np.int64), np.full((1, 2), -1), phases=phases[None])
    return CsdNode(nb, [None] * nb + [leaf], nb + 1)


class TestAnglesToTheta:
    def test_constant_vector(self):
        assert np.array_equal(angles_to_theta([90.0, 90.0, 90.0, 90.0]),
                              [90.0, 0.0, 0.0, 0.0])

    def test_round_trip(self, rng):
        phi = rng.uniform(-180, 180, 8)
        theta = angles_to_theta(phi)
        assert np.allclose(hadamard_transform(theta), phi, atol=1e-12)

    def test_quarter_hadamard_identity(self, rng):
        from csdc import sylvester_hadamard
        phi = rng.uniform(-90, 90, 4)
        expected = sylvester_hadamard(2).real @ phi / 4
        assert np.allclose(angles_to_theta(phi), expected, atol=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            angles_to_theta([1.0, 2.0, 3.0])


class TestDecomposeRealD:
    def test_golden_sequence_nb3_level1(self, rng):
        phi = rng.uniform(5, 85, 4)  # distinct, far from zero
        prog = real_d(3, 1, phi)
        theta = angles_to_theta(phi)
        kinds = [(k, t, tuple(bits_of(m))) for k, t, m, _v, _a in rows(prog)]
        assert kinds == [
            ("ROTY", 2, ()), ("CNOT", 2, (1,)),
            ("ROTY", 2, ()), ("CNOT", 2, (0,)),
            ("ROTY", 2, ()), ("CNOT", 2, (1,)),
            ("ROTY", 2, ()), ("CNOT", 2, (0,)),
        ]
        angles = [a for k, _t, _m, _v, a in rows(prog) if k == "ROTY"]
        assert np.allclose(angles, [theta[0b00], theta[0b10], theta[0b11], theta[0b01]])

    def test_all_zero_angles_empty(self):
        assert len(real_d(3, 1, np.zeros(4))) == 0

    def test_equal_angles_single_rotation(self):
        prog = real_d(3, 1, [25.0] * 4)
        assert serialize(prog) == "ROTY 2 25\n"

    def test_nb1(self):
        prog = real_d(1, 1, [33.0])
        assert serialize(prog) == "ROTY 0 33\n"

    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_dense_oracle_every_level(self, rng, nb):
        for level in range(1, nb + 1):
            for _ in range(5):
                phi = rng.uniform(-180, 180, 1 << (nb - 1))
                got = program_to_matrix(real_d(nb, level, phi))
                assert frobenius_distance(got, dense_real_d_central(nb, level, phi)) < 1e-10

    def test_cnot_budget(self, rng):
        phi = rng.uniform(5, 85, 8)
        prog = real_d(4, 1, phi)
        cnots = sum(1 for r in rows(prog) if r[0] == "CNOT")
        assert cnots <= 8

    def test_level_alias_equivalence(self, rng):
        nb = 3
        phi = rng.uniform(-90, 90, 4)
        base = program_to_matrix(real_d(nb, 1, phi))
        for level in (2, 3):
            aliased = program_to_matrix(real_d(nb, level, phi))
            moved = apply_bit_permutation(level_alias(nb, level), base)
            assert frobenius_distance(aliased, moved) < 1e-12


class TestLevelAlias:
    def test_level1_identity(self):
        assert level_alias(4, 1).mapping == (0, 1, 2, 3)

    def test_level_moves_rotation_bit(self):
        p = level_alias(3, 3)
        assert p(2) == 0 and p(0) == 1 and p(1) == 2

    def test_state_relabeling_realizes_direct_sum(self, rng):
        # A level-2 direct sum equals the relabeled rotation-on-top form.
        phi = rng.uniform(-90, 90, 4)
        top = dense_real_d_central(3, 1, phi)
        summed = dense_real_d_central(3, 2, phi)
        g = state_permutation(level_alias(3, 2))
        assert frobenius_distance(g @ top @ g.conj().T, summed) < 1e-12


def pruned_angles(rng, nb):
    """Rotation angles whose transformed angles are about half exact zeros
    (pruned, so neighbouring c-nots merge) and half random."""
    theta = rng.uniform(-90, 90, 1 << (nb - 1))
    theta[rng.random(theta.size) < 0.5] = 0.0
    return hadamard_transform(theta)


def right_angle_patterns(nb):
    """(pattern, angles) of cores whose angles are all 0° or 90°: none at 90°,
    all at 90°, the half one control bit of either polarity selects at every
    delta, and a pattern no single control selects."""
    idx = np.arange(1 << (nb - 1))
    out = [("none", np.zeros(idx.size)), ("all", np.full(idx.size, 90.0))]
    for delta in range(nb - 1):
        for pol in (1, 0):
            out.append(("one", np.where(((idx >> delta) & 1) == pol, 90.0, 0.0)))
    if nb >= 3:
        out.append(("other", np.where(idx == 0, 90.0, 0.0)))
    return out


class TestFinalBitPositions:
    """Every level is emitted at its final bit positions: the same program as
    the level-1 one renamed through level_alias, exactly."""

    @pytest.mark.parametrize("nb", range(1, 9))
    def test_real_d_equals_renamed_level_one(self, rng, nb):
        for _ in range(3):
            phi = pruned_angles(rng, nb)
            top = real_d(nb, 1, phi)
            for level in range(1, nb + 1):
                got = real_d(nb, level, phi)
                assert got == rename_bits(top, level_alias(nb, level))

    @pytest.mark.parametrize("nb", range(1, 9))
    def test_right_angle_equals_renamed_level_one(self, nb):
        """Cores of 0° and 90° only take the same ladder as any other core:
        the compiled D matrix of these angles is one tree node, whose
        program is the ladder."""
        for pattern, phi in right_angle_patterns(nb):
            top = decompose_central(build_tree(d_matrix(phi)))
            assert top == real_d(nb, 1, phi)
            if pattern == "none":
                assert len(top) == 0
            elif pattern == "all":
                assert rows(top) == [("ROTY", nb - 1, 0, 0, 90.0)]
            for level in range(1, nb + 1):
                got = real_d(nb, level, phi)
                assert got == rename_bits(top, level_alias(nb, level))
                if nb <= 4:
                    assert frobenius_distance(program_to_matrix(got),
                                              dense_real_d_central(nb, level, phi)) < 1e-12


class TestDecomposeDiagonal:
    def test_nb2_rotz_chain_structure(self, rng):
        phi = rng.uniform(10, 170, 4)
        prog = decompose_diagonals(phi[None], "rotz-chain")[0]
        kinds = [(r[0], r[1]) for r in rows(prog)]
        assert kinds == [("PHAS", -1), ("ROTZ", 1), ("CNOT", 0), ("ROTZ", 0),
                         ("CNOT", 0), ("ROTZ", 0)]
        got = program_to_matrix(prog)
        assert frobenius_distance(got, dense_diagonal(phi)) < 1e-12

    def test_constant_phases_single_phas(self):
        prog = decompose_diagonals(np.full((1, 4), 17.0), "rotz-chain")[0]
        assert serialize(prog) == "PHAS 17\n"

    def test_fft_coupling_is_single_cpha(self):
        # diag phase 45deg exactly on states with bits 0 and 2 set.
        phi = np.array([45.0 if (s >> 0 & 1) and (s >> 2 & 1) else 0.0
                        for s in range(8)])
        prog = decompose_diagonals(phi[None], "controlled-phase")[0]
        assert serialize(prog) == "CPHA 0 T 2 T 45\n"

    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_modes_agree(self, rng, nb):
        for _ in range(5):
            phi = rng.uniform(-180, 180, 1 << nb)
            a = program_to_matrix(decompose_diagonals(phi[None], "rotz-chain")[0])
            b = program_to_matrix(decompose_diagonals(phi[None], "controlled-phase")[0])
            assert frobenius_distance(a, dense_diagonal(phi)) < 1e-10
            assert frobenius_distance(b, dense_diagonal(phi)) < 1e-10

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            decompose_diagonals(np.zeros((1, 2)), "bogus")

    @pytest.mark.parametrize("extract_phases", [True, False])
    def test_expansion_picks_the_cheaper_form(self, rng, extract_phases):
        # A dense diagonal's CPHAs cost 6 * 1 + 4 * 6 + 14 = 44 two-qubit
        # gates once expanded (2, 3 and 4 controls); its rotz chain costs 14.
        phi = rng.uniform(-180, 180, 16)
        chain = decompose_diagonals(phi[None], "rotz-chain")[0]
        assert cheaper_diagonal(phi, extract_phases) == chain
        # One CPHA on two bits costs 1 as a controlled phase, 2 as a chain.
        phi = np.where(np.arange(16) & 0b1010 == 0b1010, 45.0, 0.0)
        cpha = decompose_diagonals(phi[None], "controlled-phase")[0]
        assert cheaper_diagonal(phi, extract_phases) == cpha

    @pytest.mark.parametrize("extract_phases, mode", [(True, "controlled-phase"),
                                                      (False, "rotz-chain")])
    def test_expansion_tie_keeps_the_form_extract_phases_picks(self, rng, extract_phases,
                                                               mode):
        # Single-bit terms only: neither form has a two-qubit gate.
        phi = (rng.uniform(-90, 90, 4)[:, None] * ((np.arange(16) >> np.arange(4)[:, None]) & 1)
               ).sum(axis=0)
        got = cheaper_diagonal(phi, extract_phases)
        assert got == decompose_diagonals(phi[None], mode)[0]
        assert got == decompose_central(diagonal_node(phi), extract_phases)


class TestDiagonalCosts:
    """The closed-form costs equal what two_qubit_gates counts on each form."""

    @staticmethod
    def emitted(phases):
        return tuple(two_qubit_gates(decompose_diagonals(phases[None], mode)[0])
                     for mode in ("rotz-chain", "controlled-phase"))

    @pytest.mark.parametrize("nb", range(1, 8))
    def test_dense_and_sparse_diagonals(self, rng, nb):
        n = 1 << nb
        cases = [rng.uniform(-180, 180, n)]
        for k in (1, 2, 3):
            coef = np.zeros(n)
            coef[rng.choice(n, size=min(k, n), replace=False)] = rng.uniform(-90, 90, min(k, n))
            # a few number-operator terms, then a few sigma_z terms
            cases += [kron_transform(coef, "zeta"), kron_transform(coef, "walsh")]
        for phases in cases:
            assert diagonal_costs(phases) == self.emitted(phases)
        assert diagonal_costs(cases[0]) == (n - 2, self.emitted(cases[0])[1])

    @pytest.mark.parametrize("scale", [-1.0, 1.0, 1.0 + 1e-3], ids=["-tol", "tol", "above"])
    def test_coefficients_at_the_prune_tolerance(self, scale):
        for nb in (2, 3, 4):
            n = 1 << nb
            for subset in range(1, n):
                coef = np.zeros(n)
                coef[subset] = scale * PRUNE_TOL
                for kind in ("zeta", "walsh"):
                    phases = kron_transform(coef, kind)
                    assert diagonal_costs(phases) == self.emitted(phases)
                if scale > 1.0 and bin(subset).count("1") == 2:
                    assert diagonal_costs(kron_transform(coef, "zeta"))[1] == 1

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_cpha_pruned_at_its_ladder_angle(self, m):
        n = 1 << m
        for scale, cost in ((1.0 - 1e-3, 0), (1.0, None), (1.0 + 1e-3, n - 2)):
            coef = np.zeros(n)
            coef[n - 1] = scale * PRUNE_TOL * n   # |theta| / 2**m at PRUNE_TOL
            phases = kron_transform(coef, "zeta")
            got = diagonal_costs(phases)
            assert got == self.emitted(phases)
            assert cost is None or got[1] == cost


class TestDecomposeComplexD:
    def test_zero_phases_reduces_to_real_output(self, rng):
        thetas = rng.uniform(0, 90, 2)
        z = np.zeros(2)
        real = multiplexors(2, 1, ROTY, thetas[None])[0]
        assert complex_d_program(2, 1, PhaseFactors(z, z, z, thetas)) == real

    def test_pure_global_phase_block(self):
        pf = PhaseFactors(omega=np.array([90.0]), omega_l=np.zeros(1),
                          omega_r=np.zeros(1), thetas=np.zeros(1))
        prog = complex_d_program(1, 1, pf)
        assert serialize(prog) == "PHAS 90\n"

    @pytest.mark.parametrize("nb,level", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
    def test_dense_oracle(self, rng, nb, level):
        for _ in range(5):
            f = random_complex_d(rng, nb, level)
            for extract_phases in (True, False):
                got = program_to_matrix(complex_d_program(nb, level, f, extract_phases))
                assert frobenius_distance(got, dense_complex_d_central(nb, level, f)) < 1e-10

