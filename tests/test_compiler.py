import numpy as np
import pytest

from csdc import (CompileOptions, NotUnitaryError, assemble, build_tree,
                  compile_unitary, frobenius_distance, hadamard_input,
                  pad_to_power_of_two, program_to_matrix)
from csdc.bitops import bit_reversal_permutation, state_permutation
from csdc.compiler import program_for_tree
from csdc.csd import d_matrix
from csdc.reference import dft_matrix

from conftest import dense_central, random_unitary

DEFAULTS = CompileOptions()
PLAIN = CompileOptions(lighten=False, extract_phases=False)


def dft_input(nb):
    return state_permutation(bit_reversal_permutation(nb)) @ dft_matrix(nb)


def tree_nodes(root):
    out = [root]
    if root.left:
        out += tree_nodes(root.left)
    if root.right:
        out += tree_nodes(root.right)
    return out


class TestPad:
    def test_power_of_two_unchanged(self, rng):
        u = random_unitary(rng, 4)
        padded, dim = pad_to_power_of_two(u)
        assert dim == 4 and np.array_equal(padded, u)

    def test_3x3_padded(self, rng):
        u = random_unitary(rng, 3)
        padded, dim = pad_to_power_of_two(u)
        assert dim == 3 and padded.shape == (4, 4)
        assert np.array_equal(padded[:3, :3], u)
        assert padded[3, 3] == 1 and np.all(padded[3, :3] == 0)

    def test_single_phase(self):
        padded, dim = pad_to_power_of_two(np.array([[1j]]))
        assert dim == 1
        assert np.array_equal(padded, np.diag([1j, 1.0]))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            pad_to_power_of_two(np.ones((3, 3)))

    def test_non_unitary_error_is_typed(self):
        with pytest.raises(NotUnitaryError):
            pad_to_power_of_two(np.ones((3, 3)))


class TestBuildTree:
    def test_identity_single_node_empty_program(self):
        root = build_tree(np.eye(8), DEFAULTS)
        assert root.left is None and root.right is None
        assert root.central.variant == "realD"
        assert np.allclose(root.central.angles, 0, atol=1e-9)
        assert len(program_for_tree(root, DEFAULTS)) == 0

    def test_real_d_input_root_only(self):
        root = build_tree(d_matrix([30.0, 30.0, 60.0, 60.0]), DEFAULTS)
        assert root.left is None and root.right is None

    def test_dft_tree_degenerates_to_string(self):
        for nb in (2, 3, 4):
            root = build_tree(dft_input(nb), DEFAULTS)
            assert all(n.child_count() <= 1 for n in tree_nodes(root))
            assert len(tree_nodes(root)) == nb

    def test_node_count_bound(self, rng):
        for nb in (2, 3):
            u = random_unitary(rng, 1 << nb)
            for opts in (DEFAULTS, PLAIN):
                root = build_tree(u, opts)
                assert root.node_count() <= (1 << (nb + 1)) - 1

    def test_plain_options_build_full_tree(self, rng):
        root = build_tree(random_unitary(rng, 4), PLAIN)
        assert root.node_count() == 7

    def test_rejects_non_power_of_two(self, rng):
        with pytest.raises(ValueError):
            build_tree(random_unitary(rng, 6), DEFAULTS)

    def test_rejects_non_unitary_with_typed_error(self):
        with pytest.raises(NotUnitaryError):
            build_tree(np.diag([1.0, 1.0, 1.0, 2.0]), DEFAULTS)


class TestAssemble:
    def test_single_node(self):
        root = build_tree(np.eye(4), DEFAULTS)
        assert len(assemble(root)) == 1

    def test_full_tree_has_seven_entries(self, rng):
        root = build_tree(random_unitary(rng, 4), PLAIN)
        assert len(assemble(root)) == 7

    def test_dense_product_rebuilds_input(self, rng):
        for nb in (1, 2, 3, 4):
            u = random_unitary(rng, 1 << nb)
            for opts in (DEFAULTS, PLAIN):
                entries = assemble(build_tree(u, opts))
                assert all(perm is None for _, perm in entries)
                prod = np.eye(1 << nb, dtype=complex)
                for central, _ in entries:  # application order: multiply from the left
                    prod = dense_central(central) @ prod
                assert frobenius_distance(prod, u) < 1e-9


class TestCompile:
    def test_identity_is_empty(self):
        assert len(compile_unitary(np.eye(4))) == 0

    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_round_trip_defaults(self, rng, nb):
        for _ in range(8):
            u = random_unitary(rng, 1 << nb)
            prog = compile_unitary(u)
            assert prog.nb == nb
            assert frobenius_distance(u, program_to_matrix(prog)) < 1e-8

    @pytest.mark.parametrize("opts", [
        CompileOptions(lighten=False),
        CompileOptions(extract_phases=False),
        PLAIN,
        CompileOptions(expand_controls=True),
    ], ids=["no-lighten", "no-phases", "plain", "expand"])
    def test_round_trip_option_combos(self, rng, opts):
        u = random_unitary(rng, 8)
        prog = compile_unitary(u, opts)
        assert frobenius_distance(u, program_to_matrix(prog)) < 1e-8
        if opts.expand_controls:
            assert all(len(i.bits()) <= 2 for i in prog)

    def test_padded_input_round_trip(self, rng):
        u = random_unitary(rng, 3)
        padded, _ = pad_to_power_of_two(u)
        prog = compile_unitary(u)
        assert frobenius_distance(padded, program_to_matrix(prog)) < 1e-8

    def test_hadamard_counts_grow_linearly(self):
        counts = {nb: len(compile_unitary(hadamard_input(nb))) for nb in (2, 3, 4)}
        assert counts[3] - counts[2] == counts[4] - counts[3]

    def test_optimizations_shorten_named_benchmarks(self):
        for u in (hadamard_input(3), dft_input(3)):
            assert len(compile_unitary(u, DEFAULTS)) <= len(compile_unitary(u, PLAIN))

    def test_rejects_non_unitary_with_deviation(self):
        with pytest.raises(ValueError, match="deviation"):
            compile_unitary(np.diag([1.0, 3.0]))

    def test_perm_search_round_trip_and_no_worse(self, rng):
        u = random_unitary(rng, 4)
        opts = CompileOptions(perm_search="root-exhaustive")
        prog = compile_unitary(u, opts)
        assert frobenius_distance(u, program_to_matrix(prog)) < 1e-8
        assert len(prog) <= len(compile_unitary(u))

    def test_perm_search_helps_on_permuted_structure(self, rng):
        # A matrix acting on one bit only: some relabeling compiles it as such.
        u = np.kron(np.eye(2), np.kron(random_unitary(rng, 2), np.eye(2)))
        short = compile_unitary(u, CompileOptions(perm_search="root-exhaustive"))
        assert frobenius_distance(u, program_to_matrix(short)) < 1e-8
        assert len(short) <= len(compile_unitary(u))

    def test_perm_search_nb_cap(self):
        opts = CompileOptions(perm_search="root-exhaustive")
        with pytest.raises(ValueError, match="perm"):
            build_tree(np.eye(1 << 9), opts)

    def test_generic_length_scaling(self, rng):
        # Generic inputs stay within the quadratic-in-dimension budget.
        c = max(len(compile_unitary(random_unitary(rng, 8))) for _ in range(3)) / 64
        for nb in (4, 5):
            n = len(compile_unitary(random_unitary(rng, 1 << nb)))
            assert n <= c * (1 << (2 * nb)) * 1.25
