import sys
from dataclasses import replace

import numpy as np
import pytest

from csdc import (CompileOptions, NotUnitaryError, PhaseFactors, build_tree, compile_unitary,
                  compiler, expand_controls, frobenius_distance, hadamard_input, is_complex_d,
                  pad_to_power_of_two, program_to_matrix)
from csdc.cli import ROUND_TRIP_TOL
from csdc.central import multiplexors, side_phases
from csdc.compiler import (IDENTITY_TOL, TreeLevel, _carry_phases, _emit_level, _split_level,
                           program_for_tree)
from csdc.csd import STRUCTURE_TOL, csd_stack, lighten_stack
from csdc.reference import dft_matrix
from csdc.seo import ROTY, concat, gather, serialize

from conftest import (bits_of, block_diag, cheaper_diagonal, dense_central,
                      dense_complex_d_block, dense_complex_d_central, dense_diagonal,
                      dense_real_d_block, kron_program_matrix, near_structure_inputs, qft_input,
                      random_complex_d, random_phase_factors, random_unitary, rows,
                      two_bit_rows, walk, width)

DEFAULTS = CompileOptions()
PLAIN = CompileOptions(lighten=False, extract_phases=False)


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

    def test_rejects_non_square(self):
        for pad_or_compile in (pad_to_power_of_two, compile_unitary):
            with pytest.raises(ValueError, match="square matrix"):
                pad_or_compile(np.ones((2, 3)))


class TestBuildTree:
    def test_identity_single_node_empty_program(self):
        root = build_tree(np.eye(8), DEFAULTS)
        assert root.left is None and root.right is None
        lv = root.levels[0]
        assert lv.phases is None and not lv.factors.phased()[root.index]
        assert np.allclose(lv.factors.thetas[root.index], 0, atol=1e-9)
        assert len(program_for_tree(root, DEFAULTS)) == 0

    def test_real_d_input_root_only(self):
        root = build_tree(dense_real_d_block([30.0, 30.0, 60.0, 60.0]), DEFAULTS)
        assert root.left is None and root.right is None

    def test_dft_tree_degenerates_to_string(self):
        for nb in (2, 3, 4):
            root = build_tree(qft_input(nb), DEFAULTS)
            assert all(n.left is None or n.right is None for n in tree_nodes(root))
            assert len(tree_nodes(root)) == nb

    def test_node_count_bound(self, rng):
        for nb in (2, 3):
            u = random_unitary(rng, 1 << nb)
            for opts in (DEFAULTS, PLAIN):
                root = build_tree(u, opts)
                assert len(tree_nodes(root)) <= (1 << (nb + 1)) - 1

    @pytest.mark.parametrize("u", ["haar", "uxi", "qft"])
    def test_keys_link_every_row_once(self, rng, u):
        # left and right find each child by key: every row of every level is
        # reached exactly once, and the walk is sorted by key; within a level
        # the keys strictly descend, which the lookup relies on
        nb = 4
        u = {"haar": lambda: random_unitary(rng, 16), "qft": lambda: qft_input(nb),
             "uxi": lambda: np.kron(random_unitary(rng, 4), np.eye(4))}[u]()
        for opts in (DEFAULTS, PLAIN):
            root = build_tree(u, opts)
            rows = [(n.level, n.index) for n in walk(root)]
            assert sorted(rows) == [(L, i) for L, lv in enumerate(root.levels, 1)
                                    for i in range(len(lv.key))]
            keys = [int(root.levels[L - 1].key[i]) for L, i in rows]
            assert keys == sorted(keys)
            assert all((np.diff(lv.key) < 0).all() for lv in root.levels)

    def test_plain_options_build_full_tree(self, rng):
        root = build_tree(random_unitary(rng, 4), PLAIN)
        assert len(tree_nodes(root)) == 7

    def test_rejects_non_power_of_two(self, rng):
        with pytest.raises(ValueError):
            build_tree(random_unitary(rng, 6), DEFAULTS)

    def test_rejects_non_unitary_with_typed_error(self):
        with pytest.raises(NotUnitaryError):
            build_tree(np.diag([1.0, 1.0, 1.0, 2.0]), DEFAULTS)


class TestSplitLevel:
    # Below the 8e-14 off-diagonal entries of the both-folded matrix's sides,
    # which the matrix sums to more than that: it is not complex D within it.
    STRUCTURE_TOL = 1e-13

    @pytest.fixture(autouse=True)
    def tight_structure(self, monkeypatch):
        for module in (sys.modules["csdc.csd"], compiler):
            monkeypatch.setattr(module, "STRUCTURE_TOL", self.STRUCTURE_TOL)

    def level(self, rng):
        """4x4 matrices, one per D-block path and eight plain ones, each with
        (aborted, phased, left side identity, right side identity) as the
        split should find them."""
        def phases():
            return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2)))

        near = np.array([[1.0, 8e-14], [-8e-14, 1.0]])
        d = dense_real_d_block([20.0, 35.0])
        f = random_phase_factors(rng, 2)
        return [
            ("aborted, phased", dense_complex_d_block(f.omega, f.omega_l, f.omega_r, f.thetas),
             (True, True, True, True)),
            ("aborted, real", dense_real_d_block([25.0, 70.0]) * np.exp(1e-14j),
             (True, False, True, True)),
            ("left-folded", block_diag([phases(), phases()]) @ d
             @ block_diag([random_unitary(rng, 2), random_unitary(rng, 2)]),
             (False, True, True, False)),
            ("right-folded", block_diag([random_unitary(rng, 2), random_unitary(rng, 2)]) @ d
             @ block_diag([phases(), phases()]),
             (False, True, False, True)),
            ("both-folded", block_diag([phases() @ near, phases() @ near]) @ d
             @ block_diag([near @ phases(), near @ phases()]),
             (False, True, True, True)),
        ] + [("plain", random_unitary(rng, 4), (False, False, False, False)) for _ in range(8)]

    def test_every_path_rebuilds_its_matrix(self, rng):
        cases = self.level(rng)
        mats = np.stack([m for _, m, _ in cases])
        pf, lefts, rights, left_identity, right_identity = _split_level(mats, DEFAULTS)
        phased = pf.phased()
        for i, (name, m, want) in enumerate(cases):
            got = (is_complex_d(m), bool(phased[i]),
                   bool(left_identity[i]), bool(right_identity[i]))
            assert got == want, name
            d = dense_complex_d_block(pf.omega[i], pf.omega_l[i], pf.omega_r[i], pf.thetas[i])
            rebuilt = block_diag(list(lefts[i])) @ d @ block_diag(list(rights[i]))
            assert np.abs(rebuilt - m).max() < 1e-12, name
        # plain CSD blocks keep the factorization's angles, bit for bit
        plain = lighten_stack(csd_stack(mats[5:])).thetas
        assert np.array_equal(pf.thetas[5:], plain)

    def test_phases_read_only_off_aborted_and_folded_blocks(self, rng, monkeypatch):
        calls = []

        def counted(*blocks):
            calls.append(blocks[0].shape[0])
            return phase_parameters(*blocks)

        phase_parameters = compiler.phase_parameters
        monkeypatch.setattr(compiler, "phase_parameters", counted)
        pf = _split_level(np.stack([random_unitary(rng, 4) for _ in range(6)]), DEFAULTS)[0]
        assert calls == [] and not pf.phased().any()
        _split_level(np.stack([m for _, m, _ in self.level(rng)]), DEFAULTS)
        assert calls == [5]   # the two aborted and three folded blocks, in one call


class TestSideMasks:
    @staticmethod
    def two_formulas(sides):
        """The identity mask as max |x - δ| and the diagonal mask as max |x|
        off the diagonal, each from its own pass."""
        identity = np.abs(sides - np.eye(sides.shape[-1])).max(axis=(1, 2, 3)) <= IDENTITY_TOL
        mag = np.abs(sides)
        j = np.arange(sides.shape[-1])
        mag[..., j, j] = 0.0
        return identity, mag.max(axis=(1, 2, 3)) <= STRUCTURE_TOL

    def test_one_pass_equals_the_two_formulas(self, rng):
        seen = set()
        for h in (1, 2, 4, 16):
            k = 200
            shape = (k, 2, h, h)

            def noise(tol):
                scale = tol * rng.uniform(0.3, 1.2, (k, 1, 1, 1))
                return scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))

            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, (k, 2, h)))
            stacks = [
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                np.eye(h) + noise(IDENTITY_TOL),
                phases[..., None] * np.eye(h) + noise(STRUCTURE_TOL),
                np.eye(h) + noise(STRUCTURE_TOL),
            ]
            edge = np.broadcast_to(np.eye(h, dtype=complex), shape).copy()
            edge[:k // 2, 0, -1, 0] += IDENTITY_TOL    # exactly at the tolerances
            edge[k // 2:, 1, 0, -1] -= STRUCTURE_TOL
            edge[::7, 0, 0, 0] = np.nan
            stacks.append(edge)
            for sides in stacks:
                got, want = compiler._side_masks(sides), self.two_formulas(sides)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
                seen |= {(i, bool(v)) for i, mask in enumerate(got) for v in np.unique(mask)}
        assert seen == {(0, False), (0, True), (1, False), (1, True)}


def _loose_tol_corpus() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261020)
    phased = np.eye(32)[:, rng.permutation(32)] * np.exp(1j * rng.uniform(-np.pi, np.pi, 32))
    return {"haar-n4": random_unitary(rng, 16), "dft-n5": dft_matrix(5),
            "dft-n6": dft_matrix(6), "phased-permutation-n5": phased,
            **near_structure_inputs()}


LOOSE_TOL_CORPUS = _loose_tol_corpus()


class TestStructureIgnoresTol:
    """``tol`` decides only whether the input is unitary; structure is read
    against the fixed STRUCTURE_TOL, so a looser ``tol`` gives every input
    the default program."""

    @pytest.mark.parametrize("name", sorted(near_structure_inputs()))
    def test_near_structure_round_trips_at_loose_tol(self, name):
        u = LOOSE_TOL_CORPUS[name]
        prog = compile_unitary(u, CompileOptions(tol=1e-6))
        assert frobenius_distance(u, program_to_matrix(prog)) < ROUND_TRIP_TOL

    @pytest.mark.parametrize("expand", [False, True], ids=["plain", "expand"])
    @pytest.mark.parametrize("name", sorted(LOOSE_TOL_CORPUS))
    def test_looser_tol_gives_the_default_program(self, name, expand):
        u = LOOSE_TOL_CORPUS[name]
        want = serialize(compile_unitary(u, CompileOptions(expand_controls=expand)))
        for tol in (1e-8, 1e-6):
            opts = CompileOptions(expand_controls=expand, tol=tol)
            assert serialize(compile_unitary(u, opts)) == want, tol


class TestAssemble:
    """The centrals of a tree, walked in application order (``walk``: right
    subtree, node, left subtree), multiply to its input."""

    def test_single_node(self):
        root = build_tree(np.eye(4), DEFAULTS)
        assert len(walk(root)) == 1

    def test_full_tree_has_seven_entries(self, rng):
        root = build_tree(random_unitary(rng, 4), PLAIN)
        assert len(walk(root)) == 7

    def test_dense_product_rebuilds_input(self, rng):
        for nb in (1, 2, 3, 4):
            u = random_unitary(rng, 1 << nb)
            for opts in (DEFAULTS, PLAIN):
                root = build_tree(u, opts)
                prod = np.eye(1 << nb, dtype=complex)
                for node in walk(root):  # application order: multiply from the left
                    prod = dense_central(node) @ prod
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
            assert all(width(r) <= 2 for r in rows(prog))

    def test_padded_input_round_trip(self, rng):
        u = random_unitary(rng, 3)
        padded, _ = pad_to_power_of_two(u)
        prog = compile_unitary(u)
        assert frobenius_distance(padded, program_to_matrix(prog)) < 1e-8

    def test_hadamard_counts_grow_linearly(self):
        counts = {nb: len(compile_unitary(hadamard_input(nb))) for nb in (2, 3, 4)}
        assert counts[3] - counts[2] == counts[4] - counts[3]

    def test_optimizations_shorten_named_benchmarks(self):
        for u in (hadamard_input(3), qft_input(3)):
            assert len(compile_unitary(u, DEFAULTS)) <= len(compile_unitary(u, PLAIN))

    def test_rejects_non_unitary_with_deviation(self):
        with pytest.raises(ValueError, match="deviation"):
            compile_unitary(np.diag([1.0, 3.0]))

    def test_perm_search_round_trip_and_no_worse(self, rng):
        for u in (random_unitary(rng, 4), random_unitary(rng, 8),
                  np.kron(random_unitary(rng, 2), np.eye(4)), dft_matrix(3)):
            for opts in (DEFAULTS, CompileOptions(expand_controls=True),
                         CompileOptions(extract_phases=False)):
                prog = compile_unitary(u, replace(opts, perm_search="root-exhaustive"))
                assert frobenius_distance(u, program_to_matrix(prog)) < ROUND_TRIP_TOL
                assert frobenius_distance(u, kron_program_matrix(prog)) < ROUND_TRIP_TOL
                if opts.expand_controls:
                    assert all(width(r) <= 2 for r in rows(prog))
                assert len(prog) <= len(compile_unitary(u, opts))

    def test_perm_search_helps_on_permuted_structure(self, rng):
        # A matrix acting on one bit only: some relabeling compiles it as such.
        u = np.kron(np.eye(2), np.kron(random_unitary(rng, 2), np.eye(2)))
        short = compile_unitary(u, CompileOptions(perm_search="root-exhaustive"))
        assert frobenius_distance(u, program_to_matrix(short)) < 1e-8
        assert len(short) <= len(compile_unitary(u))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_options_reject_tol_outside_positive_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            CompileOptions(tol=tol)

    @pytest.mark.parametrize("mode", ["root", "exhaustive", ""])
    def test_unknown_perm_search_rejected(self, mode):
        with pytest.raises(ValueError, match=f"unknown perm_search mode {mode!r}"):
            CompileOptions(perm_search=mode)

    def test_perm_search_nb_cap(self, monkeypatch):
        builds = []
        build = compiler._build
        monkeypatch.setattr(compiler, "_build",
                            lambda a, nb, opts: builds.append(nb) or build(a, nb, opts))
        opts = CompileOptions(perm_search="root-exhaustive")
        assert compiler.PERM_SEARCH_MAX_NB == 6
        with pytest.raises(ValueError, match="permutation search supports nb <= 6, got nb=7"):
            compile_unitary(np.eye(1 << 7), opts)
        assert builds == []   # refused before any candidate was compiled
        with pytest.raises(NotUnitaryError):
            compile_unitary(np.diag([2.0] + [1.0] * 127), opts)
        assert builds == []

    def test_generic_length_scaling(self, rng):
        # Generic inputs stay within the quadratic-in-dimension budget.
        c = max(len(compile_unitary(random_unitary(rng, 8))) for _ in range(3)) / 64
        for nb in (4, 5):
            n = len(compile_unitary(random_unitary(rng, 1 << nb)))
            assert n <= c * (1 << (2 * nb)) * 1.25


def _two_qubit_corpus() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261018)
    out = {}
    for nb in range(2, 7):
        out[f"haar-n{nb}"] = random_unitary(rng, 1 << nb)
        out[f"hadamard-n{nb}"] = hadamard_input(nb)
        out[f"qft-n{nb}"] = qft_input(nb)
        out[f"dft-n{nb}"] = dft_matrix(nb)
    for nb in range(3, 6):
        n = 1 << nb
        out[f"uxi-n{nb}"] = np.kron(random_unitary(rng, 4), np.eye(n // 4))
        out[f"ixu-n{nb}"] = np.kron(np.eye(n // 4), random_unitary(rng, 4))
        out[f"permutation-n{nb}"] = np.eye(n)[:, rng.permutation(n)]
        out[f"diagonal-n{nb}"] = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
        out[f"controlled-u-n{nb}"] = block_diag([np.eye(n // 2), random_unitary(rng, n // 2)])
    return out


TWO_QUBIT_CORPUS = _two_qubit_corpus()

# Two-qubit gates of each corpus case with expand_controls, (extract_phases on,
# off), when every diagonal was emitted on its own in its cheaper form, before
# the phases were carried through the cores.
PER_DIAGONAL_TWO_QUBIT = {
    "controlled-u-n3": (36, 60),
    "controlled-u-n4": (168, 280),
    "controlled-u-n5": (720, 1200),
    "dft-n2": (6, 6),
    "dft-n3": (20, 20),
    "dft-n4": (66, 67),
    "dft-n5": (711, 741),
    "dft-n6": (4510, 4578),
    "diagonal-n3": (7, 48),
    "diagonal-n4": (20, 224),
    "diagonal-n5": (44, 960),
    "haar-n2": (10, 10),
    "haar-n3": (76, 76),
    "haar-n4": (344, 344),
    "haar-n5": (1456, 1456),
    "haar-n6": (5984, 5984),
    "hadamard-n2": (0, 0),
    "hadamard-n3": (0, 0),
    "hadamard-n4": (0, 0),
    "hadamard-n5": (0, 0),
    "hadamard-n6": (0, 0),
    "ixu-n3": (72, 72),
    "ixu-n4": (322, 320),
    "ixu-n5": (1370, 1344),
    "permutation-n3": (54, 52),
    "permutation-n4": (284, 312),
    "permutation-n5": (1366, 1305),
    "qft-n2": (1, 1),
    "qft-n3": (3, 5),
    "qft-n4": (6, 103),
    "qft-n5": (10, 552),
    "qft-n6": (15, 2569),
    "uxi-n3": (10, 54),
    "uxi-n4": (10, 278),
    "uxi-n5": (10, 1350),
}

# Two-qubit gates of each corpus case with expand_controls, (extract_phases on,
# off), as the phase carry through the cores emits them; no case may exceed
# them.
CARRIED_TWO_QUBIT = {
    "controlled-u-n3": (29, 46),
    "controlled-u-n4": (126, 188),
    "controlled-u-n5": (510, 746),
    "dft-n2": (6, 6),
    "dft-n3": (20, 20),
    "dft-n4": (66, 67),
    "dft-n5": (557, 553),
    "dft-n6": (3118, 3117),
    "diagonal-n3": (6, 34),
    "diagonal-n4": (14, 134),
    "diagonal-n5": (30, 526),
    "haar-n2": (10, 10),
    "haar-n3": (62, 62),
    "haar-n4": (254, 254),
    "haar-n5": (1022, 1022),
    "haar-n6": (4094, 4094),
    "hadamard-n2": (0, 0),
    "hadamard-n3": (0, 0),
    "hadamard-n4": (0, 0),
    "hadamard-n5": (0, 0),
    "hadamard-n6": (0, 0),
    "ixu-n3": (58, 58),
    "ixu-n4": (230, 230),
    "ixu-n5": (910, 910),
    "permutation-n3": (46, 46),
    "permutation-n4": (205, 236),
    "permutation-n5": (856, 926),
    "qft-n2": (1, 1),
    "qft-n3": (3, 5),
    "qft-n4": (6, 70),
    "qft-n5": (10, 364),
    "qft-n6": (15, 1726),
    "uxi-n3": (10, 40),
    "uxi-n4": (10, 140),
    "uxi-n5": (10, 916),
}


class TestTwoQubitEmission:
    """With expand_controls, the phases are carried through the cores and each
    emitted diagonal takes the form that expands to fewer two-qubit gates, so
    the program never has more of them than the expansion of the program
    compiled without it, nor than when each diagonal was emitted on its own."""

    @pytest.mark.parametrize("extract_phases", [True, False], ids=["phases", "no-phases"])
    @pytest.mark.parametrize("name", sorted(TWO_QUBIT_CORPUS))
    def test_never_worse_than_expanding_afterwards(self, name, extract_phases):
        u = TWO_QUBIT_CORPUS[name]
        nb = u.shape[0].bit_length() - 1
        prog = compile_unitary(u, CompileOptions(extract_phases=extract_phases,
                                                 expand_controls=True))
        after = expand_controls(compile_unitary(u, CompileOptions(extract_phases=extract_phases)))
        assert two_bit_rows(prog) <= two_bit_rows(after)
        assert two_bit_rows(prog) <= PER_DIAGONAL_TWO_QUBIT[name][0 if extract_phases else 1]
        assert two_bit_rows(prog) <= CARRIED_TWO_QUBIT[name][0 if extract_phases else 1]
        assert all(width(r) <= 2 for r in rows(prog))
        assert frobenius_distance(u, program_to_matrix(prog)) < ROUND_TRIP_TOL
        if nb <= 4:
            assert frobenius_distance(u, kron_program_matrix(prog)) < ROUND_TRIP_TOL

    @pytest.mark.parametrize("nb", range(3, 8))
    def test_haar_costs_four_to_the_nb_minus_two(self, rng, nb):
        prog = compile_unitary(random_unitary(rng, 1 << nb), CompileOptions(expand_controls=True))
        two = [r for r in rows(prog) if width(r) == 2]
        assert len(two) == 4 ** nb - 2
        assert all(r[0] == "CNOT" and len(bits_of(r[2])) == 1 for r in two)

    @staticmethod
    def carried(nb, centrals, extract_phases=True):
        """The program that ``_carry_phases`` and the cores emit for
        ``centrals`` (in application order), after checking that it is their
        product (Kronecker oracle).  A central is (level, p): on level nb + 1
        p holds a diagonal's phases, else the PhaseFactors of a D central's
        2**(nb-1) parameters, block by block."""
        steps, cores = [], []
        want = np.eye(1 << nb)
        for key, (level, p) in enumerate(centrals):
            if level > nb:
                steps.append((4 * key, level, p, 0.0))
                want = dense_diagonal(p) @ want
                continue
            f = p.map(lambda x: x[None])
            (right,), (left,) = side_phases(nb, level, f)
            steps.append((4 * key, level, right, left))
            cores += _emit_level(nb, level, TreeLevel(np.array([4 * key]), f), extract_phases,
                                 sides=False)
            want = dense_complex_d_central(nb, level, p) @ want
        program = gather(nb, cores + _carry_phases(nb, steps, extract_phases))
        got = kron_program_matrix(expand_controls(program))
        assert frobenius_distance(want, got) < 1e-12
        return program

    def test_each_branch_at_a_core(self, rng):
        nb, states = 3, np.arange(8)
        angles = rng.uniform(1, 89, 4)
        core = (1, PhaseFactors(*np.zeros((3, 4)), angles))   # rotates bit 2
        core_rows = multiplexors(nb, 1, ROTY, angles[None])[0]
        # carry: phases free of bit 2 pass the core, which is emitted first
        phi = 30.0 * (states & 1) + 50.0 * ((states & 3) == 3)
        program = self.carried(nb, [(nb + 1, phi), core])
        assert program == concat(core_rows, cheaper_diagonal(phi))
        # flush: a two-bit phase across bit 2 is one CPHA (a rotz chain needs 2
        # c-nots), and nothing is left to carry
        phi = np.where(states & 0b101 == 0b101, 45.0, 0.0)
        program = self.carried(nb, [(nb + 1, phi), core])
        assert rows(program) == [("CPHA", -1, 0b101, 0b101, 45.0)] + rows(core_rows)
        # split: a dense phase leaves one ROTZ multiplexor on bit 2, and its
        # mean over bit 2 carries on
        phi = rng.uniform(-180, 180, 8)
        got = rows(self.carried(nb, [(nb + 1, phi), core]))
        tail = rows(core_rows) + rows(cheaper_diagonal((phi + phi[states ^ 4]) / 2))
        head = got[:len(got) - len(tail)]
        assert got[len(head):] == tail
        assert {r[0] for r in head} == {"ROTZ", "CNOT"}
        assert all(r[1] == 2 for r in head) and sum(width(r) == 2 for r in head) == 4

    @pytest.mark.parametrize("extract_phases", [True, False])
    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_mixed_centrals_match_the_oracle(self, rng, nb, extract_phases):
        centrals = [(nb + 1, rng.uniform(-180, 180, 1 << nb))]
        zero = np.zeros(1 << (nb - 1))
        for level in range(nb, 0, -1):
            angles = rng.uniform(0, 90, 1 << (nb - 1))
            centrals += [(level, PhaseFactors(zero, zero, zero, angles)),
                         (level, random_complex_d(rng, nb, level))]
        centrals.append((nb + 1, rng.uniform(-180, 180, 1 << nb)))
        self.carried(nb, centrals, extract_phases)

    def test_haar_diagonals_take_the_rotz_chain(self, rng):
        # A dense diagonal's controlled phases need a ladder per control
        # subset; its rotz chain is one ladder.
        u = random_unitary(rng, 32)
        prog = compile_unitary(u, CompileOptions(expand_controls=True))
        after = expand_controls(compile_unitary(u))
        assert 3 * two_bit_rows(prog) < two_bit_rows(after)

    def test_qft_keeps_its_controlled_phases(self):
        # Two-control phases are already elementary: the textbook circuit stays.
        u = qft_input(5)
        assert compile_unitary(u, CompileOptions(expand_controls=True)) == compile_unitary(u)
