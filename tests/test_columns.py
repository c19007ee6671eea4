"""The column representation of a program: its rows, text I/O, the column
stages against per-instruction definitions, validation and the dense guard."""
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdc import (BitPermutation, DenseTooLargeError, Program, central, cli, compiler,
                  expand_controls, hadamard_input, matrices, parse, program_to_matrix, seo,
                  serialize)
from csdc.seo import KINDS, SeoParseError, concat, rename_bits

from conftest import (concat_by_rows, dense_complex_d_block, kron_program_matrix,
                      program_of_rows, random_phase_factors, random_program, random_unitary,
                      rename_by_rows, rows, width)

ANGLES = st.floats(-720, 720, allow_nan=False, allow_infinity=False)


@st.composite
def instructions(draw, nb):
    """One (kind name, target, ctrl_mask, ctrl_val, angle) row on nb bits."""
    kind = draw(st.sampled_from(KINDS if nb >= 2 else ("ROTY", "ROTZ", "SIGX", "PHAS", "CPHA")))
    if kind == "PHAS":
        return (kind, -1, 0, 0, draw(ANGLES))
    if kind in ("ROTY", "ROTZ", "SIGX"):
        angle = 0.0 if kind == "SIGX" else draw(ANGLES)
        return (kind, draw(st.integers(0, nb - 1)), 0, 0, angle)
    first = 1 if kind == "CNOT" else 0
    bits = draw(st.lists(st.integers(0, nb - 1), min_size=first + 1, max_size=nb, unique=True))
    mask = sum(1 << b for b in bits[first:])
    val = sum(1 << b for b in bits[first:] if draw(st.booleans()))
    if kind == "CNOT":
        return (kind, bits[0], mask, val, 0.0)
    return (kind, -1, mask, val, draw(ANGLES))


@st.composite
def programs(draw, max_nb=6, max_len=12):
    nb = draw(st.integers(1, max_nb))
    return program_of_rows(nb, draw(st.lists(instructions(nb), max_size=max_len)))


class TestRowView:
    """A row is one index into the five columns: one line of SEO text."""

    @given(st.integers(1, 6).flatmap(
        lambda nb: st.tuples(st.just(nb), st.lists(instructions(nb), max_size=12))))
    @settings(max_examples=80, deadline=None)
    def test_rows_round_trip(self, nb_rows):
        # The constructor accepts every well-formed row and stores it as given.
        nb, given_rows = nb_rows
        assert rows(program_of_rows(nb, given_rows)) == given_rows

    def test_controls_listed_in_bit_order(self):
        assert serialize(parse("CNOT 3 F 1 T 0")) == "CNOT 1 T 3 F 0\n"

    def test_columns_of_a_row(self):
        p = parse("CNOT 0 T 2 F 1\nCPHA 3 F 2 T 45\nPHAS 10\nSIGX 1")
        assert p.kind.tolist() == [seo.CNOT, seo.CPHA, seo.PHAS, seo.SIGX]
        assert p.target.tolist() == [1, -1, -1, 1]
        assert p.ctrl_mask.tolist() == [0b101, 0b1100, 0, 0]
        assert p.ctrl_val.tolist() == [0b001, 0b0100, 0, 0]
        assert p.angle.tolist() == [0.0, 45.0, 10.0, 0.0]
        assert p.count_by_kind() == {"ROTY": 0, "ROTZ": 0, "SIGX": 1, "CNOT": 1,
                                     "PHAS": 1, "CPHA": 1}

    def test_equality_compares_nb_and_columns(self):
        assert parse("ROTY 0 30", nb=2) == parse("ROTY 0 30", nb=2)
        assert parse("ROTY 0 30", nb=2) != parse("ROTY 0 30", nb=3)
        assert parse("ROTY 0 30", nb=2) != parse("ROTY 0 31", nb=2)


class TestText:
    @given(programs())
    @settings(max_examples=80, deadline=None)
    def test_serialize_parse_serialize(self, p):
        text = serialize(p)
        assert serialize(parse(text, nb=p.nb)) == text
        assert serialize(parse(text)) == text

    def test_cached_prefix_reports_later_bad_angle(self):
        with pytest.raises(SeoParseError, match="line 2: angle must be finite"):
            parse("ROTY 0 45\nROTY 0 nan")

    def test_cached_prefix_keeps_token_count_check(self):
        with pytest.raises(SeoParseError, match="line 3: ROTY takes a target and an angle"):
            parse("ROTY 0 45\nROTY 0 46\nROTY 0 4\t5")

    def test_cached_line_out_of_range_for_given_nb(self):
        with pytest.raises(SeoParseError, match="line 1: bit 2 out of range for nb=2"):
            parse("CNOT 2 T 0\nCNOT 2 T 0", nb=2)

    def test_bit_beyond_mask_width(self):
        with pytest.raises(SeoParseError, match="line 1: bit index must be below 63"):
            parse("SIGX 63")

    def test_irregular_spacing(self):
        assert parse("  ROTY   0\t45 \n\tCNOT 1 T  0") == parse("ROTY 0 45\nCNOT 1 T 0")


class TestColumnStages:
    @given(st.lists(programs(max_nb=5, max_len=6), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_concat_matches_rows(self, progs):
        assert concat(*progs) == concat_by_rows(*progs)

    @given(programs(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_rename_matches_rows(self, p, rnd):
        mapping = list(range(p.nb))
        rnd.shuffle(mapping)
        assert rename_bits(p, BitPermutation(p.nb, mapping)) == rename_by_rows(p, mapping)

    # A map that lands two bits on one is not a BitPermutation, so a rename
    # can never merge a target and a control, or two controls.
    def test_rename_rejects_colliding_bits(self):
        with pytest.raises(ValueError, match="not a bijection"):
            rename_bits(parse("CNOT 0 T 1"), BitPermutation(2, [0, 0]))

    @pytest.mark.parametrize("text, mapping", [
        ("CNOT 0 T 1 F 2", [0, 0, 2]),
        ("CPHA 0 T 1 T 45", [1, 1]),
        ("ROTY 2 5\nCPHA 0 F 1 T 2 T 45", [0, 2, 2]),
    ])
    def test_rename_rejects_controls_landing_on_one_bit(self, text, mapping):
        with pytest.raises(ValueError, match="not a bijection"):
            rename_bits(parse(text), BitPermutation(len(mapping), mapping))

    @pytest.mark.parametrize("nb", [2, 4])
    def test_rename_rejects_permutation_of_other_size(self, nb):
        with pytest.raises(ValueError, match=f"permutation of {nb} bits .* program on 3 bits"):
            rename_bits(parse("CNOT 0 T 1\nROTY 2 5"), BitPermutation(nb, range(nb)))

    @given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_expand_controls_matches_kron(self, nb, length, seed):
        p = random_program(np.random.default_rng(seed), nb, length, max_controls=3)
        ex = expand_controls(p)
        assert all(width(r) <= 2 for r in rows(ex))
        assert np.abs(kron_program_matrix(ex) - kron_program_matrix(p)).max() < 1e-12

    def test_expansion_template_scales_with_angle(self):
        p = parse("CPHA 0 T 1 F 2 T 40\nCPHA 0 T 1 F 2 T -8\nCPHA 0 T 1 F 2 T 1e-11")
        ex = expand_controls(p)
        one = [expand_controls(parse(line, nb=3)) for line in serialize(p).splitlines()]
        assert ex == concat(*one)
        assert one[2].count_by_kind() == {"ROTY": 0, "ROTZ": 0, "SIGX": 2, "CNOT": 0,
                                          "PHAS": 0, "CPHA": 0}
        assert np.array_equal(one[1].angle, one[0].angle * (-8 / 40))


def test_simulator_plans_tell_control_values_apart():
    # Same target and control mask, different control values: each needs its
    # own cached index plan.
    p = parse("ROTY 0 20\nROTY 1 35\nROTY 2 50\nCPHA 0 T 1 T 30\nCPHA 0 F 1 T 50\n"
              "CNOT 0 T 1 F 2\nCNOT 0 F 1 F 2\nCNOT 0 F 1 T 2\nROTY 2 15", nb=3)
    assert np.abs(program_to_matrix(p) - kron_program_matrix(p)).max() < 1e-12


def _columns(**change):
    """Columns of the valid program CNOT 0 T 2 (nb 3), with some replaced."""
    cols = dict(kind=[seo.CNOT], target=[2], ctrl_mask=[1], ctrl_val=[1], angle=[0.0])
    cols.update(change)
    return cols


class TestValidation:
    def test_valid_columns(self):
        assert serialize(Program(3, **_columns())) == "CNOT 0 T 2\n"

    @pytest.mark.parametrize("change, message", [
        (dict(kind=[6]), "kind codes"),
        (dict(kind=[-1]), "kind codes"),
        (dict(kind=[256]), "kind codes"),
        (dict(target=[-1]), "target bit iff"),
        (dict(kind=[seo.CPHA], angle=[5.0]), "target bit iff"),
        (dict(target=[3]), "target bit out of range"),
        (dict(kind=[seo.CPHA], target=[-2], angle=[5.0]), "target bit out of range"),
        (dict(ctrl_mask=[1 | 8], ctrl_val=[1]), "control bit out of range"),
        (dict(ctrl_mask=[-1], ctrl_val=[0]), "control bit out of range"),
        (dict(ctrl_val=[3]), "subset of the control mask"),
        (dict(ctrl_mask=[1 | 4], ctrl_val=[1]), "target is also a control"),
        (dict(ctrl_mask=[0], ctrl_val=[0]), "at least one control"),
        (dict(kind=[seo.SIGX]), "at least one control iff"),
        (dict(kind=[seo.ROTY], ctrl_mask=[0], ctrl_val=[0], angle=[np.inf]), "finite angle"),
        (dict(kind=[seo.ROTY], ctrl_mask=[0], ctrl_val=[0], angle=[np.nan]), "finite angle"),
        (dict(angle=[1.0]), "carries no angle"),
        (dict(kind=[seo.PHAS], target=[-1], angle=[5.0]), "at least one control iff"),
    ])
    def test_rule_rejects_bad_column(self, change, message):
        with pytest.raises(ValueError, match=message):
            Program(3, **_columns(**change))

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Program(3, **_columns(angle=[0.0, 0.0]))

    @pytest.mark.parametrize("nb", [0, 64])
    def test_nb_range(self, nb):
        with pytest.raises(ValueError, match="nb"):
            Program(nb)

    def test_first_bad_row_is_named(self):
        cols = dict(kind=[seo.SIGX, seo.SIGX], target=[0, 5], ctrl_mask=[0, 0],
                    ctrl_val=[0, 0], angle=[0.0, 0.0])
        with pytest.raises(ValueError, match="instruction 1"):
            Program(3, **cols)


class TestDenseGuard:
    """The guard refuses a dense simulation when seo.dense_peak_bytes(nb) bytes
    exceed the memory probe; the probe is patched, so nothing large is allocated."""

    NEED = seo.dense_peak_bytes(2)   # 3 * 16 * 4**2: at nb = 2 a flush chunk takes both row pairs

    @pytest.mark.parametrize("limit, ok", [(NEED, True), (NEED - 1, False)])
    def test_boundary(self, monkeypatch, limit, ok):
        monkeypatch.setattr(seo, "physical_memory_bytes", lambda: limit)
        p = parse("SIGX 1\nROTY 0 30")
        if ok:
            assert program_to_matrix(p).shape == (4, 4)
        else:
            with pytest.raises(DenseTooLargeError, match="768 bytes, more than the 767"):
                program_to_matrix(p)

    def test_bound_below_three_dense_arrays(self):
        # the bound before chunked flushes was 3 * 16 * 4**nb; from nb = 8 a
        # flush chunk's work arrays fit in one dense array
        for nb in range(1, 31):
            assert seo.dense_peak_bytes(nb) == (3 if nb <= 7 else 2) * 16 * 4 ** nb, nb

    def test_unknown_memory_does_not_guard(self, monkeypatch):
        monkeypatch.setattr(seo, "physical_memory_bytes", lambda: None)
        assert program_to_matrix(parse("SIGX 0")).shape == (2, 2)

    def test_cli_decompile_of_wide_program_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(seo, "physical_memory_bytes", lambda: 8 << 30)
        src = tmp_path / "wide.seo"
        src.write_text("SIGX 40\n")
        assert cli.main(["decompile", str(src), "-o", str(tmp_path / "m.txt")]) == 2
        err = capsys.readouterr().err
        assert "needs about" in err and "8589934592 bytes" in err


class TestUnitarityCheckedOnce:
    """The dense UᴴU check runs only where no CSD vouches for the input: on a
    complex D root, which no CSD factors, and once up front under the
    permutation search.  Any other root is accepted or rejected by its own
    ``csd_stack``, and a one-cluster CSD reuses the Gram of its L0 = Q11/c
    test as L0's side check."""

    @staticmethod
    def dense_checks(monkeypatch):
        calls = []
        original = matrices.unitarity_deviation
        for mod in (compiler, cli):
            monkeypatch.setattr(mod, "unitarity_deviation",
                                lambda a: calls.append(a.shape) or original(a))
        return calls

    def test_haar_and_spine_roots_take_no_dense_check(self, rng, monkeypatch):
        calls = self.dense_checks(monkeypatch)
        for ep in (True, False):
            opts = compiler.CompileOptions(extract_phases=ep)
            for u in (random_unitary(rng, 8), hadamard_input(3), hadamard_input(8),
                      random_unitary(rng, 6)):
                compiler.compile_unitary(u, opts)
        assert calls == []

    def test_complex_d_root_checked_once(self, rng, monkeypatch):
        calls = self.dense_checks(monkeypatch)
        u = dense_complex_d_block(*astuple(random_phase_factors(rng, 4)))
        compiler.compile_unitary(u)
        assert calls == [(8, 8)]
        calls.clear()
        # without extract_phases the root is factored, and vouched for, by csd_stack
        compiler.compile_unitary(u, compiler.CompileOptions(extract_phases=False))
        assert calls == []

    def test_perm_search_checks_once(self, rng, monkeypatch):
        calls = self.dense_checks(monkeypatch)
        opts = compiler.CompileOptions(perm_search="root-exhaustive")
        for u in (random_unitary(rng, 8),
                  dense_complex_d_block(*astuple(random_phase_factors(rng, 4)))):
            compiler.compile_unitary(u, opts)
            assert calls == [(8, 8)]
            calls.clear()

    def test_cli_compile_takes_no_dense_check(self, rng, tmp_path, monkeypatch):
        calls = self.dense_checks(monkeypatch)
        src = str(tmp_path / "u.txt")
        matrices.write_matrix_file(src, random_unitary(rng, 8))
        assert cli.main(["compile", src, "-o", str(tmp_path / "u.seo")]) == 0
        assert calls == []

    def test_one_cluster_level_makes_three_gram_calls(self, monkeypatch):
        grams, verdicts, per_level = [], [], []
        csd = sys.modules["csdc.csd"]
        gram, one_cluster, csd_stack = csd.gram_deviations, csd._one_cluster, compiler.csd_stack
        monkeypatch.setattr(csd, "gram_deviations",
                            lambda x: grams.append(x.shape) or gram(x))

        def one_cluster_counted(q11, q21):
            got = one_cluster(q11, q21)
            verdicts.append(got[0] is not None)
            return got

        def counted(mats, tol):
            before = len(grams)
            out = csd_stack(mats, tol)
            per_level.append(len(grams) - before)
            return out
        monkeypatch.setattr(csd, "_one_cluster", one_cluster_counted)
        monkeypatch.setattr(compiler, "csd_stack", counted)
        for nb in (3, 8):     # 8 reaches the ZHERK path
            compiler.compile_unitary(hadamard_input(nb))
        assert all(verdicts) and len(verdicts) == len(per_level) == 2 + 7
        assert per_level == [3] * 9

    def test_default_compile_renames_nothing(self, rng, monkeypatch):
        calls = []
        for mod in (compiler, central):
            monkeypatch.setattr(mod, "rename_bits",
                                lambda p, m: calls.append(len(p)) or rename_bits(p, m))
        for nb in (1, 3, 5):
            compiler.compile_unitary(random_unitary(rng, 1 << nb))
        assert calls == []

    def test_perm_search_renames_once_per_relabeled_program(self, rng, monkeypatch):
        renames, emissions = [], []
        monkeypatch.setattr(compiler, "rename_bits",
                            lambda p, m: renames.append(m) or rename_bits(p, m))
        emit = compiler.program_for_tree
        monkeypatch.setattr(compiler, "program_for_tree",
                            lambda root, opts: emissions.append(root) or emit(root, opts))
        opts = compiler.CompileOptions(perm_search="root-exhaustive")
        u = np.kron(np.eye(4), random_unitary(rng, 2))
        program = compiler.compile_unitary(u, opts)
        assert len(emissions) == 6      # one per candidate: 3!
        assert len(renames) == 5        # one per candidate other than the identity
        # the 3-cycles are among the candidates renamed back: the direction matters
        assert any(p.inverse() != p for p in renames)
        assert len(program) < len(compiler.compile_unitary(u))
        assert np.abs(program_to_matrix(program) - u).max() < 1e-10

    def test_build_tree_still_checks(self):
        for ep in (True, False):    # an aborted root, and one csd_stack rejects
            opts = compiler.CompileOptions(extract_phases=ep)
            with pytest.raises(matrices.NotUnitaryError, match="^input is not unitary"):
                compiler.build_tree(np.diag([1.0, 2.0]), opts)
