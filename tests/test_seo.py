import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csdc import (BitPermutation, Program, apply_to_state, expand_controls, frobenius_distance,
                  parse, program_to_matrix, serialize)
from csdc.bitops import popcount
from csdc.seo import (CNOT, CPHA, PHAS, PRUNE_TOL, ROTY, SIGX, SeoParseError, _simulate, concat,
                      cpha_ladder_pruned, rename_bits, two_qubit_gates, z_ladder)

from conftest import (kron_instruction_matrix, kron_program_matrix, program_of_rows,
                      random_program, rows, transposition_matrix, two_bit_rows, width)


def row_program(p: Program, i: int) -> Program:
    """The one-instruction program of row i of p."""
    return Program(p.nb, *(c[i:i + 1] for c in p.columns))


class TestInstructionValidation:
    """Each rule of an instruction, in columns and in SEO text."""

    def test_repeated_bits_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Program(1, [CNOT], [0], [1], [1], [0.0])
        with pytest.raises(SeoParseError, match="distinct"):
            parse("CNOT 0 T 0")

    def test_sigx_rejects_angle(self):
        with pytest.raises(ValueError):
            Program(1, [SIGX], [0], [0], [0], [10.0])
        with pytest.raises(SeoParseError):
            parse("SIGX 0 10")

    def test_phas_rejects_target(self):
        with pytest.raises(ValueError):
            Program(1, [PHAS], [0], [0], [0], [10.0])
        with pytest.raises(SeoParseError):
            parse("PHAS 0 10")

    def test_cnot_needs_control(self):
        with pytest.raises(ValueError):
            Program(1, [CNOT], [0], [0], [0], [0.0])
        with pytest.raises(SeoParseError):
            parse("CNOT 0")

    def test_program_bit_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Program(2, [SIGX], [3], [0], [0], [0.0])
        with pytest.raises(SeoParseError, match="out of range"):
            parse("SIGX 3", nb=2)


class TestSerialize:
    def test_cnot_line(self):
        p = Program(3, [CNOT], [2], [0b11], [0b01], [0.0])
        assert serialize(p) == "CNOT 0 T 1 F 2\n"

    def test_roty_line(self):
        assert serialize(Program(2, [ROTY], [1], [0], [0], [45.0])) == "ROTY 1 45\n"

    def test_phas_line(self):
        assert serialize(Program(1, [PHAS], [-1], [0], [0], [90.0])) == "PHAS 90\n"

    def test_empty_program(self):
        assert serialize(Program(2)) == ""


class TestParse:
    def test_sigx(self):
        p = parse("SIGX 0")
        assert p == Program(1, [SIGX], [0], [0], [0], [0.0])
        assert p.nb == 1

    def test_cpha(self):
        p = parse("CPHA 0 T 1 F 90")
        assert p == Program(2, [CPHA], [-1], [0b11], [0b01], [90.0])

    def test_malformed_angle_reports_line(self):
        with pytest.raises(SeoParseError, match="line 1"):
            parse("ROTY 9 x")

    def test_error_line_number_counts_from_one(self):
        with pytest.raises(SeoParseError, match="line 3"):
            parse("SIGX 0\nSIGX 1\nBOGUS 2\n")

    def test_unknown_keyword(self):
        with pytest.raises(SeoParseError, match="unknown keyword"):
            parse("HADA 0")

    def test_phas_with_controls_rejected(self):
        # A controlled phase must be spelled CPHA.
        with pytest.raises(SeoParseError):
            parse("PHAS 0 T 1 F 90")

    def test_repeated_bit_rejected(self):
        with pytest.raises(SeoParseError, match="line 1"):
            parse("CNOT 0 T 0")

    @pytest.mark.parametrize("line, message", [
        ("CNOT 0 X 1", "polarity must be T or F"),
        ("SIGX -1", "must be non-negative"),
        ("CPHA 0 T 1 F", "control/polarity pairs and an angle"),
        ("ROTY x 45", "expected a bit index, got 'x'"),
        ("CNOT 0.5 T 1", "expected a bit index, got '0.5'"),
    ])
    def test_malformed_line(self, line, message):
        with pytest.raises(SeoParseError, match=message):
            parse(line)

    @pytest.mark.parametrize("nb", [0, -1, 64])
    def test_nb_outside_range(self, nb):
        with pytest.raises(ValueError, match=f"a program needs 1 <= nb <= 63, got {nb}"):
            parse("SIGX 0", nb=nb)

    def test_bit_beyond_given_nb(self):
        with pytest.raises(SeoParseError):
            parse("SIGX 5", nb=2)

    def test_blank_lines_skipped(self):
        p = parse("\nSIGX 0\n\nSIGX 1\n")
        assert len(p) == 2 and p.nb == 2

    def test_round_trip_random_programs(self, rng):
        for _ in range(50):
            p = random_program(rng, int(rng.integers(2, 6)), int(rng.integers(0, 12)))
            assert parse(serialize(p), nb=p.nb) == p

    @given(st.lists(st.sampled_from(["ROTY", "ROTZ", "SIGX", "PHAS"]), max_size=8),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis(self, kinds, data):
        out = []
        for kind in kinds:
            angle = data.draw(st.decimals(min_value=-1000, max_value=1000,
                                          places=6).map(float))
            if kind == "SIGX":
                out.append((kind, data.draw(st.integers(0, 3)), 0, 0, 0.0))
            elif kind == "PHAS":
                out.append((kind, -1, 0, 0, angle))
            else:
                out.append((kind, data.draw(st.integers(0, 3)), 0, 0, angle))
        p = program_of_rows(4, out)
        assert parse(serialize(p), nb=4) == p
        assert serialize(parse(serialize(p))) == serialize(p)


class TestInstructionMatrix:
    """The dense matrix of a one-instruction program."""

    def test_roty_90(self):
        m = program_to_matrix(parse("ROTY 0 90", nb=1))
        assert np.allclose(m, [[0, 1], [-1, 0]], atol=1e-15)

    def test_cnot_is_01_11_transposition(self):
        m = program_to_matrix(parse("CNOT 0 T 1", nb=2))
        assert np.array_equal(m, transposition_matrix(4, [(1, 3)]))

    def test_phas_zero_is_identity(self):
        m = program_to_matrix(parse("PHAS 0", nb=2))
        assert np.array_equal(m, np.eye(4).astype(complex))

    def test_rotz(self):
        m = program_to_matrix(parse("ROTZ 0 90", nb=1))
        assert np.allclose(m, np.diag([1j, -1j]))

    def test_control_polarities(self):
        m = program_to_matrix(parse("CNOT 0 T 1 F 2", nb=3))
        # flips bit 2 exactly on states x01: (001,101) swap.
        assert np.array_equal(m, transposition_matrix(8, [(1, 5)]))

    def test_bit_out_of_range(self):
        with pytest.raises(ValueError):
            program_to_matrix(Program(2, [SIGX], [3], [0], [0], [0.0]))


class TestProgramToMatrix:
    def test_empty_is_identity(self):
        assert np.array_equal(program_to_matrix(Program(2)), np.eye(4).astype(complex))

    def test_first_line_acts_first(self):
        # SIGX 0 then CNOT 0 T 1 maps |00> -> |01> -> |11>.
        p = parse("SIGX 0\nCNOT 0 T 1")
        v = np.zeros(4)
        v[0] = 1
        out = program_to_matrix(p) @ v
        assert np.argmax(np.abs(out)) == 3

    def test_matches_instruction_product(self, rng):
        p = random_program(rng, 3, 8)
        mats = [program_to_matrix(row_program(p, i)) for i in range(len(p))]
        expected = np.eye(8, dtype=complex)
        for m in mats:
            expected = m @ expected
        assert frobenius_distance(program_to_matrix(p), expected) < 1e-12

    def test_file_round_trip_same_matrix(self, rng):
        p = random_program(rng, 3, 10)
        q = parse(serialize(p), nb=3)
        assert frobenius_distance(program_to_matrix(p), program_to_matrix(q)) < 1e-12


class TestApplyToState:
    def test_sigx(self):
        out = apply_to_state(parse("SIGX 0"), [1, 0])
        assert np.array_equal(out, [0, 1])

    def test_cnot_on_01(self):
        v = np.zeros(4)
        v[1] = 1  # |01>
        out = apply_to_state(parse("CNOT 0 T 1", nb=2), v)
        expected = np.zeros(4)
        expected[3] = 1  # |11>
        assert np.array_equal(out, expected)

    def test_matches_matrix_path(self, rng):
        for _ in range(15):
            p = random_program(rng, 4, 12)
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            direct = apply_to_state(p, v)
            assert np.abs(direct - program_to_matrix(p) @ v).max() < 1e-12

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            apply_to_state(Program(2), np.zeros(3))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            apply_to_state(Program(1), np.zeros((2, 2, 2)))


class _CountingArray(np.ndarray):
    writes = 0

    def __setitem__(self, key, value):
        type(self).writes += 1
        super().__setitem__(key, value)


def dense_runs(p: Program) -> int:
    """Dense updates made while simulating p: each one writes the matrix twice,
    once for the lo rows of its pairs and once for the hi rows."""
    _CountingArray.writes = 0
    _simulate(np.eye(1 << p.nb, dtype=complex).view(_CountingArray), p)
    assert _CountingArray.writes % 2 == 0
    return _CountingArray.writes // 2


def assert_matches_kron(p: Program) -> None:
    want = kron_program_matrix(p)
    assert np.abs(program_to_matrix(p) - want).max() < 1e-12


class TestSimulator:
    """The simulator against the Kronecker interpreter of conftest."""

    @given(st.integers(1, 5), st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_all_entry_points_match_kron(self, nb, length, seed):
        rng = np.random.default_rng(seed)
        p = random_program(rng, nb, length, max_controls=4)
        want = kron_program_matrix(p)
        assert np.abs(program_to_matrix(p) - want).max() < 1e-12
        n = 1 << nb
        block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        assert np.abs(apply_to_state(p, block) - want @ block).max() < 1e-12
        assert np.abs(apply_to_state(p, block[:, 0]) - want @ block[:, 0]).max() < 1e-12
        for i, row in enumerate(rows(p)):
            got = program_to_matrix(row_program(p, i))
            assert np.abs(got - kron_instruction_matrix(row, nb)).max() < 1e-12

    def test_roty_run_fused_across_cnots_on_its_target(self):
        p = parse("ROTY 0 20\nCNOT 1 T 0\nROTY 0 -35\nCNOT 2 F 1 T 0\nROTY 0 50\n"
                  "CNOT 1 T 0\nROTY 0 10", nb=3)
        assert dense_runs(p) == 1
        assert_matches_kron(p)

    def test_run_broken_by_cnot_on_another_target(self):
        p = parse("ROTY 0 20\nCNOT 0 T 1\nROTY 0 -35", nb=2)
        assert dense_runs(p) == 2
        assert_matches_kron(p)

    def test_runs_on_different_targets(self):
        p = parse("ROTY 0 20\nROTY 1 30\nROTY 0 40", nb=2)
        assert dense_runs(p) == 3
        assert_matches_kron(p)

    def test_expanded_multi_control_cnot_is_one_run(self):
        p = parse("CNOT 0 T 1 F 2")
        ex = expand_controls(p)
        assert dense_runs(ex) == 1
        assert np.abs(program_to_matrix(ex) - kron_instruction_matrix(rows(p)[0], 3)).max() < 1e-12

    def test_phases_carried_through_permutation_into_roty(self):
        # Phases set before the permutation reach the later ROTYs as
        # off-diagonal ratios, both starting a run and fused into it.
        p = parse("ROTZ 0 30\nCPHA 1 T 50\nPHAS 15\nCNOT 1 T 0\nROTY 0 40\n"
                  "CPHA 0 T 1 T 70\nROTZ 1 -25\nCNOT 1 F 0\nROTY 0 -65\nSIGX 1", nb=2)
        assert dense_runs(p) == 1
        assert_matches_kron(p)

    def test_monomial_program_makes_no_dense_update(self):
        p = parse("SIGX 0\nCNOT 0 T 2\nROTZ 1 30\nCPHA 0 F 2 T 45\nPHAS 10", nb=3)
        assert dense_runs(p) == 0
        assert_matches_kron(p)

    def test_empty_program(self, rng):
        assert np.array_equal(program_to_matrix(Program(3)), np.eye(8))
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = apply_to_state(Program(3), v)
        assert np.array_equal(out, v) and out is not v

    def test_nb_1(self):
        p = parse("ROTY 0 30\nROTZ 0 20\nSIGX 0\nPHAS 45\nROTY 0 -70\nSIGX 0", nb=1)
        assert_matches_kron(p)
        assert np.allclose(program_to_matrix(parse("SIGX 0\nROTY 0 90")), [[1, 0], [0, -1]])

    def test_permutation_result_is_exact(self):
        p = parse("SIGX 0\nCNOT 0 T 1\nCNOT 1 F 2 T 0", nb=3)
        m = program_to_matrix(p)
        assert set(np.unique(m)) <= {0, 1}
        assert np.array_equal(m, kron_program_matrix(p))

    def test_apply_to_state_leaves_input_unchanged(self, rng):
        p = random_program(rng, 3, 20)
        block = rng.standard_normal((8, 2)) + 0j
        before = block.copy()
        apply_to_state(p, block)
        assert np.array_equal(block, before)


def _uncontrolled(nb: int, rows: list[tuple[int, int, float]]) -> Program:
    """Program of (kind, target, angle) rows without controls."""
    kinds, targets, angles = zip(*rows) if rows else ((), (), ())
    zeros = [0] * len(kinds)
    return Program(nb, kinds, targets, zeros, zeros, angles, validate=False)


def _expansion(nb: int, kind: int, target: int, mask: int, val: int, pruned: bool) -> Program:
    """The expansion of one multi-control gate, a CPHA's built for angle 1:
    every ladder angle is +-angle / 2**k, exact in floating point, so the
    caller scales the angle column, or ``pruned`` drops the whole ladder.
    The ladder of angle 1 prunes no step for k <= 33."""
    ctrl_bits = [b for b in range(nb) if mask >> b & 1]
    flips = [(SIGX, b, 0.0) for b in ctrl_bits if not val >> b & 1]
    if kind == CPHA:
        involved, wrap, closing, angle = ctrl_bits, [], [], 1.0
    else:  # sigma_x(t)^P = V sigma_z(t)^P V*, V = exp(-i 45deg sigma_y(t))
        involved = [target] + ctrl_bits
        wrap, closing, angle = [(ROTY, target, 45.0)], [(ROTY, target, -45.0)], 180.0
    parts = [_uncontrolled(nb, flips + wrap)]
    if not pruned:
        k = len(involved)
        signs = np.where(popcount(np.arange(1 << k)) & 1, -1.0, 1.0)
        parts.append(z_ladder(involved, angle * signs / (1 << k))[0])
    parts.append(_uncontrolled(nb, closing + flips[::-1]))
    return concat(*parts)


def expand_controls_by_template(p: Program) -> Program:
    """``expand_controls`` as it was built before it became one z_ladder pass
    per width: each distinct (kind, target, controls, pruned) is expanded
    once into a template, which is copied into the slots of its rows, a
    CPHA's angles scaled by the row's angle."""
    kind, target, mask, val, angle = p.columns
    nctrl = popcount(mask)
    cpha = kind == CPHA
    rows = np.flatnonzero(((kind == CNOT) & (nctrl >= 2)) | (cpha & (nctrl >= 3)))
    if not rows.size:
        return p
    pruned = cpha[rows] & cpha_ladder_pruned(angle[rows], nctrl[rows])
    keys = np.stack([kind[rows], target[rows], mask[rows], val[rows], pruned], axis=1)
    uniq, which = np.unique(keys, axis=0, return_inverse=True)
    which = which.reshape(-1)
    templates = [_expansion(p.nb, *key) for key in uniq.tolist()]
    # Output slots: every row keeps one, an expanded row takes its template's.
    lens = np.ones(len(p), dtype=np.int64)
    lens[rows] = np.array([len(t) for t in templates])[which]
    start = np.cumsum(lens) - lens
    out = [np.empty(int(lens.sum()), dtype=c.dtype) for c in p.columns]
    kept = np.ones(len(p), dtype=bool)
    kept[rows] = False
    for o, c in zip(out, p.columns):
        o[start[kept]] = c[kept]
    groups = np.split(rows[np.argsort(which, kind="stable")],
                      np.cumsum(np.bincount(which))[:-1])
    for key, tpl, group in zip(uniq.tolist(), templates, groups):
        slots = start[group][:, None] + np.arange(len(tpl))
        for o, c in zip(out, tpl.columns[:4]):
            o[slots] = c
        out[4][slots] = tpl.angle * angle[group][:, None] if key[0] == CPHA else tpl.angle
    return Program(p.nb, *out, validate=False)


@st.composite
def expandable_programs(draw):
    """Programs on 3-7 bits mixing elementary rows with CNOTs of >= 2 and
    CPHAs of >= 3 controls, T and F; a CPHA's angle is 0, exactly
    PRUNE_TOL * 2**k (its ladder pruned), just above that, or any."""
    nb = draw(st.integers(3, 7))
    out = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["CNOT", "CPHA", "CNOT", "CPHA", "ROTY", "SIGX", "PHAS"]))
        bits = draw(st.permutations(range(nb)))
        angle = draw(st.floats(-360, 360))
        if kind == "ROTY":
            out.append((kind, bits[0], 0, 0, angle))
        elif kind == "SIGX":
            out.append((kind, bits[0], 0, 0, 0.0))
        elif kind == "PHAS":
            out.append((kind, -1, 0, 0, angle))
        else:
            k = draw(st.integers(1, nb - 1) if kind == "CNOT" else st.integers(2, nb))
            ctrl = bits[:k]
            mask = sum(1 << b for b in ctrl)
            val = sum(1 << b for b in ctrl if draw(st.booleans()))
            if kind == "CNOT":
                out.append((kind, bits[k], mask, val, 0.0))
            else:
                edge = math.ldexp(PRUNE_TOL, k)
                angle = draw(st.sampled_from([0.0, edge, -edge, math.nextafter(edge, 1.0),
                                              -math.nextafter(edge, 1.0), angle]))
                out.append((kind, -1, mask, val, angle))
    return program_of_rows(nb, out)


class TestExpandByLadder:
    """``expand_controls`` against the template expansion it replaced."""

    @given(expandable_programs())
    @settings(max_examples=150, deadline=None)
    def test_equals_template_expansion(self, p):
        assert expand_controls(p) == expand_controls_by_template(p)

    def test_per_row_bits_equal_one_call_per_row(self, rng):
        # rows of their own bits, unsorted, with zeros and sub-PRUNE_TOL
        # angles that prune steps and whole runs
        m, k = 6, 3
        bits = np.array([rng.choice(7, size=k, replace=False) for _ in range(m)])
        thetas = rng.uniform(-180, 180, (m, 1 << k))
        thetas[rng.random(thetas.shape) < 0.3] = 0.0
        thetas[rng.random(thetas.shape) < 0.2] = 1e-11
        ladder, owner = z_ladder(bits, thetas)
        for r in range(m):
            one, own = z_ladder(bits[r].tolist(), thetas[r])
            assert (own == 0).all()
            assert Program(ladder.nb, *(c[owner == r] for c in ladder.columns)) == Program(
                ladder.nb, *one.columns)


class TestExpandControls:
    def test_two_control_cnot(self):
        p = parse("CNOT 0 T 1 F 2")
        ex = expand_controls(p)
        assert all(width(r) <= 2 for r in rows(ex))
        assert frobenius_distance(program_to_matrix(ex), program_to_matrix(p)) < 1e-12

    def test_single_control_program_unchanged(self, rng):
        p = random_program(rng, 4, 10, max_controls=1)
        assert expand_controls(p) == p

    def test_two_control_cpha_kept_elementary(self):
        p = parse("CPHA 0 T 1 T 90")
        assert expand_controls(p) == p

    def test_three_control_cpha(self):
        p = parse("CPHA 0 T 2 F 3 T 77")
        ex = expand_controls(p)
        assert all(width(r) <= 2 for r in rows(ex))
        assert frobenius_distance(program_to_matrix(ex), program_to_matrix(p)) < 1e-12

    def test_gray_structure_of_two_control_expansion(self):
        # All-T two-control c-not: the z-rewrite yields the four commuting
        # factors (one per control subset) as fractional-power rotations.
        ex = expand_controls(parse("CNOT 0 T 1 T 2"))
        rotz = [r for r in rows(ex) if r[0] == "ROTZ"]
        assert len(rotz) == 7  # 2**3 - 1 subsets of {target, c0, c1}
        assert {abs(round(r[4], 6)) for r in rotz} == {22.5}

    def test_random_multi_control_matrix_preserved(self, rng):
        for _ in range(20):
            nb = int(rng.integers(3, 6))
            p = random_program(rng, nb, 4, kinds=["CNOT", "CPHA"], max_controls=3)
            ex = expand_controls(p)
            assert all(width(r) <= 2 for r in rows(ex))
            assert frobenius_distance(program_to_matrix(ex),
                                      program_to_matrix(p)) < 1e-10


class TestTwoQubitGates:
    """``two_qubit_gates`` counts the two-bit rows of ``expand_controls(p)``
    without expanding p."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_two_bit_rows_of_expansion(self, seed):
        rng = np.random.default_rng([20261018, seed])
        nb = 6 + seed % 2
        p = random_program(rng, nb, 40, max_controls=5)   # T and F controls, 0-5 of them
        # CPHAs whose ladders are pruned (|angle| / 2**k <= PRUNE_TOL) or not
        tiny = [("CPHA", -1, m, v, a) for m, v, a in [
            (0b111, 0b101, 8 * PRUNE_TOL), (0b111, 0b111, -9 * PRUNE_TOL),
            (0b11110, 0b00110, 16 * PRUNE_TOL), (0b11, 0b01, PRUNE_TOL / 2),
            (0b11111, 0b11111, 32 * PRUNE_TOL), (0b11111, 0b01010, 40 * PRUNE_TOL)]]
        p = concat(p, program_of_rows(nb, tiny))
        assert two_qubit_gates(p) == two_bit_rows(expand_controls(p))

    @pytest.mark.parametrize("kind", ["CNOT", "CPHA"])
    @pytest.mark.parametrize("nctrl", range(1, 6))
    def test_every_control_count(self, kind, nctrl):
        bits = np.random.default_rng(nctrl).permutation(6)
        mask = sum(1 << int(b) for b in bits[:nctrl])
        for val in (mask, 0, mask & 0b10101):
            row = (kind, int(bits[nctrl]) if kind == "CNOT" else -1, mask, val,
                   0.0 if kind == "CNOT" else 33.0)
            p = program_of_rows(6, [row])
            assert two_qubit_gates(p) == two_bit_rows(expand_controls(p))

    @pytest.mark.parametrize("kind, nctrl", [("CNOT", n) for n in range(6, 11)]
                             + [("CPHA", n) for n in range(6, 12)])
    def test_many_controls(self, kind, nctrl):
        """Mixed T and F controls on 12 bits: 2**m - 2 c-nots for a gate on
        m bits, and none for a CPHA pruned at |angle| / 2**k = PRUNE_TOL."""
        rng = np.random.default_rng([nctrl, kind == "CNOT"])
        bits = rng.permutation(12)
        mask = sum(1 << int(b) for b in bits[:nctrl])
        val = mask & int(rng.integers(1 << 12))
        target = int(bits[nctrl]) if kind == "CNOT" else -1
        cost = 2 ** (nctrl + (kind == "CNOT")) - 2
        cases = [(0.0, cost)] if kind == "CNOT" else [
            (33.0, cost), (2.0 ** nctrl * PRUNE_TOL * 2, cost), (2.0 ** nctrl * PRUNE_TOL, 0)]
        for angle, want in cases:
            p = program_of_rows(12, [(kind, target, mask, val, angle)])
            assert two_qubit_gates(p) == two_bit_rows(expand_controls(p)) == want

    def test_count_beyond_int64(self):
        # A CNOT with 62 controls expands to 2**63 - 2 c-nots: the count is
        # read off the row, past what an int64 holds.
        p = program_of_rows(63, [("CNOT", 62, (1 << 62) - 1, 0, 0.0)])
        assert two_qubit_gates(p) == 2 ** 63 - 2

    def test_elementary_program(self):
        p = parse("ROTY 0 5\nCNOT 0 T 1\nCPHA 0 T 1 F 20\nCPHA 1 T 20\nPHAS 3\nSIGX 2")
        assert two_qubit_gates(p) == 2

    def test_pruned_cpha_costs_nothing(self):
        assert two_qubit_gates(parse("CPHA 0 T 1 F 2 T 1e-11")) == 0
        assert two_qubit_gates(parse("CPHA 0 T 1 F 2 T 40")) == 6

    def test_empty_program(self):
        assert two_qubit_gates(Program(3)) == 0


class TestRenameBits:
    def test_rename_sequence(self):
        p = parse("CNOT 0 T 2\nROTY 1 5")
        q = rename_bits(p, BitPermutation(3, (2, 0, 1)))
        assert serialize(q) == "CNOT 2 T 1\nROTY 0 5\n"
