"""The segment simulator against the per-gate kernel it replaced and against
the Kronecker interpreter of conftest.

``simulate_by_gate`` is the earlier simulator, kept as a reference: it
updates the frame once per instruction and folds each ROTY into the pending
dense run on its own.  The Kronecker interpreter shares no code with either.
"""
import cmath
import math
import tracemalloc

import numpy as np
import pytest

from csdc import (CompileOptions, Program, apply_to_state, compile_unitary, dft_matrix,
                  expand_controls, parse, program_to_matrix, seo)
from csdc.reference import hadamard_input
from csdc.seo import CNOT, CPHA, PHAS, ROTZ, SIGX, _Plan, dense_peak_bytes

from conftest import (dense_runs, kron_instruction_matrix, kron_program_matrix, program_of_rows,
                      qft_input, random_unitary, rows)


def simulate_by_gate(arr: np.ndarray, p: Program) -> np.ndarray:
    """Apply the instructions of p, first to last, to the rows of arr, shape
    (2**nb, m), one instruction at a time.

    The operator applied so far is held as F · R · arr:

      * F, the frame, is monomial: row d of F·x is g * ph[d] * x[pos[d]], g a
        global phase.  SIGX, CNOT, ROTZ, PHAS and CPHA are monomial, so they
        update only pos, ph and g, in O(2**nb) each.
      * R is a pending run of ROTYs that share one pairing of rows: row i of
        R·x is coef[i, 0] * x[i] + coef[i, 1] * x[partner[i]].  A ROTY moved
        through F becomes a rotation on the row pairs (pos[lo], pos[hi]) whose
        off-diagonal entries are scaled by ph[hi]/ph[lo].  It is folded into R
        when its pairing is R's; otherwise R is first applied to arr and a new
        run starts.

    At the end R, then F, is applied.
    """
    n = 1 << p.nb
    rows = np.arange(n)
    pos = rows
    ph = np.ones(n, dtype=np.complex128)
    g = 1.0 + 0.0j
    # Index plans: swaps by (target, mask, val), CPHA rows by (mask, val),
    # ROTZ high-bit masks and ROTY (lo, hi) pairs by target.
    swaps: dict = {}
    phased: dict = {}
    highs: dict = {}
    pairs: dict = {}
    run = None  # pending R: (rows a, their partners b, partner, coef)
    bufs: list[np.ndarray] = []   # four (2**nb / 2, m) work arrays, shared by the flushes

    def flush(arr, run):
        # Two half-row passes: the lo rows of every pair, then the hi rows.
        a, b, _, coef = run
        if not bufs:
            bufs.extend(np.empty((len(a),) + arr.shape[1:], dtype=arr.dtype) for _ in range(4))
        xa, xb, out, tmp = bufs
        ca, cb = coef[a], coef[b]
        # mode="clip" (the rows are in range) keeps take from buffering its output
        np.take(arr, a, axis=0, out=xa, mode="clip")
        np.take(arr, b, axis=0, out=xb, mode="clip")
        np.multiply(xa, ca[:, :1], out=out)
        out += np.multiply(xb, ca[:, 1:], out=tmp)
        arr[a] = out
        xb *= cb[:, :1]
        xa *= cb[:, 1:]
        xb += xa
        arr[b] = xb

    for kind, t, m, v, angle in zip(*(c.tolist() for c in p.columns)):
        if kind == PHAS:
            g *= cmath.exp(1j * math.radians(angle))
        elif kind == CPHA:
            idx = phased.get((m, v))
            if idx is None:
                idx = phased[(m, v)] = np.flatnonzero(rows & m == v)
            ph[idx] *= cmath.exp(1j * math.radians(angle))
        elif kind == ROTZ:
            high = highs.get(t)
            if high is None:
                high = highs[t] = ((rows >> t) & 1).astype(bool)
            e = cmath.exp(1j * math.radians(angle))
            ph *= np.where(high, e.conjugate(), e)
        elif kind == SIGX or kind == CNOT:
            key = (t, m, v)
            q = swaps.get(key)
            if q is None:
                q = swaps[key] = np.where(rows & m == v, rows ^ (1 << t), rows)
            pos = pos[q]
            ph = ph[q]
        else:  # ROTY
            lohi = pairs.get(t)
            if lohi is None:
                bit = (rows >> t) & 1
                lohi = pairs[t] = (rows[bit == 0], rows[bit == 1])
            lo, hi = lohi
            rad = math.radians(angle)
            c, s = math.cos(rad), math.sin(rad)
            a, b = pos[lo], pos[hi]
            r = ph[hi] / ph[lo]
            up = (s * r)[:, None]
            down = (s / r)[:, None]
            if run is not None and (run[2][a] == b).all():
                coef = run[3]
                ca, cb = coef[a], coef[b]
                coef[a] = c * ca + up * cb[:, ::-1]
                coef[b] = c * cb - down * ca[:, ::-1]
                continue
            if run is not None:
                flush(arr, run)
            partner = np.empty(n, dtype=np.intp)
            partner[a] = b
            partner[b] = a
            coef = np.empty((n, 2), dtype=np.complex128)
            coef[a, 0] = c
            coef[a, 1:] = up
            coef[b, 0] = c
            coef[b, 1:] = -down
            run = (a, b, partner, coef)
    if run is not None:
        flush(arr, run)
    bufs.clear()   # before the gather below, which allocates a full copy
    if not (pos == rows).all():
        arr = arr[pos]
    ph *= g
    if not (ph == 1).all():
        arr *= ph[:, None]
    return arr


def by_gate_matrix(p: Program) -> np.ndarray:
    return simulate_by_gate(np.eye(1 << p.nb, dtype=complex), p)


def kron_apply(p: Program, block: np.ndarray) -> np.ndarray:
    """The Kronecker interpreter applied to the columns of block, one
    instruction matrix at a time: the full product is too slow at nb >= 5."""
    for row in rows(p):
        block = kron_instruction_matrix(row, p.nb) @ block
    return block


def assert_agrees(p: Program) -> None:
    got = program_to_matrix(p)
    assert np.abs(got - by_gate_matrix(p)).max() < 1e-12
    assert np.abs(got - kron_program_matrix(p)).max() < 1e-12


def moved_bits_by_gate(p: Program) -> list[set]:
    """Per row, the bits that the SIGXs and single-control c-nots since the
    start of the row's segment (see ``_Plan``) have left moved before it,
    found by walking the moves gate by gate: bit b's offset is the packed
    (S, c) of its affine form x_b + |x & S| + c in the segment's start
    coordinates."""
    starts = set(_Plan(p).first.tolist())
    out = []
    offset = [0] * p.nb
    for i, (kind, t, m, v, _) in enumerate(zip(*(c.tolist() for c in p.columns))):
        if i in starts:
            offset = [0] * p.nb
        out.append({b for b in range(p.nb) if offset[b]})
        if kind == SIGX:
            offset[t] ^= 1 << p.nb
        elif kind == CNOT and m & (m - 1) == 0:
            c = m.bit_length() - 1
            offset[t] ^= (1 << c) ^ offset[c] ^ ((v == 0) << p.nb)
    return out


def haar_program(nb: int, expand: bool) -> Program:
    p = compile_unitary(random_unitary(np.random.default_rng([20261018, nb]), 1 << nb))
    return expand_controls(p) if expand else p


def segment_program(rng, nb: int, n_segments: int) -> Program:
    """A random program built from the simulator's segment kinds: ROTY
    ladders with T and F c-nots into their target, phase runs that move bits
    with SIGX and single-control c-nots between ROTZ, PHAS and CPHA (so CPHAs
    land on moved bits), and multi-control CNOTs."""
    out = []

    def angle():
        return float(np.round(rng.uniform(-360, 360), 9))

    def control(bits):
        b = int(rng.choice(bits))
        return 1 << b, (1 << b) * int(rng.integers(2))

    for _ in range(n_segments):
        kind = rng.integers(3 if nb >= 3 else 2)
        if kind == 0:
            w = int(rng.integers(nb))
            others = [b for b in range(nb) if b != w]
            for _ in range(int(rng.integers(1, 8))):
                if others and rng.random() < 0.5:
                    out.append(("CNOT", w, *control(others), 0.0))
                else:
                    out.append(("ROTY", w, 0, 0, angle()))
        elif kind == 1:
            for _ in range(int(rng.integers(1, 12))):
                r = rng.random()
                if r < 0.2 or nb == 1:
                    out.append(("ROTZ", int(rng.integers(nb)), 0, 0, angle()))
                elif r < 0.3:
                    out.append(("PHAS", -1, 0, 0, angle()))
                elif r < 0.45:
                    out.append(("SIGX", int(rng.integers(nb)), 0, 0, 0.0))
                elif r < 0.7:
                    t = int(rng.integers(nb))
                    out.append(("CNOT", t, *control([b for b in range(nb) if b != t]), 0.0))
                else:
                    bits = rng.choice(nb, size=int(rng.integers(1, nb + 1)), replace=False)
                    mask = sum(1 << int(b) for b in bits)
                    out.append(("CPHA", -1, mask, mask & int(rng.integers(1 << nb)), angle()))
        else:
            bits = rng.choice(nb, size=int(rng.integers(3, nb + 1)), replace=False)
            mask = sum(1 << int(b) for b in bits[1:])
            out.append(("CNOT", int(bits[0]), mask, mask & int(rng.integers(1 << nb)), 0.0))
    return program_of_rows(nb, out)


class TestCompiledHaar:
    @pytest.mark.parametrize("expand", [False, True])
    @pytest.mark.parametrize("nb", [2, 3, 4, 5, 6])
    def test_matches_by_gate_and_kron(self, nb, expand):
        p = haar_program(nb, expand)
        got = program_to_matrix(p)
        assert np.abs(got - by_gate_matrix(p)).max() < 1e-12
        if nb <= 4:
            assert np.abs(got - kron_program_matrix(p)).max() < 1e-12
        elif not (nb == 6 and expand):   # 66432 instructions: the per-gate oracle only
            probes = np.eye(1 << nb, dtype=complex)[:, [0, 5, (1 << nb) - 1]]
            assert np.abs(got @ probes - kron_apply(p, probes)).max() < 1e-12

    @pytest.mark.parametrize("nb", [3, 4])
    def test_apply_to_state(self, nb):
        p = haar_program(nb, expand=True)
        rng = np.random.default_rng(nb)
        block = rng.standard_normal((1 << nb, 3)) + 1j * rng.standard_normal((1 << nb, 3))
        want = simulate_by_gate(block.copy(), p)
        assert np.abs(want - kron_apply(p, block)).max() < 1e-12
        assert np.abs(apply_to_state(p, block) - want).max() < 1e-12
        for j in range(3):
            assert np.abs(apply_to_state(p, block[:, j]) - want[:, j]).max() < 1e-12


class TestSegments:
    def test_ladder_with_f_controls_is_one_segment(self):
        # ends with an odd number of c-nots from bit 0, so its X**e moves the frame
        p = parse("ROTY 1 20\nCNOT 0 F 1\nROTY 1 -35\nCNOT 2 T 1\nROTY 1 50\n"
                  "CNOT 0 F 1\nROTY 1 10\nCNOT 2 F 1\nCNOT 0 T 1\nROTY 1 -5", nb=3)
        assert len(_Plan(p).first) == 1
        assert_agrees(p)

    def test_moves_inside_phase_segments(self):
        # SIGX and c-nots move bits 0, 1 and 2; a CPHA after a run of moves
        # that leaves its bit moved starts a new segment
        p = parse("ROTZ 0 30\nSIGX 1\nCPHA 1 T 2 T 40\nCPHA 1 F 12\nCNOT 0 F 1\nROTZ 1 25\n"
                  "CPHA 0 T 1 F 70\nCPHA 1 T 50\nPHAS 8\nCNOT 2 T 1\nCPHA 1 T 2 F 3 T 15\n"
                  "SIGX 0\nCNOT 1 T 0\nCPHA 0 T 1 T 20\nROTZ 0 -45\nCNOT 3 F 2\nROTZ 2 5\n"
                  "CPHA 2 F 3 T 33", nb=4)
        assert_agrees(p)

    def test_phase_segment_cut_where_a_moved_bit_stays_open(self):
        # bit 1 is left moved when bit 2 starts moving, so a new segment
        # starts at the c-not into bit 2, and bit 2 is left moved at the
        # CPHA, which starts another; bit 0's moves close again before bit
        # 1's start, so they share a segment
        p = parse("CNOT 2 T 0\nROTZ 0 10\nCNOT 2 T 0\nCNOT 0 T 1\nROTZ 1 20\n"
                  "CNOT 0 T 2\nROTZ 2 30\nCPHA 1 T 2 T 40", nb=3)
        plan = _Plan(p)
        assert plan.first.tolist() == [0, 5, 7]
        assert_agrees(p)

    def test_cpha_after_a_sigx_on_its_control(self):
        # the SIGX leaves bit 1 flipped, so the CPHA on it starts a segment
        p = parse("ROTZ 0 15\nSIGX 1\nCPHA 0 T 1 F 40\nROTZ 1 25\nSIGX 1\nCPHA 1 T 30", nb=2)
        assert _Plan(p).first.tolist() == [0, 2, 5]
        assert_agrees(p)

    def test_cpha_after_a_cnot_into_its_control(self):
        # the first c-not leaves bit 1 moved, so the CPHA on it starts a
        # segment; the two c-nots from bit 2 close again before the last CPHA
        p = parse("CNOT 0 T 1\nCPHA 1 T 2 F 40\nCNOT 2 F 1\nROTZ 1 10\nCNOT 2 F 1\n"
                  "CPHA 0 F 1 T 20", nb=3)
        assert _Plan(p).first.tolist() == [0, 1]
        assert_agrees(p)

    def test_rotz_on_another_bit_after_an_open_cnot_run(self):
        # a ROTZ on bit 1 reads its moved form; one on bit 0 or 2 starts a segment
        p = parse("CNOT 0 T 1\nROTZ 1 20\nROTZ 0 30\nCNOT 0 T 1\nROTZ 2 -15", nb=3)
        assert _Plan(p).first.tolist() == [0, 2, 4]
        assert_agrees(p)

    @pytest.mark.parametrize("seed", range(60))
    def test_no_phase_gate_reads_another_moved_bit(self, seed):
        rng = np.random.default_rng([20261018, seed])
        nb = int(rng.integers(1, 6))
        p = segment_program(rng, nb, int(rng.integers(1, 12)))
        for kind, t, m, moved in zip(p.kind.tolist(), p.target.tolist(), p.ctrl_mask.tolist(),
                                     moved_bits_by_gate(p)):
            if kind == CPHA:
                assert not any(m >> b & 1 for b in moved)
            elif kind == ROTZ:
                assert moved <= {t}

    @pytest.mark.parametrize("expand", [False, True])
    @pytest.mark.parametrize("name,nb", [("haar", 3), ("haar", 4), ("haar", 5), ("haar", 6),
                                         ("dft", 4), ("dft", 5), ("dft", 6)])
    def test_compiled_phase_runs_are_not_cut(self, name, nb, expand):
        # a segment starts on a ROTZ or CPHA row only at the start of the
        # program or right after a ladder or a multi-control CNOT
        p = (haar_program(nb, expand) if name == "haar"
             else compile_unitary(dft_matrix(nb), CompileOptions(expand_controls=expand)))
        assert np.isin(p.kind, (ROTZ, CPHA)).any()
        plan = _Plan(p)
        on_phase_gate = np.isin(p.kind[plan.first[1:]], (ROTZ, CPHA))
        assert not (plan.kind[:-1][on_phase_gate] == seo._PHASE).any()

    @pytest.mark.parametrize("expand", [False, True])
    @pytest.mark.parametrize("name,nb", [("haar", 4), ("haar", 5), ("ixu", 4), ("ixu", 5),
                                         ("qft", 4), ("qft", 5)])
    def test_one_dense_update_per_ladder(self, name, nb, expand):
        rng = np.random.default_rng([20261022, nb])
        u = {"haar": lambda: random_unitary(rng, 1 << nb),
             "ixu": lambda: np.kron(np.eye(2), random_unitary(rng, 1 << nb - 1)),
             "qft": lambda: qft_input(nb)}[name]()
        p = compile_unitary(u, CompileOptions(expand_controls=expand))
        assert dense_runs(p) == np.count_nonzero(_Plan(p).kind == seo._LADDER)

    def test_multi_control_cnots_between_segments(self):
        p = parse("ROTY 0 30\nCNOT 1 T 0\nCNOT 1 T 2 T 0\nROTY 0 20\nCNOT 0 T 1 F 2\n"
                  "ROTZ 2 10\nCPHA 0 T 2 T 35\nCNOT 0 F 2 T 3 F 1\nSIGX 1\nCNOT 1 F 3\n"
                  "CNOT 0 T 1 T 3\nROTY 3 -40\nCNOT 2 T 3\nROTY 3 15\nROTZ 3 5", nb=4)
        assert_agrees(p)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_segment_programs(self, seed):
        rng = np.random.default_rng([20261018, seed])
        nb = int(rng.integers(1, 6))
        p = segment_program(rng, nb, int(rng.integers(1, 12)))
        assert_agrees(p)
        block = rng.standard_normal((1 << nb, 3)) + 1j * rng.standard_normal((1 << nb, 3))
        want = simulate_by_gate(block.copy(), p)
        assert np.abs(apply_to_state(p, block) - want).max() < 1e-12
        assert np.abs(apply_to_state(p, block[:, 1]) - want[:, 1]).max() < 1e-12


class TestLargeAngles:
    """Every gate is 360°-periodic in its angle, so a program equals its twin
    with every angle reduced by fmod.  Summed unreduced, two angles of 1e308
    overflow, and sums of about 1e16° and above lose their reduction."""

    @pytest.mark.parametrize("gate", ["ROTY 1", "ROTZ 1", "PHAS", "CPHA 1 T 2 F"])
    @pytest.mark.parametrize("angle", [1e308, -1e308, 3e16, 7.5e17])
    def test_matches_reduced_twin(self, gate, angle):
        # the c-not leaves bit 1 moved, so a CPHA on it starts a new segment
        p = parse(f"{gate} {angle!r}\n{gate} {angle!r}\nCNOT 0 T 1\n{gate} {angle!r}\n"
                  f"ROTY 0 30\n{gate} 10.5\n", nb=3)
        kind, target, mask, val, deg = p.columns
        twin = Program(p.nb, kind, target, mask, val, np.fmod(deg, 360.0))
        block = np.random.default_rng(5).standard_normal((8, 2)) + 0j
        with np.errstate(all="raise"):
            got, state = program_to_matrix(p), apply_to_state(p, block)
        assert np.abs(got - program_to_matrix(twin)).max() < 1e-12
        assert np.abs(state - apply_to_state(twin, block)).max() < 1e-12
        assert np.abs(got - by_gate_matrix(twin)).max() < 1e-12


def traced_peak(p: Program) -> int:
    program_to_matrix(p)   # fill the module's caches first
    tracemalloc.start()
    try:
        program_to_matrix(p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDensePeak:
    """The peak that dense_peak_bytes states, measured with tracemalloc at nb = 7
    and, where ladder updates run in chunks, at nb = 9.

    Besides its dense arrays a simulation holds vectors over the 2**nb rows
    (the frame, and each ladder's row pairs and coefficients), numpy's
    fixed-size ufunc buffer (for the broadcast products of a ladder's update;
    128 KB, half a dense array at nb = 7) and its segment plan, which grows
    with the program's length."""

    NB = 7

    def dense_bound(self, nb=NB):
        return dense_peak_bytes(nb) + 16 * np.getbufsize() + 512 * 2 ** nb

    def test_short_program(self):
        p = compile_unitary(hadamard_input(self.NB))   # a ROTY on every bit: seven dense runs
        assert traced_peak(p) <= self.dense_bound()

    def test_work_arrays_are_freed_before_the_final_gather(self):
        # SIGX leaves the frame moved, so the matrix is gathered into a new
        # array at the end; the ladders' work arrays must be gone by then.
        ladder = "".join(f"ROTY {b} 45\n" for b in range(self.NB))
        moved = traced_peak(parse(ladder + "SIGX 0\n", nb=self.NB))
        assert moved <= self.dense_bound()
        assert moved <= traced_peak(parse(ladder, nb=self.NB)) + 512 * 2 ** self.NB

    @pytest.mark.parametrize("expand", [False, True])
    def test_plan_bytes_per_instruction(self, expand):
        p = haar_program(self.NB, expand)
        assert traced_peak(p) <= self.dense_bound() + 64 * len(p)

    def test_many_short_segments(self):
        # 1500 ROTY/ROTZ pairs on rotating bits: 3000 one-gate segments, whose
        # angles are batched a few segments at a time, not all at once
        nb = 9
        p = parse("".join(f"ROTY {i % nb} {10 + i % 7}.5\nROTZ {(i + 4) % nb} {20 + i % 5}.25\n"
                          for i in range(1500)), nb=nb)
        assert len(_Plan(p).first) == 3000
        assert traced_peak(p) <= self.dense_bound(nb) + 64 * len(p)

    def test_chunked_flushes(self):
        nb = 9   # 16 row pairs per chunk, 16 chunks per ladder
        assert seo._chunk_pairs(16 << nb, 1 << nb - 1) < 1 << nb - 1
        peak = traced_peak(compile_unitary(hadamard_input(nb)))
        assert peak <= self.dense_bound(nb)
        assert peak < 3 * 16 * 4 ** nb   # the peak of one update over all row pairs


class TestChunkedFlush:
    """With the chunk budget (``CHUNK_BYTES``) cut to three rows and a half,
    every ladder's dense update runs in many chunks of three row pairs and
    ends on a partial one; the results are bit-identical to those of an
    update over all row pairs at once."""

    NB = 6

    @staticmethod
    def chunked(monkeypatch, columns: int):
        row = 16 * columns
        monkeypatch.setattr(seo, "CHUNK_BYTES", 3 * row + row // 2)
        if columns:
            assert seo._chunk_pairs(row, 1 << TestChunkedFlush.NB - 1) == 3

    @pytest.mark.parametrize("name", ["haar", "haar-expanded", "hadamard", "qft", "permutation"])
    def test_program_to_matrix(self, monkeypatch, name):
        nb = self.NB
        rng = np.random.default_rng([20261020, nb])
        u = {"haar": lambda: random_unitary(rng, 1 << nb),
             "haar-expanded": lambda: random_unitary(rng, 1 << nb),
             "hadamard": lambda: hadamard_input(nb),
             "qft": lambda: qft_input(nb),
             "permutation": lambda: np.eye(1 << nb)[rng.permutation(1 << nb)]}[name]()
        p = compile_unitary(u, CompileOptions(expand_controls=name == "haar-expanded"))
        want = program_to_matrix(p)
        self.chunked(monkeypatch, 1 << nb)
        assert np.array_equal(program_to_matrix(p), want)

    @pytest.mark.parametrize("columns", [0, 1, 3])
    def test_apply_to_state(self, monkeypatch, columns):
        nb = self.NB
        p = haar_program(nb, expand=False)
        rng = np.random.default_rng(columns)
        block = rng.standard_normal((1 << nb, columns)) + 1j * rng.standard_normal((1 << nb, columns))
        want = apply_to_state(p, block)
        self.chunked(monkeypatch, columns)
        got = apply_to_state(p, block)
        assert got.shape == (1 << nb, columns) and np.array_equal(got, want)
        if columns == 1:
            assert np.array_equal(apply_to_state(p, block[:, 0]), want[:, 0])


class TestChunkedAngles:
    """With the chunk budget (``CHUNK_BYTES``) cut to three segments and a
    half, the angles of every program come in many batches of three
    segments, and the zeta groups of a segment with more than three
    F-patterns in several; the results are bit-identical to those of the
    default batches."""

    @staticmethod
    def chunked(monkeypatch, nb: int):
        monkeypatch.setattr(seo, "CHUNK_BYTES", (7 << nb + 4) // 2)
        assert seo._chunk_segments(nb) == 3

    @staticmethod
    def both(p: Program, block: np.ndarray):
        return program_to_matrix(p), apply_to_state(p, block), apply_to_state(p, block[:, 0])

    def assert_same(self, monkeypatch, p: Program) -> tuple:
        rng = np.random.default_rng(len(p))
        block = rng.standard_normal((1 << p.nb, 3)) + 1j * rng.standard_normal((1 << p.nb, 3))
        want = self.both(p, block)
        with monkeypatch.context() as m:
            self.chunked(m, p.nb)
            got = self.both(p, block)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        return want, block

    @pytest.mark.parametrize("name", ["haar", "haar-expanded", "hadamard", "qft", "permutation"])
    def test_compiled(self, monkeypatch, name):
        nb = 6
        rng = np.random.default_rng([20261021, nb])
        u = {"haar": lambda: random_unitary(rng, 1 << nb),
             "haar-expanded": lambda: random_unitary(rng, 1 << nb),
             "hadamard": lambda: hadamard_input(nb),
             "qft": lambda: qft_input(nb),
             "permutation": lambda: np.eye(1 << nb)[rng.permutation(1 << nb)]}[name]()
        p = compile_unitary(u, CompileOptions(expand_controls=name == "haar-expanded"))
        assert len(_Plan(p).first) > 3
        self.assert_same(monkeypatch, p)

    def test_random_segment_programs(self, monkeypatch):
        most_patterns = 0
        for seed in range(20):
            rng = np.random.default_rng([20261021, seed])
            nb = 1 + seed % 6
            p = segment_program(rng, nb, 80)
            assert len(p) >= 200
            plan = _Plan(p)
            for z0, z1 in zip(plan.z_off[:-1], plan.z_off[1:]):
                most_patterns = max(most_patterns, len(np.unique(plan.z_f[z0:z1])))
            (matrix, state, _), block = self.assert_same(monkeypatch, p)
            assert np.abs(matrix - by_gate_matrix(p)).max() < 1e-12
            assert np.abs(state - simulate_by_gate(block.copy(), p)).max() < 1e-12
        assert most_patterns > 3   # some segment's zeta groups span two batches
