"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import numpy as np

from csdc import (CompileOptions, build_tree, compile_unitary, csd, expand_controls,
                  frobenius_distance, hadamard_input, parse, program_to_matrix,
                  quantum_fft_program, serialize)
from csdc.bitops import bit_reversal_permutation, state_permutation
from csdc.central import decompose_diagonals, multiplexors
from csdc.reference import dft_matrix
from csdc.seo import ROTY

from conftest import (block_diag, complex_d_program, dense_complex_d_central, dense_diagonal,
                      dense_real_d_central, program_of_rows, random_complex_d, random_program,
                      random_unitary, rows, width)

SEED = 0xC5D


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def dft_input(nb):
    return state_permutation(bit_reversal_permutation(nb)) @ dft_matrix(nb)


def test_criterion_1_round_trip_fidelity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for nb in (1, 2, 3, 4, 5):
        for _ in range(200):
            u = random_unitary(rng, 1 << nb)
            err = frobenius_distance(u, program_to_matrix(compile_unitary(u)))
            worst = max(worst, err)
    report("criterion 1: round-trip fidelity, 200 random unitaries per nb in 1..5",
           worst < 1e-8, f"worst Frobenius error {worst:.3e}")


def test_criterion_2_quantum_fft_reproduction():
    ok = True
    details = []
    for nb in (2, 3, 4):
        u = dft_input(nb)
        prog = compile_unitary(u)
        err = frobenius_distance(u, program_to_matrix(prog))
        got = sorted(r[4] for r in rows(prog) if r[0] == "CPHA")
        want = sorted(360.0 / (1 << g) for g in range(2, nb + 1)
                      for _ in range(nb + 1 - g))
        multiset_ok = (len(got) == len(want)
                       and np.allclose(got, want, atol=1e-9, rtol=0))
        budget = len(quantum_fft_program(nb)) + 2 * nb
        ok &= err < 1e-10 and multiset_ok and len(prog) <= budget
        details.append(f"nb={nb}: err={err:.1e} len={len(prog)}<={budget} "
                       f"cpha={'ok' if multiset_ok else got}")
    report("criterion 2: quantum FFT reproduction (matrix, CPHA multiset, length)",
           ok, "; ".join(details))


def test_criterion_3_hadamard_linear_scaling():
    counts, errs = {}, {}
    for nb in (2, 3, 4):
        u = hadamard_input(nb)
        prog = compile_unitary(u)
        counts[nb] = len(prog)
        errs[nb] = frobenius_distance(u, program_to_matrix(prog))
    diffs_equal = counts[3] - counts[2] == counts[4] - counts[3]
    ok = diffs_equal and all(e < 1e-10 for e in errs.values())
    report("criterion 3: Hadamard benchmark scales linearly",
           ok, f"counts={counts} max err={max(errs.values()):.1e}")


def test_criterion_4_csd_kernel_suite():
    rng = np.random.default_rng(SEED + 4)
    dims = [2, 4, 6, 8, 10, 12, 14, 16]
    worst_recon = worst_side = worst_block = 0.0
    angles_ok = True
    for i in range(1000):
        dim = dims[i % len(dims)]
        u = random_unitary(rng, dim)
        f = csd(u)
        th = np.radians(f.thetas)
        c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
        recon = block_diag([f.l0, f.l1]) @ np.block([[c, s], [-s, c]]) \
            @ block_diag([f.r0, f.r1])
        worst_recon = max(worst_recon, frobenius_distance(recon, u))
        for side in (f.l0, f.l1, f.r0, f.r1):
            dev = np.abs(side.conj().T @ side - np.eye(dim // 2)).max()
            worst_side = max(worst_side, dev)
        angles_ok &= bool(np.all(f.thetas >= -1e-12)
                          and np.all(f.thetas <= 90 + 1e-12)
                          and np.all(np.diff(f.thetas) >= -1e-12))
        h = dim // 2
        blocks = {(0, 0): c, (0, 1): s, (1, 0): -s, (1, 1): c}
        ls, rs = (f.l0, f.l1), (f.r0, f.r1)
        for bi in (0, 1):
            for bj in (0, 1):
                res = frobenius_distance(ls[bi] @ blocks[(bi, bj)] @ rs[bj],
                                         u[h * bi:h * bi + h, h * bj:h * bj + h])
                worst_block = max(worst_block, res)
    ok = worst_recon < 1e-10 and worst_side < 1e-12 and angles_ok \
        and worst_block < 1e-10
    report("criterion 4: CSD kernel, 1000 random unitaries of dims 2..16", ok,
           f"recon={worst_recon:.1e} side={worst_side:.1e} block={worst_block:.1e} "
           f"angles canonical={angles_ok}")


def test_criterion_5_control_expansion_oracle():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    fat = 0
    for i in range(100):
        nb = (3, 4, 5)[i % 3]
        r = int(rng.integers(2, min(3, nb - 1) + 1))
        if i % 2:
            bits = rng.choice(nb, size=r + 1, replace=False)
            kind, controls, target, angle = "CNOT", bits[:-1], int(bits[-1]), 0.0
        else:
            bits = rng.choice(nb, size=r, replace=False)
            kind, controls, target, angle = "CPHA", bits, -1, float(rng.uniform(-180, 180))
        mask = sum(1 << int(b) for b in controls)
        val = sum(int(rng.integers(2)) << int(b) for b in controls)
        prog = program_of_rows(nb, [(kind, target, mask, val, angle)])
        ex = expand_controls(prog)
        fat += sum(1 for row in rows(ex) if width(row) > 2)
        worst = max(worst, frobenius_distance(program_to_matrix(ex),
                                              program_to_matrix(prog)))
    report("criterion 5: multi-control expansion preserves matrices over 2-bit gates",
           worst < 1e-10 and fat == 0,
           f"worst error {worst:.3e}, oversized instructions {fat}")


def test_criterion_6_central_decomposition_oracle():
    rng = np.random.default_rng(SEED + 6)
    worst = {"realD": 0.0, "diagonal": 0.0, "complexD": 0.0, "right-angle": 0.0}
    for nb in (2, 3, 4):
        for level in range(1, nb + 1):
            for _ in range(10):
                phi = rng.uniform(-180, 180, 1 << (nb - 1))
                err = frobenius_distance(program_to_matrix(multiplexors(nb, level, ROTY,
                                                                        phi[None])[0]),
                                         dense_real_d_central(nb, level, phi))
                worst["realD"] = max(worst["realD"], err)

                f = random_complex_d(rng, nb, level)
                err = frobenius_distance(program_to_matrix(complex_d_program(nb, level, f)),
                                         dense_complex_d_central(nb, level, f))
                worst["complexD"] = max(worst["complexD"], err)

                phi = rng.choice([0.0, 90.0], size=1 << (nb - 1))
                err = frobenius_distance(program_to_matrix(multiplexors(nb, level, ROTY,
                                                                        phi[None])[0]),
                                         dense_real_d_central(nb, level, phi))
                worst["right-angle"] = max(worst["right-angle"], err)
        for mode in ("rotz-chain", "controlled-phase"):
            for _ in range(17):
                phi = rng.uniform(-180, 180, 1 << nb)
                err = frobenius_distance(program_to_matrix(decompose_diagonals(phi[None], mode)[0]),
                                         dense_diagonal(phi))
                worst["diagonal"] = max(worst["diagonal"], err)
    ok = all(v < 1e-10 for v in worst.values())
    report("criterion 6: central decompositions match dense constructions", ok,
           " ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_7_file_format_stability():
    rng = np.random.default_rng(SEED + 7)
    ok = True
    for _ in range(1000):
        nb = int(rng.integers(1, 7))
        p = random_program(rng, nb, int(rng.integers(0, 10)))
        text = serialize(p)
        ok &= parse(text, nb=nb) == p
        ok &= serialize(parse(text, nb=nb)) == text
    report("criterion 7: parse/serialize identity and byte-stable re-serialization",
           ok, "1000 random programs")


def test_criterion_8_dft_tree_is_a_string():
    ok = True
    details = []
    for nb in (2, 3, 4):
        root = build_tree(dft_input(nb), CompileOptions())
        widths = []

        def walk(n):
            widths.append((n.left is not None) + (n.right is not None))
            for ch in (n.left, n.right):
                if ch:
                    walk(ch)

        walk(root)
        details.append(f"nb={nb}: max children {max(widths)}")
        ok &= max(widths) <= 1
    report("criterion 8: DFT trees degenerate to a string", ok, "; ".join(details))
