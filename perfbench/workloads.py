"""Seeded inputs of the three benchmark workloads.

A workload is a pool of passes; a pass is a list of cases, each an input with
its expected outcome.  The same seed gives the same inputs.  Only the
``reference`` module and the matrix-file writer of csdc are used here, to
build inputs and to store the files the CLI reads.
"""
from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.stats import unitary_group

from csdc import matrices, reference

WHY = {
    "haar-n6": "Haar 64x64 via compile_unitary and program_to_matrix: a full tree of "
               "small side matrices, so per-matrix Python overhead in tree build dominates",
    "cli-expand-n6": "Haar 64x64 files through csdc compile --expand-controls and verify: "
                     "control expansion, SEO text I/O and program_to_matrix dominate",
    "structured": "QFT, Hadamard and U(x)I inputs whose tree is a spine, plus an edge-case "
                  "corpus: few large CSDs and dense diagonal emission dominate",
}

RECIPES = {
    "haar-n6": "pool of 16 passes x 4 Haar-random 64x64 unitaries "
               "(scipy.stats.unitary_group); each compile_unitary with default "
               "options, then frobenius_distance(u, program_to_matrix(p))",
    "cli-expand-n6": "pool of 6 passes x 1 Haar-random 64x64 matrix file; each "
                     "`csdc compile --expand-controls` then `csdc verify` with default "
                     "options, in-process through csdc.cli.main",
    "structured": "one pass: bit-reversed QFT and hadamard_input at nb = 9 and 10, "
                  "U(x)I at nb = 8 with a 2- and a 4-qubit Haar U (timed and gate-counted), "
                  "plus a corpus at nb <= 5 with an expected outcome each: nb = 1, "
                  "dimensions 3, 5, 24, a permutation, controlled-U, I(x)U, exactly and "
                  "nearly (< 1e-8 deg) degenerate CSD angles, and unitarity deviation "
                  "at 0.5x and 2x DEFAULT_TOL (library and CLI)",
}

NAMES = tuple(WHY)


@dataclass
class Case:
    """One input with its expected outcome.

    expect: "ok" (compiles within ROUND_TRIP_TOL) or "reject" (ValueError from
    the library, exit 3 from the CLI).  ``primary`` cases make up the per-input
    timing and gate metrics; the others are correctness corpus.
    """

    name: str
    matrix: np.ndarray
    expect: str = "ok"
    via: str = "lib"
    primary: bool = True
    path: str | None = None
    cli_flags: tuple[str, ...] = ()
    qft_nb: int | None = None

    @property
    def padded(self) -> np.ndarray:
        """The input embedded as u ⊕ I in the next power-of-two dimension."""
        dim = self.matrix.shape[0]
        full = 1 << max(1, (dim - 1).bit_length())
        out = np.eye(full, dtype=complex)
        out[:dim, :dim] = self.matrix
        return out


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=rng)


def _bit_reversed_dft(nb: int) -> np.ndarray:
    states = np.arange(1 << nb)
    rev = np.zeros_like(states)
    for b in range(nb):
        rev |= ((states >> b) & 1) << (nb - 1 - b)
    return reference.dft_matrix(nb)[rev]  # bit reversal is its own inverse


def _with_angles(rng: np.random.Generator, thetas_deg) -> np.ndarray:
    """(L0 ⊕ L1) [[C, S], [-S, C]] (R0 ⊕ R1) with Haar sides and given angles."""
    h = len(thetas_deg)
    th = np.radians(np.asarray(thetas_deg))
    c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
    d = np.block([[c, s], [-s, c]])
    z = np.zeros((h, h))
    left = np.block([[haar(rng, h), z], [z, haar(rng, h)]])
    right = np.block([[haar(rng, h), z], [z, haar(rng, h)]])
    return left @ d @ right


def _near_unitary(rng: np.random.Generator, dim: int, deviation: float) -> np.ndarray:
    """Scale one column so that max |u^H u - I| is ``deviation``."""
    u = haar(rng, dim)
    u[:, 0] *= np.sqrt(1.0 + deviation)
    got = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
    if not 0.9 * deviation <= got <= 1.1 * deviation:
        raise RuntimeError(f"near-unitary input has deviation {got:.3e}, wanted {deviation:.3e}")
    return u


def _structured(seed: int, workdir: str) -> list[list[Case]]:
    rng = _rng("structured", seed)
    tol = matrices.DEFAULT_TOL
    spine = [Case("hadamard-n9", reference.hadamard_input(9)),
             Case("hadamard-n10", reference.hadamard_input(10)),
             Case("qft-n9", _bit_reversed_dft(9), qft_nb=9),
             Case("qft-n10", _bit_reversed_dft(10), qft_nb=10),
             Case("u2xI-n8", np.kron(haar(rng, 4), np.eye(64))),
             Case("u4xI-n8", np.kron(haar(rng, 16), np.eye(16)))]
    perm = np.zeros((32, 32), dtype=complex)
    perm[rng.permutation(32), np.arange(32)] = 1.0
    below = _near_unitary(rng, 16, 0.5 * tol)
    above = _near_unitary(rng, 16, 2.0 * tol)
    paths = []
    for label, m in (("below", below), ("above", above)):
        paths.append(os.path.join(workdir, f"structured-tol-{label}.txt"))
        matrices.write_matrix_file(paths[-1], m)
    corpus = [Case("nb1", haar(rng, 2)),
              Case("dim3", haar(rng, 3)),
              Case("dim5", haar(rng, 5)),
              Case("dim24", haar(rng, 24)),
              Case("permutation-n5", perm),
              Case("controlled-u-n4", np.block([[np.eye(8), np.zeros((8, 8))],
                                                [np.zeros((8, 8)), haar(rng, 8)]])),
              Case("Ixu2-n5", np.kron(np.eye(8), haar(rng, 4))),
              Case("degenerate-n4", _with_angles(rng, [15, 15, 15, 40, 40, 65, 65, 65])),
              Case("near-degenerate-n4", _with_angles(
                  rng, [20, 20 + 3e-9, 20 + 6e-9, 50, 50 + 5e-9, 70, 70 + 2e-9, 80])),
              Case("tol-below-n4", below),
              Case("tol-above-n4", above, expect="reject"),
              Case("tol-below-n4-cli", below, via="cli", path=paths[0],
                   cli_flags=("--expand-controls",)),
              Case("tol-above-n4-cli", above, expect="reject", via="cli", path=paths[1])]
    for case in corpus:
        case.primary = False
    return [spine + corpus]


def generate(name: str, seed: int, workdir: str) -> list[list[Case]]:
    """The pool of passes of one workload."""
    if name == "haar-n6":
        rng = _rng(name, seed)
        return [[Case(f"haar-n6-{p}.{i}", haar(rng, 64)) for i in range(4)]
                for p in range(16)]
    if name == "cli-expand-n6":
        rng = _rng(name, seed)
        pool = []
        for p in range(6):
            path = os.path.join(workdir, f"cli-expand-n6-{p}.txt")
            u = haar(rng, 64)
            matrices.write_matrix_file(path, u)
            pool.append([Case(f"cli-expand-n6-{p}", u, via="cli", path=path,
                              cli_flags=("--expand-controls",))])
        return pool
    if name == "structured":
        return _structured(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
