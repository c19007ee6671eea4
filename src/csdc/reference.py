"""Independent reference constructions used as compile benchmarks and oracles.

The hand-built quantum FFT program realizes the bit-reversed DFT matrix: with
P the bit-reversal permutation, its matrix equals P F_nb, which is also the
benchmark input fed to the compiler.
"""
from __future__ import annotations

import numpy as np

from .bitops import sylvester_hadamard
from .seo import CPHA, PHAS, ROTY, ROTZ, Program


def dft_matrix(nb: int) -> np.ndarray:
    """Discrete Fourier transform matrix: entry (a, b) = omega**(a b) / sqrt(ns)."""
    if nb < 1:
        raise ValueError("dft_matrix requires nb >= 1")
    ns = 1 << nb
    idx = np.arange(ns)
    return np.exp(2j * np.pi * np.outer(idx, idx) / ns) / np.sqrt(ns)


def hadamard_input(nb: int) -> np.ndarray:
    """The unitary Hadamard benchmark: the Sylvester-Hadamard matrix / sqrt(ns)."""
    return sylvester_hadamard(nb) / np.sqrt(1 << nb)


def quantum_fft_program(nb: int) -> Program:
    """The textbook quantum FFT gate sequence (without the final bit reversal).

    Working from the top bit down: a Hadamard on bit alpha, then the
    controlled phases coupling bit alpha-1 to every higher bit gamma with
    angle 360 / 2**(gamma - alpha + 2) degrees.  Its matrix equals the
    bit-reversed DFT matrix.
    """
    if nb < 1:
        raise ValueError("quantum_fft_program requires nb >= 1")
    kind, target, ctrl, angle = [], [], [], []
    for alpha in range(nb - 1, -1, -1):
        # H = sigma_z exp(i sigma_y 45deg) and sigma_z = exp(-i 90deg) exp(i sigma_z 90deg),
        # so the single-qubit Hadamard is this fixed three-instruction sequence.
        kind += [ROTY, ROTZ, PHAS]
        target += [alpha, alpha, -1]
        ctrl += [0, 0, 0]
        angle += [45.0, 90.0, -90.0]
        for gamma in range(alpha, nb) if alpha >= 1 else ():
            kind.append(CPHA)
            target.append(-1)
            ctrl.append(1 << (alpha - 1) | 1 << gamma)
            angle.append(360.0 / (1 << (gamma - alpha + 2)))
    return Program(nb, kind, target, ctrl, ctrl, angle)
