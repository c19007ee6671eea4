"""csdc: compile unitary matrices into elementary gate sequences via a
recursive cosine-sine decomposition tree, and decompile/verify the results."""

from .matrices import DEFAULT_TOL, NotUnitaryError, frobenius_distance
from .bitops import (BitPermutation, apply_bit_permutation, basis_change_matrix,
                     bit_reversal_permutation, gray_sequence, hadamard_transform,
                     sylvester_hadamard)
from .csd import CsdFactors, PhaseFactors, csd, extract_phases, is_complex_d, lighten, qr_nonneg
from .seo import (DenseTooLargeError, Program, apply_to_state, expand_controls, parse,
                  program_to_matrix, serialize, two_qubit_gates)
from .central import angles_to_theta
from .compiler import (CompileOptions, CsdNode, build_tree, compile_unitary, decompose_central,
                       pad_to_power_of_two)
from .reference import dft_matrix, hadamard_input, quantum_fft_program

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "NotUnitaryError", "frobenius_distance",
    "BitPermutation", "apply_bit_permutation", "basis_change_matrix",
    "bit_reversal_permutation", "gray_sequence", "hadamard_transform",
    "sylvester_hadamard",
    "CsdFactors", "PhaseFactors", "csd", "extract_phases", "is_complex_d", "lighten",
    "qr_nonneg",
    "DenseTooLargeError", "Program", "apply_to_state", "expand_controls", "parse",
    "program_to_matrix", "serialize", "two_qubit_gates",
    "angles_to_theta",
    "CompileOptions", "CsdNode", "build_tree", "compile_unitary", "decompose_central",
    "pad_to_power_of_two",
    "dft_matrix", "hadamard_input", "quantum_fft_program",
]
