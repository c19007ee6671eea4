"""Golden SEO outputs: the compiler's programs on fixed inputs, frozen as files.

Each file under ``tests/data/golden`` holds the program one case compiles to.
A compile must reproduce its file's gate skeleton exactly (kinds, targets,
controls, in order) and every angle within ANGLE_TOL degrees, taken modulo
360 degrees, since every instruction kind is periodic in 360 degrees.

Run ``PYTHONPATH=src python tests/test_golden.py`` to rewrite the files; do
that only when a change to the compiler's output is intended.
"""
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

from csdc import CompileOptions, compile_unitary, hadamard_input, parse, serialize
from csdc.bitops import bit_reversal_permutation, state_permutation
from csdc.matrices import tensor_product
from csdc.reference import dft_matrix

GOLDEN = Path(__file__).parent / "data" / "golden"
SEED = 20261018
ANGLE_TOL = 1e-10


def _haar(nb: int) -> np.ndarray:
    return unitary_group.rvs(1 << nb, random_state=np.random.default_rng([SEED, nb]))


def _cases() -> dict[str, tuple[np.ndarray, CompileOptions]]:
    default = CompileOptions()
    out = {}
    for nb in range(1, 6):
        out[f"haar-n{nb}"] = (_haar(nb), default)
    for nb in range(1, 5):
        out[f"haar-n{nb}-expand"] = (_haar(nb), CompileOptions(expand_controls=True))
    for nb in range(2, 7):
        out[f"qft-n{nb}"] = (state_permutation(bit_reversal_permutation(nb)) @ dft_matrix(nb),
                             default)
        out[f"hadamard-n{nb}"] = (hadamard_input(nb), default)
    u = unitary_group.rvs(4, random_state=np.random.default_rng([SEED, 99]))
    out["u-kron-i-n4"] = (tensor_product(u, np.eye(4)), default)
    for nb in (3, 4):
        out[f"haar-n{nb}-no-phases"] = (_haar(nb), CompileOptions(extract_phases=False))
    return out


CASES = _cases()


def _columns(text: str, nb: int):
    p = parse(text, nb=nb)
    return (p.kind, p.target, p.ctrl_mask, p.ctrl_val), p.angle


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    u, opts = CASES[name]
    nb = u.shape[0].bit_length() - 1
    want_skeleton, want_angle = _columns((GOLDEN / f"{name}.seo").read_text(), nb)
    got_skeleton, got_angle = _columns(serialize(compile_unitary(u, opts)), nb)
    assert len(got_angle) == len(want_angle)
    for got, want in zip(got_skeleton, want_skeleton):
        assert np.array_equal(got, want)
    diff = np.abs(np.mod(got_angle - want_angle + 180.0, 360.0) - 180.0)
    assert diff.max(initial=0.0) <= ANGLE_TOL


def write_golden() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (u, opts) in CASES.items():
        (GOLDEN / f"{name}.seo").write_text(serialize(compile_unitary(u, opts)))


if __name__ == "__main__":
    write_golden()
