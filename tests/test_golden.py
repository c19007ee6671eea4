"""Golden SEO outputs: the compiler's programs on fixed inputs, frozen as files.

Each file under ``tests/data/golden`` holds the program one case compiles to.
A compile must reproduce its file's gate skeleton exactly (kinds, targets,
controls, in order) and every angle within ANGLE_TOL degrees, taken modulo
360 degrees, since every instruction kind is periodic in 360 degrees.

Run ``PYTHONPATH=src python tests/test_golden.py`` to rewrite the files of
the cases whose comparison fails, or ``... tests/test_golden.py NAME...`` to
rewrite the named cases only; either way it prints each file it writes.  Do
that only when a change to the compiler's output is intended.
"""
import sys
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
    # at nb = 8 the input check (256) and the root's side checks (128) run by ZHERK
    for nb in (2, 3, 4, 5, 6, 8):
        out[f"qft-n{nb}"] = (state_permutation(bit_reversal_permutation(nb)) @ dft_matrix(nb),
                             default)
        out[f"hadamard-n{nb}"] = (hadamard_input(nb), default)
    u = unitary_group.rvs(4, random_state=np.random.default_rng([SEED, 99]))
    out["u-kron-i-n4"] = (tensor_product(u, np.eye(4)), default)
    u = unitary_group.rvs(16, random_state=np.random.default_rng([SEED, 98]))
    out["u-kron-i-n8"] = (tensor_product(u, np.eye(16)), default)
    for nb in (3, 4):
        out[f"haar-n{nb}-no-phases"] = (_haar(nb), CompileOptions(extract_phases=False))
    # the Haar -expand cases expand no gate; these expand 4 and 11 distinct ones
    out["dft-n4-expand"] = (dft_matrix(4), CompileOptions(expand_controls=True))
    out["dft-n5-no-phases-expand"] = (dft_matrix(5), CompileOptions(extract_phases=False,
                                                                    expand_controls=True))
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


def _matches_golden(name: str) -> bool:
    try:
        test_matches_golden(name)
    except (AssertionError, OSError, ValueError):   # differs, missing or unparsable
        return False
    return True


def write_golden(names: list[str]) -> None:
    """Rewrite the named cases, or with no names every case that fails."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    todo = names or [n for n in sorted(CASES) if not _matches_golden(n)]
    for name in todo:
        u, opts = CASES[name]
        path = GOLDEN / f"{name}.seo"
        path.write_text(serialize(compile_unitary(u, opts)))
        print(f"wrote {path}")
    if not todo:
        print("every golden matches; nothing written")


if __name__ == "__main__":
    write_golden(sys.argv[1:])
