"""The compile's verdict on its input's unitarity.

``build_tree`` runs no dense UᴴU of its own: the root's ``csd_stack`` bounds
the input's deviation from unitarity and checks it exactly where the bound
cannot vouch for it, and a complex D root, which no CSD factors, gets the
exact check.  Whatever path an input takes, the compile must accept it
exactly when the exact dense check of the padded input does.
"""
import re
from dataclasses import astuple

import numpy as np
import pytest

from csdc import (DEFAULT_TOL, CompileOptions, NotUnitaryError, cli, compile_unitary,
                  compiler, hadamard_input, matrices, program_to_matrix)
from csdc.matrices import unitarity_deviation

from conftest import dense_complex_d_block, random_phase_factors, random_unitary

FACTORS = (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)   # of DEFAULT_TOL
MESSAGE = re.compile(r"input is not unitary: max deviation (\S+) > 1\.0e-10")


def perturbed(u, kind, f, rng):
    """u made to deviate from unitarity by about f·DEFAULT_TOL."""
    t = f * DEFAULT_TOL
    if kind == "column":    # UᴴU = I + t on one diagonal entry
        out = u.copy()
        out[:, -1] *= np.sqrt(1.0 + t)
        return out
    if kind == "scaled":    # UᴴU = (1 + t)·I: the factors of its CSD are exactly unitary
        return u * np.sqrt(1.0 + t)
    g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    first_order = np.abs(u.conj().T @ g + g.conj().T @ u).max()
    return u + (t / first_order) * g


def roots(nb, rng):
    """(name, unitary, perturbation kinds) of every root kind at nb."""
    h = 1 << (nb - 1)
    return [
        ("haar", random_unitary(rng, 2 * h), ("column", "dense", "scaled")),
        ("hadamard", hadamard_input(nb), ("column", "scaled")),   # one angle cluster
        ("complex-d", dense_complex_d_block(*astuple(random_phase_factors(rng, h))),
         ("column", "dense")),
    ]


class RootAccepted(Exception):
    """The root level of a tree was split: its input is accepted."""


def verdict_mismatches(cases, rng, monkeypatch, root_only=False):
    """The cases whose compile does not accept exactly when the exact dense
    check of the padded input does, or rejects with another message.  The
    verdict is made before emission, which is skipped; with ``root_only``,
    in the root level's split, after which the build stops."""
    monkeypatch.setattr(compiler, "program_for_tree", lambda root, opts: None)
    if root_only:
        split = compiler._split_level

        def split_root(mats, opts, root=False):
            if not root:
                raise RootAccepted
            return split(mats, opts, root)
        monkeypatch.setattr(compiler, "_split_level", split_root)
    bad = []
    for name, u, kinds in cases:
        padded = np.eye(1 << max(1, (len(u) - 1).bit_length()), dtype=complex)
        for kind in kinds:
            for f in FACTORS:
                v = perturbed(u, kind, f, rng)
                padded[:len(v), :len(v)] = v
                dev = unitarity_deviation(padded)
                for ep in (True, False):
                    try:
                        compile_unitary(v, CompileOptions(extract_phases=ep))
                        got = "accept"
                    except RootAccepted:
                        got = "accept"
                    except NotUnitaryError as exc:
                        match = MESSAGE.fullmatch(str(exc))
                        got = "reject" if match and match[1] == f"{dev:.3e}" else str(exc)
                    want = "accept" if dev <= DEFAULT_TOL else "reject"
                    if got != want:
                        bad.append((name, kind, f, ep, dev, got))
    return bad


class TestVerdict:
    @pytest.mark.parametrize("nb", range(1, 9))
    def test_accepts_exactly_when_the_dense_check_does(self, nb, monkeypatch):
        # From nb = 7 the deeper levels, which the verdict does not depend
        # on, would take seconds: the LAPACK CSD factors every matrix of a
        # complex D root's tree when extract_phases is off
        rng = np.random.default_rng([26, nb])
        assert verdict_mismatches(roots(nb, rng), rng, monkeypatch, root_only=nb >= 7) == []

    def test_padded_dimensions(self, monkeypatch):
        rng = np.random.default_rng(26)
        cases = [(f"dim{d}", random_unitary(rng, d), ("column", "dense", "scaled"))
                 for d in (3, 5, 24)]
        assert verdict_mismatches(cases, rng, monkeypatch) == []

    def test_scaled_input_rejected_through_the_bound(self, rng):
        # every factor of a scaled unitary's CSD is unitary and reproduces its
        # blocks; only c² + s² = 1 + t shows that it is not unitary
        for u in (random_unitary(rng, 16), hadamard_input(4)):
            with pytest.raises(NotUnitaryError, match="input is not unitary"):
                compile_unitary(perturbed(u, "scaled", 2.0, rng))


class TestCliRejects:
    def test_message_and_exit_code(self, rng, tmp_path, capsys):
        for nb, u in ((3, random_unitary(rng, 8)), (4, hadamard_input(4))):
            src = tmp_path / f"u{nb}.txt"
            v = perturbed(u, "column", 2.0, rng)
            matrices.write_matrix_file(str(src), v)
            dev = unitarity_deviation(matrices.read_matrix_file(str(src)))
            assert cli.main(["compile", str(src), "-o", str(tmp_path / "u.seo")]) == 3
            err = capsys.readouterr().err
            assert err == f"error: input is not unitary: max deviation {dev:.3e} > 1.0e-10\n"


class TestInputNotCopied:
    @pytest.mark.parametrize("nb", (1, 4, 8))
    @pytest.mark.parametrize("expand", (False, True))
    def test_read_only_input(self, rng, nb, expand):
        u = random_unitary(rng, 1 << nb)
        kept = u.copy()
        u.setflags(write=False)
        assert compiler._embed(u) is u
        program = compile_unitary(u, CompileOptions(expand_controls=expand))
        assert np.array_equal(u, kept) and not u.flags.writeable
        assert np.abs(program_to_matrix(program) - u).max() < 1e-10

    def test_padding_makes_a_new_array(self, rng):
        u = random_unitary(rng, 3)
        padded = compiler._embed(u)
        assert padded.shape == (4, 4) and not np.shares_memory(padded, u)
        single = random_unitary(rng, 4).astype(np.complex64)
        assert compiler._embed(single).dtype == np.complex128
