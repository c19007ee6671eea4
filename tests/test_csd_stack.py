"""Stacked kernels: the batched CSD and gauge fix, the stacked complex-D test
and phase extraction, and the level-wise tree build that uses them."""
import sys
import warnings

import numpy as np
import pytest

from csdc import (CsdFactors, NotUnitaryError, compile_unitary, csd, frobenius_distance,
                  hadamard_input, lighten, phase_factors_matrix, program_to_matrix)
from csdc.bitops import bit_reversal_permutation, state_permutation
from csdc.csd import (_PHASE_MAG_TINY, _wrap_deg, csd_stack, d_matrix, extract_phases,
                      extract_phases_stack, is_complex_d, is_complex_d_stack, lighten_stack)
from csdc.reference import dft_matrix

from conftest import block_diag, random_phase_factors, random_unitary

# The module: ``csdc.csd`` as a package attribute is the function.
csd_module = sys.modules["csdc.csd"]


def with_angles(rng, thetas_deg):
    """(L0 ⊕ L1) D(θ) (R0 ⊕ R1) with Haar sides and the given angles."""
    h = len(thetas_deg)
    sides = [random_unitary(rng, h) for _ in range(4)]
    return block_diag(sides[:2]) @ d_matrix(thetas_deg) @ block_diag(sides[2:])


def near_unitary(rng, dim, deviation):
    """Scale one column so that max |uᴴu - I| is about ``deviation``."""
    u = random_unitary(rng, dim)
    u[:, 0] *= np.sqrt(1.0 + deviation)
    return u


@pytest.fixture
def csd_calls(monkeypatch):
    """Count the calls the stacked kernels hand to ``csd`` and ``lighten``."""
    calls = {"csd": 0, "lighten": 0}

    def counted(name):
        fn = getattr(csd_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(csd_module, "csd", counted("csd"))
    monkeypatch.setattr(csd_module, "lighten", counted("lighten"))
    return calls


def assert_csd_properties(f, u):
    """Criterion-4 properties of one factorization of u."""
    th = np.asarray(f.thetas)
    assert np.all(th >= -1e-12) and np.all(th <= 90 + 1e-12)
    assert np.all(np.diff(th) >= -1e-12)
    h = len(th)
    for side in (f.l0, f.l1, f.r0, f.r1):
        assert np.abs(side.conj().T @ side - np.eye(h)).max() < 1e-12
    r = np.radians(th)
    c, s = np.diag(np.cos(r)), np.diag(np.sin(r))
    blocks = {(0, 0): c, (0, 1): s, (1, 0): -s, (1, 1): c}
    ls, rs = (f.l0, f.l1), (f.r0, f.r1)
    for i in (0, 1):
        for j in (0, 1):
            got = ls[i] @ blocks[(i, j)] @ rs[j]
            assert np.linalg.norm(got - u[h * i:h * i + h, h * j:h * j + h]) < 1e-10


def factors(stack, i):
    return [stack.l0[i], stack.l1[i], stack.r0[i], stack.r1[i]]


def one(stack, i):
    """Factorization i of a stack, as a CsdFactors of one matrix."""
    return CsdFactors(*factors(stack, i), thetas=stack.thetas[i])


class TestBatchedCsd:
    @pytest.mark.parametrize("dim", [4, 8, 16, 32])
    def test_matches_csd_then_lighten(self, rng, csd_calls, dim):
        mats = np.stack([random_unitary(rng, dim) for _ in range(12)])
        got = lighten_stack(csd_stack(mats))
        assert csd_calls == {"csd": 0, "lighten": 0}
        for i, u in enumerate(mats):
            want = lighten(csd(u))
            assert np.abs(got.thetas[i] - want.thetas).max() < 1e-9
            for a, b in zip(factors(got, i), [want.l0, want.l1, want.r0, want.r1]):
                assert np.abs(a - b).max() < 1e-11
            assert_csd_properties(one(got, i), u)

    def test_gauge_fix_removes_any_phase_gauge(self, rng, csd_calls):
        mats = np.stack([random_unitary(rng, 8) for _ in range(5)])
        f = csd_stack(mats)
        p = np.exp(1j * rng.uniform(-np.pi, np.pi, f.thetas.shape))
        pl, pr = p[:, None, :], p.conj()[:, :, None]
        got = lighten_stack(CsdFactors(f.l0 * pl, f.l1 * pl, pr * f.r0, pr * f.r1, f.thetas))
        assert csd_calls["lighten"] == 0
        for i, u in enumerate(mats):
            want = lighten(csd(u))
            for a, b in zip(factors(got, i), [want.l0, want.l1, want.r0, want.r1]):
                assert np.abs(a - b).max() < 1e-11

    def test_unlightened_factors_are_a_csd(self, rng, csd_calls):
        mats = np.stack([random_unitary(rng, 8) for _ in range(6)])
        got = csd_stack(mats)
        assert csd_calls["csd"] == 0
        for i, u in enumerate(mats):
            assert_csd_properties(one(got, i), u)

    def test_hard_matrices_go_to_csd(self, rng, csd_calls):
        generic = [random_unitary(rng, 8) for _ in range(3)]
        hard = [with_angles(rng, [0.0, 20.0, 50.0, 80.0]),          # theta = 0
                with_angles(rng, [15.0, 30.0, 60.0, 90.0]),         # theta = 90
                with_angles(rng, [15.0, 30.0, 60.0, 90.0 - 1e-5]),  # cos below 1e-6
                with_angles(rng, [0.0] * 4),                        # one cluster at 0
                with_angles(rng, [90.0] * 4),                       # one cluster at 90
                near_unitary(rng, 8, 5e-11)]                        # fails the residual check
        # Close to the limits but inside them: these stay in the batched pass.
        for _ in range(3):
            generic += [with_angles(rng, [1e-4, 30.0, 60.0, 80.0]),
                        with_angles(rng, [10.0, 30.0, 60.0, 90.0 - 1e-4])]
        # So do equal and close angles: the gauge fix, not the CSD, has to
        # treat them apart.
        generic += [with_angles(rng, [10.0, 10.0, 40.0, 70.0]),         # degenerate cluster
                    with_angles(rng, [10.0, 10.0 + 5e-7, 40.0, 70.0]),  # gap below 1e-6 deg
                    with_angles(rng, [35.0] * 4),                       # one cluster
                    # A flat R0 gives Q11 equal column norms, yet four angles.
                    block_diag([random_unitary(rng, 4), random_unitary(rng, 4)])
                    @ d_matrix([10.0, 30.0, 50.0, 70.0])
                    @ block_diag([dft_matrix(2), random_unitary(rng, 4)])]
        order = [generic[0], hard[0], generic[1], *hard[1:], *generic[2:]]
        is_hard = [any(m is h for h in hard) for m in order]
        mats = np.stack(order)
        got = csd_stack(mats)
        assert csd_calls["csd"] == len(hard)
        for i, u in enumerate(mats):
            if is_hard[i]:
                want = csd(u)
                for a, b in zip(factors(got, i), [want.l0, want.l1, want.r0, want.r1]):
                    assert np.array_equal(a, b)
            assert_csd_properties(one(got, i), u)
        # Alone in a stack, each matrix takes the same route, and no sine or
        # cosine of zero is divided by on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u, hard_one in zip(mats, is_hard):
                before = csd_calls["csd"]
                assert_csd_properties(one(csd_stack(u[None]), 0), u)
                assert csd_calls["csd"] - before == hard_one

    @pytest.mark.parametrize("dim", [64, 128, 256])
    def test_large_haar_and_clustered_matrices(self, rng, csd_calls, dim):
        h = dim // 2
        spread = [random_unitary(rng, dim),
                  np.kron(random_unitary(rng, 4), np.eye(dim // 4))]     # two clusters
        one_cluster = [np.kron(random_unitary(rng, 2), np.eye(h)),
                       with_angles(rng, [30.0] * h)]
        # Alone, the one-cluster matrices take the closed form; among others,
        # the SVD and then the gauge fix.
        for mats, ones in ((spread, []), (one_cluster, [0, 1]), (spread + one_cluster, [2, 3])):
            f = csd_stack(np.stack(mats))
            got = lighten_stack(f)
            for i, u in enumerate(mats):
                assert_csd_properties(one(f, i), u)
                assert_csd_properties(one(got, i), u)
            for i in ones:
                assert np.abs(got.r0[i] - np.eye(h)).max() < 1e-12
                want = lighten(csd(mats[i]))
                for a, b in zip(factors(got, i), [want.l0, want.l1, want.r0, want.r1]):
                    assert np.abs(a - b).max() < 1e-11
        assert (lighten_stack(csd_stack(np.stack(one_cluster))).r0 == np.eye(h)).all()
        assert csd_calls["csd"] == 0

    def test_gauge_fix_falls_back_on_clusters_and_tiny_pivots(self, rng, csd_calls):
        h = 4
        r0 = block_diag([np.eye(1), random_unitary(rng, h - 1)])[:, [1, 0, 2, 3]]
        zero_pivot = (block_diag([random_unitary(rng, h), random_unitary(rng, h)])
                      @ d_matrix([10.0, 30.0, 50.0, 70.0])
                      @ block_diag([r0, random_unitary(rng, h)]))
        mats = np.stack([random_unitary(rng, 2 * h), zero_pivot,
                         with_angles(rng, [20.0, 20.0, 45.0, 60.0])])
        f = csd_stack(mats)
        got = lighten_stack(f)
        assert abs(f.r0[1][0, 0]) < _PHASE_MAG_TINY
        assert csd_calls["lighten"] == 2
        for i in range(len(mats)):
            want = lighten(one(f, i))
            for a, b in zip(factors(got, i), [want.l0, want.l1, want.r0, want.r1]):
                assert np.abs(a - b).max() < 1e-11

    def test_one_non_unitary_matrix_raises(self, rng):
        mats = np.stack([random_unitary(rng, 8) for _ in range(4)])
        mats[2, :, 0] *= 1.01
        with pytest.raises(NotUnitaryError, match="input 2"):
            csd_stack(mats)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("dim", [8, 64])
    def test_raises_at_twice_tol(self, rng, tol, dim):
        mats = np.stack([random_unitary(rng, dim), near_unitary(rng, dim, 2 * tol)])
        with pytest.raises(NotUnitaryError, match="input 1"):
            csd_stack(mats, tol)
        mats[1] = near_unitary(rng, dim, 0.5 * tol)
        for i, u in enumerate(mats):
            assert_csd_properties(one(csd_stack(mats, tol), i), u)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            csd_stack(random_unitary(rng, 4))
        with pytest.raises(ValueError):
            csd_stack(np.zeros((2, 3, 3)))


def reference_extract_phases(a):
    """The per-matrix loop the stacked extraction replaced, as its oracle."""
    h = a.shape[0] // 2
    d00, d01 = np.diag(a[:h, :h]), np.diag(a[:h, h:])
    d10, d11 = np.diag(a[h:, :h]), np.diag(a[h:, h:])
    c, s = np.abs(d00), np.abs(d01)
    omega, omega_l, omega_r = np.empty(h), np.empty(h), np.empty(h)
    for j in range(h):
        if s[j] < _PHASE_MAG_TINY:
            omega[j], omega_r[j] = np.angle(d00[j]), 0.0
            omega_l[j] = np.angle(d11[j]) - omega[j]
        elif c[j] < _PHASE_MAG_TINY:
            omega[j], omega_r[j] = np.angle(d01[j]), 0.0
            omega_l[j] = np.angle(-d10[j]) - omega[j]
        else:
            omega[j] = np.angle(d00[j])
            omega_r[j] = np.angle(d01[j]) - omega[j]
            omega_l[j] = np.angle(-d10[j]) - omega[j]
    return [_wrap_deg(np.degrees(x)) for x in (omega, omega_l, omega_r)] \
        + [np.degrees(np.arctan2(s, c))]


def reference_is_complex_d(a, tol=1e-10):
    h = a.shape[0] // 2
    return all(np.abs(b - np.diag(np.diag(b))).max() <= tol
               for b in (a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]))


class TestStackedPhases:
    def complex_d_stack(self, rng, h, k):
        mats = [phase_factors_matrix(random_phase_factors(rng, h)) for _ in range(k)]
        mats.append(d_matrix(np.linspace(0, 90, h)))        # theta = 0 and 90 exactly
        mats.append(d_matrix([0.0] * h) * np.exp(1j * rng.uniform(-3, 3, 2 * h)))
        return np.stack(mats)

    @pytest.mark.parametrize("h", [1, 2, 4, 8])
    def test_extract_phases_equal_loop_entry_by_entry(self, rng, h):
        mats = self.complex_d_stack(rng, h, 10)
        pf = extract_phases_stack(mats)
        for i, a in enumerate(mats):
            want = reference_extract_phases(a)
            for got, ref in zip((pf.omega[i], pf.omega_l[i], pf.omega_r[i], pf.thetas[i]),
                                want):
                assert np.array_equal(got, ref)
            one = extract_phases(a)
            assert np.array_equal(one.omega, pf.omega[i])
            assert np.array_equal(one.thetas, pf.thetas[i])

    def test_is_complex_d_equal_loop_entry_by_entry(self, rng):
        mats = [d_matrix([10.0, 20.0, 30.0, 40.0]), random_unitary(rng, 8)]
        nearly = d_matrix([10.0, 20.0, 30.0, 40.0]).copy()
        nearly[0, 5] = 2e-10          # off the block diagonals, above tol
        mats.append(nearly)
        barely = nearly.copy()
        barely[0, 5] = 5e-11          # below tol
        mats.append(barely)
        mats.append(self.complex_d_stack(rng, 4, 1)[0])
        stack = np.stack(mats)
        mask = is_complex_d_stack(stack)
        assert mask.dtype == bool and mask.shape == (len(mats),)
        for i, a in enumerate(mats):
            assert mask[i] == reference_is_complex_d(a) == is_complex_d(a)
        assert list(mask) == [True, False, False, True, True]
        assert is_complex_d_stack(np.stack([random_unitary(rng, 2)] * 3)).all()
        assert not is_complex_d_stack(np.zeros((2, 3, 3))).any()

    def test_extract_phases_stack_rejects_non_complex_d(self, rng):
        with pytest.raises(ValueError, match="not diagonal"):
            extract_phases_stack(np.stack([d_matrix([10.0, 20.0]), random_unitary(rng, 4)]))


def dft_input(nb):
    return state_permutation(bit_reversal_permutation(nb)) @ dft_matrix(nb)


class TestLevelBuild:
    def test_haar_inputs_never_fall_back(self, csd_calls):
        rng = np.random.default_rng(77)
        for nb in range(1, 8):
            for _ in range(2 if nb < 7 else 1):
                compile_unitary(random_unitary(rng, 1 << nb))
            assert csd_calls["csd"] == 0, nb

    def test_spines_never_call_cossin(self, monkeypatch):
        calls = {"n": 0}
        cossin = csd_module.cossin

        def counted(*args, **kwargs):
            calls["n"] += 1
            return cossin(*args, **kwargs)

        monkeypatch.setattr(csd_module, "cossin", counted)
        for nb in range(3, 9):
            for u in (hadamard_input(nb), dft_input(nb)):
                prog = compile_unitary(u)
                assert frobenius_distance(u, program_to_matrix(prog)) < 1e-10
        assert calls["n"] == 0

    def test_near_degenerate_angles_round_trip_exactly(self):
        # Angles 2e-9 to 6e-9 degrees apart are not one cluster: mixing them
        # in the gauge fix would cost about 2e-10 of round-trip error.
        rng = np.random.default_rng(0x5EED)
        for _ in range(3):
            u = with_angles(rng, [20, 20 + 3e-9, 20 + 6e-9, 50, 50 + 5e-9, 70, 70 + 2e-9, 80])
            assert frobenius_distance(u, program_to_matrix(compile_unitary(u))) < 1e-12

    # Non-zero count_by_kind entries of each input, as compiled by the tree
    # builder that preceded the level-wise one (one side matrix at a time).
    STRUCTURED_COUNTS = {
        'qft-n2': {'ROTY': 2, 'ROTZ': 2, 'PHAS': 2, 'CPHA': 1},
        'hadamard-n2': {'ROTY': 2, 'ROTZ': 2, 'PHAS': 2},
        'qft-n3': {'ROTY': 3, 'ROTZ': 3, 'PHAS': 2, 'CPHA': 3},
        'hadamard-n3': {'ROTY': 3, 'ROTZ': 3, 'PHAS': 2},
        'qft-n4': {'ROTY': 4, 'ROTZ': 4, 'PHAS': 2, 'CPHA': 6},
        'hadamard-n4': {'ROTY': 4, 'ROTZ': 4, 'PHAS': 2},
        'qft-n5': {'ROTY': 5, 'ROTZ': 5, 'PHAS': 1, 'CPHA': 10},
        'hadamard-n5': {'ROTY': 5, 'ROTZ': 5, 'PHAS': 1},
        'qft-n6': {'ROTY': 6, 'ROTZ': 6, 'PHAS': 2, 'CPHA': 15},
        'hadamard-n6': {'ROTY': 6, 'ROTZ': 6, 'PHAS': 2},
        'u2xI-n5': {'ROTY': 6, 'ROTZ': 6, 'CNOT': 6, 'PHAS': 4, 'CPHA': 4},
        'u3xI-n5': {'ROTY': 28, 'ROTZ': 14, 'CNOT': 28, 'PHAS': 8, 'CPHA': 26},
        'Ixu2-n5': {'ROTY': 384, 'ROTZ': 15, 'CNOT': 384, 'PHAS': 10, 'CPHA': 294},
        'degenerate-n4': {'ROTY': 117, 'ROTZ': 32, 'CNOT': 120, 'PHAS': 16, 'CPHA': 128},
        'near-degenerate-n4': {'ROTY': 120, 'ROTZ': 32, 'CNOT': 120, 'PHAS': 16, 'CPHA': 128},
        'permutation-n5': {'ROTY': 359, 'ROTZ': 18, 'CNOT': 407, 'PHAS': 13, 'CPHA': 201},
        'controlled-u-n4': {'ROTY': 56, 'ROTZ': 3, 'CNOT': 56, 'PHAS': 3, 'CPHA': 40},
    }

    @staticmethod
    def structured_inputs():
        rng = np.random.default_rng(0x5EED)
        out = {}
        for nb in range(2, 7):
            out[f"qft-n{nb}"] = dft_input(nb)
            out[f"hadamard-n{nb}"] = hadamard_input(nb)
        out["u2xI-n5"] = np.kron(random_unitary(rng, 4), np.eye(8))
        out["u3xI-n5"] = np.kron(random_unitary(rng, 8), np.eye(4))
        out["Ixu2-n5"] = np.kron(np.eye(8), random_unitary(rng, 4))
        out["degenerate-n4"] = with_angles(rng, [15, 15, 15, 40, 40, 65, 65, 65])
        out["near-degenerate-n4"] = with_angles(
            rng, [20, 20 + 3e-9, 20 + 6e-9, 50, 50 + 5e-9, 70, 70 + 2e-9, 80])
        perm = np.zeros((32, 32), dtype=complex)
        perm[rng.permutation(32), np.arange(32)] = 1.0
        out["permutation-n5"] = perm
        out["controlled-u-n4"] = block_diag([np.eye(8), random_unitary(rng, 8)])
        return out

    def test_structured_counts_unchanged(self):
        got = {name: {k: n for k, n in compile_unitary(u).count_by_kind().items() if n}
               for name, u in self.structured_inputs().items()}
        assert got == self.STRUCTURED_COUNTS
