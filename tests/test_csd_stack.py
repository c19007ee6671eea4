"""Stacked kernels: the batched CSD and gauge fix, the stacked complex-D test
and phase extraction, and the level-wise tree build that uses them."""
import sys
import warnings

import numpy as np
import pytest

from csdc import (CompileOptions, CsdFactors, NotUnitaryError, compile_unitary, csd,
                  frobenius_distance, hadamard_input, lighten, program_to_matrix)
from csdc.compiler import _embed
from csdc.csd import (_BATCHED_MIN_CS, _PHASE_MAG_TINY, ANGLE_CLUSTER_TOL, _block_diagonal_index,
                      _svd2, _wrap_deg, csd_stack, extract_phases, is_complex_d,
                      is_complex_d_stack, lighten_stack, phase_parameters, qr_nonneg)
from csdc.matrices import GRAM_HERK_MIN_N
from csdc.reference import dft_matrix
from scipy.linalg import cossin

from conftest import (block_diag, exact_d_block, qft_input, random_phase_factors, random_unitary,
                      two_bit_rows)

# The modules: ``csdc.csd`` as a package attribute is the function.
csd_module = sys.modules["csdc.csd"]
compiler_module = sys.modules["csdc.compiler"]


def complex_d_matrix(pf):
    """[I ⊕ Γ_L] · D(θ) · [Γ ⊕ Γ Γ_R] of a parameter set, by its exact
    formula, to which ``extract_phases`` round-trips within 1e-15."""
    gl, g, gr = (np.exp(1j * np.radians(x)) for x in (pf.omega_l, pf.omega, pf.omega_r))
    left = np.concatenate([np.ones(len(g)), gl])
    right = np.concatenate([g, g * gr])
    return left[:, None] * exact_d_block(pf.thetas) * right[None, :]


def with_angles(rng, thetas_deg):
    """(L0 ⊕ L1) D(θ) (R0 ⊕ R1) with Haar sides and the given angles."""
    h = len(thetas_deg)
    sides = [random_unitary(rng, h) for _ in range(4)]
    return block_diag(sides[:2]) @ exact_d_block(thetas_deg) @ block_diag(sides[2:])


def near_unitary(rng, dim, deviation):
    """Scale one column so that max |uᴴu - I| is about ``deviation``."""
    u = random_unitary(rng, dim)
    u[:, 0] *= np.sqrt(1.0 + deviation)
    return u


def _polar(x):
    """Unitary polar factor of each matrix of a stack, by SVD."""
    u, _, vh = np.linalg.svd(x)
    return u @ vh


def three_svd_factors(q11, q12, q21, q22):
    """The kernel the weighted polar step replaced, as its oracle: the SVD of
    Q11, then L1 and R1 as SVD polar factors of -Q21 R0ᴴ and ``_right_rows``."""
    l0, c, r0 = np.linalg.svd(q11)
    x = -q21 @ r0.conj().swapaxes(-1, -2)
    l1 = _polar(x)
    s = np.einsum("kij,kij->kj", l1.conj(), x).real
    return l0, l1, r0, _polar(csd_module._right_rows(l0, l1, q12, q22, c, s)), c, s


def lapack_svd_factors(q11, q12, q21, q22):
    """``_svd_factors`` as it was before the closed form at h = 2, with the
    SVD from LAPACK and every product through ``@``: the oracle of the
    closed-form 2x2 SVD and of the broadcast small products."""
    def ct(x):
        return x.conj().swapaxes(-1, -2)

    def newton_schulz(x):
        return x @ (1.5 * np.eye(x.shape[-1]) - 0.5 * (ct(x) @ x))

    l0, c, r0 = np.linalg.svd(q11)
    x = -q21 @ ct(r0)
    g = ct(x) @ x
    s = np.sqrt(np.diagonal(g, axis1=1, axis2=2).real)
    with np.errstate(divide="ignore", invalid="ignore"):
        si, sj = s[:, :, None], s[:, None, :]
        w = -g / (si * sj * (si + sj))
        i = np.arange(s.shape[1])
        w[:, i, i] = 1.0 / s
        l1 = newton_schulz(x @ w)
    rows = np.where((s >= c)[:, :, None], ct(l0) @ q12, ct(l1) @ q22)
    return l0, l1, r0, newton_schulz(rows / np.maximum(s, c)[:, :, None]), c, s


def lightened_and_sent(monkeypatch, mats):
    """``lighten_stack(csd_stack(mats))``, and the indices of the matrices
    that ``csd_stack`` handed to the LAPACK CSD, in order."""
    fn, sent = csd_module._lapack_csd, []

    def recorded(a, *args):
        sent.extend(next(i for i, m in enumerate(mats) if np.array_equal(m, u)) for u in a)
        return fn(a, *args)
    with monkeypatch.context() as m:
        m.setattr(csd_module, "_lapack_csd", recorded)
        return lighten_stack(csd_stack(mats)), sent


@pytest.fixture
def csd_calls(monkeypatch):
    """Count the matrices the stacked kernels send to the LAPACK CSD
    (``_lapack_csd``) and the factorizations they send to the per-cluster
    QR gauge fix (``_qr_gauge``)."""
    calls = {"csd": 0, "lighten": 0}

    def counted(name, fn):
        def wrapper(stack, *args):
            calls[name] += len(stack.thetas if name == "lighten" else stack)
            return fn(stack, *args)
        return wrapper

    monkeypatch.setattr(csd_module, "_lapack_csd", counted("csd", csd_module._lapack_csd))
    monkeypatch.setattr(csd_module, "_qr_gauge", counted("lighten", csd_module._qr_gauge))
    return calls


def reference_csd(u):
    """The per-matrix LAPACK path that the stacked fallback replaced, as its
    oracle: a non-separate ``cossin``, the angles read off its C and S
    blocks, then the sign flips and the sort that once normalized them."""
    m = u.shape[0] // 2
    lr, cs, rr = cossin(u, p=m, q=m)
    c, s = np.diag(cs[:m, :m]).real, np.diag(cs[m:, :m]).real
    th = np.mod(np.degrees(np.arctan2(s, c)) + 180.0, 360.0) - 180.0
    l0, l1, r0, r1 = lr[:m, :m], -lr[m:, m:], rr[:m, :m], -rr[m:, m:]
    wide = np.abs(th) > 90.0            # cos < 0
    th[wide] -= 180.0 * np.sign(th[wide])
    l0[:, wide] *= -1.0
    l1[:, wide] *= -1.0
    neg = th < 0.0                      # sin < 0
    th[neg] *= -1.0
    l1[:, neg] *= -1.0
    r1[neg, :] *= -1.0
    order = np.argsort(th, kind="stable")
    return CsdFactors(l0[:, order], l1[:, order], r0[order], r1[order], th[order])


def reference_lighten(f):
    """The per-cluster gauge fix of one factorization that ``_qr_gauge``
    replaced, as its oracle: one ``qr_nonneg`` per cluster of r0's rows."""
    cuts = [0, *(np.flatnonzero(np.diff(f.thetas) > ANGLE_CLUSTER_TOL) + 1), len(f.thetas)]
    gs, r0 = [], np.empty_like(f.r0)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        q, r0[start:stop] = qr_nonneg(f.r0[start:stop])
        gs.append(q)
    g = block_diag(gs)
    return CsdFactors(f.l0 @ g, f.l1 @ g, r0, g.conj().T @ f.r1, f.thetas)


def stacked(fn):
    """A kernel on stacks that applies the one-matrix ``fn`` to each member."""
    def on_stack(stack, *args):
        items = list(stack) if isinstance(stack, np.ndarray) else [
            one(stack, i) for i in range(len(stack.thetas))]
        return CsdFactors(*map(np.stack, zip(*(fn(x).fields() for x in items))))
    return on_stack


def captured_stacks(monkeypatch, runs):
    """Every stack that ``csd_stack`` gets while compiling ``runs``, a list
    of (input, options) pairs."""
    stacks = []

    def captured(mats, tol):
        stacks.append(mats.copy())
        return csd_stack(mats, tol)
    with monkeypatch.context() as m:
        m.setattr(compiler_module, "csd_stack", captured)
        for u, opts in runs:
            compile_unitary(u, opts)
    return stacks


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
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_stack(self, rng, bad):
        mats = np.stack([random_unitary(rng, 4) for _ in range(3)])
        mats[1, 2, 3] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            csd_stack(mats)

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
                    @ exact_d_block([10.0, 30.0, 50.0, 70.0])
                    @ block_diag([dft_matrix(2), random_unitary(rng, 4)])]
        order = [generic[0], hard[0], generic[1], *hard[1:], *generic[2:]]
        is_hard = [any(m is h for h in hard) for m in order]
        mats = np.stack(order)
        got = csd_stack(mats)
        assert csd_calls["csd"] == len(hard)
        assert all(np.isfinite(x).all() for x in factors(got, slice(None)))
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

    def test_zero_sine_column_goes_to_csd_alone(self, rng, csd_calls):
        # With R0 = I and an exact 0° angle, -Q21 R0ᴴ has an exactly zero
        # column: the weighted polar step divides by its zero norm.
        zero = (block_diag([random_unitary(rng, 4), random_unitary(rng, 4)])
                @ exact_d_block([0.0, 20.0, 50.0, 80.0])
                @ block_diag([np.eye(4), random_unitary(rng, 4)]))
        mats = np.stack([random_unitary(rng, 8), random_unitary(rng, 8), zero,
                         random_unitary(rng, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = csd_stack(mats)
        assert csd_calls["csd"] == 1
        assert all(np.isfinite(x).all() for x in factors(got, slice(None)))
        want = csd(zero)
        for a, b in zip(factors(got, 2), [want.l0, want.l1, want.r0, want.r1]):
            assert np.array_equal(a, b)
        for i, u in enumerate(mats):
            assert_csd_properties(one(got, i), u)

    def test_non_finite_side_falls_back_above_the_gram_crossover(self, rng, csd_calls,
                                                                monkeypatch):
        h = GRAM_HERK_MIN_N     # the side checks run by ZHERK
        mats = np.stack([random_unitary(rng, 2 * h) for _ in range(3)])
        factor = csd_module._svd_factors

        def broken(*quadrants):
            l0, l1, *rest = factor(*quadrants)
            l1 = l1.copy()
            l1[1, h // 2, h - 1] = np.nan
            return (l0, l1, *rest)

        monkeypatch.setattr(csd_module, "_svd_factors", broken)
        got = csd_stack(mats)
        assert csd_calls["csd"] == 1
        want = csd(mats[1])
        for a, b in zip(factors(got, 1), [want.l0, want.l1, want.r0, want.r1]):
            assert np.array_equal(a, b)
        for i, u in enumerate(mats):
            assert_csd_properties(one(got, i), u)

    @pytest.mark.parametrize("h", [1, 2, 4, 8, 16])
    def test_polar_step_matches_three_svd_oracle(self, rng, monkeypatch, h):
        # One angle within 3° of 0° and one within 3° of 90° (both at least
        # 1e-4° inside); every fourth matrix has its small angle at 1e-5°,
        # whose sine is below _BATCHED_MIN_CS, and so goes to csd.
        mats = []
        for k in range(24):
            small = 1e-5 if k % 4 == 3 else rng.uniform(1e-4, 3.0)
            edge = [small, rng.uniform(87.0, 90.0 - 1e-4)]
            thetas = (edge + list(rng.uniform(0.0, 90.0, h - 2)) if h > 1
                      else [edge[0] if k % 2 else edge[1]])
            mats.append(with_angles(rng, rng.permutation(thetas)))
        mats = np.stack(mats)
        got, sent = lightened_and_sent(monkeypatch, mats)
        monkeypatch.setattr(csd_module, "_svd_factors", three_svd_factors)
        want, want_sent = lightened_and_sent(monkeypatch, mats)
        assert sent == want_sent == list(range(3, 24, 4))
        assert np.abs(got.thetas - want.thetas).max() < 1e-12
        # The two agree to about 1e-14; splitting each error evenly between two
        # columns, as plain Newton–Schulz on normalised columns does, misses
        # by up to 4e-12 at h = 16.
        for a, b in zip(factors(got, slice(None)), factors(want, slice(None))):
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("source", ["haar", "structured"])
    def test_closed_form_matches_lapack_kernel_at_h2(self, monkeypatch, source):
        # The d = 4 stacks that csd_stack gets while compiling Haar inputs at
        # nb 3-6, or the structured inputs with and without phase extraction.
        if source == "haar":
            rng = np.random.default_rng(0xC5D)
            runs = [(random_unitary(rng, 1 << nb), CompileOptions()) for nb in range(3, 7)]
        else:
            runs = [(u, CompileOptions(extract_phases=ep))
                    for u in TestLevelBuild.structured_inputs().values() for ep in (True, False)]
        stacks = [m for m in captured_stacks(monkeypatch, runs) if m.shape[1] == 4]
        assert sum(len(m) for m in stacks) >= (340 if source == "haar" else 100)
        sends = 0
        for mats in stacks:
            got, sent = lightened_and_sent(monkeypatch, mats)
            with monkeypatch.context() as m:
                m.setattr(csd_module, "_svd_factors", lapack_svd_factors)
                want, want_sent = lightened_and_sent(monkeypatch, mats)
            assert sent == want_sent
            sends += len(sent)
            assert np.abs(got.thetas - want.thetas).max() < 1e-12
            for a, b in zip(factors(got, slice(None)), factors(want, slice(None))):
                assert np.abs(a - b).max() < 1e-12
        # Haar inputs never fall back; most structured d = 4 matrices do.
        assert (sends > 0) == (source == "structured")

    def test_zero_sine_gauge_does_not_depend_on_the_csd(self, rng, csd_calls):
        # At an angle of exactly 0° the D block does not couple L1 and R1: a
        # phase on that column of L1 and its conjugate on that row of R1 give
        # the same matrix, and the gauge fix takes out whichever the CSD chose.
        mats = np.stack([with_angles(rng, [0.0, 30.0]) for _ in range(3)]
                        + [random_unitary(rng, 4)])
        f = csd_stack(mats)
        assert csd_calls["csd"] == 3
        e = np.ones(f.thetas.shape, dtype=complex)
        e[:3, 0] = np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        moved = CsdFactors(f.l0, f.l1 * e[:, None, :], f.r0, e.conj()[:, :, None] * f.r1,
                           f.thetas)
        got, want = lighten_stack(moved), lighten_stack(f)
        assert csd_calls["lighten"] == 0
        for i, u in enumerate(mats):
            for a, b in zip(factors(got, i), factors(want, i)):
                assert np.abs(a - b).max() < 1e-14
            ref = lighten(one(moved, i))
            for a, b in zip(factors(got, i), [ref.l0, ref.l1, ref.r0, ref.r1]):
                assert np.abs(a - b).max() < 1e-14
            assert_csd_properties(one(got, i), u)
        pivot = got.r1[:3, 0, 0]
        assert np.abs(pivot.imag).max() < 1e-15 and (pivot.real > 0).all()

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
                want = reference_lighten(reference_csd(mats[i]))
                for a, b in zip(factors(got, i), [want.l0, want.l1, want.r0, want.r1]):
                    assert np.abs(a - b).max() < 1e-11
        assert (lighten_stack(csd_stack(np.stack(one_cluster))).r0 == np.eye(h)).all()
        assert csd_calls["csd"] == 0

    def test_gauge_fix_falls_back_on_clusters_and_tiny_pivots(self, rng, csd_calls):
        h = 4
        r0 = block_diag([np.eye(1), random_unitary(rng, h - 1)])[:, [1, 0, 2, 3]]
        zero_pivot = (block_diag([random_unitary(rng, h), random_unitary(rng, h)])
                      @ exact_d_block([10.0, 30.0, 50.0, 70.0])
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
    @pytest.mark.parametrize("dim", [8, 64, 2 * GRAM_HERK_MIN_N])
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


class TestClosedFormSvd2:
    """``_svd2``, the closed-form SVD of 2x2 blocks, against LAPACK's."""

    @staticmethod
    def blocks(rng):
        haar = [random_unitary(rng, 4)[:2, :2] for _ in range(64)]
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
        diagonal = [np.diag([0.8, 0.3]), np.diag([0.3, 0.8]) * phases, np.diag([0.5, 0.0])]
        anti = [np.array([[0.0, 0.6j], [-0.2, 0.0]]), np.array([[0.0, 0.3], [0.9, 0.0]])]
        rank1 = [np.outer([0.6, 0.8j], [0.28 - 0.96j, 0.0]) * 0.7,
                 np.outer(random_unitary(rng, 2)[0], random_unitary(rng, 2)[1]) * 0.9]
        degenerate = [0.6 * random_unitary(rng, 2), 0.6 * np.eye(2), 0.6 * np.fliplr(np.eye(2))]
        # One or both cosines within a factor 2 of _BATCHED_MIN_CS.
        edge = [with_angles(rng, [90.0 - np.degrees(t), small])[:2, :2]
                for t in _BATCHED_MIN_CS * np.array([0.5, 1.0, 2.0])
                for small in (30.0, 90.0 - np.degrees(1.5 * _BATCHED_MIN_CS))]
        return np.stack(haar + diagonal + anti + rank1 + degenerate + edge + [np.zeros((2, 2))])

    def test_matches_lapack(self, rng):
        q = self.blocks(rng).astype(np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, sigma, vh = _svd2(q)
        _, want, _ = np.linalg.svd(q)
        assert np.abs(sigma - want).max() < 1e-15
        assert (sigma[:, 0] >= sigma[:, 1]).all() and (sigma >= 0).all()
        for side in (u, vh):
            assert np.abs(side.conj().swapaxes(1, 2) @ side - np.eye(2)).max() < 1e-14
        assert np.abs(u @ (sigma[:, :, None] * vh) - q).max() < 1e-14

    def test_small_singular_value_is_not_a_quotient(self):
        # u2 is the complement of u1, so a tiny sigma2 does not scale up the
        # rounding of Q v2: the rebuild holds to rounding however small it is.
        for s2 in (1e-8, 1e-12, 1e-16, 0.0):
            q = (random_unitary(np.random.default_rng(3), 2) @ np.diag([0.7, s2])
                 @ random_unitary(np.random.default_rng(4), 2))[None]
            u, sigma, vh = _svd2(q)
            assert abs(sigma[0, 1] - s2) < 1e-16
            assert np.abs(u[0].conj().T @ u[0] - np.eye(2)).max() < 1e-15
            assert np.abs(u @ (sigma[:, :, None] * vh) - q).max() < 1e-15


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
        mats = [complex_d_matrix(random_phase_factors(rng, h)) for _ in range(k)]
        mats.append(exact_d_block(np.linspace(0, 90, h)))   # theta = 0 and 90 exactly
        mats.append(exact_d_block([0.0] * h) * np.exp(1j * rng.uniform(-3, 3, 2 * h)))
        return np.stack(mats)

    @pytest.mark.parametrize("h", [1, 2, 4, 8])
    def test_extract_phases_equal_loop_entry_by_entry(self, rng, h):
        mats = self.complex_d_stack(rng, h, 10)
        rows, cols = _block_diagonal_index(2 * h)   # the four block diagonals of each matrix
        pf = phase_parameters(*mats[:, rows, cols].reshape(-1, 4, h).swapaxes(0, 1))
        for i, a in enumerate(mats):
            want = reference_extract_phases(a)
            for got, ref in zip((pf.omega[i], pf.omega_l[i], pf.omega_r[i], pf.thetas[i]),
                                want):
                assert np.array_equal(got, ref)
            one = extract_phases(a)
            assert np.array_equal(one.omega, pf.omega[i])
            assert np.array_equal(one.thetas, pf.thetas[i])

    def test_is_complex_d_equal_loop_entry_by_entry(self, rng):
        mats = [exact_d_block([10.0, 20.0, 30.0, 40.0]), random_unitary(rng, 8)]
        nearly = exact_d_block([10.0, 20.0, 30.0, 40.0]).copy()
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

    def test_small_sine_reads_omega_l_off_the_large_entry(self, rng):
        # Where sin θ < _BATCHED_MIN_CS, a rounding error δ in the small d10
        # must not move the rebuilt d11 by c·δ/s: ω_L is read off d11.
        pf = random_phase_factors(rng, 4)
        pf = type(pf)(pf.omega, pf.omega_l, pf.omega_r,
                      np.degrees(np.arcsin([1e-11, 1e-9, 1e-7, 0.5])))
        a = complex_d_matrix(pf)
        a[4:, :4] += np.diag(1e-17 * np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))
        assert np.abs(complex_d_matrix(extract_phases(a)) - a).max() < 1e-15

    def test_extract_phases_rejects_non_complex_d(self, rng):
        extract_phases(exact_d_block([10.0, 20.0]))
        with pytest.raises(ValueError, match="not diagonal"):
            extract_phases(random_unitary(rng, 4))


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
            for u in (hadamard_input(nb), qft_input(nb)):
                prog = compile_unitary(u)
                assert frobenius_distance(u, program_to_matrix(prog)) < 1e-10
        assert calls["n"] == 0

    @pytest.mark.parametrize("nb, calls", [(5, 1), (6, 7), (7, 57)])
    def test_plain_dft_fallback_counts(self, csd_calls, nb, calls):
        # Most of these matrices have an angle at 0° or 90°; the others (4 of
        # 57 at nb = 7) fail the 1e-12 side or residual checks, so a less
        # accurate kernel sends more of them to csd.
        compile_unitary(dft_matrix(nb))
        assert csd_calls["csd"] == calls

    def test_phased_permutations_round_trip(self):
        # The third of these 32x32 matrices once came back 1.4e-8 from its
        # program: phase_parameters read ω_L off an entry with s ≈ 1e-8.
        rng = np.random.default_rng(777)
        for _ in range(4):
            u = np.zeros((32, 32), dtype=complex)
            u[rng.permutation(32), np.arange(32)] = np.exp(1j * rng.uniform(-np.pi, np.pi, 32))
            rng.permutation(16)
            for opts in (CompileOptions(), CompileOptions(lighten=False)):
                assert frobenius_distance(u, program_to_matrix(compile_unitary(u, opts))) < 1e-10

    def test_expanded_counts_do_not_depend_on_the_svd(self, monkeypatch):
        # The last digits of the 2x2 SVD once decided the gauge of L1 and R1
        # at zero sines, and with it the two-qubit count under expansion
        # without phase extraction.
        inputs = [qft_input(nb) for nb in (4, 5, 6)] + [np.diag(np.exp(1j * np.arange(16.0)))]
        opts = CompileOptions(extract_phases=False, expand_controls=True)
        got = [two_bit_rows(compile_unitary(u, opts)) for u in inputs]
        monkeypatch.setattr(csd_module, "_svd2", np.linalg.svd)
        assert [two_bit_rows(compile_unitary(u, opts)) for u in inputs] == got

    def test_near_degenerate_angles_round_trip_exactly(self):
        # Angles 2e-9 to 6e-9 degrees apart are not one cluster: mixing them
        # in the gauge fix would cost about 2e-10 of round-trip error.
        rng = np.random.default_rng(0x5EED)
        for _ in range(3):
            u = with_angles(rng, [20, 20 + 3e-9, 20 + 6e-9, 50, 50 + 5e-9, 70, 70 + 2e-9, 80])
            assert frobenius_distance(u, program_to_matrix(compile_unitary(u))) < 1e-12

    # Non-zero count_by_kind entries of each input, as compiled by the tree
    # builder that preceded the level-wise one (one side matrix at a time);
    # permutation-n5's with its 0° and 90° cores emitted as ROTY ladders.
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
        'permutation-n5': {'ROTY': 361, 'ROTZ': 18, 'CNOT': 408, 'PHAS': 13, 'CPHA': 200},
        'controlled-u-n4': {'ROTY': 56, 'ROTZ': 3, 'CNOT': 56, 'PHAS': 3, 'CPHA': 40},
    }

    @staticmethod
    def structured_inputs():
        rng = np.random.default_rng(0x5EED)
        out = {}
        for nb in range(2, 7):
            out[f"qft-n{nb}"] = qft_input(nb)
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


class TestLapackFallback:
    """The matrices ``csd_stack`` cannot factor go to the LAPACK CSD in one
    stacked call, and the clustered factorizations to one stacked QR per
    cluster size; both take the place of per-matrix paths."""

    def test_cossin_angles_are_canonical(self, monkeypatch):
        # The fallback takes xUNCSD's angles as they come, with no sign flip
        # and no sort, so it relies on them being non-decreasing in [0, π/2].
        rng = np.random.default_rng(0xC0DE)
        stacks = captured_stacks(monkeypatch, [(dft_matrix(nb), CompileOptions(extract_phases=ep))
                                               for nb in range(2, 7) for ep in (True, False)])
        for h in (2, 4, 8, 16, 32):
            d = 2 * h
            perms = np.stack([np.eye(d)[rng.permutation(d)] for _ in range(6)])
            stacks += [perms, perms * np.exp(1j * rng.uniform(-np.pi, np.pi, (6, 1, d))),
                       np.stack([np.kron(random_unitary(rng, k), np.eye(d // k)) for k in (2, h)]),
                       np.stack([np.kron(np.eye(d // k), random_unitary(rng, k)) for k in (2, h)]),
                       np.stack([_embed(random_unitary(rng, n)) for n in (h + 1, d - 1)])]
        sizes = set()
        for mats in stacks:
            m = mats.shape[1] // 2
            sizes.add(2 * m)
            _, theta, _ = cossin(np.asarray(mats, dtype=np.complex128), p=m, q=m, separate=True)
            assert theta.shape == (len(mats), m)
            assert (theta >= 0.0).all() and (theta <= np.pi / 2).all()
            assert (np.diff(theta, axis=1) >= 0.0).all()
        assert sizes >= {4, 8, 16, 32, 64}

    @staticmethod
    def mixed_stack(rng, h):
        """Batched rows, fallback rows (angles at 0° or 90°, permutations),
        angle clusters with and without fallback, and a singleton whose r0
        has a zero first entry."""
        d = 2 * h
        r0 = block_diag([np.eye(1), random_unitary(rng, h - 1) if h > 2 else np.eye(1)])
        pivot = (block_diag([random_unitary(rng, h), random_unitary(rng, h)])
                 @ exact_d_block(np.linspace(10.0, 70.0, h))
                 @ block_diag([r0[:, [1, 0, *range(2, h)]], random_unitary(rng, h)]))
        phased = np.eye(d)[rng.permutation(d)] * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
        return np.stack([
            random_unitary(rng, d),
            with_angles(rng, [0.0] + [40.0] * (h - 1)),                  # fallback, cluster
            with_angles(rng, [20.0] * (h // 2) + [60.0] * (h - h // 2)),  # clusters
            np.eye(d)[rng.permutation(d)],
            pivot,
            with_angles(rng, np.linspace(15.0, 90.0, h)),                # fallback at 90°
            np.kron(random_unitary(rng, h), np.eye(2)),                  # pairs
            random_unitary(rng, d),
            phased,
            with_angles(rng, [35.0] * h),                                # one cluster
        ])

    @pytest.mark.parametrize("h", [2, 4, 8])
    def test_matches_per_matrix_oracle(self, rng, monkeypatch, h):
        mats = self.mixed_stack(rng, h)
        gauged = []
        gauge = csd_module._qr_gauge

        def recorded(f):
            gauged.append(len(f.thetas))
            return gauge(f)
        monkeypatch.setattr(csd_module, "_qr_gauge", recorded)
        plain = csd_stack(mats)
        got, sent = lightened_and_sent(monkeypatch, mats)
        assert abs(plain.r0[4, 0, 0]) < _PHASE_MAG_TINY
        monkeypatch.setattr(csd_module, "_lapack_csd", stacked(reference_csd))
        monkeypatch.setattr(csd_module, "_qr_gauge", stacked(reference_lighten))
        want_plain = csd_stack(mats)
        want, want_sent = lightened_and_sent(monkeypatch, mats)
        assert sent == want_sent and set(sent) >= {1, 3, 5, 8}
        assert gauged[0] >= 3      # the pivot row, the pairs and the one cluster at least
        for a, b in ((plain, want_plain), (got, want)):
            assert np.abs(a.thetas - b.thetas).max() < 1e-12
            for x, y in zip(factors(a, slice(None)), factors(b, slice(None))):
                assert np.abs(x - y).max() < 1e-12
        for i, u in enumerate(mats):
            assert_csd_properties(one(got, i), u)

    def test_csd_and_lighten_are_stacks_of_one(self, rng):
        u = with_angles(rng, [0.0, 20.0, 20.0, 90.0])
        f, stack = csd(u), csd_stack(u[None])
        assert all(np.array_equal(a, b[0]) for a, b in zip(f.fields(), stack.fields()))
        g, lit = lighten(f), lighten_stack(stack)
        assert all(np.array_equal(a, b[0]) for a, b in zip(g.fields(), lit.fields()))
        assert_csd_properties(g, u)


class TestNoWarnings:
    """A compile never lets a floating-point warning reach its caller: the
    batched CSD meets zero sines and cosines on these inputs, and its
    checks send the non-finite factors to the LAPACK CSD."""

    @pytest.mark.parametrize("nb", [5, 6, 7, 8])
    def test_permutations(self, nb):
        rng = np.random.default_rng(nb)
        inputs = [np.eye(1 << nb)[rng.permutation(1 << nb)] for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in inputs:
                compile_unitary(u)

    def test_dft(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nb in range(2, 9):
                compile_unitary(dft_matrix(nb))
