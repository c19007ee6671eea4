"""Numerical factorization kernels.

``csd_stack`` splits every even-dimensional unitary U of a stack into

    U = (L0 ⊕ L1) · D · (R0 ⊕ R1),      D = [[C, S], [-S, C]]

with C = diag(cos θ_i), S = diag(sin θ_i) and the angles canonical:
non-decreasing and inside [0°, 90°].  It works from one SVD, of one quadrant,
and gets the other two side matrices by a weighted polar correction and a
Newton–Schulz step; or in closed form where the angles form one cluster.
For 4x4 matrices the SVD of the 2x2 quadrant is in closed form too
(``_svd2``), and every product of its path with an inner dimension of at
most 2 is a broadcast multiply-add (``_mm``), so a stack of them makes no
LAPACK or BLAS call per matrix.
The matrices it cannot factor accurately go, all in one call, to the LAPACK
CSD (scipy ``cossin``), whose angles come out canonical too.
``lighten_stack`` applies the QR gauge fix that pushes the right side
matrices toward the identity inside clusters of equal angles, and
``extract_phases`` peels a complex D matrix apart into a real rotation core
and diagonal phase factors.  ``csd`` (the LAPACK CSD alone) and ``lighten``
are the same kernels on one matrix.

All angles in this package are degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cossin

# unitarity_deviation is not called here; it stays importable from this
# module, where perfbench/spans.py traces it by name.
from .matrices import DEFAULT_TOL, NotUnitaryError, as_matrix, unitarity_deviation  # noqa: F401

# Two CSD angles count as degenerate when closer than this (degrees).  The
# exactly degenerate clusters of U⊗I (U on 1-4 qubits, d up to 1024) come out
# with an in-cluster spread of at most 1.4e-13° from ``csd_stack`` and 7.1e-13°
# from the LAPACK CSD, a margin of 14 or more.  Mixing two angles that are merely
# close is exact only to within their gap, so the tolerance is no looser.
ANGLE_CLUSTER_TOL = 1e-11

# Magnitudes below this are treated as structurally zero when solving for
# phases; a wrong phase on such an entry perturbs the matrix by < 1e-11.
_PHASE_MAG_TINY = 1e-12

# The batched pass divides by the sines and cosines, so a matrix with
# min(cos, sin) below this goes to the LAPACK CSD; so does one whose sides are not
# unitary, or whose blocks are not reproduced, within _BATCHED_CHECK_TOL.
_BATCHED_MIN_CS = 1e-6
_BATCHED_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class CsdFactors:
    """One cosine-sine step: side unitaries and the shared angle vector.

    ``csd_stack`` and ``lighten_stack`` return k steps at once: every field
    then has a leading axis of length k.
    """

    l0: np.ndarray
    l1: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    thetas: np.ndarray  # degrees

    @property
    def half_dim(self) -> int:
        return self.l0.shape[-1]

    def fields(self) -> tuple[np.ndarray, ...]:
        return self.l0, self.l1, self.r0, self.r1, self.thetas

    def map(self, fn) -> "CsdFactors":
        """The factors with ``fn`` applied to every field."""
        return CsdFactors(*map(fn, self.fields()))


def d_matrix(thetas_deg) -> np.ndarray:
    """The real D matrix [[C, S], [-S, C]] of an angle vector."""
    th = np.radians(np.asarray(thetas_deg, dtype=np.float64))
    c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
    return np.block([[c, s], [-s, c]]).astype(np.complex128)


def csd(u, tol: float = DEFAULT_TOL) -> CsdFactors:
    """Cosine-sine decomposition of one matrix by the LAPACK CSD alone, in
    the convention and with the canonical angles of ``csd_stack``."""
    a = as_matrix(u)
    if a.shape[0] != a.shape[1] or a.shape[0] % 2:
        raise ValueError(f"csd needs a square even-dimensional matrix, got {a.shape}")
    return _lapack_csd(a[None], tol).map(lambda x: x[0])


def _lapack_csd(a: np.ndarray, tol: float, rows=None) -> CsdFactors:
    """The LAPACK CSD (scipy ``cossin``, xUNCSD) of every matrix of a
    (k, n, n) stack, in one call.  xUNCSD returns θ non-decreasing in
    [0, π/2] (Sutton, arXiv:0707.1838), and (U1 ⊕ U2) [[C, -S], [S, C]]
    (V1 ⊕ V2)ᴴ, whose minus moves to the lower-left block when the
    lower-right factors are negated.  Raises NotUnitaryError if a matrix is
    not unitary within tol, naming it by its entry of ``rows`` if given."""
    dev = _unitarity_deviations(a)
    bad = np.flatnonzero(dev > tol)
    if bad.size:
        i = bad[0]
        which = "" if rows is None else f" {rows[i]} of the stack"
        raise NotUnitaryError(f"csd input{which} is not unitary: "
                              f"max deviation {dev[i]:.3e} > {tol:.1e}")
    m = a.shape[-1] // 2
    u, theta, vh = cossin(a, p=m, q=m, separate=True)   # u[:, 0] is U1, u[:, 1] U2
    return CsdFactors(l0=u[:, 0], l1=-u[:, 1], r0=vh[:, 0], r1=-vh[:, 1],
                      thetas=np.degrees(theta))


def _unit_phases(z: np.ndarray, where: np.ndarray) -> np.ndarray:
    """z/|z| where ``where`` holds (z must not vanish there), else 1."""
    return np.where(where, z / np.where(where, np.abs(z), 1.0), 1.0)


def qr_nonneg(m) -> tuple[np.ndarray, np.ndarray]:
    """QR decomposition with a real non-negative principal diagonal of R, of
    one d x n block or of every block of a (k, d, n) stack.

    Needs d <= n (q is then d x d).  Zero diagonal entries are left alone,
    so rank deficiency is permitted.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-2] > a.shape[-1] or not np.isfinite(a).all():
        raise ValueError(f"qr_nonneg needs finite d x n blocks with d <= n, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = _unit_phases(d, np.abs(d) >= _PHASE_MAG_TINY)
    return q * phases[..., None, :], phases.conj()[..., :, None] * r


def lighten(f: CsdFactors) -> CsdFactors:
    """``lighten_stack`` of one factorization."""
    return lighten_stack(f.map(lambda x: np.asarray(x)[None])).map(lambda x: x[0])


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.conj(np.swapaxes(x, -1, -2))


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of matrices.  An inner dimension of at most 2 is
    summed as broadcast products: ``@`` makes one BLAS call per matrix of a
    stack, which costs more than the arithmetic of a 2x2 product."""
    n = a.shape[-1]
    if n > 2:
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    if n == 2:
        out += a[..., :, 1:] * b[..., 1:, :]
    return out


def _newton_schulz(x: np.ndarray) -> np.ndarray:
    """One Newton–Schulz step toward the unitary polar factor of each matrix
    of a stack, X(3I − XᴴX)/2: where XᴴX = I + E, it makes E about -3E²/4."""
    return _mm(x, 1.5 * np.eye(x.shape[-1]) - 0.5 * _mm(_ct(x), x))


def _unitarity_deviations(x: np.ndarray) -> np.ndarray:
    """Max-entry deviation of XᴴX from the identity, per matrix of a stack."""
    return np.abs(_mm(_ct(x), x) - np.eye(x.shape[-1])).max(axis=(-2, -1))


def _set_rows(out: CsdFactors, rows: np.ndarray, f: CsdFactors) -> None:
    """Overwrite the factorizations ``rows`` of the stack ``out`` with ``f``."""
    for dst, src in zip(out.fields(), f.fields()):
        dst[rows] = src


def _column_norms_sq(x: np.ndarray) -> np.ndarray:
    """Squared 2-norm of every column of every matrix of a stack, (k, n)."""
    return np.einsum("kij,kij->kj", x.conj(), x).real


def _one_cluster(q11: np.ndarray, q21: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
    """Whether the angles of each matrix of a stack form one cluster away from
    0° and 90°, that is Q11ᴴQ11 = c²I within _BATCHED_CHECK_TOL; with c and s
    per matrix.  Equal column norms of Q11 are necessary, and cheap to test,
    so a stack without them does not pay for the Gram product."""
    c2 = _column_norms_sq(q11)
    c, s = np.sqrt(c2.mean(axis=1)), np.sqrt(_column_norms_sq(q21).mean(axis=1))
    if (np.ptp(c2, axis=1).max() > _BATCHED_CHECK_TOL
            or np.minimum(c, s).min() < _BATCHED_MIN_CS):
        return False, c, s
    gram = _mm(_ct(q11), q11) - (c ** 2)[:, None, None] * np.eye(q11.shape[-1])
    return bool(np.abs(gram).max() <= _BATCHED_CHECK_TOL), c, s


def _right_rows(l0, l1, q12, q22, c, s) -> np.ndarray:
    """R1 from L0ᴴQ12 = S·R1 and L1ᴴQ22 = C·R1: row j from whichever of the
    two has the larger divisor, s_j or c_j."""
    top = s >= c
    if top.all():
        rows = _mm(_ct(l0), q12)
    elif not top.any():
        rows = _mm(_ct(l1), q22)
    else:
        rows = np.where(top[:, :, None], _mm(_ct(l0), q12), _mm(_ct(l1), q22))
    return rows / np.maximum(s, c)[:, :, None]


def _cluster_factors(q11, q12, q21, q22, c, s) -> tuple[np.ndarray, ...]:
    """Closed-form CSD of matrices whose angles form one cluster: Q11 = c·L0
    with L0 unitary, so R0 = I, L0 = Q11/c, L1 = -Q21/s, and R1 as in
    ``_right_rows``.  This is what ``lighten`` makes of any CSD of such a
    matrix, since the QR of a unitary r0 that is one cluster is the identity.
    No SVD and no QR is needed."""
    m = q11.shape[-1]
    l0, l1 = q11 / c[:, None, None], -q21 / s[:, None, None]
    c, s = np.repeat(c[:, None], m, axis=1), np.repeat(s[:, None], m, axis=1)
    r0 = np.broadcast_to(np.eye(m, dtype=np.complex128), l0.shape).copy()
    return l0, l1, r0, _right_rows(l0, l1, q12, q22, c, s), c, s


def _svd2(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD of every 2x2 matrix of a stack, Q = U diag(σ) Vᴴ, as
    ``np.linalg.svd`` returns it: (U, σ descending, Vᴴ).

    V is the Jacobi rotation that diagonalizes G = QᴴQ (Brent, Luk & Van
    Loan, J. VLSI Comput. Syst. 1985): G = Φ J diag(λ) Jᴴ Φᴴ with
    Φ = diag(1, e^(-iψ)), ψ = arg G₀₁, and J the real rotation by
    t = atan2(2|G₀₁|, G₀₀ − G₁₁)/2, so v₁ belongs to the larger eigenvalue.
    Then σ₁ = |Q v₁| and u₁ = Q v₁/σ₁.  u₂ is the orthogonal complement of
    u₁, phased so that σ₂ = u₂ᴴ Q v₂ is real and non-negative; it is never
    Q v₂/σ₂, which would divide a rounding error by a small σ₂.  A zero Q
    gets u₁ = e₁, and a zero σ₂ leaves u₂ unphased.
    """
    q00, q01, q10, q11 = q[:, 0, 0], q[:, 0, 1], q[:, 1, 0], q[:, 1, 1]
    g00 = q00.real ** 2 + q00.imag ** 2 + q10.real ** 2 + q10.imag ** 2
    g11 = q01.real ** 2 + q01.imag ** 2 + q11.real ** 2 + q11.imag ** 2
    g01 = q00.conj() * q01 + q10.conj() * q11
    r = np.abs(g01)
    t = 0.5 * np.arctan2(2.0 * r, g00 - g11)
    cos_t, sin_t = np.cos(t), np.sin(t)
    phi = _unit_phases(g01.conj(), r > 0.0)   # e^(-iψ)
    v = np.empty_like(q)
    v[:, 0, 0], v[:, 1, 0] = cos_t, phi * sin_t
    v[:, 0, 1], v[:, 1, 1] = -sin_t, phi * cos_t
    w1 = _mm(q, v[:, :, :1])[:, :, 0]                          # Q v₁
    s1 = np.sqrt((w1.real ** 2 + w1.imag ** 2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        u1 = np.where(s1[:, None] > 0.0, w1 / s1[:, None], (1.0, 0.0))
    u2 = np.stack([-u1[:, 1].conj(), u1[:, 0].conj()], axis=1)
    p = (u2.conj() * _mm(q, v[:, :, 1:])[:, :, 0]).sum(axis=1)  # u₂ᴴ Q v₂
    s2 = np.abs(p)
    u2 *= _unit_phases(p, s2 > 0.0)[:, None]
    return np.stack([u1, u2], axis=2), np.stack([s1, s2], axis=1), _ct(v)


def _svd_factors(q11, q12, q21, q22) -> tuple[np.ndarray, ...]:
    """CSD from the SVD of Q11 (Paige & Wei, LAA 1994): Q11 = L0 C R0 gives
    L0, C and R0, and X = -Q21 R0ᴴ = L1 S gives S and L1, with no second SVD.

    S holds the column norms of X, so G = XᴴX is S² up to rounding, and L1 is
    the polar factor X G^(-1/2).  X·W, with W the first-order expansion of
    G^(-1/2) about S² (W_ii = 1/s_i, W_ij = -G_ij / (s_i s_j (s_i + s_j))),
    splits each orthogonality error between columns i and j as the polar
    factor does; one Newton–Schulz step then makes L1 unitary to rounding
    (Higham, *Functions of Matrices*, SIAM 2008, ch. 8; Björck & Bowie, SIAM
    J. Numer. Anal. 1971).  R1 from ``_right_rows`` is unitary to rounding
    already (each row is divided by max(s, c) >= 1/√2), and takes one step.
    A zero s gives non-finite factors, which ``csd_stack``'s checks send to
    the LAPACK CSD; no floating-point warning is raised on the way.

    For 2x2 quadrants (h = 2) the SVD is ``_svd2``'s closed form, not
    LAPACK's, and the side and residual checks of ``csd_stack`` vouch for
    its L0 and R0 as for the other factors.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        l0, c, r0 = _svd2(q11) if q11.shape[-1] == 2 else np.linalg.svd(q11)
        x = -_mm(q21, _ct(r0))
        g = _mm(_ct(x), x)
        s = np.sqrt(np.diagonal(g, axis1=1, axis2=2).real)
        si, sj = s[:, :, None], s[:, None, :]
        w = -g / (si * sj * (si + sj))
        i = np.arange(s.shape[1])
        w[:, i, i] = 1.0 / s
        l1 = _newton_schulz(_mm(x, w))
        return l0, l1, r0, _newton_schulz(_right_rows(l0, l1, q12, q22, c, s)), c, s


def csd_stack(mats, tol: float = DEFAULT_TOL) -> CsdFactors:
    """Cosine-sine decomposition of every matrix of a (k, n, n) stack.

    A stack in which the angles of each matrix form one cluster gets the
    closed form of ``_cluster_factors``; any other stack is factored at once
    by ``_svd_factors``, and a one-cluster matrix in it gets its gauge from
    ``lighten_stack``.  The angles come out canonical, since the singular
    values arrive in descending order.  The matrices with an angle within
    _BATCHED_MIN_CS (as a cosine or sine) of 90° or 0°, whose factors fail
    the side-unitarity or block residual check (non-finite factors fail
    both), or whose unitarity within tol the checks cannot vouch for, are
    factored instead by one ``_lapack_csd`` call, which raises
    NotUnitaryError if one of them is not unitary within tol.
    """
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] % 2:
        raise ValueError(f"csd_stack needs a stack of square even-dimensional matrices, "
                         f"got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    m = a.shape[1] // 2
    q11, q12, q21, q22 = a[:, :m, :m], a[:, :m, m:], a[:, m:, :m], a[:, m:, m:]
    one, c1, s1 = _one_cluster(q11, q21)
    if one:
        l0, l1, r0, r1, c, s = _cluster_factors(q11, q12, q21, q22, c1, s1)
    else:
        l0, l1, r0, r1, c, s = _svd_factors(q11, q12, q21, q22)
    thetas = np.degrees(np.arctan2(s, c))
    cs, ss = c[:, None, :], s[:, None, :]
    sides, rebuilt11, rebuilt21 = [l0, l1, r1], l0 * cs, -(l1 * ss)
    if not one:     # the closed form's r0 is exactly I
        sides.append(r0)
        rebuilt11, rebuilt21 = _mm(rebuilt11, r0), _mm(rebuilt21, r0)
    side_dev = np.max([_unitarity_deviations(x) for x in sides], axis=0)
    residual = np.max([np.abs(rebuilt - block).max(axis=(1, 2)) for rebuilt, block in (
        (rebuilt11, q11), (_mm(l0 * ss, r1), q12), (rebuilt21, q21), (_mm(l1 * cs, r1), q22))],
        axis=0)
    # Each test reads "not within limits", so NaN factors fall back too.
    fallback = ~(np.minimum(c, s) >= _BATCHED_MIN_CS).all(axis=1)
    fallback |= ~(side_dev <= _BATCHED_CHECK_TOL) | ~(residual <= _BATCHED_CHECK_TOL)
    # The product P of the factors is unitary within (m·side_dev)(2 + m·side_dev)
    # (max entry, through the spectral norm), and each column of U - P has
    # 2-norm at most sqrt(2m)·residual, so U is unitary within the bound below;
    # where that exceeds tol, ``_lapack_csd`` checks U itself.
    fw = m * side_dev * (2.0 + m * side_dev)
    fe = np.sqrt(2 * m) * residual
    fallback |= ~(fw + 2.0 * np.sqrt(1.0 + fw) * fe + fe * fe <= tol)
    out = CsdFactors(l0, l1, r0, r1, thetas)
    rows = np.flatnonzero(fallback)
    if rows.size:
        _set_rows(out, rows, _lapack_csd(a[rows], tol, rows))
    return out


def lighten_stack(f: CsdFactors) -> CsdFactors:
    """Gauge-fix every factorization of a stack (fields with a leading axis)
    so that r0 is as close to the identity as the angles allow.

    Within a cluster of degenerate angles (gaps at most ANGLE_CLUSTER_TOL)
    a shared unitary G commutes through D, so L_j -> L_j G, R_j -> G† R_j
    leave the product unchanged.  G is the Q of the QR of the cluster's row
    block of r0 (``_qr_gauge``), so a unitary r0 that is one cluster becomes
    the identity, and an identity r0 (``_cluster_factors``) stays.  Where
    every cluster is a singleton and every first entry of r0 is at least
    _PHASE_MAG_TINY, G is one phase per angle, which makes those entries real
    and positive.  Where a sine vanishes too (below _PHASE_MAG_TINY), D does
    not couple L1 and R1 (to within 2·sin θ per entry of Q12 and Q21), so
    one more phase, on that column of L1 and that row of r1, makes the first
    entry of the row of r1 real and non-negative: the factors then do not
    depend on the rounding the CSD left there.  Angles are untouched.
    """
    done = (f.r0 == np.eye(f.half_dim)).all(axis=(1, 2))
    flat = np.sin(np.radians(f.thetas)) < _PHASE_MAG_TINY
    if done.all() and not flat.any():
        return f
    pivot = f.r0[:, :, 0]
    singles = ((np.diff(f.thetas, axis=1) > ANGLE_CLUSTER_TOL).all(axis=1)
               & (np.abs(pivot) >= _PHASE_MAG_TINY).all(axis=1))
    g = _unit_phases(pivot, singles[:, None])
    gh = g.conj()[:, :, None]
    l1, r1 = f.l1 * g[:, None, :], gh * f.r1
    flat &= singles[:, None]
    if flat.any():
        pivot = r1[:, :, 0]
        e = _unit_phases(pivot, flat & (np.abs(pivot) >= _PHASE_MAG_TINY))
        l1, r1 = l1 * e[:, None, :], e.conj()[:, :, None] * r1
    out = CsdFactors(l0=f.l0 * g[:, None, :], l1=l1, r0=gh * f.r0, r1=r1,
                     thetas=f.thetas.copy())
    # singles and done are disjoint but for half_dim 1, where both give G = 1.
    rows = np.flatnonzero(~(singles | done))
    if rows.size:
        _set_rows(out, rows, _qr_gauge(f.map(lambda x: x[rows])))
    return out


def _qr_gauge(f: CsdFactors) -> CsdFactors:
    """``lighten_stack``'s gauge fix of every factorization of a stack, with
    G the direct sum of the Q factors of ``qr_nonneg`` on the row blocks of
    r0 of its angle clusters: one stacked QR per distinct cluster size."""
    k, h = f.thetas.shape
    first = np.ones((k, h), dtype=bool)
    first[:, 1:] = np.diff(f.thetas, axis=1) > ANGLE_CLUSTER_TOL
    row, start = np.nonzero(first)
    size = np.diff(np.append(row * h + start, k * h))   # every row starts a cluster
    g = np.zeros((k, h, h), dtype=np.complex128)
    r0 = np.empty_like(f.r0)
    for n in np.unique(size):
        rr, idx = row[size == n][:, None], start[size == n][:, None] + np.arange(n)
        q, r0[rr, idx] = qr_nonneg(f.r0[rr, idx])
        g[rr[:, :, None], idx[:, :, None], idx[:, None, :]] = q
    return CsdFactors(l0=f.l0 @ g, l1=f.l1 @ g, r0=r0, r1=_ct(g) @ f.r1, thetas=f.thetas)


# ---------------------------------------------------------------------------
# Complex D matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseFactors:
    """Parameters of a complex D matrix, all in degrees.

    Entry j of the four diagonal blocks reads

        [[ c e^{iΩ},      s e^{i(Ω+ωR)}          ],
         [ -s e^{i(Ω+ωL)}, c e^{i(Ω+ωL+ωR)}      ]]

    with c = cos θ_j >= 0 and s = sin θ_j >= 0, θ_j in [0°, 90°].
    ``phase_parameters`` of stacked diagonals returns k parameter sets at
    once: every field then has a leading axis of length k.
    """

    omega: np.ndarray
    omega_l: np.ndarray
    omega_r: np.ndarray
    thetas: np.ndarray

    @property
    def half_dim(self) -> int:
        return self.omega.shape[-1]

    def map(self, fn) -> "PhaseFactors":
        """The parameters with ``fn`` applied to every field."""
        return PhaseFactors(*map(fn, (self.omega, self.omega_l, self.omega_r, self.thetas)))

    def real_mask(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Per parameter set of a stack: every phase vanishes within tol radians."""
        scale = np.degrees(tol)
        phases = np.stack([self.omega, self.omega_l, self.omega_r])
        return np.all(np.abs(_wrap_deg(phases)) <= scale, axis=(0, -1))


def _wrap_deg(a) -> np.ndarray:
    """Wrap degrees into (-180, 180]."""
    return -(np.mod(-np.asarray(a, dtype=np.float64) + 180.0, 360.0) - 180.0)


def _block_diagonal_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the diagonals of the four half-size blocks."""
    j = np.arange(n // 2)
    k = j + n // 2
    return np.concatenate([j, j, k, k]), np.concatenate([j, k, j, k])


def is_complex_d_stack(mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per matrix of a (k, n, n) stack: True iff all four half-size blocks are
    diagonal within tol (max entry off the block diagonals)."""
    a = np.asarray(mats)
    if a.ndim != 3:
        raise ValueError(f"expected a (k, n, n) stack, got shape {a.shape}")
    if a.shape[1] != a.shape[2] or a.shape[1] % 2:
        return np.zeros(a.shape[0], dtype=bool)
    mag = np.abs(a)
    rows, cols = _block_diagonal_index(a.shape[1])
    mag[:, rows, cols] = 0.0
    return mag.max(axis=(1, 2)) <= tol


def is_complex_d(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff all four half-size blocks of m are diagonal within tol."""
    return bool(is_complex_d_stack(as_matrix(m)[None], tol)[0])


def phase_parameters(d00, d01, d10, d11) -> PhaseFactors:
    """Phase and angle parameters of complex D matrices given by the diagonals
    of their four blocks (arrays whose last axis runs along the diagonal).

    Magnitudes give c and s directly (hence θ lands in [0°, 90°] with both
    non-negative, as the 180°-shift rules demand); phases are read off the
    entries of largest magnitude so that degenerate angles stay stable: the
    off-diagonal entries vanish at θ ≈ 0°, the diagonal ones at θ ≈ 90°.
    Where s < _BATCHED_MIN_CS, ω_L is read off d11 as arg d11 − Ω − ω_R: read
    off the small d10, an error δ in it would move ω_L by δ/s and the
    rebuilt d11 by c·δ/s.
    """
    c, s = np.abs(d00), np.abs(d01)
    thetas = np.degrees(np.arctan2(s, c))
    flat = s < _PHASE_MAG_TINY                  # theta ~ 0
    right = ~flat & (c < _PHASE_MAG_TINY)       # theta ~ 90
    a00, a01 = np.angle(d00), np.angle(d01)
    omega = np.where(right, a01, a00)
    omega_r = np.where(flat | right, 0.0, a01 - omega)
    omega_l = np.where(s < _BATCHED_MIN_CS, np.angle(d11) - omega_r, np.angle(-d10)) - omega
    return PhaseFactors(omega=_wrap_deg(np.degrees(omega)),
                        omega_l=_wrap_deg(np.degrees(omega_l)),
                        omega_r=_wrap_deg(np.degrees(omega_r)),
                        thetas=thetas)


def extract_phases(d, tol: float = DEFAULT_TOL) -> PhaseFactors:
    """Solve a complex D matrix for its phase and angle parameters, read off
    the diagonals of its four blocks by ``phase_parameters``."""
    a = as_matrix(d)
    n = a.shape[0]
    if a.shape[1] != n or n % 2:
        raise ValueError(f"extract_phases needs a square even-dimensional matrix, got {a.shape}")
    if not is_complex_d(a, tol):
        raise ValueError("extract_phases input blocks are not diagonal")
    return phase_parameters(*a[_block_diagonal_index(n)].reshape(4, -1))


def phase_factors_matrix(pf: PhaseFactors) -> np.ndarray:
    """Assemble the complex D matrix of a parameter set:
    [I ⊕ Γ_L] · D(θ) · [Γ ⊕ Γ Γ_R]."""
    h = pf.half_dim
    gl = np.exp(1j * np.radians(pf.omega_l))
    g = np.exp(1j * np.radians(pf.omega))
    gr = np.exp(1j * np.radians(pf.omega_r))
    left = np.concatenate([np.ones(h), gl])
    right = np.concatenate([g, g * gr])
    return left[:, None] * d_matrix(pf.thetas) * right[None, :]
