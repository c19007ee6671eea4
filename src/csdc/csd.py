"""Numerical factorization kernels.

``csd_stack`` splits every even-dimensional unitary U of a stack into

    U = (L0 ⊕ L1) · D · (R0 ⊕ R1),      D = [[C, S], [-S, C]]

with C = diag(cos θ_i), S = diag(sin θ_i) and the angles canonical:
non-decreasing and inside [0°, 90°].  It works from the SVD of one quadrant,
or in closed form where the angles form one cluster.  ``csd`` computes the
same factorization of one matrix with the LAPACK CSD (scipy ``cossin``); it
is the fallback for the matrices ``csd_stack`` cannot factor accurately.
``lighten`` (``lighten_stack`` for a stack) applies the QR gauge fix that
pushes the right side matrices toward the identity inside clusters of equal
angles, and ``extract_phases`` peels a complex D matrix apart into a real
rotation core and diagonal phase factors.

All angles in this package are degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cossin

from .matrices import (DEFAULT_TOL, NotUnitaryError, as_matrix, direct_sum,
                       unitarity_deviation)

# Two CSD angles count as degenerate when closer than this (degrees).  The
# exactly degenerate clusters of U⊗I (U on 1-4 qubits, d up to 1024) come out
# with an in-cluster spread of at most 1.4e-13° from ``csd_stack`` and 7.1e-13°
# from ``csd``, a margin of 14 or more.  Mixing two angles that are merely
# close is exact only to within their gap, so the tolerance is no looser.
ANGLE_CLUSTER_TOL = 1e-11

# Magnitudes below this are treated as structurally zero when solving for
# phases; a wrong phase on such an entry perturbs the matrix by < 1e-11.
_PHASE_MAG_TINY = 1e-12

# The batched pass divides by the sines and cosines, so a matrix with
# min(cos, sin) below this goes to ``csd``; so does one whose sides are not
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

    def d_matrix(self) -> np.ndarray:
        return d_matrix(self.thetas)

    def reconstruct(self) -> np.ndarray:
        return direct_sum([self.l0, self.l1]) @ self.d_matrix() @ direct_sum([self.r0, self.r1])


def d_matrix(thetas_deg) -> np.ndarray:
    """The real D matrix [[C, S], [-S, C]] of an angle vector."""
    th = np.radians(np.asarray(thetas_deg, dtype=np.float64))
    c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
    return np.block([[c, s], [-s, c]]).astype(np.complex128)


def csd(u, tol: float = DEFAULT_TOL) -> CsdFactors:
    """Cosine-sine decomposition with canonical angles.

    Computed by the LAPACK CSD (scipy ``cossin``), then rotated into the
    [[C, S], [-S, C]] sign convention and angle-normalized.
    """
    a = as_matrix(u)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or n % 2:
        raise ValueError(f"csd needs a square even-dimensional matrix, got {a.shape}")
    dev = unitarity_deviation(a)
    if dev > tol:
        raise NotUnitaryError(f"csd input is not unitary: max deviation {dev:.3e} > {tol:.1e}")
    m = n // 2
    lr, cs, rr = cossin(a, p=m, q=m)
    # cossin returns (U1 ⊕ U2) [[C, -S], [S, C]] (V1 ⊕ V2)†; flipping the sign
    # of the lower-right factors moves the minus onto the lower-left block.
    c = np.diag(cs[:m, :m]).real
    s = np.diag(cs[m:, :m]).real
    thetas = np.degrees(np.arctan2(s, c))
    f = CsdFactors(l0=lr[:m, :m], l1=-lr[m:, m:], r0=rr[:m, :m], r1=-rr[m:, m:],
                   thetas=thetas)
    return normalize_angles(f)


def normalize_angles(f: CsdFactors) -> CsdFactors:
    """Equivalent factorization with angles non-decreasing in [0°, 90°].

    Negative cosines and sines are repaired by sign flips absorbed into the
    side matrices; ordering is restored by permuting side columns and rows.
    The reconstruction is unchanged.
    """
    th = np.asarray(f.thetas, dtype=np.float64).copy()
    l0, l1 = f.l0.copy(), f.l1.copy()
    r0, r1 = f.r0.copy(), f.r1.copy()

    th = np.mod(th + 180.0, 360.0) - 180.0
    # cos < 0: shift by 180 degrees, negating the matching column of both L's.
    wide = np.abs(th) > 90.0
    if np.any(wide):
        th[wide] -= 180.0 * np.sign(th[wide])
        l0[:, wide] *= -1.0
        l1[:, wide] *= -1.0
    # sin < 0: negate the angle, the matching column of L1 and row of R1.
    neg = th < 0.0
    if np.any(neg):
        th[neg] *= -1.0
        l1[:, neg] *= -1.0
        r1[neg, :] *= -1.0
    order = np.argsort(th, kind="stable")
    if not np.array_equal(order, np.arange(len(th))):
        th = th[order]
        l0, l1 = l0[:, order], l1[:, order]
        r0, r1 = r0[order, :], r1[order, :]
    return CsdFactors(l0, l1, r0, r1, th)


def qr_nonneg(m) -> tuple[np.ndarray, np.ndarray]:
    """QR decomposition with a real non-negative principal diagonal of R.

    Accepts d x n blocks with d <= n (q is then d x d).  Zero diagonal entries
    are left alone, so rank deficiency is permitted.
    """
    a = as_matrix(m)
    if a.shape[0] > a.shape[1]:
        raise ValueError(f"qr_nonneg needs d <= n, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diag(r).copy()
    small = np.abs(d) < _PHASE_MAG_TINY
    phases = np.where(small, 1.0, d / np.where(small, 1.0, np.abs(d)))
    q = q * phases[None, :]
    r = phases.conj()[:, None] * r
    return q, r


def angle_clusters(thetas) -> list[tuple[int, int]]:
    """Half-open [start, stop) runs of degenerate angles (gaps at most
    ANGLE_CLUSTER_TOL) in a sorted vector."""
    th = np.asarray(thetas, dtype=np.float64)
    clusters = []
    start = 0
    for i in range(1, len(th)):
        if th[i] - th[i - 1] > ANGLE_CLUSTER_TOL:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(th)))
    return clusters


def lighten(f: CsdFactors) -> CsdFactors:
    """Gauge-fix the factorization so r0 is as close to identity as the angles allow.

    Within each cluster of degenerate angles, any shared unitary G commutes
    through the D matrix, so L_j -> L_j G and R_j -> G† R_j leave the product
    unchanged.  Choosing G per cluster as the Q of a QR decomposition of the
    cluster's row block of r0 makes that block upper triangular with a real
    non-negative principal diagonal; a fully degenerate unitary r0 collapses
    to the identity.  Angles are untouched.
    """
    gs = []
    new_r0 = np.empty_like(f.r0)
    for start, stop in angle_clusters(f.thetas):
        q, r = qr_nonneg(f.r0[start:stop, :])
        gs.append(q)
        new_r0[start:stop, :] = r
    g = direct_sum(gs) if len(gs) > 1 else gs[0]
    return CsdFactors(l0=f.l0 @ g, l1=f.l1 @ g, r0=new_r0, r1=g.conj().T @ f.r1,
                      thetas=f.thetas)


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.conj(np.swapaxes(x, -1, -2))


def _polar(x: np.ndarray) -> np.ndarray:
    """Unitary polar factor of each matrix of a stack."""
    u, _, vh = np.linalg.svd(x)
    return u @ vh


def _unitarity_deviations(x: np.ndarray) -> np.ndarray:
    """Max-entry deviation of XᴴX from the identity, per matrix of a stack."""
    return np.abs(_ct(x) @ x - np.eye(x.shape[-1])).max(axis=(-2, -1))


def _set_factors(out: CsdFactors, i: int, f: CsdFactors) -> None:
    for name in ("l0", "l1", "r0", "r1", "thetas"):
        getattr(out, name)[i] = getattr(f, name)


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
    gram = _ct(q11) @ q11 - (c ** 2)[:, None, None] * np.eye(q11.shape[-1])
    return bool(np.abs(gram).max() <= _BATCHED_CHECK_TOL), c, s


def _right_rows(l0, l1, q12, q22, c, s) -> np.ndarray:
    """R1 from L0ᴴQ12 = S·R1 and L1ᴴQ22 = C·R1: row j from whichever of the
    two has the larger divisor, s_j or c_j."""
    top = s >= c
    if top.all():
        rows = _ct(l0) @ q12
    elif not top.any():
        rows = _ct(l1) @ q22
    else:
        rows = np.where(top[:, :, None], _ct(l0) @ q12, _ct(l1) @ q22)
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


def _svd_factors(q11, q12, q21, q22) -> tuple[np.ndarray, ...]:
    """CSD from the SVD of Q11 (Paige & Wei, LAA 1994): Q11 = L0 C R0 gives
    L0, C and R0; L1 is the polar factor of -Q21 R0ᴴ = L1 S; R1 is the polar
    factor of ``_right_rows``, which restores its unitarity."""
    l0, c, r0 = np.linalg.svd(q11)
    x = -q21 @ _ct(r0)
    l1 = _polar(x)
    s = np.einsum("kij,kij->kj", l1.conj(), x).real
    return l0, l1, r0, _polar(_right_rows(l0, l1, q12, q22, c, s)), c, s


def csd_stack(mats, tol: float = DEFAULT_TOL) -> CsdFactors:
    """``csd`` of every matrix of a (k, n, n) stack, in the same convention.

    A stack in which the angles of each matrix form one cluster gets the
    closed form of ``_cluster_factors``; any other stack is factored at once
    by ``_svd_factors``, and a one-cluster matrix in it gets its gauge from
    ``lighten``.  The angles come out canonical, since the singular values
    arrive in descending order.  A matrix is handed to ``csd`` instead
    when an angle is within _BATCHED_MIN_CS (as a cosine or sine) of 90° or
    0°, when its factors fail the side-unitarity or block residual check, or
    when the checks cannot vouch for its unitarity within tol; ``csd`` then
    raises NotUnitaryError if the matrix is not unitary within tol.
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
    fallback = (np.minimum(c, s) < _BATCHED_MIN_CS).any(axis=1)
    side_dev = np.max([_unitarity_deviations(x) for x in (l0, l1, r0, r1)], axis=0)
    cs, ss = c[:, None, :], s[:, None, :]
    residual = np.max([np.abs(rebuilt - block).max(axis=(1, 2)) for rebuilt, block in (
        ((l0 * cs) @ r0, q11), ((l0 * ss) @ r1, q12),
        (-(l1 * ss) @ r0, q21), ((l1 * cs) @ r1, q22))], axis=0)
    fallback |= (side_dev > _BATCHED_CHECK_TOL) | (residual > _BATCHED_CHECK_TOL)
    # The product P of the factors is unitary within (m·side_dev)(2 + m·side_dev)
    # (max entry, through the spectral norm), and each column of U - P has
    # 2-norm at most sqrt(2m)·residual, so U is unitary within the bound below;
    # where that exceeds tol, ``csd`` checks U itself.
    fw = m * side_dev * (2.0 + m * side_dev)
    fe = np.sqrt(2 * m) * residual
    fallback |= fw + 2.0 * np.sqrt(1.0 + fw) * fe + fe * fe > tol
    out = CsdFactors(l0, l1, r0, r1, thetas)
    for i in np.flatnonzero(fallback):
        try:
            _set_factors(out, i, csd(a[i], tol))
        except NotUnitaryError as exc:
            raise NotUnitaryError(f"csd input {i} of the stack: {exc}") from None
    return out


def lighten_stack(f: CsdFactors) -> CsdFactors:
    """``lighten`` of every factorization of a stack (fields with a leading axis).

    Where every angle cluster is a singleton, the gauge fix is one phase per
    angle: it makes the first entry of each row of r0 real and non-negative,
    as ``qr_nonneg`` does for a one-row block.  An r0 that is the identity
    (the closed form of a one-cluster CSD) is already lightened.  The other
    factorizations, with a larger cluster or with a first entry of r0 below
    the magnitude ``qr_nonneg`` leaves alone, go through ``lighten``.
    """
    done = (f.r0 == np.eye(f.half_dim)).all(axis=(1, 2))
    if done.all():
        return f
    pivot = f.r0[:, :, 0]
    mag = np.abs(pivot)
    singles = ((np.diff(f.thetas, axis=1) > ANGLE_CLUSTER_TOL).all(axis=1)
               & (mag >= _PHASE_MAG_TINY).all(axis=1))
    batched = singles | done   # disjoint but for half_dim 1, where both give g = 1
    g = np.where(singles[:, None], pivot / np.where(singles[:, None], mag, 1.0), 1.0)
    gh = g.conj()[:, :, None]
    out = CsdFactors(l0=f.l0 * g[:, None, :], l1=f.l1 * g[:, None, :],
                     r0=gh * f.r0, r1=gh * f.r1, thetas=f.thetas.copy())
    for i in np.flatnonzero(~batched):
        one = CsdFactors(f.l0[i], f.l1[i], f.r0[i], f.r1[i], f.thetas[i])
        _set_factors(out, i, lighten(one))
    return out


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
    ``extract_phases_stack`` returns k parameter sets at once: every field
    then has a leading axis of length k.
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
    """
    c, s = np.abs(d00), np.abs(d01)
    thetas = np.degrees(np.arctan2(s, c))
    flat = s < _PHASE_MAG_TINY                  # theta ~ 0
    right = ~flat & (c < _PHASE_MAG_TINY)       # theta ~ 90
    a00, a01 = np.angle(d00), np.angle(d01)
    omega = np.where(right, a01, a00)
    omega_r = np.where(flat | right, 0.0, a01 - omega)
    omega_l = np.where(flat, np.angle(d11), np.angle(-d10)) - omega
    return PhaseFactors(omega=_wrap_deg(np.degrees(omega)),
                        omega_l=_wrap_deg(np.degrees(omega_l)),
                        omega_r=_wrap_deg(np.degrees(omega_r)),
                        thetas=thetas)


def extract_phases_stack(mats, tol: float = DEFAULT_TOL) -> PhaseFactors:
    """Solve every complex D matrix of a (k, n, n) stack for its phase and
    angle parameters; each field of the result has shape (k, n/2)."""
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] % 2:
        raise ValueError(f"extract_phases needs square even-dimensional matrices, got {a.shape}")
    if not is_complex_d_stack(a, tol).all():
        raise ValueError("extract_phases input blocks are not diagonal")
    h = a.shape[1] // 2
    diag = np.diagonal(a, axis1=1, axis2=2)
    return phase_parameters(diag[:, :h], np.diagonal(a[:, :h, h:], axis1=1, axis2=2),
                            np.diagonal(a[:, h:, :h], axis1=1, axis2=2), diag[:, h:])


def extract_phases(d, tol: float = DEFAULT_TOL) -> PhaseFactors:
    """Solve a complex D matrix for its phase and angle parameters."""
    pf = extract_phases_stack(as_matrix(d)[None], tol)
    return PhaseFactors(pf.omega[0], pf.omega_l[0], pf.omega_r[0], pf.thetas[0])


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
