"""Numerical factorization kernels.

``csd`` splits an even-dimensional unitary U into

    U = (L0 ⊕ L1) · D · (R0 ⊕ R1),      D = [[C, S], [-S, C]]

with C = diag(cos θ_i), S = diag(sin θ_i) and the angles canonical:
non-decreasing and inside [0°, 90°].  ``lighten`` applies the QR gauge fix
that pushes the right side matrices toward the identity inside clusters of
equal angles, and ``extract_phases`` peels a complex D matrix apart into a
real rotation core and diagonal phase factors.

All angles in this package are degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cossin

from .matrices import (DEFAULT_TOL, NotUnitaryError, as_matrix, direct_sum,
                       unitarity_deviation)

# Two CSD angles count as degenerate when closer than this (degrees).  Must be
# looser than the reconstruction tolerance or clusters never form.
ANGLE_CLUSTER_TOL = 1e-8

# Magnitudes below this are treated as structurally zero when solving for
# phases; a wrong phase on such an entry perturbs the matrix by < 1e-11.
_PHASE_MAG_TINY = 1e-12


@dataclass(frozen=True)
class CsdFactors:
    """One cosine-sine step: side unitaries and the shared angle vector."""

    l0: np.ndarray
    l1: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    thetas: np.ndarray  # degrees

    @property
    def half_dim(self) -> int:
        return self.l0.shape[0]

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


def angle_clusters(thetas, angle_tol: float = ANGLE_CLUSTER_TOL) -> list[tuple[int, int]]:
    """Half-open [start, stop) runs of degenerate angles in a sorted vector."""
    th = np.asarray(thetas, dtype=np.float64)
    clusters = []
    start = 0
    for i in range(1, len(th)):
        if th[i] - th[i - 1] > angle_tol:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(th)))
    return clusters


def lighten(f: CsdFactors, tol: float = DEFAULT_TOL,
            angle_tol: float = ANGLE_CLUSTER_TOL) -> CsdFactors:
    """Gauge-fix the factorization so r0 is as close to identity as the angles allow.

    Within each cluster of degenerate angles, any shared unitary G commutes
    through the D matrix, so L_j -> L_j G and R_j -> G† R_j leave the product
    unchanged.  Choosing G per cluster as the Q of a QR decomposition of the
    cluster's row block of r0 makes that block upper triangular with a real
    non-negative principal diagonal; a fully degenerate unitary r0 collapses
    to the identity.  Angles are untouched.
    """
    m = f.half_dim
    gs = []
    new_r0 = np.empty_like(f.r0)
    for start, stop in angle_clusters(f.thetas, angle_tol):
        q, r = qr_nonneg(f.r0[start:stop, :])
        gs.append(q)
        new_r0[start:stop, :] = r
    g = direct_sum(gs) if len(gs) > 1 else gs[0]
    return CsdFactors(l0=f.l0 @ g, l1=f.l1 @ g, r0=new_r0, r1=g.conj().T @ f.r1,
                      thetas=f.thetas)


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
    """

    omega: np.ndarray
    omega_l: np.ndarray
    omega_r: np.ndarray
    thetas: np.ndarray

    @property
    def half_dim(self) -> int:
        return len(self.omega)

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        scale = np.degrees(tol)
        return bool(
            np.all(np.abs(_wrap_deg(self.omega)) <= scale)
            and np.all(np.abs(_wrap_deg(self.omega_l)) <= scale)
            and np.all(np.abs(_wrap_deg(self.omega_r)) <= scale))


def _wrap_deg(a) -> np.ndarray:
    """Wrap degrees into (-180, 180]."""
    return -(np.mod(-np.asarray(a, dtype=np.float64) + 180.0, 360.0) - 180.0)


def is_complex_d(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff all four half-size blocks of m are diagonal within tol."""
    a = as_matrix(m)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or n % 2:
        return False
    h = n // 2
    for blk in (a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]):
        off = blk - np.diag(np.diag(blk))
        if np.abs(off).max() > tol:
            return False
    return True


def extract_phases(d, tol: float = DEFAULT_TOL) -> PhaseFactors:
    """Solve a complex D matrix for its phase and angle parameters.

    Magnitudes give c and s directly (hence θ lands in [0°, 90°] with both
    non-negative, as the 180°-shift rules demand); phases are read off the
    entries of largest magnitude so that degenerate angles stay stable.
    """
    a = as_matrix(d)
    n = a.shape[0]
    if a.shape[0] != a.shape[1] or n % 2:
        raise ValueError(f"extract_phases needs a square even-dimensional matrix, got {a.shape}")
    if not is_complex_d(a, tol):
        raise ValueError("extract_phases input blocks are not diagonal")
    h = n // 2
    d00 = np.diag(a[:h, :h])
    d01 = np.diag(a[:h, h:])
    d10 = np.diag(a[h:, :h])
    d11 = np.diag(a[h:, h:])
    c, s = np.abs(d00), np.abs(d01)
    thetas = np.degrees(np.arctan2(s, c))
    omega = np.empty(h)
    omega_l = np.empty(h)
    omega_r = np.empty(h)
    for j in range(h):
        if s[j] < _PHASE_MAG_TINY:      # theta ~ 0: off-diagonal entries vanish
            omega[j] = np.angle(d00[j])
            omega_r[j] = 0.0
            omega_l[j] = np.angle(d11[j]) - omega[j]
        elif c[j] < _PHASE_MAG_TINY:    # theta ~ 90: diagonal entries vanish
            omega_r[j] = 0.0
            omega[j] = np.angle(d01[j])
            omega_l[j] = np.angle(-d10[j]) - omega[j]
        else:
            omega[j] = np.angle(d00[j])
            omega_r[j] = np.angle(d01[j]) - omega[j]
            omega_l[j] = np.angle(-d10[j]) - omega[j]
    return PhaseFactors(omega=_wrap_deg(np.degrees(omega)),
                        omega_l=_wrap_deg(np.degrees(omega_l)),
                        omega_r=_wrap_deg(np.degrees(omega_r)),
                        thetas=thetas)


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
