"""Orbit geometry in the space of inner products on R^3.

The ambient space is GL(3)/O(3) realized at the base point as sym(3) with
the trace form <X,Y> = tr(XY); a matrix X in gl(3) acts with value
dpi(X) = (X + X^T)/2 there.  For a Lie subalgebra u' of gl(3) the orbit of
its group through the base point has tangent space dpi(u'), and its mean
curvature vector, the trace of the second fundamental form, is one
commutator sum over lifts of an orthonormal tangent basis chosen
orthogonal to the stabilizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .derivations import SEMIDIRECT_ROWS, semidirect_frame
from .lie_core import Family
from .moduli import frame_algebra


def dpi(x: np.ndarray) -> np.ndarray:
    """Tangent value of the action of x at the base point; x may be a
    stack of matrices."""
    x = np.asarray(x, dtype=float)
    return (x + np.swapaxes(x, -1, -2)) / 2.0


# orthonormal basis of sym(3) for the trace form, as one read-only (6, 3, 3)
# stack: E_ii, then (E_ij + E_ji)/sqrt(2) for i < j
SYM_BASIS = np.zeros((6, 3, 3))
SYM_BASIS[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = 1.0
SYM_BASIS[[3, 3, 4, 4, 5, 5], [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1]] = 1.0 / np.sqrt(2.0)
SYM_BASIS.setflags(write=False)


@dataclass(frozen=True, slots=True)
class OrbitData:
    """Tangent/normal split: normals ``nu`` and ``k`` = sum_i [X_i, T_i], X_i the lifts of the
    tangent basis T_i, in flat floats; stacks ``normals``, ``tangent``, ``lifts`` when read."""

    nu: list
    stabilizer: np.ndarray
    orbit_dim: int
    stab_dim: int
    k: list
    stacks: Callable = field(repr=False, compare=False)
    normals = property(lambda self: np.array(self.nu).reshape(-1, 3, 3))
    tangent = property(lambda self: self.stacks()[0])
    lifts = property(lambda self: self.stacks()[1])


def orbit_data(frame) -> OrbitData:
    """Split u' into stabilizer and lifted tangent data at the base point.

    ``frame`` is a (k, 3, 3) or (k, 9) array or list q of orthonormal
    matrices spanning u'; a tuple is always N (``moduli.frame_algebra``), the
    stack ``derivations.semidirect_frame(N)``.  As <S, dpi(x)> = <S, x> for
    symmetric S, the matrix P of dpi(q) in SYM_BASIS coordinates is SYM_BASIS
    @ q^T, with singular values in [0, 1].  Its SVD P = U S W^T with rank r
    gives everything at once: the tangent space U[:, :r], the normal space
    U[:, r:], the stabilizer (the kernel of dpi on u', its antisymmetric
    members) W^T[r:] on q, and the lifts W^T[:r] / S[:r] on q, which map onto
    the tangent basis and are Frobenius-orthogonal to the stabilizer, so the
    mean curvature is well defined on singular orbits too.  K is their sum.

    N takes no SVD: E21, E31, (E22 + E33)/sqrt(2), N = 0 + [[h, c], [b, -h]]
    and E11 have pairwise orthogonal symmetric parts, so each over |dpi(row)|
    is a lift; past ``RANK_TOL`` the one normal is 0 + [[m, -h], [-h, -m]] /
    |dpi(N)|, m = (b + c)/2, else N is the stabilizer (``_semidirect_orbit``).
    """
    if isinstance(frame, tuple):
        return _semidirect_orbit(frame)
    q = np.asarray(frame, dtype=float).reshape(-1, 9)
    sym = SYM_BASIS.reshape(6, 9)
    u, sigma, wt = np.linalg.svd(sym @ q.T)
    r = int(np.sum(sigma > linalg.RANK_TOL))
    # sign convention: the first sizable sym coordinate of a normal is positive
    normal_coords = linalg.lead_positive(u[:, r:].T)
    tangent = (u[:, :r].T @ sym).reshape(-1, 3, 3)
    lifts = ((wt[:r] / sigma[:r, None]) @ q).reshape(-1, 3, 3)
    return OrbitData((normal_coords @ sym).tolist(), (wt[r:] @ q).reshape(-1, 3, 3), r, len(q) - r,
                     (lifts @ tangent - tangent @ lifts).sum(axis=0).ravel().tolist(),
                     lambda: (tangent, lifts))


# E21, E31, (E22 + E33)/sqrt(2) and E11 of the semidirect layout, each over
# |dpi(row)|: its lift and its tangent, and the sum of their commutators
_FIXED = SEMIDIRECT_ROWS[[0, 1, 2, 4]].reshape(-1, 3, 3)
_FIXED_LIFTS = _FIXED / np.linalg.norm(dpi(_FIXED), axis=(1, 2))[:, None, None]
_FIXED_TANGENTS = dpi(_FIXED_LIFTS)
_NO_STABILIZER = np.empty((0, 3, 3))
for _stack in (_FIXED_LIFTS, _FIXED_TANGENTS, _NO_STABILIZER):
    _stack.setflags(write=False)
_FIXED_K = tuple((_FIXED_LIFTS @ _FIXED_TANGENTS - _FIXED_TANGENTS @ _FIXED_LIFTS).sum(axis=0)
                 .ravel().tolist())
# the normals at N in the stabilizer: (E23 + E32)/sqrt(2) and (E22 - E33)/sqrt(2)
_ROUND_NU = tuple(map(tuple, np.stack([SYM_BASIS[5], (SYM_BASIS[1] - SYM_BASIS[2]) / np.sqrt(2.0)])
                       .reshape(2, 9).tolist()))


def _semidirect_orbit(n: tuple) -> OrbitData:
    """``orbit_data`` of N = ``n`` flat, dpi(N) = 0 + [[h, m], [m, -h]], in Python floats."""
    h, m = n[4], (n[5] + n[7]) / 2
    sigma = math.hypot(h, h, m, m)
    if not sigma > linalg.RANK_TOL:
        return OrbitData(_ROUND_NU, np.array(n).reshape(1, 3, 3), 4, 1, _FIXED_K,
                         lambda: (_FIXED_TANGENTS, _FIXED_LIFTS))
    t, x = h / sigma, m / sigma
    # lead_positive's sign: the E22 entry leads unless within ZERO_TOL of 0; + 0.0: no -0.0
    s = -1.0 if (x if abs(x) > linalg.ZERO_TOL else -t) < 0 else 1.0
    nu = [0.0, 0.0, 0.0, 0.0, s * x + 0.0, -s * t + 0.0, 0.0, -s * t + 0.0, -s * x + 0.0]
    # K: the fixed lifts' sum plus [X, T] for X = N / sigma, T = dpi(X) = 0 + [[t, x], [x, -t]]
    p11, p12, p21, p22 = n[4] / sigma, n[5] / sigma, n[7] / sigma, n[8] / sigma
    k = list(_FIXED_K)
    k[4] += (p11 * t + p12 * x) - (t * p11 + x * p21)
    k[5] += (p11 * x - p12 * t) - (t * p12 + x * p22)
    k[7] += (p21 * t + p22 * x) - (x * p11 - t * p21)
    k[8] += (p21 * x - p22 * t) - (x * p12 - t * p22)

    def stacks():
        return (np.concatenate([_FIXED_TANGENTS, [[[0.0] * 3, [0.0, t, x], [0.0, x, -t]]]]),
                np.concatenate([_FIXED_LIFTS, np.array(n).reshape(1, 3, 3) / sigma]))
    return OrbitData(nu=[nu], stabilizer=_NO_STABILIZER, orbit_dim=5, stab_dim=0, k=k,
                     stacks=stacks)


def second_fundamental_form(od: OrbitData) -> np.ndarray:
    """Components h[n,i,j] = -<dpi([A_n, X_i]), T_j> of the shape tensor.

    X_i are the stabilizer-orthogonal lifts of the orthonormal tangent
    basis T_j and A_n runs over the orthonormal normals.  Symmetry in
    (i, j) reflects closure of u' under the matrix commutator.
    """
    a, x = od.normals[:, None], od.lifts[None]
    return -np.einsum("niab,jba->nij", dpi(a @ x - x @ a), od.tangent)


@dataclass(frozen=True, slots=True)
class MeanCurvatureResult:
    """Mean curvature vector H = sum_n vals[n] normals[n] of an orbit at the base point;
    ``per_normal`` pairs the normals with their components when read."""

    h: np.ndarray
    norm: float
    normals: np.ndarray
    vals: list
    orbit_dim: int
    stab_dim: int
    per_normal = property(lambda self: tuple(zip(self.normals, self.vals)))


def mean_curvature(span) -> MeanCurvatureResult:
    """Mean curvature vector H = (1/k) trace of the second fundamental form.

    ``span`` is any stack spanning u', orthonormalized for ``orbit_data``.  H
    is a symmetric matrix in the span of the normals; its trace norm vanishes
    exactly when the orbit is minimal.  Raises ValueError for a 0-dim orbit.
    """
    return _mean_curvature(orbit_data(linalg.orthonormalize(np.reshape(span, (-1, 9)))))


def _mean_curvature(od: OrbitData) -> MeanCurvatureResult:
    if od.orbit_dim == 0:
        raise ValueError("orbit is zero dimensional; mean curvature undefined")
    # for symmetric A and T, tr(dpi([A, X]) T) = tr([A, X] T) = <A, [X, T]>, so
    # the trace of the shape tensor at A_n is -<A_n, K>, K = sum_i [X_i, T_i]
    # + 0.0: a zero sum at a minimal orbit would print as -0.0
    vals = [-math.fsum(map(float.__mul__, a, od.k)) / od.orbit_dim + 0.0 for a in od.nu]
    nu = np.array(od.nu).reshape(-1, 9)
    h = np.dot(vals, nu)
    return MeanCurvatureResult(h=h.reshape(3, 3), norm=math.hypot(*h.tolist()),
                               normals=nu.reshape(-1, 3, 3), vals=vals,
                               orbit_dim=od.orbit_dim, stab_dim=od.stab_dim)


def orbit_at(family: Family, g: np.ndarray) -> MeanCurvatureResult:
    """Mean curvature of the scaling-automorphism orbit through g's metric.

    The orbit of R* x Aut through g's inner product is moved to the base point by
    conjugation.  With g = L k^T (``linalg.lq``), u' = g^-1 (RI + Der) g = k (L^-1 (RI +
    Der) L) k^T, with the rows of L^-1 (RI + Der) L read off the brackets on the frame
    L e_i (``moduli.frame_algebra``, whose guards on L are the only refusals).  Only when
    a QR ran, each row R, N's stack rebuilt (``derivations.semidirect_frame``), becomes
    k R k^T, an isometry of the trace form.
    """
    lower, k = linalg.lq(g)
    rows = frame_algebra(family, lower)[1]
    if k is not None:
        rows = semidirect_frame(rows) if isinstance(rows, tuple) else rows
        rows = (k @ rows.reshape(-1, 3, 3) @ k.T).reshape(-1, 9)
    return _mean_curvature(orbit_data(rows))
