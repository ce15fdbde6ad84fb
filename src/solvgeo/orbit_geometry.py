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

from dataclasses import dataclass

import numpy as np

from . import linalg
from .derivations import conjugate_subspace, derivation_algebra
from .lie_core import Family, make_family


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


@dataclass(frozen=True)
class OrbitData:
    """Tangent/normal split of an orbit; the matrices come as (k, 3, 3) stacks."""

    tangent: np.ndarray
    normals: np.ndarray
    lifts: np.ndarray
    stabilizer: np.ndarray
    orbit_dim: int
    stab_dim: int


def orbit_data(frame) -> OrbitData:
    """Split u' into stabilizer and lifted tangent data at the base point.

    ``frame`` is a (k, 3, 3) or (k, 9) stack q of orthonormal matrices
    spanning u'.  As <S, dpi(x)> = <S, x> for symmetric S, the matrix P of
    dpi(q) in SYM_BASIS coordinates is SYM_BASIS @ q^T, with singular values
    in [0, 1].  Its SVD P = U S W^T with rank r gives everything at
    once: the tangent space U[:, :r], the normal space U[:, r:], the
    stabilizer (the kernel of dpi on u', its antisymmetric members) W^T[r:]
    on q, and the lifts W^T[:r] / S[:r] on q, which map onto the tangent
    basis and are Frobenius-orthogonal to the stabilizer, so the mean
    curvature is well defined on singular orbits too.
    """
    q = np.reshape(np.asarray(frame, dtype=float), (-1, 9))
    sym = SYM_BASIS.reshape(6, 9)
    u, sigma, wt = np.linalg.svd(sym @ q.T)
    r = int(np.sum(sigma > linalg.RANK_TOL))
    # sign convention: the first sizable sym coordinate of a normal is positive
    normal_coords = linalg.lead_positive(u[:, r:].T)
    return OrbitData(tangent=(u[:, :r].T @ sym).reshape(-1, 3, 3),
                     normals=(normal_coords @ sym).reshape(-1, 3, 3),
                     lifts=((wt[:r] / sigma[:r, None]) @ q).reshape(-1, 3, 3),
                     stabilizer=(wt[r:] @ q).reshape(-1, 3, 3),
                     orbit_dim=r, stab_dim=len(q) - r)


def second_fundamental_form(od: OrbitData) -> np.ndarray:
    """Components h[n,i,j] = -<dpi([A_n, X_i]), T_j> of the shape tensor.

    X_i are the stabilizer-orthogonal lifts of the orthonormal tangent
    basis T_j and A_n runs over the orthonormal normals.  Symmetry in
    (i, j) reflects closure of u' under the matrix commutator.
    """
    a, x = od.normals[:, None], od.lifts[None]
    return -np.einsum("niab,jba->nij", dpi(a @ x - x @ a), od.tangent)


@dataclass(frozen=True)
class MeanCurvatureResult:
    """Mean curvature vector of an orbit at the base point."""

    h: np.ndarray
    norm: float
    per_normal: tuple
    orbit_dim: int
    stab_dim: int


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
    # the trace of the shape tensor at A_n is -<A_n, K> with K = sum_i [X_i, T_i]
    x, t = od.lifts, od.tangent
    normals = od.normals.reshape(-1, 9)
    vals = -(normals @ (x @ t - t @ x).sum(axis=0).ravel()) / od.orbit_dim
    h = (vals @ normals).reshape(3, 3)
    return MeanCurvatureResult(h=h, norm=float(np.linalg.norm(h)),
                               per_normal=tuple((a, float(v))
                                                for a, v in zip(od.normals, vals)),
                               orbit_dim=od.orbit_dim, stab_dim=od.stab_dim)


def orbit_at(family: Family, g: np.ndarray) -> MeanCurvatureResult:
    """Mean curvature of the scaling-automorphism orbit through g's metric.

    The orbit of R* x Aut through the inner product of g is moved to the
    base point by conjugation: u' = g^-1 (RI + Der) g = RI + g^-1 Der g,
    and g^-1 Der g, with its ``scalar_frame``, is the soliton test's memoized
    call at g.
    """
    u = conjugate_subspace(derivation_algebra(make_family(family)), g)
    return _mean_curvature(orbit_data(u.scalar_frame))

