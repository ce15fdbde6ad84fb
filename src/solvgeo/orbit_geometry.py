"""Orbit geometry in the space of inner products on R^3.

The ambient space is GL(3)/O(3) realized at the base point as sym(3) with
the trace form <X,Y> = tr(XY); a matrix X in gl(3) acts with value
dpi(X) = (X + X^T)/2 there.  For a Lie subalgebra u' of gl(3) the orbit of
its group through the base point has tangent space dpi(u'), and its mean
curvature vector is computed from the trace of the second fundamental
form using lifts of an orthonormal tangent basis chosen orthogonal to the
stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .derivations import MatrixSubspace, conjugate_subspace, derivation_algebra, scalar_plus
from .lie_core import Family, make_family

# rank cutoff on the singular values of dpi restricted to u', which lie in [0, 1]
RANK_TOL = 1e-9


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

    subspace: MatrixSubspace
    tangent: np.ndarray
    normals: np.ndarray
    lifts: np.ndarray
    stabilizer: np.ndarray
    orbit_dim: int
    stab_dim: int


def orbit_data(subspace: MatrixSubspace) -> OrbitData:
    """Split u' into stabilizer and lifted tangent data at the base point.

    With q an orthonormal basis of u', the matrix P of dpi(q) in SYM_BASIS
    coordinates has singular values in [0, 1].  Its SVD P = U S W^T with
    rank r gives everything at once: the tangent space U[:, :r], the
    normal space U[:, r:], the stabilizer (the kernel of dpi on u', its
    antisymmetric members) W^T[r:] on q, and the lifts W^T[:r] / S[:r] on
    q, which map onto the tangent basis and are Frobenius-orthogonal to
    the stabilizer, so the mean curvature is well defined on singular
    orbits too.
    """
    q = linalg.orthonormalize(subspace.stacked()).reshape(-1, 3, 3)
    p = np.einsum("sab,kab->sk", SYM_BASIS, dpi(q))
    u, sigma, wt = np.linalg.svd(p)
    r = int(np.sum(sigma > RANK_TOL))
    # sign convention: the first sizable sym coordinate of a normal is positive
    normal_coords = linalg.lead_positive(u[:, r:].T)
    return OrbitData(subspace=subspace, tangent=_combine(u[:, :r].T, SYM_BASIS),
                     normals=_combine(normal_coords, SYM_BASIS),
                     lifts=_combine(wt[:r] / sigma[:r, None], q),
                     stabilizer=_combine(wt[r:], q), orbit_dim=r, stab_dim=len(q) - r)


def _combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The (m, 3, 3) stack of sum_k c[k] basis[k], one per coefficient row c."""
    return (coeffs @ basis.reshape(len(basis), 9)).reshape(-1, 3, 3)


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


def mean_curvature(subspace: MatrixSubspace) -> MeanCurvatureResult:
    """Mean curvature vector H = (1/k) trace of the second fundamental form.

    H is a symmetric matrix lying in the span of the normals; its trace
    norm vanishes exactly when the orbit is minimal.  Raises ValueError
    for a zero-dimensional orbit.
    """
    od = orbit_data(subspace)
    if od.orbit_dim == 0:
        raise ValueError("orbit is zero dimensional; mean curvature undefined")
    shape = second_fundamental_form(od)
    vals = np.trace(shape, axis1=1, axis2=2) / od.orbit_dim
    h = np.einsum("n,nab->ab", vals, od.normals)
    return MeanCurvatureResult(h=h, norm=float(np.linalg.norm(h)),
                               per_normal=tuple((a, float(v))
                                                for a, v in zip(od.normals, vals)),
                               orbit_dim=od.orbit_dim, stab_dim=od.stab_dim)


def orbit_at(family: Family, g: np.ndarray) -> MeanCurvatureResult:
    """Mean curvature of the scaling-automorphism orbit through g's metric.

    The orbit of R* x Aut through the inner product of g is moved to the
    base point by conjugating span{I} + Der by g.
    """
    u = scalar_plus(derivation_algebra(make_family(family)))
    return mean_curvature(conjugate_subspace(u, g))

