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
from .moduli import reduce

SYM_DIM = 6
# rank cutoff on the singular values of dpi restricted to u', which lie in [0, 1]
RANK_TOL = 1e-9


def dpi(x: np.ndarray) -> np.ndarray:
    """Tangent value of the action of x at the base point; x may be a
    stack of matrices."""
    x = np.asarray(x, dtype=float)
    return (x + np.swapaxes(x, -1, -2)) / 2.0


def trace_form(x: np.ndarray, y: np.ndarray) -> float:
    """The ambient inner product <X,Y> = tr(XY) on sym(3)."""
    return float(np.trace(np.asarray(x) @ np.asarray(y)))


def sym_basis() -> list[np.ndarray]:
    """Orthonormal basis of sym(3) for the trace form: E_ii, then
    (E_ij + E_ji)/sqrt(2) for i < j."""
    basis = [np.diag([1.0 if k == i else 0.0 for k in range(3)]) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
    return basis


# sym_basis() as one read-only (6, 3, 3) stack, built once
SYM_BASIS = np.array(sym_basis())
SYM_BASIS.setflags(write=False)


@dataclass(frozen=True)
class OrbitData:
    """Tangent/normal split of an orbit with stabilizer and lifts."""

    subspace: MatrixSubspace
    tangent: tuple
    normals: tuple
    lifts: tuple
    stabilizer: tuple
    orbit_dim: int
    stab_dim: int


def orbit_data(subspace: MatrixSubspace) -> OrbitData:
    """Split u' into stabilizer and lifted tangent data at the base point.

    With q an orthonormal basis of u', the matrix P of dpi(q) in sym_basis
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
    normal_coords = [-c if c[np.abs(c) > 1e-12][0] < 0 else c for c in u[:, r:].T]
    return OrbitData(subspace=subspace, tangent=_combine(u[:, :r].T, SYM_BASIS),
                     normals=_combine(normal_coords, SYM_BASIS),
                     lifts=_combine(wt[:r] / sigma[:r, None], q),
                     stabilizer=_combine(wt[r:], q), orbit_dim=r, stab_dim=len(q) - r)


def _combine(coeffs, basis: np.ndarray) -> tuple:
    """The matrices sum_k c[k] basis[k], one per coefficient row c."""
    return tuple(np.einsum("k,kab->ab", c, basis) for c in coeffs)


def second_fundamental_form(od: OrbitData) -> np.ndarray:
    """Components h[n,i,j] = -<dpi([A_n, X_i]), T_j> of the shape tensor.

    X_i are the stabilizer-orthogonal lifts of the orthonormal tangent
    basis T_j and A_n runs over the orthonormal normals.  Symmetry in
    (i, j) reflects closure of u' under the matrix commutator.
    """
    a = np.reshape(od.normals, (-1, 1, 3, 3))
    x = np.reshape(od.lifts, (1, -1, 3, 3))
    t = np.reshape(od.tangent, (-1, 3, 3))
    return -np.einsum("niab,jba->nij", dpi(a @ x - x @ a), t)


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
    h = np.einsum("n,nab->ab", vals, np.reshape(od.normals, (-1, 3, 3)))
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


def congruence_check(family: Family, g1: np.ndarray, g2: np.ndarray,
                     iso: np.ndarray, samples: int = 8, tol: float = 1e-6,
                     seed: int = 0) -> bool:
    """Sampling test that ``iso`` maps the orbit of g1 onto the orbit of g2.

    Random identity-component elements exp(sum t_i B_i) of the
    scaling-automorphism group are applied to g1, pushed through ``iso``,
    and reduced; all samples must land in g2's isometry class (equal
    lambda within ``tol``).
    """
    from scipy.linalg import expm

    u = scalar_plus(derivation_algebra(make_family(family)))
    lam2 = reduce(family, np.asarray(g2, dtype=float))[0].lam
    rng = np.random.default_rng(seed)
    iso = np.asarray(iso, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    for _ in range(samples):
        coeffs = rng.uniform(-0.5, 0.5, size=u.dim)
        alpha = expm(sum(coeffs[i] * u.basis[i] for i in range(u.dim)))
        lam = reduce(family, iso @ alpha @ g1)[0].lam
        if abs(lam - lam2) > tol:
            return False
    return True
