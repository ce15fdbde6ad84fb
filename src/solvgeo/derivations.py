"""Derivation algebras and subspaces of 3x3 matrices.

A derivation of an algebra with bracket [.,.] is a matrix D with
D[x,y] = [Dx,y] + [x,Dy].  The derivations form the Lie algebra of the
automorphism group; together with the scalar line R*I they generate the
subgroup of GL(3) whose orbits are studied in :mod:`solvgeo.orbit_geometry`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import SingularMatrixError
from .lie_core import StructureConstants, bracket


def _normalize(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Unit Frobenius norm, first nonzero entry positive."""
    mat = linalg.to_float(np.asarray(mat))
    if mat.shape != (3, 3):
        raise ValueError("subspace elements must be 3x3 matrices")
    nrm = np.linalg.norm(mat)
    if nrm <= tol:
        raise ValueError("cannot normalize a zero matrix")
    mat = mat / nrm
    flat = mat.ravel()
    lead = flat[np.abs(flat) > tol][0]
    return -mat if lead < 0 else mat


# conjugating matrices with a larger 2-norm condition number count as singular
COND_LIMIT = 1e12
# float Der(g) and span{I} + Der results kept per input content
MEMO_SIZE = 128


@dataclass(frozen=True, eq=False)
class MatrixSubspace:
    """A subspace of 3x3 matrices given by a normalized, independent basis.

    The basis arrays are read-only, so one instance can be shared.  ``==``
    and ``hash`` are by identity; ``subspace_equal`` compares spans.
    """

    basis: tuple

    def __post_init__(self):
        normalized = tuple(_normalize(b) for b in self.basis)
        for b in normalized:
            b.setflags(write=False)
        object.__setattr__(self, "basis", normalized)
        if normalized:
            stacked = np.array([b.ravel() for b in normalized])
            if np.linalg.matrix_rank(stacked, tol=1e-10) < len(normalized):
                raise ValueError("subspace basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        """The basis vectorized row-wise, shape (dim, 9)."""
        return np.array([b.ravel() for b in self.basis]).reshape(self.dim, 9)


def derivation_algebra(sc: StructureConstants, tol: float = linalg.PIVOT_TOL) -> MatrixSubspace:
    """Kernel of the derivation-identity operator as a matrix subspace.

    The identity D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] over all basis pairs
    i < j is a linear system in the 9 entries of D; the kernel of the
    resulting coefficient matrix is computed exactly (on the integer
    multiple of ``c`` that clears its denominators) when ``sc`` is exact
    and in float64 with pivot threshold ``tol`` otherwise.  Float results
    are memoized on the content of the tensor, so an edited tensor is
    solved afresh; the exact lane always solves.
    """
    if sc.exact:
        # the identity is linear and homogeneous in c: Der(t c) = Der(c)
        return _derivation_kernel(linalg.integer_numerators(sc.c)[0], tol)
    c = np.ascontiguousarray(sc.c, dtype=float)
    return _float_derivations(c.tobytes(), c.shape, tol)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _float_derivations(data: bytes, shape: tuple, tol: float) -> MatrixSubspace:
    return _derivation_kernel(np.frombuffer(data).reshape(shape), tol)


def _derivation_kernel(c: np.ndarray, tol: float) -> MatrixSubspace:
    n = c.shape[0]
    dtype = object if linalg.is_exact(c) else float
    c = c.tolist()
    zero = c[0][0][0] * 0
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                row = []
                for m in range(n):
                    for k in range(n):
                        entry = c[i][j][k] if m == l else zero
                        if k == i:
                            entry = entry - c[m][j][l]
                        if k == j:
                            entry = entry - c[i][m][l]
                        row.append(entry)
                rows.append(row)
    kernel = linalg.nullspace(np.array(rows, dtype=dtype), tol)
    return MatrixSubspace(tuple(v.reshape(n, n) for v in kernel))


def derivation_residual(sc: StructureConstants, d: np.ndarray) -> float:
    """max-norm violation of the derivation identity over basis pairs."""
    n = sc.dim
    d = linalg.to_float(np.asarray(d))
    eye = np.eye(n)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d @ linalg.to_float(bracket(sc, eye[i], eye[j]))
            rhs = (linalg.to_float(bracket(sc, d[:, i], eye[j]))
                   + linalg.to_float(bracket(sc, eye[i], d[:, j])))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def conjugate_subspace(subspace: MatrixSubspace, g: np.ndarray) -> MatrixSubspace:
    """The subspace g^-1 S g; the basis is re-normalized, dimension preserved.

    Singularity is judged by the condition number, so g and s*g are
    accepted or rejected together, as they give the same subspace.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise SingularMatrixError("conjugating matrix is not finite")
    if np.linalg.cond(g) > COND_LIMIT:
        raise SingularMatrixError("conjugating matrix is singular")
    ginv = np.linalg.inv(g)
    return MatrixSubspace(tuple(ginv @ b @ g for b in subspace.basis))


def scalar_plus(subspace: MatrixSubspace) -> MatrixSubspace:
    """span(S + R*I), reduced back to a normalized independent basis.

    Memoized on the content of the basis.
    """
    return _scalar_plus(subspace.stacked().tobytes())


@functools.lru_cache(maxsize=MEMO_SIZE)
def _scalar_plus(data: bytes) -> MatrixSubspace:
    rows = np.vstack([np.frombuffer(data).reshape(-1, 9), np.eye(3).ravel()])
    basis = linalg.row_space_basis(rows)
    return MatrixSubspace(tuple(v.reshape(3, 3) for v in basis))


def subspace_membership(subspace: MatrixSubspace, mat: np.ndarray,
                        tol: float = 1e-8):
    """Least-squares test whether ``mat`` lies in the subspace.

    Returns (is_member, coefficients, residual) where residual is the
    Frobenius distance from ``mat`` to the subspace and the coefficients
    expand the projection in the stored basis.
    """
    mat = linalg.to_float(np.asarray(mat))
    if subspace.dim == 0:
        res = float(np.linalg.norm(mat))
        return res <= tol, np.zeros(0), res
    a = subspace.stacked().T
    coeffs, *_ = np.linalg.lstsq(a, mat.ravel(), rcond=None)
    residual = float(np.linalg.norm(a @ coeffs - mat.ravel()))
    return residual <= tol, coeffs, residual


def subspace_equal(s1: MatrixSubspace, s2: MatrixSubspace, tol: float = 1e-9) -> bool:
    """Two-way membership of the bases, plus matching dimensions."""
    if s1.dim != s2.dim:
        return False
    return (all(subspace_membership(s2, b, tol)[0] for b in s1.basis)
            and all(subspace_membership(s1, b, tol)[0] for b in s2.basis))
