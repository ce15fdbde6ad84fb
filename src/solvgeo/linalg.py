"""Small dense linear algebra helpers.

Everything here works on 3x3-ish arrays and comes in two arithmetic lanes:
float64, and exact rationals stored as ``fractions.Fraction`` objects in
object-dtype arrays.  The lane is chosen by the dtype of the input.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import SingularMatrixError

PIVOT_TOL = 1e-10


def is_exact(arr: np.ndarray) -> bool:
    """True when the array holds exact (Fraction/int) entries."""
    return arr.dtype == object


def to_float(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == object:
        return np.array([[float(x) for x in row] for row in arr.reshape(arr.shape[0], -1)],
                        dtype=float).reshape(arr.shape)
    return np.asarray(arr, dtype=float)


def _pivot_index(col, tol):
    """Index of the pivot entry in a 1-D slice, or None if all negligible."""
    if col.dtype == object:
        for i, x in enumerate(col):
            if x != 0:
                return i
        return None
    i = int(np.argmax(np.abs(col)))
    return i if abs(col[i]) > tol else None


def row_echelon(a: np.ndarray, tol: float = PIVOT_TOL):
    """Reduce a copy of ``a`` to reduced row echelon form.

    Returns (rref, pivot_columns).  Partial pivoting in the float lane,
    first-nonzero pivoting in the exact lane.
    """
    a = a.copy()
    exact = a.dtype == object
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        k = _pivot_index(a[r:, c], tol)
        if k is None:
            continue
        k += r
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = a[r] / a[r, c] if not exact else np.array(
            [x / a[r, c] for x in a[r]], dtype=object)
        for i in range(m):
            if i != r and (a[i, c] != 0 if exact else abs(a[i, c]) > 0.0):
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(a: np.ndarray, tol: float = PIVOT_TOL) -> list[np.ndarray]:
    """Basis of the kernel of ``a``, exact or float depending on dtype."""
    m, n = a.shape
    rref, pivots = row_echelon(a, tol)
    exact = a.dtype == object
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        if exact:
            v = np.array([Fraction(0)] * n, dtype=object)
            v[f] = Fraction(1)
        else:
            v = np.zeros(n)
            v[f] = 1.0
        for r, c in enumerate(pivots):
            v[c] = -rref[r, f]
        basis.append(v)
    return basis


def row_space_basis(a: np.ndarray, tol: float = PIVOT_TOL) -> list[np.ndarray]:
    """Basis of the row space of ``a`` (the nonzero rows of its RREF)."""
    rref, pivots = row_echelon(a, tol)
    return [rref[r].copy() for r in range(len(pivots))]


def exact_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix of Fractions by Gauss-Jordan elimination."""
    n = m.shape[0]
    aug = np.empty((n, 2 * n), dtype=object)
    for i in range(n):
        for j in range(n):
            aug[i, j] = Fraction(m[i, j])
            aug[i, n + j] = Fraction(1) if i == j else Fraction(0)
    rref, pivots = row_echelon(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix of rationals is singular")
    return rref[:, n:].copy()


def inv(m: np.ndarray) -> np.ndarray:
    if m.dtype == object:
        return exact_inv(m)
    return np.linalg.inv(m)


def lower_triangular_lq(g: np.ndarray, det_tol: float = 1e-9):
    """Factor ``g = L @ k.T`` with k orthogonal and L lower triangular.

    The diagonal of L is positive.  Equivalently ``g @ k`` is lower
    triangular: k's columns are the Gram-Schmidt orthonormalization of the
    rows of g, taken top-down, with one re-orthogonalization pass.
    """
    g = np.asarray(g, dtype=float)
    if abs(np.linalg.det(g)) < det_tol:
        raise SingularMatrixError("group element is numerically singular")
    n = g.shape[0]
    q = np.zeros((n, n))
    for i in range(n):
        v = g[i].copy()
        for _ in range(2):
            for j in range(i):
                v -= (v @ q[j]) * q[j]
        q[i] = v / np.linalg.norm(v)
    k = q.T
    lower = g @ k
    return lower, k


def orthonormalize(vectors, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the span of flat float vectors, one per row.

    The rows are the right singular vectors whose singular values exceed
    ``tol``, so dependent inputs are dropped.
    """
    a = np.asarray(vectors, dtype=float)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt[:int(np.sum(s > tol))]
