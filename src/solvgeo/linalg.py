"""Small dense linear algebra helpers.

Everything here works on 3x3-ish arrays and comes in two arithmetic lanes:
float64, and exact rationals stored as ``fractions.Fraction`` (or int)
objects in object-dtype arrays.  The lane is chosen by the dtype of the
input.

The exact lane computes on Python ints: a rational input becomes integer
numerators over one common denominator, elimination is fraction free, and
a ``Fraction`` is built only for each entry of a result.  The reduced row
echelon form is unique, so this gives the same rationals as elimination
in ``Fraction`` arithmetic would.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SingularMatrixError

PIVOT_TOL = 1e-10

ZERO = Fraction(0)
ONE = Fraction(1)


def is_exact(arr: np.ndarray) -> bool:
    """True when the array holds exact (Fraction/int) entries."""
    return arr.dtype == object


def to_float(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=float)


def integer_numerators(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer numerators ``n`` and common denominator ``d`` with arr = n / d.

    ``n`` is an object array of Python ints shaped like ``arr``; ``d`` is
    the least common multiple of the entries' denominators.
    """
    values = arr.ravel().tolist()
    try:
        pairs = [x.as_integer_ratio() for x in values]
    except AttributeError:  # numpy integer scalars
        pairs = [(int(f.numerator), int(f.denominator)) for f in map(Fraction, values)]
    d = math.lcm(*{q for _, q in pairs})
    nums = [p * (d // q) for p, q in pairs]
    return np.array(nums, dtype=object).reshape(arr.shape), d


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _integer_echelon(a: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an exact matrix.

    Returns (rows, pivot_columns).  Row r < rank holds integers whose
    quotient by ``rows[r][pivots[r]]`` is row r of the reduced row echelon
    form; the remaining rows are zero.  A pivot column is cleared by
    ``p*row_i - q*row_r`` and each row is kept primitive.
    """
    m, n = a.shape
    # scaling a row leaves the RREF unchanged
    rows = [_primitive(row) for row in integer_numerators(a)[0].tolist()]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        k = next((i for i in range(r, m) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(m):
            q = rows[i][c]
            if i != r and q:
                g = math.gcd(p, q)
                s, t = p // g, q // g
                rows[i] = _primitive([s * x - t * y for x, y in zip(rows[i], pivot_row)])
        pivots.append(c)
        r += 1
    return rows, pivots


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if num else ZERO


def row_echelon(a: np.ndarray, tol: float = PIVOT_TOL):
    """Reduce a copy of ``a`` to reduced row echelon form.

    Returns (rref, pivot_columns).  Partial pivoting with threshold ``tol``
    in the float lane; in the exact lane the RREF is an object array of
    Fractions.
    """
    if is_exact(a):
        rows, pivots = _integer_echelon(a)
        rref = np.full(a.shape, ZERO, dtype=object)
        for r, c in enumerate(pivots):
            rref[r] = [_ratio(x, rows[r][c]) for x in rows[r]]
        return rref, pivots
    a = a.copy()
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        k = int(np.argmax(np.abs(a[r:, c])))
        if not abs(a[r + k, c]) > tol:
            continue
        k += r
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = a[r] / a[r, c]
        for i in range(m):
            if i != r and abs(a[i, c]) > 0.0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(a: np.ndarray, tol: float = PIVOT_TOL) -> list[np.ndarray]:
    """Basis of the kernel of ``a``, exact or float depending on dtype.

    Vector f has a 1 at free column f and minus the RREF's column f at the
    pivot columns.
    """
    n = a.shape[1]
    exact = is_exact(a)
    if exact:
        rows, pivots = _integer_echelon(a)
    else:
        rref, pivots = row_echelon(a, tol)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        if exact:
            v = np.full(n, ZERO, dtype=object)
            v[f] = ONE
            for r, c in enumerate(pivots):
                v[c] = _ratio(-rows[r][f], rows[r][c])
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
    """Inverse of a square rational matrix as an object array of Fractions.

    With m = N / d, the RREF of [N | d I] is [I | m^-1].
    """
    n = m.shape[0]
    nums, d = integer_numerators(np.asarray(m, dtype=object))
    aug = np.zeros((n, 2 * n), dtype=object)
    aug[:, :n] = nums
    aug[range(n), range(n, 2 * n)] = d
    rref, pivots = row_echelon(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix of rationals is singular")
    return rref[:, n:].copy()


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
