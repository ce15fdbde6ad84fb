"""Small dense linear algebra helpers.

Everything here works on 3x3-ish arrays.  There is one elimination, and it
is exact: every float is a dyadic rational, so float64 input and exact
rationals (``fractions.Fraction`` or int objects in object-dtype arrays)
are both turned into integer numerators over one common denominator and
reduced fraction free.  The dtype of the input picks only the type of the
output entries: a ``Fraction`` for exact input, and the correctly rounded
float ``num / den`` for float input.  The reduced row echelon form is
unique, so this gives the same rationals as elimination in ``Fraction``
arithmetic would, and no rank decision depends on a pivot threshold.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import SingularMatrixError

# |det g| below which lower_triangular_lq calls g singular
LQ_DET_TOL = 1e-9
# singular values at or below which orthonormalize drops a direction
SVD_TOL = 1e-12
# entries at or below which lead_positive skips to the next one
LEAD_TOL = 1e-12

ZERO = Fraction(0)


def is_exact(arr: np.ndarray) -> bool:
    """True when the array holds exact (Fraction/int) entries."""
    return arr.dtype == object


def to_float(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=float)


def lead_positive(rows: np.ndarray) -> np.ndarray:
    """Each row negated where its first entry larger than ``LEAD_TOL`` in
    size is negative."""
    lead = rows[np.arange(len(rows)), (np.abs(rows) > LEAD_TOL).argmax(axis=1)]
    return np.where(lead[:, None] < 0, -rows, rows)


def integer_numerators(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer numerators ``n`` and common denominator ``d`` with arr = n / d.

    ``n`` is an object array of Python ints shaped like ``arr``; ``d`` is
    the least common multiple of the entries' denominators.  A float entry
    converts exactly (a non-finite one raises).
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
    """Fraction-free Gauss-Jordan elimination of a rational or float matrix.

    Returns (rows, pivot_columns).  Row r < rank holds integers whose
    quotient by ``rows[r][pivots[r]]`` is row r of the reduced row echelon
    form; the remaining rows are zero.  A pivot column is cleared by
    ``p*row_i - q*row_r``, each row is kept primitive, and each pivot is
    made positive, so a zero quotient is never a float -0.0.
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
        pivot_row = rows[k] if rows[k][c] > 0 else [-x for x in rows[k]]
        rows[k], rows[r] = rows[r], pivot_row
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


def _entry_type(a: np.ndarray):
    """(dtype, num/den -> entry) of the output lane of ``a``."""
    return (object, _ratio) if is_exact(a) else (float, operator.truediv)


def row_echelon(a: np.ndarray):
    """The reduced row echelon form of ``a`` and its pivot columns.

    The elimination is exact in both lanes; the entries are Fractions for
    exact input and the correctly rounded floats for float input.
    """
    rows, pivots = _integer_echelon(a)
    dtype, ratio = _entry_type(a)
    rref = np.full(a.shape, ratio(0, 1), dtype=dtype)
    for r, c in enumerate(pivots):
        rref[r] = [ratio(x, rows[r][c]) for x in rows[r]]
    return rref, pivots


def nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the kernel of ``a``, Fractions or floats following its dtype.

    Vector f has a 1 at free column f and minus the RREF's column f at the
    pivot columns.
    """
    n = a.shape[1]
    rows, pivots = _integer_echelon(a)
    dtype, ratio = _entry_type(a)
    zero, one = ratio(0, 1), ratio(1, 1)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = np.full(n, zero, dtype=dtype)
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = ratio(-rows[r][f], rows[r][c])
        basis.append(v)
    return basis


def row_space_basis(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the row space of ``a`` (the nonzero rows of its RREF)."""
    rref, pivots = row_echelon(a)
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


def lower_triangular_lq(g: np.ndarray):
    """Factor ``g = L @ k.T`` with k orthogonal and L lower triangular.

    The diagonal of L is positive.  Equivalently ``g @ k`` is lower
    triangular: k's columns are the Gram-Schmidt orthonormalization of the
    rows of g, taken top-down, with one re-orthogonalization pass.
    """
    g = np.asarray(g, dtype=float)
    if abs(np.linalg.det(g)) < LQ_DET_TOL:
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


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis of the span of flat float vectors, one per row.

    The rows are the right singular vectors whose singular values exceed
    ``SVD_TOL``, so dependent inputs are dropped.
    """
    a = np.asarray(vectors, dtype=float)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt[:int(np.sum(s > SVD_TOL))]
