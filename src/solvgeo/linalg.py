"""Small dense linear algebra helpers.

Everything here works on 3x3-ish arrays.  Its one exact format is
``(N, d)``: an object array ``N`` of Python ints over one positive int
``d``, standing for ``N / d``.  ``integer_numerators`` puts float64 or
rational (``fractions.Fraction`` or int) arrays in that format exactly,
since every float is a dyadic rational; there is one elimination, fraction
free on those integers, behind ``row_space_basis`` and ``nullspace``, and one
3x3 inverse, ``d adj(N) / det(N)``.  ``ratios`` is the one exit: a ``Fraction``
per entry, or the correctly rounded float ``n / d``.  The RREF and the inverse
are unique, so this gives the same rationals as ``Fraction`` arithmetic would,
and no rank decision depends on a pivot threshold.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SingularMatrixError

# an entry of a unit-scale row or matrix, or a Gram asymmetry over max|G|, at or below this is 0
ZERO_TOL = 1e-12
# a singular value of unit-norm rows, or of rows over their largest one, at or below this is 0
RANK_TOL = 1e-9
# a float matrix whose largest singular value exceeds this times its smallest is singular
COND_LIMIT = 1e12
# |det g| below which lower_triangular_lq calls g singular; absolute until ROADMAP item 9
LQ_DET_TOL = 1e-9

ZERO = Fraction(0)
_EYE = np.eye(3)


def lead_positive(rows: np.ndarray) -> np.ndarray:
    """Each row negated where its first entry larger than ``ZERO_TOL`` in
    size is negative."""
    lead = rows[np.arange(len(rows)), (np.abs(rows) > ZERO_TOL).argmax(axis=1)]
    return np.where(lead[:, None] < 0, -rows, rows)


def integer_numerators(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer numerators ``n`` and common denominator ``d`` with arr = n / d.

    ``n`` is an object array of Python ints shaped like ``arr``; ``d`` is
    the least common multiple of the entries' denominators.  A float entry
    converts exactly (a non-finite one raises).
    """
    nums, d = numerators(arr.ravel().tolist())
    return np.array(nums, dtype=object).reshape(arr.shape), d


def numerators(values: list) -> tuple[list[int], int]:
    """``integer_numerators`` of a flat list of floats, ints or Fractions, as a list."""
    try:
        pairs = [x.as_integer_ratio() for x in values]
    except AttributeError:  # numpy integer scalars
        pairs = [(int(f.numerator), int(f.denominator)) for f in map(Fraction, values)]
    d = math.lcm(*{q for _, q in pairs})
    return [p * (d // q) for p, q in pairs], d


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _integer_echelon(a: np.ndarray) -> tuple[list[list[int]], list[int], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a rational or float matrix.

    Returns (rows, pivot_columns, scales, d), one row of integers per pivot:
    ``rows[r]`` over its pivot ``rows[r][pivots[r]]``, which is ``rows[r] *
    scales[r]`` over d, the lcm of the pivots, is row r of the reduced row
    echelon form.  A pivot column is cleared by ``p*row_i - q*row_r``, each
    row is kept primitive, and each pivot is made positive, so a zero
    quotient is never a float -0.0.
    """
    m, n = a.shape
    nums = numerators(a.ravel().tolist())[0]
    # scaling a row leaves the RREF unchanged
    rows = [_primitive(nums[i * n:(i + 1) * n]) for i in range(m)]
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
    d = math.lcm(*(row[c] for row, c in zip(rows, pivots)))
    return rows[:r], pivots, [d // row[c] for row, c in zip(rows, pivots)], d


def object_array(values: list, shape: tuple) -> np.ndarray:
    """Object array of the given shape holding ``values`` in row-major order.

    ``np.fromiter`` stores each value as it is; ``np.array`` would first
    probe every Fraction for the sequence and array protocols.
    """
    return np.fromiter(values, dtype=object, count=len(values)).reshape(shape)


def ratios(nums: np.ndarray, den: int, exact: bool = True) -> np.ndarray:
    """The quotients ``nums / den`` of an integer array by a nonzero int.

    With ``exact`` an object array of Fractions, one per distinct numerator
    and every zero the shared ``ZERO``; else the correctly rounded floats
    ``x / den`` that ``float(Fraction(x, den))`` gives (an overflow raises).
    """
    flat = nums.ravel().tolist()
    if not exact:
        return np.array([x / den for x in flat], dtype=float).reshape(nums.shape)
    entry = {x: Fraction(x, den) if x else ZERO for x in set(flat)}
    return object_array([entry[x] for x in flat], nums.shape)


def nullspace(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Basis of the kernel of ``a``, float or rational, as ``(K, d)``.

    Row f of ``K / d`` has a 1 at free column f and minus the RREF's column
    f at the pivot columns; ``ratios(K, d)`` gives it as Fractions or floats.
    """
    n = a.shape[1]
    rows, pivots, scales, d = _integer_echelon(a)
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for f in free:
        v = [0] * n
        v[f] = d
        for row, s, c in zip(rows, scales, pivots):
            v[c] = -row[f] * s
        kernel += v
    return object_array(kernel, (len(free), n)), d


def row_space_basis(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the row space of ``a`` (the nonzero rows of its RREF),
    Fractions or floats following its dtype."""
    rows, pivots, scales, d = _integer_echelon(a)
    flat = [x * s for row, s in zip(rows, scales) for x in row]
    return list(ratios(object_array(flat, (len(pivots), a.shape[1])), d, exact=a.dtype == object))


def adjugate(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Adjugate and determinant of a 3x3 integer matrix (Python ints)."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    adj = [e * i - f * h, c * h - b * i, b * f - c * e,
           f * g - d * i, a * i - c * g, c * d - a * f,
           d * h - e * g, b * g - a * h, a * e - b * d]
    return object_array(adj, (3, 3)), a * adj[0] + b * adj[3] + c * adj[6]


def exact_inv(m: np.ndarray) -> np.ndarray:
    """Inverse d adj(N) / det(N) of a 3x3 rational matrix m = N / d as an object
    array of Fractions; a matrix of any other shape raises ValueError."""
    if np.shape(m) != (3, 3):
        raise ValueError("matrix to invert must be 3x3")
    nums, d = integer_numerators(np.asarray(m, dtype=object))
    adj, det = adjugate(nums)
    if det == 0:
        raise SingularMatrixError("matrix of rationals is singular")
    return ratios(adj * d, det)


def inverse(m: np.ndarray, what: str) -> np.ndarray:
    """``np.linalg.inv(m)`` under the one conditioning policy: a
    SingularMatrixError names the float matrix ``what`` unless it is finite
    with 2-norm condition number at most ``COND_LIMIT``."""
    if not np.isfinite(m).all():
        raise SingularMatrixError(f"{what} is not finite")
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] == 0 or s[0] > COND_LIMIT * s[-1]:
        raise SingularMatrixError(f"{what} is singular")
    return np.linalg.inv(m)


def lq(g: np.ndarray):
    """``g = L @ k.T`` for a 3x3 g: ``L = R.T`` and ``k = Q`` from numpy's QR
    ``g.T = Q R``, signs flipped so that L's diagonal (product ``|det g|``) is
    positive.  A lower-triangular g with positive diagonal (``rep_matrix``,
    ``metric_to_group``) gives ``(L, None)`` and runs no QR: numpy's
    Householder reflector of an all-zero subcolumn is the identity, so L, g
    with +0.0 above the diagonal (g itself unless a -0.0 sits there), is the
    QR's bit for bit, and k = I.  A g of any other shape raises ValueError.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError("group element must be a 3x3 matrix")
    (l11, u12, u13), (_, l22, u23), (_, _, l33) = g.tolist()
    if l11 > 0 and l22 > 0 and l33 > 0 and not (u12 or u13 or u23):
        plus = math.copysign(1.0, u12) == math.copysign(1.0, u13) == math.copysign(1.0, u23) > 0
        return g if plus else np.tril(g), None  # +0.0 above the diagonal, as the QR's R has
    q, r = np.linalg.qr(g.T)
    sign = np.where(r.diagonal() < 0, -1.0, 1.0)
    return r.T * sign, q * sign


def lower_triangular_lq(g: np.ndarray):
    """``lq(g)`` with k = I where no QR ran (the QR's Q there equals I as
    numbers, with -0.0 below its diagonal); SingularMatrixError when
    ``|det g| < LQ_DET_TOL``, ``reduce``'s policy."""
    lower, q = lq(g)
    if math.prod(lower.diagonal().tolist()) < LQ_DET_TOL:
        raise SingularMatrixError("group element is numerically singular")
    return lower, _EYE.copy() if q is None else q


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis of the span of flat float vectors, one per row.

    The rows are the right singular vectors whose singular values exceed
    ``RANK_TOL`` times the largest, so dependent inputs are dropped.
    """
    a = np.asarray(vectors, dtype=float)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt[:int(np.sum(s > RANK_TOL * s.max(initial=0.0)))]
