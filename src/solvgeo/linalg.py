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
from fractions import Fraction

import numpy as np

from .errors import SingularMatrixError

# |det g| below which lower_triangular_lq calls g singular.  Absolute: it
# scales as t^3 under g -> t g, so reduce rejects 1e-4 g (ROADMAP item 4)
LQ_DET_TOL = 1e-9
# singular values at or below which orthonormalize drops a direction.
# Absolute, in the units of the input rows, not relative (ROADMAP item 4)
SVD_TOL = 1e-12
# an entry of a unit-scale row or matrix at or below this size counts as
# zero: lead_positive skips it, and derivations reads basis matrices with it
ZERO_TOL = 1e-12

ZERO = Fraction(0)


def is_exact(arr: np.ndarray) -> bool:
    """True when the array holds exact (Fraction/int) entries."""
    return arr.dtype == object


def to_float(arr: np.ndarray) -> np.ndarray:
    """``arr`` as float64.  A rational entry becomes ``numerator /
    denominator``, the correctly rounded float that ``float()`` gives."""
    if isinstance(arr, np.ndarray) and is_exact(arr):
        try:
            flat = [x.numerator / x.denominator for x in arr.ravel().tolist()]
        except AttributeError:  # float entries
            return np.asarray(arr, dtype=float)
        return np.array(flat, dtype=float).reshape(arr.shape)
    return np.asarray(arr, dtype=float)


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
    nums, d = _numerators(arr.ravel().tolist())
    return np.array(nums, dtype=object).reshape(arr.shape), d


def _numerators(values: list) -> tuple[list[int], int]:
    """``integer_numerators`` of a flat list, as a list; zeros are skipped."""
    try:
        nonzero = [(i, x.as_integer_ratio()) for i, x in enumerate(values) if x]
    except AttributeError:  # numpy integer scalars
        nonzero = [(i, (int(f.numerator), int(f.denominator)))
                   for i, f in enumerate(map(Fraction, values)) if f]
    d = math.lcm(*{q for _, (_, q) in nonzero})
    nums = [0] * len(values)
    for i, (p, q) in nonzero:
        nums[i] = p * (d // q)
    return nums, d


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
    nums = _numerators(a.ravel().tolist())[0]
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
    return rows, pivots


def object_array(values: list, shape: tuple) -> np.ndarray:
    """Object array of the given shape holding ``values`` in row-major order.

    ``np.fromiter`` stores each value as it is; ``np.array`` would first
    probe every Fraction for the sequence and array protocols.
    """
    return np.fromiter(values, dtype=object, count=len(values)).reshape(shape)


def ratio(num: int, den: int) -> Fraction:
    """The Fraction num / den; a zero is the shared ``ZERO``."""
    return Fraction(num, den) if num else ZERO


def ratios(nums: np.ndarray, den: int) -> np.ndarray:
    """Object array of the Fractions nums / den: one Fraction per distinct
    numerator, and every zero the shared ``ZERO``."""
    flat = nums.ravel().tolist()
    entry = {x: ratio(x, den) for x in set(flat)}
    return object_array([entry[x] for x in flat], nums.shape)


def _entries(pairs: list, shape: tuple, exact: bool) -> np.ndarray:
    """The quotients of integer (num, den) pairs as an array of the given
    shape: Fractions when ``exact``, else the correctly rounded floats."""
    if exact:
        return object_array([ratio(p, q) for p, q in pairs], shape)
    return np.array([p / q for p, q in pairs], dtype=float).reshape(shape)


def _rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form of ``a``, Fractions
    or floats following its dtype, and its pivot columns."""
    rows, pivots = _integer_echelon(a)
    pairs = [(x, rows[r][c]) for r, c in enumerate(pivots) for x in rows[r]]
    return _entries(pairs, (len(pivots), a.shape[1]), is_exact(a)), pivots


def nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the kernel of ``a``, Fractions or floats following its dtype.

    Vector f has a 1 at free column f and minus the RREF's column f at the
    pivot columns.
    """
    n = a.shape[1]
    rows, pivots = _integer_echelon(a)
    free = [c for c in range(n) if c not in pivots]
    pairs = []
    for f in free:
        v = [(0, 1)] * n
        v[f] = (1, 1)
        for r, c in enumerate(pivots):
            v[c] = (-rows[r][f], rows[r][c])
        pairs += v
    return list(_entries(pairs, (len(free), n), is_exact(a)))


def row_space_basis(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the row space of ``a`` (the nonzero rows of its RREF)."""
    return list(_rref(a)[0])


def exact_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a square rational matrix as an object array of Fractions.

    With m = N / d, the RREF of [N | d I] is [I | m^-1].
    """
    n = m.shape[0]
    nums, d = integer_numerators(np.asarray(m, dtype=object))
    aug = np.zeros((n, 2 * n), dtype=object)
    aug[:, :n] = nums
    aug[range(n), range(n, 2 * n)] = d
    rref, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix of rationals is singular")
    return rref[:, n:].copy()


def lower_triangular_lq(g: np.ndarray):
    """``g = L @ k.T`` with ``L = R.T``, ``k = Q`` from numpy's QR ``g.T = Q R``, signs
    flipped so that L's diagonal, whose product is ``|det g|``, is positive."""
    q, r = np.linalg.qr(np.asarray(g, dtype=float).T)
    diag = r.diagonal()
    if abs(math.prod(diag.tolist())) < LQ_DET_TOL:
        raise SingularMatrixError("group element is numerically singular")
    sign = np.where(diag < 0, -1.0, 1.0)
    return r.T * sign, q * sign


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal basis of the span of flat float vectors, one per row.

    The rows are the right singular vectors whose singular values exceed
    ``SVD_TOL``, so dependent inputs are dropped.
    """
    a = np.asarray(vectors, dtype=float)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt[:int(np.sum(s > SVD_TOL))]
