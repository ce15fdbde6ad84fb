"""The exact lane of linalg against sympy, and the integer-only guard.

Every exact result is compared with sympy's ``Matrix.rref()``,
``nullspace()`` and ``inv()`` on seeded random rational matrices: dense
and sparse, rank deficient, with zero rows and columns, 9x9 systems like
the derivation identity's, and numerators up to 1e20.  Each matrix is also
run as floats, whose results must be the exact lane's on the same dyadic
rationals, rounded entry by entry.  The float LQ factorization behind
``moduli.reduce`` is checked on its own at the end.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from solvgeo import linalg
from solvgeo.derivations import derivation_algebra
from solvgeo.errors import SingularMatrixError
from solvgeo.curvature import ricci_closed_form
from solvgeo.lie_core import Family, change_basis, make_family
from solvgeo.moduli import frame_constants, rep_matrix

from helpers import FAMILIES, random_group_element

KINDS = ("dense", "sparse", "low_rank", "zero_lines", "nine")


def _entry(rng, big):
    return Fraction(rng.randint(-big, big), rng.randint(1, 12))


def random_rational_matrix(seed):
    """A seeded rational matrix; the kind cycles through KINDS."""
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    big = 10 ** 20 if seed % 3 == 0 else 9
    if kind == "nine":
        m = n = 9
    else:
        m, n = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "low_rank":
        k = rng.randint(0, max(0, min(m, n) - 1))
        left = [[_entry(rng, big) for _ in range(k)] for _ in range(m)]
        right = [[_entry(rng, big) for _ in range(n)] for _ in range(k)]
        rows = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                 for j in range(n)] for i in range(m)]
    else:
        density = 0.4 if kind in ("sparse", "nine") else 1.0
        rows = [[_entry(rng, big) if rng.random() < density else Fraction(0)
                 for _ in range(n)] for _ in range(m)]
    if kind in ("zero_lines", "nine") and rng.random() < 0.7:
        rows[rng.randrange(m)] = [Fraction(0)] * n
        col = rng.randrange(n)
        for row in rows:
            row[col] = Fraction(0)
    a = np.empty((m, n), dtype=object)
    a[:] = rows
    return a


def to_sympy(a):
    return sp.Matrix(a.shape[0], a.shape[1],
                     lambda i, j: sp.Rational(a[i, j].numerator, a[i, j].denominator))


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def assert_fractions(values):
    assert all(type(x) is Fraction for x in values)


def assert_rounded(flt, exact):
    """The float result is the exact one rounded entry by entry."""
    assert flt.dtype == float
    want = np.array([float(x) for x in exact.ravel()]).reshape(exact.shape)
    assert flt.tobytes() == want.tobytes()


def pivots(rows):
    """The first nonzero column of each row."""
    return [next(j for j, x in enumerate(row) if x) for row in rows]


@pytest.mark.parametrize("seed", range(200))
def test_exact_lane_matches_sympy(seed):
    a = random_rational_matrix(seed)
    m, n = a.shape
    want = to_sympy(a)
    want_rref, want_pivots = want.rref()

    # the row space basis is the nonzero rows of the RREF
    rows = linalg.row_space_basis(a)
    assert pivots(rows) == list(want_pivots)
    for r, row in enumerate(rows):
        assert_fractions(row)
        assert list(row) == [from_sympy(want_rref[r, j]) for j in range(n)]

    kernel = linalg.nullspace(a)
    want_kernel = want.nullspace()
    assert len(kernel) == len(want_kernel)
    for v, w in zip(kernel, want_kernel):
        assert_fractions(v)
        assert list(v) == [from_sympy(x) for x in w]

    # the float lane reduces the same matrix, read as the dyadic rationals
    # of its float entries, and rounds the result
    flt = a.astype(float)
    twin = np.array([Fraction(x) for x in flt.ravel()], dtype=object).reshape(a.shape)
    rows, twin_rows = linalg.row_space_basis(flt), linalg.row_space_basis(twin)
    assert pivots(rows) == pivots(twin_rows)
    for v, w in zip(rows, twin_rows):
        assert_rounded(v, w)
    kernel, twin_kernel = linalg.nullspace(flt), linalg.nullspace(twin)
    assert len(kernel) == len(twin_kernel)
    for v, w in zip(kernel, twin_kernel):
        assert_rounded(v, w)

    if m == n:
        if len(want_pivots) < n:
            with pytest.raises(SingularMatrixError):
                linalg.exact_inv(a)
        else:
            inv = linalg.exact_inv(a)
            want_inv = want.inv()
            assert_fractions(inv.ravel())
            assert [list(row) for row in inv] == [
                [from_sympy(want_inv[i, j]) for j in range(n)] for i in range(n)]


def test_oracle_matrices_cover_the_cases():
    mats = [random_rational_matrix(seed) for seed in range(200)]
    ranks = [len(linalg.row_space_basis(a)) for a in mats]
    assert any(r < min(a.shape) for a, r in zip(mats, ranks))
    assert any(a.shape == (9, 9) and r == 9 for a, r in zip(mats, ranks))
    assert any(a.shape == (9, 9) and r < 9 for a, r in zip(mats, ranks))
    assert any(a.shape[0] == a.shape[1] and r < a.shape[0] for a, r in zip(mats, ranks))
    assert any(all(x == 0 for x in a[:, j]) for a in mats for j in range(a.shape[1]))
    assert any(all(x == 0 for x in a[i]) for a in mats for i in range(a.shape[0]))
    assert max(abs(x.numerator) for a in mats for x in a.ravel()) > 10 ** 19


def test_exact_inv_singular_rational():
    a = np.array([[Fraction(1, 3), Fraction(2, 5), Fraction(-7, 2)],
                  [Fraction(2, 3), Fraction(4, 5), Fraction(-7)],
                  [Fraction(5), Fraction(0), Fraction(1, 9)]], dtype=object)
    with pytest.raises(SingularMatrixError):
        linalg.exact_inv(a)


def test_integer_numerators():
    a = np.array([Fraction(1, 6), Fraction(-3, 4), 2, Fraction(0)], dtype=object)
    nums, d = linalg.integer_numerators(a)
    assert d == 12
    assert list(nums) == [2, -9, 24, 0]
    assert all(type(x) is int for x in nums)
    mixed = np.array([np.int64(3), 0.25, Fraction(1, 3)], dtype=object)
    nums, d = linalg.integer_numerators(mixed)
    assert (list(nums), d) == ([36, 3, 4], 12)
    assert all(type(x) is int for x in nums)


def test_to_float_matches_float_of_each_entry():
    c = np.empty((3, 3, 3), dtype=object)
    c[...] = Fraction(0)
    c[0, 1, 2] = Fraction(10 ** 30 + 7, 3)
    c[2, 0, 1] = Fraction(-1, 7)
    flt = linalg.to_float(c)
    assert flt.dtype == float and flt.shape == (3, 3, 3)
    assert flt.tobytes() == np.array([float(x) for x in c.ravel()]).reshape(3, 3, 3).tobytes()
    # ints, numpy integers and floats (a signed zero and a NaN among them)
    mixed = np.array([[3, np.int64(-2 ** 62 - 1), Fraction(2 ** 80 + 1, 3)],
                      [0.25, -0.0, np.nan]], dtype=object)
    for arr in (mixed[0], mixed):
        want = np.array([float(x) for x in arr.ravel()]).reshape(arr.shape)
        assert linalg.to_float(arr).tobytes() == want.tobytes()


# ------------------------------------------------- no Fraction arithmetic

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def count_fraction_ops(monkeypatch):
    """Count calls of Fraction's arithmetic operators while the test runs."""
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    return calls


def test_exact_lane_does_no_fraction_arithmetic(monkeypatch):
    # a whole exact item: Der, the frame constants (rep_matrix and
    # change_basis) and the closed-form Ricci operator on them
    lams = (Fraction(37, 5), Fraction(5, 3), Fraction(32))
    fams = [Family(fam.tag, None if fam.a is None else Fraction(fam.a)) for fam in FAMILIES]
    cases = [(fam, make_family(fam, exact=True)) for fam in fams]
    calls = count_fraction_ops(monkeypatch)
    for fam, sc in cases:
        der = derivation_algebra(sc)
        assert der.dim in (4, 6)
        for lam in lams:
            h = rep_matrix(fam, lam, exact=True)
            assert change_basis(sc, h).exact
            assert linalg.exact_inv(h).shape == (3, 3)
            c = frame_constants(fam, lam, exact=True).c
            ric = ricci_closed_form(c[0, 1, 1], c[0, 1, 2], c[0, 2, 1], c[0, 2, 2])
            assert all(type(x) is Fraction for x in ric.ravel())
    assert calls == []
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert calls == ["__add__"]  # the counters are live


def test_lower_triangular_lq_factors_g():
    rng = np.random.default_rng(71)
    draws = [random_group_element(rng) for _ in range(200)]
    draws += [np.eye(3), -np.eye(3), np.diag([2.0, -3.0, 1e-3]), 1e-3 * np.eye(3),
              np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])]
    for g in draws:
        lower, k = linalg.lower_triangular_lq(g)
        assert np.abs(lower @ k.T - g).max() <= 4e-15 * np.abs(g).max()
        # exact zeros above the diagonal, and a positive diagonal
        assert not np.triu(lower, 1).any()
        assert (np.diag(lower) > 0).all()
        assert np.abs(k.T @ k - np.eye(3)).max() <= 4e-15


def test_lower_triangular_lq_rejects_small_determinant():
    # |det g| = 9e-10 and a rank-one-deficient g, against LQ_DET_TOL = 1e-9
    for g in (np.diag([1.0, 1.0, 9e-10]),
              np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])):
        with pytest.raises(SingularMatrixError, match="^group element is numerically singular$"):
            linalg.lower_triangular_lq(g)
    lower, _ = linalg.lower_triangular_lq(np.diag([1.0, 1.0, 2e-9]))
    assert np.prod(np.diag(lower)) == pytest.approx(2e-9, rel=1e-15)


@pytest.mark.parametrize("t", [1e-20, 1e-8, 1.0, 1e8, 1e20])
def test_orthonormalize_rank_does_not_depend_on_scale(t):
    # five vectors of rank 4: the cutoff is relative to the largest singular value
    v = np.random.default_rng(5).normal(size=(5, 9))
    v[4] = v[0] + v[1]
    q = linalg.orthonormalize(t * v)
    assert q.shape == (4, 9)
    np.testing.assert_allclose(q @ q.T, np.eye(4), rtol=0, atol=1e-12)
