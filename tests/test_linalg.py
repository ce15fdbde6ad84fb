"""The exact lane of linalg against sympy, and the integer-only guard.

Every exact result is compared with sympy's ``Matrix.rref()``,
``nullspace()`` and, on 3x3 ones, ``inv()`` on seeded random rational
matrices: dense and sparse, rank deficient, with zero rows and columns, 9x9
systems like the derivation identity's, and numerators up to 1e20.  Each
matrix is also run as floats, whose results must be the exact lane's on the
same dyadic rationals, rounded entry by entry.  The integer kernel ``(K, d)`` and
``ratios`` are also checked without sympy.  The float LQ factorization behind
``moduli.reduce`` is checked on its own at the end.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

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


def random_rational_matrix(seed, shape=None):
    """A seeded rational matrix; the kind cycles through KINDS, and a given
    ``shape`` replaces the drawn one."""
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    big = 10 ** 20 if seed % 3 == 0 else 9
    if kind == "nine":
        m = n = 9
    else:
        m, n = rng.randint(1, 6), rng.randint(1, 6)
    m, n = shape or (m, n)
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

    kernel = linalg.ratios(*linalg.nullspace(a))
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
    kernel = linalg.ratios(*linalg.nullspace(flt), exact=False)
    twin_kernel = linalg.ratios(*linalg.nullspace(twin))
    assert len(kernel) == len(twin_kernel)
    for v, w in zip(kernel, twin_kernel):
        assert_rounded(v, w)

    if (m, n) == (3, 3):
        assert_inverse_matches_sympy(a)


def assert_inverse_matches_sympy(a):
    want = to_sympy(a)
    if want.rank() < 3:
        with pytest.raises(SingularMatrixError, match="^matrix of rationals is singular$"):
            linalg.exact_inv(a)
        return
    inv = linalg.exact_inv(a)
    want_inv = want.inv()
    assert_fractions(inv.ravel())
    assert [list(row) for row in inv] == [
        [from_sympy(want_inv[i, j]) for j in range(3)] for i in range(3)]


# exact_inv is 3x3 only, and the 200 matrices above hold few of that shape:
# these hold every kind at 3x3, singular and invertible, numerators up to 1e20
@pytest.mark.parametrize("seed", range(50))
def test_exact_inv_matches_sympy(seed):
    assert_inverse_matches_sympy(random_rational_matrix(seed, (3, 3)))


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (9, 9), (3, 2), (2, 3)])
def test_exact_inv_refuses_a_matrix_not_3x3(shape):
    with pytest.raises(ValueError, match="^matrix to invert must be 3x3$"):
        linalg.exact_inv(np.full(shape, Fraction(1, 3), dtype=object))


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
    squares = [random_rational_matrix(seed, (3, 3)) for seed in range(50)]
    ranks = [len(linalg.row_space_basis(a)) for a in squares]
    assert 3 in ranks and min(ranks) < 3


def random_kernel_matrix(seed):
    """A seeded integer, rational or float matrix (by ``seed % 3``), wide
    more often than tall, with a zeroed column or a repeated row at times."""
    if seed % 3 == 1:
        return random_rational_matrix(seed)
    rng = np.random.default_rng(seed)
    m, n = (int(x) for x in rng.integers(1, 8, size=2))
    if seed % 3 == 0:
        a = np.empty((m, n), dtype=object)
        a[:] = rng.integers(-9, 10, size=(m, n)).tolist()
    else:
        a = rng.normal(size=(m, n)) * 2.0 ** rng.integers(-30, 30, size=(m, n))
    if rng.random() < 0.4:
        a[:, rng.integers(n)] = 0
    if m > 1 and rng.random() < 0.4:
        a[-1] = 2 * a[0]
    return a


def assert_exact_kernel(a, kernel, d):
    """``kernel / d`` is the RREF kernel basis of ``a``, checked in integers:
    ``a`` maps it to exactly 0, and its free columns hold ``d`` times the
    identity (the last nonzero entry of each row is its free column)."""
    n = a.shape[1]
    assert type(d) is int and d > 0
    assert kernel.dtype == object and kernel.shape == (len(kernel), n)
    assert all(type(x) is int for x in kernel.ravel())
    assert len(kernel) + len(linalg.row_space_basis(a)) == n
    assert not (linalg.integer_numerators(a)[0] @ kernel.T).any()
    free = [max(j for j in range(n) if row[j]) for row in kernel]
    assert kernel[:, free].tolist() == scaled_identity(len(free), d)


def scaled_identity(k, d):
    return [[d if i == j else 0 for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("seed", range(90))
def test_nullspace_is_an_exact_integer_kernel(seed):
    a = random_kernel_matrix(seed)
    assert_exact_kernel(a, *linalg.nullspace(a))


def test_nullspace_of_zero_and_of_full_column_rank():
    for a in (np.zeros((3, 4)), np.zeros((2, 5), dtype=object)):
        kernel, d = linalg.nullspace(a)
        assert_exact_kernel(a, kernel, d)
        assert kernel.tolist() == scaled_identity(a.shape[1], d)
    for a in (np.eye(3), np.array([[1.5, 2.0], [-3.0, 0.25], [7.0, 1.0]]),
              np.array([[Fraction(2, 3)]], dtype=object)):
        kernel, d = linalg.nullspace(a)
        assert_exact_kernel(a, kernel, d)
        assert kernel.shape == (0, a.shape[1])


@settings(max_examples=300, deadline=None)
@given(nums=st.lists(st.integers(-2 ** 2000, 2 ** 2000), min_size=1, max_size=6),
       den=st.integers(1, 2 ** 1100))
def test_ratios_round_like_float_of_fraction(nums, den):
    nums = nums + nums[:2] + [0]  # repeated numerators and a zero
    arr = linalg.object_array(nums, (1, len(nums)))
    try:
        want = np.array([[float(Fraction(x, den)) for x in nums]])
    except OverflowError:
        with pytest.raises(OverflowError):
            linalg.ratios(arr, den, exact=False)
    else:
        got = linalg.ratios(arr, den, exact=False)
        assert got.dtype == float and got.tobytes() == want.tobytes()
    exact = linalg.ratios(arr, den).ravel().tolist()
    assert exact == [Fraction(x, den) for x in nums]
    assert all(type(q) is Fraction for q in exact)
    by_num = dict(zip(nums, exact))
    assert all(by_num[x] is q for x, q in zip(nums, exact))
    assert len({id(q) for q in exact}) == len(by_num) and by_num[0] is linalg.ZERO


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


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0, -0.75])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False)),
                max_size=9))
def test_numerators_of_floats_match_their_fractions(values):
    # a float is a dyadic rational: its numerators over the lcm are those of the
    # same values as Fractions, and of the same floats with an int among them
    got = linalg.numerators(values)
    assert got == linalg.numerators([Fraction(x) for x in values])
    nums, d = got
    assert all(type(x) is int for x in nums) and d > 0
    assert [Fraction(n, d) for n in nums] == [Fraction(x) for x in values]
    mixed_nums, mixed_d = linalg.numerators(values + [3])
    assert (mixed_nums, mixed_d) == (nums + [3 * d], d)


def test_to_float_matches_float_of_each_entry():
    # the package converts exact arrays with np.asarray(arr, dtype=float),
    # which rounds each entry as float() does
    c = np.empty((3, 3, 3), dtype=object)
    c[...] = Fraction(0)
    c[0, 1, 2] = Fraction(10 ** 30 + 7, 3)
    c[2, 0, 1] = Fraction(-1, 7)
    flt = np.asarray(c, dtype=float)
    assert flt.dtype == float and flt.shape == (3, 3, 3)
    assert flt.tobytes() == np.array([float(x) for x in c.ravel()]).reshape(3, 3, 3).tobytes()
    # ints, numpy integers and floats (a signed zero and a NaN among them)
    mixed = np.array([[3, np.int64(-2 ** 62 - 1), Fraction(2 ** 80 + 1, 3)],
                      [0.25, -0.0, np.nan]], dtype=object)
    for arr in (mixed[0], mixed):
        want = np.array([float(x) for x in arr.ravel()]).reshape(arr.shape)
        assert np.asarray(arr, dtype=float).tobytes() == want.tobytes()
    # large rationals round correctly, and one past float64 raises as float() does
    rng = random.Random(7)
    big = [Fraction(rng.randrange(-10 ** 300, 10 ** 300), rng.randrange(1, 10 ** 40))
           for _ in range(31)]
    arr = linalg.object_array(big, (31,))
    assert np.asarray(arr, dtype=float).tolist() == [float(x) for x in big]
    with pytest.raises(OverflowError):
        np.asarray(linalg.object_array([Fraction(10 ** 400, 3)], (1,)), dtype=float)


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


def test_exact_derivations_build_no_fraction(monkeypatch):
    # the exact lane reads Der(c) off the integer kernel as floats, like the
    # float lane, and shares the float twin's subspace
    fams = [Family(fam.tag, None if fam.a is None else Fraction(fam.a)) for fam in FAMILIES]
    cases = [(make_family(fam, exact=True), derivation_algebra(make_family(fam)))
             for fam in fams]
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for sc, twin in cases:
        assert derivation_algebra(sc) is twin
    assert made == []
    assert Fraction(1, 3) == 1 / Fraction(3)
    assert made[0] == (1, 3)  # the counter is live


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


def _lq_by_qr(g: np.ndarray):
    """``lower_triangular_lq``'s QR path, whatever g is: the reference."""
    q, r = np.linalg.qr(g.T)
    if abs(math.prod(r.diagonal().tolist())) < linalg.LQ_DET_TOL:
        raise SingularMatrixError("group element is numerically singular")
    sign = np.where(r.diagonal() < 0, -1.0, 1.0)
    return r.T * sign, q * sign


def _lower_triangular_draws(rng):
    """Lower-triangular g with positive diagonal at scales 1e-6..1e6, some
    with -0.0 below the diagonal, and diagonals around LQ_DET_TOL."""
    for _ in range(400):
        g = np.tril(rng.normal(size=(3, 3))) * 10.0 ** rng.uniform(-6.0, 6.0)
        g[np.diag_indices(3)] = np.abs(g.diagonal())
        if rng.random() < 0.2:
            g[2, rng.integers(2)] = -0.0
        yield g
    for t in (linalg.LQ_DET_TOL, math.nextafter(linalg.LQ_DET_TOL, 0), 2e-9, 9e-10):
        yield np.diag([1.0, 1.0, t])
        yield np.array([[2.0, 0.0, 0.0], [-3.0, 0.5, 0.0], [1e3, 7.0, t]])


def test_lower_triangular_lq_gives_the_qr_bits_on_lower_triangular_g():
    # numpy's Householder reflector of an all-zero subcolumn is the identity,
    # so the QR of g.T is (I, g.T): the shortcut must give L's bits, raise on
    # the same inputs, and give k = I, which the QR's k equals as numbers
    # (it holds -0.0 below its diagonal)
    raised = 0
    for g in _lower_triangular_draws(np.random.default_rng(83)):
        try:
            want = _lq_by_qr(g)
        except SingularMatrixError:
            want = None
        try:
            got = linalg.lower_triangular_lq(g)
        except SingularMatrixError:
            got = None
        assert (got is None) == (want is None)
        if want is None:
            raised += 1
        else:
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])
    assert 0 < raised < 400


@pytest.mark.parametrize("t", [1e-20, 1e-8, 1.0, 1e8, 1e20])
def test_orthonormalize_rank_does_not_depend_on_scale(t):
    # five vectors of rank 4: the cutoff is relative to the largest singular value
    v = np.random.default_rng(5).normal(size=(5, 9))
    v[4] = v[0] + v[1]
    q = linalg.orthonormalize(t * v)
    assert q.shape == (4, 9)
    np.testing.assert_allclose(q @ q.T, np.eye(4), rtol=0, atol=1e-12)
