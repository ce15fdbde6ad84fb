import random
import re
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import DER_GRID, FAMILIES, random_group_element, random_spd
from oracles import antisymmetry_residual, bracket
from solvgeo import linalg
from solvgeo.curvature import metric_data, ricci_closed_form, ricci_operator
from solvgeo.errors import InvalidFamilyError, SingularMatrixError
from solvgeo.lie_core import (Family, StructureConstants, change_basis,
                              jacobi_residual, make_family, parse_family)
from solvgeo.moduli import metric_to_group, rep_matrix


@pytest.mark.parametrize("text,tag,a", [
    ("h3", "h3", None),
    ("r3", "r3", None),
    ("r3_1", "r3_1", None),
    ("r3a:a=0.5", "r3_a", 0.5),
    ("r3a:a=-1.0", "r3_a", -1.0),
    ("r3pa:a=2", "r3p_a", 2.0),
])
def test_parse_family(text, tag, a):
    fam = parse_family(text)
    assert fam.tag == tag
    assert fam.a == a


def test_label_round_trip():
    for fam in FAMILIES:
        assert parse_family(fam.label()) == fam


@pytest.mark.parametrize("call", [
    lambda: parse_family("nope"),
    lambda: parse_family("r3a"),                 # parameter missing
    lambda: parse_family("r3a:a=0.5:a=0.5"),     # parameter twice
    lambda: parse_family("r3a:a=x"),
    lambda: parse_family("r3a:b=1"),
    lambda: Family("r3_a", 1.5),                 # out of range
    lambda: Family("r3_a", -2.0),
    lambda: Family("r3p_a", -0.1),
    lambda: Family("r3p_a", float("inf")),       # not finite
    lambda: Family("r3p_a"),
    lambda: Family("h3", 1.0),                   # no parameter allowed
    lambda: Family("bogus"),
])
def test_invalid_families(call):
    with pytest.raises(InvalidFamilyError):
        call()


def test_canonical_brackets():
    e = np.eye(3)
    sc = make_family(Family("h3"))
    np.testing.assert_allclose(bracket(sc, e[0], e[1]), [0, 0, 1])
    sc = make_family(Family("r3"))
    np.testing.assert_allclose(bracket(sc, e[0], e[1]), [0, 1, 1])
    np.testing.assert_allclose(bracket(sc, e[0], e[2]), [0, 0, 1])
    sc = make_family(Family("r3_a", -0.5))
    np.testing.assert_allclose(bracket(sc, e[0], e[2]), [0, 0, -0.5])
    sc = make_family(Family("r3p_a", 2.0))
    np.testing.assert_allclose(bracket(sc, e[0], e[1]), [0, 2, -1])
    np.testing.assert_allclose(bracket(sc, e[0], e[2]), [0, 1, 2])
    sc = make_family(Family("r3_1"))
    np.testing.assert_allclose(bracket(sc, e[0], e[2]), [0, 0, 1])


def test_jacobi_and_antisymmetry_exact():
    for fam in FAMILIES:
        sc = make_family(fam, exact=True)
        assert sc.exact
        assert jacobi_residual(sc) == 0.0
        assert antisymmetry_residual(sc) == 0.0


def test_jacobi_float_lane():
    for fam in FAMILIES:
        sc = make_family(fam)
        assert not sc.exact
        assert jacobi_residual(sc) < 1e-12
        assert antisymmetry_residual(sc) < 1e-12


def test_bracket_bilinear():
    rng = np.random.default_rng(11)
    sc = make_family(Family("r3p_a", 1.5))
    for _ in range(20):
        x, y = rng.normal(size=(2, 3))
        s, t = rng.normal(size=2)
        lhs = bracket(sc, s * x + t * y, y)
        rhs = s * bracket(sc, x, y) + t * bracket(sc, y, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        np.testing.assert_allclose(bracket(sc, x, y), -bracket(sc, y, x), atol=1e-12)


def test_bracket_dimension_mismatch():
    sc = make_family(Family("h3"))
    with pytest.raises(ValueError):
        bracket(sc, np.ones(2), np.ones(3))


def test_change_basis_identity_and_composition():
    rng = np.random.default_rng(5)
    sc = make_family(Family("r3"))
    same = change_basis(sc, np.eye(3))
    np.testing.assert_allclose(same.c, sc.c, atol=1e-14)
    for _ in range(10):
        h1 = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        h2 = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        once = change_basis(change_basis(sc, h1), h2)
        combined = change_basis(sc, h1 @ h2)
        np.testing.assert_allclose(once.c, combined.c, atol=1e-10)


def test_change_basis_preserves_jacobi():
    rng = np.random.default_rng(6)
    for fam in FAMILIES:
        sc = make_family(fam)
        h = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        assert jacobi_residual(change_basis(sc, h)) < 1e-10


def test_change_basis_exact_lane():
    sc = make_family(Family("r3_a", 0.5), exact=True)
    h = np.array([[Fraction(1), Fraction(0), Fraction(0)],
                  [Fraction(0), Fraction(1), Fraction(0)],
                  [Fraction(0), Fraction(3), Fraction(1)]], dtype=object)
    out = change_basis(sc, h)
    assert out.exact
    # [x1,x2] = x2 + lam*(a-1) x3 with lam = 3, a = 1/2
    assert out.c[0, 1, 1] == 1
    assert out.c[0, 1, 2] == Fraction(-3, 2)
    assert out.c[0, 2, 2] == Fraction(1, 2)
    assert jacobi_residual(out) == 0.0


def _exact(rows):
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def _per_slice_contract(c, h, hinv):
    """``change_basis``'s sum slice by slice: w[r] = h^T c[:,:,r] h, then
    slice k of the result is hinv[k,0] w[0] + hinv[k,1] w[1] + ..."""
    n = c.shape[0]
    w = [np.dot(np.dot(h.T, c[:, :, r]), h) for r in range(n)]
    cprime = np.zeros((n, n, n), dtype=c.dtype)
    for k in range(n):
        acc = hinv[k, 0] * w[0]
        for r in range(1, n):
            acc = acc + hinv[k, r] * w[r]
        cprime[:, :, k] = acc
    return cprime


def _basis_cases(rng):
    """(c, h) pairs: random tensors and matrices, g_lambda of each family,
    and Cholesky frames of Gram matrices at scales 1e-6..1e6."""
    for fam in FAMILIES:
        sc = make_family(fam)
        for _ in range(60):
            lam = {"r3": 10 ** rng.uniform(-1, 1), "r3_a": rng.uniform(-5, 5),
                   "r3p_a": rng.uniform(1, 5)}.get(fam.tag, 1.0)
            yield sc.c, rep_matrix(fam, lam)
            yield sc.c, metric_to_group(random_spd(rng, 10 ** rng.uniform(-6, 6)))
    for _ in range(400):
        yield rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3)) + 2 * np.eye(3)


def test_change_basis_float_matches_per_slice_contraction():
    rng = np.random.default_rng(15)
    cases = list(_basis_cases(rng))
    assert len(cases) >= 1000
    for c, h in cases:
        want = _per_slice_contract(c, h, linalg.exact_inv(h))
        assert change_basis(StructureConstants(c), h).c.tobytes() == want.tobytes()


def _jacobi_by_loop(c):
    """The Jacobi cyclic sum over i < j < k, term by term."""
    worst = 0.0
    for i, j, k in combinations(range(3), 3):
        for l in range(3):
            s = sum(c[j, k, m] * c[i, m, l] + c[k, i, m] * c[j, m, l]
                    + c[i, j, m] * c[k, m, l] for m in range(3))
            worst = max(worst, abs(float(s)))
    return worst


def test_jacobi_residual_matches_loop():
    rng = np.random.default_rng(16)
    for _ in range(200):
        c = rng.normal(size=(3, 3, 3))
        c = c - c.transpose(1, 0, 2)
        assert jacobi_residual(StructureConstants(c)) == pytest.approx(_jacobi_by_loop(c),
                                                                       abs=1e-12)
        exact = np.array([Fraction(int(x * 8), 3) for x in c.ravel()],
                         dtype=object).reshape(3, 3, 3)
        exact = exact - exact.transpose(1, 0, 2)
        assert jacobi_residual(StructureConstants(exact)) == _jacobi_by_loop(exact)


@pytest.mark.parametrize("seed", range(20))
def test_change_basis_exact_matches_fraction_contraction(seed):
    # dense and sparse rational tensors and basis matrices, against the
    # per-slice contraction run in Fraction arithmetic on h's exact inverse
    rng = random.Random(seed)
    big = 10 ** 20 if seed % 2 else 9

    def entry(density):
        if rng.random() > density:
            return Fraction(0)
        return Fraction(rng.randint(-big, big), rng.choice((1, 2, 3, 7, 10 ** 20 + 39)))

    density = (0.2, 0.6, 1.0)[seed % 3]
    c = np.array([entry(density) for _ in range(27)], dtype=object).reshape(3, 3, 3)
    while True:
        h = np.array([entry(density) for _ in range(9)], dtype=object).reshape(3, 3)
        h[range(3), range(3)] += 1 + (seed % 2)
        try:
            hinv = linalg.exact_inv(h)
            break
        except SingularMatrixError:
            continue
    out = change_basis(StructureConstants(c), h)
    assert all(type(x) is Fraction for x in out.c.ravel())
    assert out.c.tolist() == _per_slice_contract(c, h, hinv).tolist()


@pytest.mark.parametrize("h", [
    [[Fraction(1, 3), 2, 0], [0, 0, 0], [Fraction(-5, 7), 1, 4]],
    [[Fraction(1, 3), 2, 0], [Fraction(2, 3), 4, 0], [Fraction(-5, 7), 1, 4]],
], ids=["zero_row", "rank_2"])
def test_change_basis_exact_singular(h):
    sc = make_family(Family("r3p_a", Fraction(3, 8)), exact=True)
    with pytest.raises(SingularMatrixError):
        change_basis(sc, _exact(h))


LAMBDAS = (Fraction(-7, 3), Fraction(1, 8), Fraction(37, 5), Fraction(32))


def _frame_tensor(x12, x13):
    """[x1,x2] = x12 . x, [x1,x3] = x13 . x, [x2,x3] = 0, as a (3,3,3) list."""
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1], c[0][2] = list(x12), list(x13)
    c[1][0], c[2][0] = [-x for x in x12], [-x for x in x13]
    return c


@pytest.mark.parametrize("tag,k", [("r3_a", k) for k in (-8, -3, 0, 5, 8)]
                         + [("r3p_a", k) for k in (0, 3, 8, 21)])
@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_change_basis_exact_frame_closed_forms(tag, k, lam):
    # the frame x_i = g_lambda e_i, with g_lambda's shape for any lambda != 0
    a = Fraction(k, 8)
    one, zero = Fraction(1), Fraction(0)
    if tag == "r3_a":
        h = _exact([[1, 0, 0], [0, 1, 0], [0, lam, 1]])
        want = _frame_tensor((zero, one, lam * (a - 1)), (zero, zero, a))
        t = lam * lam * (a - 1) ** 2 / 2
        off = -lam * a * (a - 1)
        ric = [[-(1 + a * a + t), 0, 0], [0, -(1 + a + t), off], [0, off, -(a + a * a - t)]]
    else:
        h = _exact([[1, 0, 0], [0, 1, 0], [0, 0, 1 / lam]])
        want = _frame_tensor((zero, a, -lam), (zero, 1 / lam, a))
        s, u = lam - 1 / lam, lam * lam - 1 / (lam * lam)
        ric = [[-(4 * a * a + s * s) / 2, 0, 0], [0, -(4 * a * a + u) / 2, a * s],
               [0, a * s, -(4 * a * a - u) / 2]]
    out = change_basis(make_family(Family(tag, a), exact=True), h)
    assert all(type(x) is Fraction for x in out.c.ravel())
    assert out.c.tolist() == want
    c = out.c
    assert ricci_closed_form(c[0, 1, 1], c[0, 1, 2], c[0, 2, 1], c[0, 2, 2]).tolist() == ric


def test_change_basis_lower_triangular_frame_shape():
    # h with (3,2)-entry lam turns r3_a constants into the Milnor frame form
    a, lam = -0.5, 2.5
    sc = make_family(Family("r3_a", a))
    h = np.eye(3)
    h[2, 1] = lam
    out = change_basis(sc, h)
    np.testing.assert_allclose(out.c[0, 1], [0.0, 1.0, lam * (a - 1)], atol=1e-12)
    np.testing.assert_allclose(out.c[0, 2], [0.0, 0.0, a], atol=1e-12)


def test_change_basis_singular():
    sc = make_family(Family("r3"))
    with pytest.raises(SingularMatrixError):
        change_basis(sc, np.zeros((3, 3)))


@settings(max_examples=300, deadline=None)
@given(fam=st.sampled_from(FAMILIES), seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-40, 40))
def test_change_basis_follows_power_of_two_scaling(fam, seed, k):
    # h^-1 is the exact inverse rounded once, 2^-k times h's at 2^k h, so 2^k h
    # gives 2^k times the constants of h, bit for bit
    sc = make_family(fam)
    h = random_group_element(np.random.default_rng(seed))
    scaled = change_basis(sc, 2.0 ** k * h).c
    assert scaled.tobytes() == (2.0 ** k * change_basis(sc, h).c).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_change_basis_rejects_non_finite_h(bad):
    h = np.eye(3)
    h[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="^basis change matrix is not finite$"):
            change_basis(make_family(Family("r3p_a", 0.5)), h)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3), (4, 4, 4)])
def test_structure_constants_are_3x3x3(shape):
    with pytest.raises(ValueError, match=re.escape(f"must be 3x3x3, got shape {shape}")):
        StructureConstants(np.zeros(shape))


def test_nonzero_listing():
    sc = make_family(Family("r3p_a", 2.0))
    assert sc.nonzero() == [(0, 1, 1, 2.0), (0, 1, 2, -1.0),
                            (0, 2, 1, 1.0), (0, 2, 2, 2.0)]


@pytest.mark.parametrize("gram", [np.eye(3), np.array([[2, 0.3, -0.4],
                                                        [0.3, 1.5, 0.2],
                                                        [-0.4, 0.2, 0.8]])],
                         ids=["identity", "corpus"])
def test_ricci_operator_exact_tensor_matches_float_twin(gram):
    # the float lane of change_basis converts an exact tensor itself
    for fam in DER_GRID:
        exact = ricci_operator(metric_data(make_family(fam, exact=True), gram))
        flt = ricci_operator(metric_data(make_family(fam), gram))
        assert exact.ric_frame.tobytes() == flt.ric_frame.tobytes(), fam
        assert exact.ric_canonical.tobytes() == flt.ric_canonical.tobytes(), fam
        assert exact.scalar == flt.scalar, fam


def _make_family_by_assignment(family: Family, exact: bool) -> np.ndarray:
    """The entry-by-entry construction that ``make_family`` replaced."""
    a = family.a
    if exact and a is not None:
        a = Fraction(a)
    one = Fraction(1) if exact else 1.0
    if exact:
        c = np.empty((3, 3, 3), dtype=object)
        c[...] = Fraction(0)
    else:
        c = np.zeros((3, 3, 3))

    def put(i, j, k, value):
        c[i, j, k] = value
        c[j, i, k] = -value

    if family.tag == "h3":
        put(0, 1, 2, one)
    elif family.tag == "r3":
        put(0, 1, 1, one)
        put(0, 1, 2, one)
        put(0, 2, 2, one)
    elif family.tag in ("r3_a", "r3_1"):
        put(0, 1, 1, one)
        put(0, 2, 2, one if family.tag == "r3_1" else a)
    else:
        put(0, 1, 1, a)
        put(0, 1, 2, -one)
        put(0, 2, 1, one)
        put(0, 2, 2, a)
    return c


# every branch, with zero parameters (whose negatives are -0.0 in the float
# lane), int, Fraction and numpy parameters, and non-dyadic floats
MAKE_FAMILY_CASES = [Family(tag) for tag in ("h3", "r3", "r3_1")] + [
    Family(tag, a)
    for tag, values in (("r3_a", (-1.0, -0.0, 0.0, 0.1, 1 / 3, 1.0, 0, -1, Fraction(-3, 7),
                                  np.float64(0.5))),
                        ("r3p_a", (0.0, 0.1, 2.0, 1e300, 0, 3, Fraction(22, 7),
                                   np.float64(0.0))))
    for a in values]


@pytest.mark.parametrize("fam", MAKE_FAMILY_CASES, ids=[repr(f) for f in MAKE_FAMILY_CASES])
def test_make_family_matches_entry_assignment(fam):
    flt = make_family(fam).c
    want = _make_family_by_assignment(fam, exact=False)
    assert flt.dtype == float and flt.shape == (3, 3, 3)
    assert flt.tobytes() == want.tobytes()
    exact = make_family(fam, exact=True).c
    want = _make_family_by_assignment(fam, exact=True)
    assert exact.dtype == object and exact.shape == (3, 3, 3)
    assert exact.tolist() == want.tolist()
    assert all(type(x) is Fraction for x in exact.ravel())
