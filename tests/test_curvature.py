import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FAMILIES, FAMILY_STRINGS, abcd_constants, random_group_element, random_spd
from oracles import connection_coeffs, frame_ricci, koszul_ricci_exact
from solvgeo.curvature import (MetricData, _gram_ldl, block_ricci, metric_data, ricci_canonical,
                               ricci_closed_form, ricci_operator)
from solvgeo.derivations import semidirect_block
from solvgeo.errors import NonSPDMetricError
from solvgeo.linalg import ZERO_TOL
from solvgeo.lie_core import Family, StructureConstants, change_basis, make_family, parse_family
from solvgeo.moduli import frame_algebra, metric_to_group, rep_matrix
from solvgeo.soliton import solvsoliton_check


def test_metric_data_validation():
    sc = make_family(Family("h3"))
    with pytest.raises(NonSPDMetricError):
        metric_data(sc, np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NonSPDMetricError):
        metric_data(sc, np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]]))
    with pytest.raises(NonSPDMetricError):
        metric_data(sc, np.eye(2))
    with pytest.raises(NonSPDMetricError, match=r"entry \(2, 2\) is not finite: nan"):
        metric_data(sc, np.diag([1.0, np.nan, 1.0]))


def test_gram_symmetry_is_relative_to_its_largest_entry():
    sc = make_family(Family("r3"))
    skew = np.array([[1, 1e-6, 0], [0, 1, 0], [0, 0, 1.0]])
    near = random_spd(np.random.default_rng(3))
    near[0, 1] *= 1 + 1e-15
    assert 0 < np.abs(near - near.T).max()
    for t in (1e-100, 1e-20, 1e-8, 1.0, 1e8, 1e100):
        with pytest.raises(NonSPDMetricError, match="not symmetric"):
            metric_data(sc, t * skew)
        metric_data(sc, t * near)


def test_gram_asymmetry_at_the_bound_is_accepted():
    # a Gram matrix is refused when |G_ij - G_ji| > ZERO_TOL max|G_ij|: an
    # asymmetry equal to the bound passes, the next float above it does not
    sc = make_family(Family("r3"))
    for top in (1.0, 3.0, 1e-100, 1e100):
        bound = ZERO_TOL * top
        for i, j in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
            gram = top * np.eye(3)
            gram[i, j] = bound
            metric_data(sc, gram)
            gram[i, j] = np.nextafter(bound, np.inf)
            with pytest.raises(NonSPDMetricError, match="not symmetric"):
                metric_data(sc, gram)


def test_gram_names_its_first_non_finite_entry_in_row_major_order():
    sc = make_family(Family("r3"))
    gram = np.eye(3)
    gram[2, 0], gram[1, 2], gram[2, 2] = np.nan, -np.inf, np.inf
    message = r"^Gram matrix entry \(2, 3\) is not finite: -inf$"
    with pytest.raises(NonSPDMetricError, match=message):
        metric_data(sc, gram)


def test_frame_orthonormalizes_metric():
    rng = np.random.default_rng(1)
    sc = make_family(Family("r3"))
    for _ in range(25):
        gram = random_spd(rng)
        frame = metric_to_group(gram)
        np.testing.assert_allclose(frame.T @ gram @ frame, np.eye(3), atol=1e-10)


def test_connection_metric_compatibility_and_torsion():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c, d = rng.uniform(-2, 2, 4)
        sc = abcd_constants(a, b, c, d)
        gamma = connection_coeffs(sc.c)
        # skew in the last two slots (metric compatibility)
        np.testing.assert_allclose(gamma, -np.einsum("ikj->ijk", gamma), atol=1e-14)
        # torsion-free: Gamma_ij^k - Gamma_ji^k = c_ij^k
        np.testing.assert_allclose(gamma - np.einsum("jik->ijk", gamma), sc.c, atol=1e-14)


def test_connection_heisenberg_values():
    gamma = connection_coeffs(make_family(Family("h3")).c)
    # nabla_{x1} x2 = x3/2, nabla_{x2} x1 = -x3/2, nabla_{x1} x3 = -x2/2,
    # nabla_{x3} x1 = -x2/2, nabla_{x2} x3 = nabla_{x3} x2 = x1/2
    assert gamma[0, 1, 2] == pytest.approx(0.5)
    assert gamma[1, 0, 2] == pytest.approx(-0.5)
    assert gamma[0, 2, 1] == pytest.approx(-0.5)
    assert gamma[2, 0, 1] == pytest.approx(-0.5)
    assert gamma[1, 2, 0] == pytest.approx(0.5)
    assert gamma[2, 1, 0] == pytest.approx(0.5)
    for i in range(3):
        np.testing.assert_allclose(gamma[i, i], 0.0, atol=1e-15)


def test_connection_unimodular_direction():
    # nabla_{x2} x2 = a x1 for the standard a,b,c,d bracket
    a, b, c, d = 1.3, -0.4, 0.7, 2.0
    gamma = connection_coeffs(abcd_constants(a, b, c, d).c)
    np.testing.assert_allclose(gamma[1, 1], [a, 0, 0], atol=1e-14)
    np.testing.assert_allclose(gamma[2, 2], [d, 0, 0], atol=1e-14)
    # nabla_{x1} x2 = ((b - c)/2) x3
    np.testing.assert_allclose(gamma[0, 1], [0, 0, (b - c) / 2], atol=1e-14)


def test_ricci_pipeline_matches_closed_form():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        a, b, c, d = rng.uniform(-2, 2, 4)
        sc = abcd_constants(a, b, c, d)
        closed = ricci_closed_form(a, b, c, d)
        for ric_frame in (frame_ricci(sc, np.eye(3))[0],
                          ricci_operator(metric_data(sc, np.eye(3))).ric_frame):
            worst = max(worst, float(np.max(np.abs(ric_frame - closed))))
    assert worst < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_r3_printed_ricci_matrix(lam):
    # orthonormal frame for G = diag(1, 1, lam^2) is diag(1, 1, 1/lam)
    sc = make_family(Family("r3"))
    res = ricci_operator(metric_data(sc, np.diag([1.0, 1.0, lam ** 2])))
    want = -np.array([[2 + lam ** 2 / 2, 0, 0],
                      [0, 2 + lam ** 2 / 2, lam],
                      [0, lam, 2 - lam ** 2 / 2]])
    np.testing.assert_allclose(res.ric_frame, want, atol=1e-12)


@pytest.mark.parametrize("a", [-1.0, -0.5, 0.0, 0.5])
def test_r3_a_identity_metric_ricci(a):
    res = ricci_operator(metric_data(make_family(Family("r3_a", a)), np.eye(3)))
    np.testing.assert_allclose(res.ric_frame,
                               -np.diag([1 + a * a, 1 + a, a + a * a]), atol=1e-12)


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
def test_r3p_a_identity_metric_is_einstein(a):
    res = ricci_operator(metric_data(make_family(Family("r3p_a", a)), np.eye(3)))
    np.testing.assert_allclose(res.ric_frame, -2 * a * a * np.eye(3), atol=1e-12)


def test_h3_and_r3_1_identity_metric():
    res = ricci_operator(metric_data(make_family(Family("h3")), np.eye(3)))
    np.testing.assert_allclose(res.ric_frame, np.diag([-0.5, -0.5, 0.5]), atol=1e-13)
    assert res.scalar == pytest.approx(-0.5)
    res = ricci_operator(metric_data(make_family(Family("r3_1")), np.eye(3)))
    np.testing.assert_allclose(res.ric_frame, -2 * np.eye(3), atol=1e-13)
    assert res.scalar == pytest.approx(-6.0)


@pytest.mark.parametrize("a,lam", [(-1.0, 0.5), (-0.5, 1.0), (0.0, 2.0), (0.5, 1.5)])
def test_closed_form_r3_a_frame(a, lam):
    t = 0.5 * lam ** 2 * (a - 1) ** 2
    want = -np.array([[1 + a * a + t, 0, 0],
                      [0, 1 + a + t, lam * a * (a - 1)],
                      [0, lam * a * (a - 1), a + a * a - t]])
    got = ricci_closed_form(1.0, lam * (a - 1), 0.0, a)
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("a,lam", [(0.0, 2.0), (1.0, 0.5), (2.0, 3.0)])
def test_closed_form_r3p_a_frame(a, lam):
    s = lam - 1.0 / lam
    want = -0.5 * np.array([[4 * a * a + s * s, 0, 0],
                            [0, 4 * a * a + (lam ** 2 - lam ** -2), -2 * a * s],
                            [0, -2 * a * s, 4 * a * a - (lam ** 2 - lam ** -2)]])
    got = ricci_closed_form(a, -lam, 1.0 / lam, a)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_closed_form_exact_lane():
    got = ricci_closed_form(Fraction(1), Fraction(1, 2), Fraction(0), Fraction(1))
    assert got[0, 0] == Fraction(-17, 8)
    assert got[1, 2] == Fraction(-1, 2)


def test_ricci_canonical_is_conjugate_and_symmetric_with_metric():
    rng = np.random.default_rng(4)
    for fam in FAMILIES:
        sc = make_family(fam)
        gram = random_spd(rng)
        res = ricci_operator(metric_data(sc, gram))
        frame = metric_to_group(gram)
        np.testing.assert_allclose(
            res.ric_canonical, frame @ res.ric_frame @ np.linalg.inv(frame),
            atol=1e-10)
        # G * Ric is the symmetric Ricci form on the canonical basis
        rc = gram @ res.ric_canonical
        np.testing.assert_allclose(rc, rc.T, atol=1e-9)
        assert np.trace(res.ric_canonical) == pytest.approx(res.scalar)
        # ric_frame is symmetric on an orthonormal frame
        np.testing.assert_allclose(res.ric_frame, res.ric_frame.T, atol=1e-10)


def _rel_err(got, want) -> float:
    """max |got - want| over max |want|, for a float or Fraction ``want``."""
    want = np.array([[float(x) for x in row] for row in want])
    return float(np.abs(got - want).max() / np.abs(want).max())


# one family of each tag, r3_a and r3p_a at two parameters
ORACLE_FAMILIES = [parse_family(s) for s in
                   ("h3", "r3", "r3_1", "r3a:a=0.5", "r3a:a=-0.75", "r3pa:a=0.5", "r3pa:a=2.0")]


def test_ricci_canonical_matches_frame_pipeline():
    rng = np.random.default_rng(21)
    worst = 0.0
    for fam in ORACLE_FAMILIES:
        sc = make_family(fam)
        for _ in range(60):
            gram = random_spd(rng, 10 ** rng.uniform(-5, 5))
            worst = max(worst, _rel_err(ricci_canonical(sc, gram), frame_ricci(sc, gram)[1]))
    assert worst < 1e-12


@pytest.mark.parametrize("fam", ORACLE_FAMILIES, ids=str)
def test_ricci_canonical_matches_exact_koszul_at_dyadic_scales(fam):
    rng = np.random.default_rng(22)
    sc = make_family(fam)
    for k in range(-27, 28, 6):
        gram = np.ldexp(random_spd(rng), k)
        assert _rel_err(ricci_canonical(sc, gram), koszul_ricci_exact(sc.c, gram)) < 1e-12


# the last two give a wrong Ricci operator on every family unless the
# diagonal is equilibrated: products of the raw entries underflow
EXTREME_DIAGONALS = ([[1e290, 1, 1], [1, 1e290, 1], [1, 1, 1e290],
                      [1e-290, 1, 1], [1, 1e-290, 1], [1, 1, 1e-290],
                      [1e300] * 3, [1e-300] * 3, [1e200, 1, 1e-100],
                      [1e200, 1e-200, 1e-200], [1e-200, 1e200, 1e150]])


@pytest.mark.parametrize("diag", EXTREME_DIAGONALS, ids=lambda d: "_".join(map(repr, d)))
def test_ricci_canonical_matches_exact_koszul_on_extreme_diagonals(diag):
    for fam in ORACLE_FAMILIES:
        sc = make_family(fam)
        gram = np.diag(np.array(diag, dtype=float))
        assert _rel_err(ricci_canonical(sc, gram), koszul_ricci_exact(sc.c, gram)) < 1e-12, fam


@pytest.mark.parametrize("tag", ["r3", "r3a:a=0.5", "r3pa:a=0.5", "h3"])
def test_frame_free_ricci_reads_a_wide_diagonal(tag):
    # the frame path raised "basis change matrix is singular" here
    sc = make_family(parse_family(tag))
    gram = np.diag([1e200, 1.0, 1e-100])
    res = ricci_operator(metric_data(sc, gram))
    assert _rel_err(res.ric_canonical, koszul_ricci_exact(sc.c, gram)) < 1e-12
    assert np.isfinite(res.ric_frame).all()


def test_gram_ricci_first_entry_near_the_round_point():
    # r3p_a at a = 0 is flat at G = I, where its brackets have b = -c.  Near
    # it Ric_11 is about -2 eps^2: the Gram path once expanded its (b + c)^2
    # into terms that cancel (a relative error of 1.1e-1 at 1e-8), and once
    # rounded D3/D2 and D2/D3 apart before the skew q^2 D3/D2 - r^2 D2/D3
    # cancelled (1.1e-9 of max|Ric| on the (2,2) and (3,3) entries at 1e-8)
    sc = make_family(Family("r3p_a", 0.0))
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        gram = np.diag([1.0, 1.0, (1 + eps) ** 2])
        want = koszul_ricci_exact(sc.c, gram)
        got = ricci_canonical(sc, gram)
        assert abs(Fraction(got[0, 0]) - want[0][0]) <= 1e-7 * abs(want[0][0]), eps
        top = max(abs(x) for row in want for x in row)
        for i in range(3):
            assert abs(Fraction(got[i, i]) - want[i][i]) <= 1e-12 * top, (eps, i)


@pytest.mark.parametrize("tag", FAMILY_STRINGS)
def test_ric_frame_is_exactly_symmetric(tag):
    # D^1/2 Ric_y D^-1/2 is symmetric; its two off-diagonal entries are one value
    rng = np.random.default_rng(38)
    sc = make_family(parse_family(tag))
    for _ in range(200):
        f = ricci_operator(metric_data(sc, random_spd(rng, 10 ** rng.uniform(-6, 6)))).ric_frame
        assert f[1, 2] == f[2, 1], (tag, f)


_FAMILY_BLOCKS = [semidirect_block(make_family(fam)) for fam in FAMILIES]


@settings(max_examples=300, deadline=None)
@given(drawn=st.tuples(*[st.floats(-1e100, 1e100)] * 4))
def test_block_ricci_at_the_identity_is_ricci_closed_form(drawn):
    # one Ricci formula: at G = I the pivots are D = (1, 1, 1), so the Gram
    # path reads ricci_closed_form's entries, on every family's block and on
    # any drawn block it answers (an overflow refuses, and so skips, a block)
    for block in _FAMILY_BLOCKS + [drawn]:
        try:
            got = block_ricci(np.eye(3), block)[0]
        except ValueError:
            assert block is drawn
            continue
        assert got == ricci_closed_form(*block).ravel().tolist(), block


@settings(max_examples=60, deadline=None)
@given(fam=st.sampled_from(ORACLE_FAMILIES), seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(-60, 60))
def test_ricci_canonical_scales_exactly_by_powers_of_two(fam, seed, k):
    sc = make_family(fam)
    gram = random_spd(np.random.default_rng(seed), 10 ** (seed % 7 - 3))
    base = ricci_canonical(sc, gram)
    scaled = ricci_canonical(sc, np.ldexp(gram, k))
    assert np.ldexp(scaled, k).tobytes() == base.tobytes()


def test_ricci_scales_inversely_with_metric():
    rng = np.random.default_rng(5)
    sc = make_family(Family("r3p_a", 1.5))
    gram = random_spd(rng)
    base = ricci_operator(metric_data(sc, gram)).ric_frame
    scaled = ricci_operator(metric_data(sc, 4.0 * gram)).ric_frame
    np.testing.assert_allclose(scaled, base / 4.0, atol=1e-10)


# moderate lambda on each family with a one-parameter moduli space
G_LAMBDA_CASES = ([(Family("r3"), lam) for lam in (0.3, 1.0, 2.5)]
                  + [(Family("r3_a", a), lam) for a in (-0.5, 0.5) for lam in (-1.25, 0.0, 1.25)]
                  + [(Family("r3p_a", a), lam) for a in (0.375, 2.0) for lam in (1.0, 1.5, 4.0)])


def test_pipeline_ricci_frame_is_the_closed_form_on_g_lambda():
    # the lower-triangular orthonormal frame with positive diagonal is unique,
    # so the frame of G_lambda = g^-T g^-1 is g_lambda, and ric_frame is the
    # closed form on its brackets entry by entry
    for fam, lam in G_LAMBDA_CASES:
        g = rep_matrix(fam, lam)
        g_inv = np.linalg.inv(g)
        gram = g_inv.T @ g_inv
        assert np.abs(metric_to_group(gram) - g).max() <= 1e-15 * np.abs(g).max(), (fam, lam)
        want = ricci_closed_form(*frame_algebra(fam, g)[0])
        got = ricci_operator(metric_data(make_family(fam), gram)).ric_frame
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (fam, lam)


def test_every_gram_entry_point_takes_one_spd_decision():
    # v v^T + eps I with v 3x2 sits on the SPD boundary, where LAPACK
    # Cholesky and the LDL^T disagreed on about one draw in ten
    rng = np.random.default_rng(2029)
    verdicts = set()
    for i in range(2000):
        sc = make_family(ORACLE_FAMILIES[i % len(ORACLE_FAMILIES)])
        v = rng.normal(size=(3, 2))
        gram = v @ v.T + 10 ** rng.uniform(-18, -13) * np.eye(3)
        gram = np.triu(gram) + np.triu(gram, 1).T
        refused = []
        for call in (metric_to_group, lambda g: metric_data(sc, g),
                     lambda g: ricci_canonical(sc, g), lambda g: solvsoliton_check(sc, g),
                     lambda g: ricci_operator(MetricData(sc, g))):
            try:
                call(gram)
                refused.append(False)
            except NonSPDMetricError:
                refused.append(True)
        assert len(set(refused)) == 1, (i, refused)
        verdicts.add(refused[0])
    assert verdicts == {True, False}


def test_gram_ldl_decides_the_lower_minor_exactly():
    # g22 a few ulp from t = (g23 / g33) g23: the float pivot D2 = g22 - t and
    # the exact minor g22 g33 - g23^2 differ in sign on some draws, and every
    # such Gram matrix is refused
    rng = np.random.default_rng(113)
    seen = set()
    for _ in range(3000):
        g23, g33 = (float(x) for x in 10.0 ** rng.uniform(-3.0, 3.0, 2))
        g23 *= float(rng.choice([-1.0, 1.0]))
        t = (g23 / g33) * g23
        g22 = t + int(rng.integers(-3, 4)) * math.ulp(t)
        gram = np.array([[10.0, 0.0, 0.0], [0.0, g22, g23], [0.0, g23, g33]])
        exact = Fraction(g22) * Fraction(g33) - Fraction(g23) ** 2 > 0
        try:
            _gram_ldl(gram)
            accepted = True
        except NonSPDMetricError as exc:
            assert str(exc) == "Gram matrix is not positive definite"
            accepted = False
        assert not accepted or exact
        seen.add((g22 - (g23 / g33) * g23 > 0, exact, accepted))
    assert {(True, True, True), (True, False, False), (False, False, False)} <= seen


def test_ric_frame_is_block_diagonal_and_the_frame_conjugate():
    # ric_frame = D^1/2 Ric_y D^-1/2 is read off the closed form, so its
    # zeros are exact, and it is g^-1 Ric g on the frame g = metric_to_group
    rng = np.random.default_rng(30)
    for fam in ORACLE_FAMILIES:
        sc = make_family(fam)
        for _ in range(40):
            gram = random_spd(rng, 10 ** rng.uniform(-5, 5))
            res = ricci_operator(metric_data(sc, gram))
            f = res.ric_frame
            assert f[0, 1] == f[0, 2] == f[1, 0] == f[2, 0] == 0.0, (fam, f)
            g = metric_to_group(gram)
            assert _rel_err(f, np.linalg.solve(g, res.ric_canonical @ g)) < 1e-12, fam


def test_tensor_off_the_semidirect_shape_is_refused():
    rng = np.random.default_rng(31)
    sc = change_basis(make_family(Family("r3_a", 0.5)), random_group_element(rng))
    gram = random_spd(rng)
    for call in (lambda: ricci_canonical(sc, gram), lambda: solvsoliton_check(sc, gram),
                 lambda: ricci_operator(metric_data(sc, gram))):
        with pytest.raises(ValueError, match=r"must have the shape \[e1,e2\] = a e2 \+ b e3"):
            call()
    # the Gram matrix is checked first
    with pytest.raises(NonSPDMetricError):
        ricci_canonical(sc, -gram)
    # the zero tensor has the shape, with A = 0, and is flat
    ric = ricci_canonical(StructureConstants(np.zeros((3, 3, 3))), gram)
    assert ric.shape == (3, 3) and not ric.any()


# ------------------------------------------- closed form against its formula

def _fraction_closed_form(a, b, c, d):
    """The closed form in plain arithmetic, as the float lane computes it."""
    half = (b + c) * (b + c) / 2
    skew = (b - c) * (b + c) / 2
    return np.array([
        [-(a * a + d * d + half), 0 * a, 0 * a],
        [0 * a, -(a * (a + d) + skew), -(a * c + b * d)],
        [0 * a, -(a * c + b * d), -(d * (a + d) - skew)],
    ])


def _random_rational(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return rng.randint(-9, 9)  # a plain int
    big = 10 ** 20 if kind == 2 else 40
    return Fraction(rng.randint(-big, big), rng.choice((1, 2, 3, 7, 8, 12, 10 ** 20 + 39)))


def test_closed_form_int_input_is_exact():
    got = ricci_closed_form(1, 0, 0, 1)
    assert all(type(x) is Fraction for x in got.ravel())
    assert got.tolist() == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]


@pytest.mark.parametrize("seed", range(40))
def test_closed_form_exact_matches_fraction_formula(seed):
    rng = random.Random(seed)
    args = [_random_rational(rng) for _ in range(4)]
    got = ricci_closed_form(*args)
    assert got.shape == (3, 3)
    assert all(type(x) is Fraction for x in got.ravel())
    assert got.tolist() == _fraction_closed_form(*map(Fraction, args)).tolist()


def test_closed_form_float_lane_is_the_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    for scale in (1e-200, 1e-3, 1.0, 1e5, 1e150):
        for _ in range(50):
            args = [float(x) for x in rng.normal(size=4) * scale]
            args[rng.integers(4)] *= -0.0 if rng.random() < 0.3 else 1.0
            got = ricci_closed_form(*args)
            want = _fraction_closed_form(*args)
            assert got.dtype == want.dtype == float
            assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(ks=st.lists(st.integers(-64, 64), min_size=4, max_size=4))
def test_closed_form_lanes_agree_where_floats_are_exact(ks):
    # on k/8, |k| <= 64, every float product, sum and halving is exact, so
    # the float lane must give the exact lane's values
    exact = ricci_closed_form(*(Fraction(k, 8) for k in ks))
    flt = ricci_closed_form(*(k / 8 for k in ks))
    assert all(type(x) is Fraction for x in exact.ravel())
    assert flt.dtype == float
    assert flt.tolist() == exact.tolist()


def test_closed_form_float_overflow_gives_inf_and_nan_without_warning():
    # the r3pa:a=1e200 frame at lambda = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ricci_closed_form(1e200, -2.0, 0.5, 1e200)
    assert got.dtype == float
    assert np.isinf(got).any()
