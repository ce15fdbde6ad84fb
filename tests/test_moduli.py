import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from helpers import FAMILIES, automorphism_residual, random_group_element, random_spd
from oracles import lambda_invariant, same_class, subspace_equal
from solvgeo.cli import default_grid
from solvgeo.derivations import (MatrixSubspace, derivation_algebra, scalar_plus,
                                 conjugate_subspace, semidirect_block)
from solvgeo.errors import InvalidFamilyError, NonSPDMetricError, SingularMatrixError
from solvgeo.lie_core import Family, make_family, parse_family
from solvgeo.linalg import lower_triangular_lq
from solvgeo.lie_core import change_basis
from solvgeo import moduli
from solvgeo.moduli import (frame_algebra, frame_brackets, frame_constants, metric_to_group,
                            reduce, rep_entries, rep_matrix, witness_residual)

REDUCIBLE = [f for f in FAMILIES if f.tag in ("r3", "r3_a", "r3p_a")]
TRANSITIVE = [Family("h3"), Family("r3_1"), Family("r3_a", 1.0)]
ONE_PER_TAG = [Family("h3"), Family("r3"), Family("r3_1"), Family("r3_a", 0.5),
               Family("r3p_a", 1.0)]


def _c7_r3p_a_draws():
    """The r3p_a group elements of C7's draws (seed 123, 200 per family)."""
    rng = np.random.default_rng(123)
    draws = [(fam, random_group_element(rng)) for fam in FAMILIES for _ in range(200)]
    return [(fam, g) for fam, g in draws if fam.tag == "r3p_a"]


def test_metric_to_group_examples():
    np.testing.assert_allclose(metric_to_group(np.diag([1.0, 1.0, 4.0])),
                               np.diag([1.0, 1.0, 0.5]), atol=1e-14)
    np.testing.assert_allclose(metric_to_group(np.diag([9.0, 1.0, 1.0])),
                               np.diag([1.0 / 3.0, 1.0, 1.0]), atol=1e-14)


def test_metric_to_group_inverts_gram():
    rng = np.random.default_rng(0)
    for _ in range(25):
        gram = random_spd(rng)
        g = metric_to_group(gram)
        np.testing.assert_allclose(np.linalg.inv(g).T @ np.linalg.inv(g), gram,
                                   atol=1e-9)
        assert not np.triu(g, 1).any()
        assert (np.diag(g) > 0).all()


def test_metric_to_group_rejects_non_spd():
    with pytest.raises(NonSPDMetricError):
        metric_to_group(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(NonSPDMetricError):
        metric_to_group(np.array([[1, 0.3, 0], [0, 1, 0], [0, 0, 1.0]]))
    # the symmetry test is relative to the largest entry, as in metric_data
    with pytest.raises(NonSPDMetricError, match="not symmetric"):
        metric_to_group(np.array([[1, 1e-7, 0], [0, 1, 0], [0, 0, 1.0]]))
    with pytest.raises(NonSPDMetricError, match=r"entry \(1, 2\) is not finite"):
        metric_to_group(np.array([[1, np.inf, 0], [0, 1, 0], [0, 0, 1.0]]))


def test_metric_to_group_orthonormalizes_at_extreme_scales():
    # G = S^1/2 R S^1/2 with S up to 1e+-300: g^T G g = I, in Fractions on the float g
    rng = np.random.default_rng(41)
    worst = Fraction(0)
    for _ in range(300):
        m = rng.normal(size=(3, 3))
        s = np.sqrt(10 ** rng.uniform(-300, 300, 3))
        gram = s[:, None] * (m.T @ m + 0.1 * np.eye(3)) * s
        gram = np.triu(gram) + np.triu(gram, 1).T
        g = [[Fraction(x) for x in row] for row in metric_to_group(gram).tolist()]
        big = [[Fraction(x) for x in row] for row in gram.tolist()]
        for i in range(3):
            for j in range(3):
                x = sum(g[k][i] * big[k][l] * g[l][j] for k in range(3) for l in range(3))
                worst = max(worst, abs(x - (i == j)))
    assert worst <= Fraction(1, 10 ** 14), float(worst)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(-100, 100).filter(lambda k: k != 0))
def test_metric_to_group_scales_exactly_by_powers_of_four(seed, k):
    gram = random_spd(np.random.default_rng(seed), 10 ** (seed % 7 - 3))
    got = metric_to_group(np.ldexp(gram, 2 * k))
    assert got.tobytes() == np.ldexp(metric_to_group(gram), -k).tobytes()


# lambda over each family's range, for r3_a at both signs
IDEMPOTENT_DRAWS = st.one_of(
    st.tuples(st.just(Family("r3")), st.floats(1e-6, 1e6)),
    *[st.tuples(st.just(Family("r3_a", a)), st.floats(-1e6, 1e6)) for a in (0.5, -0.75)],
    *[st.tuples(st.just(Family("r3p_a", a)), st.floats(1.0, 1e6)) for a in (0.375, 2.0)])


@settings(max_examples=300, deadline=None)
@given(draw=IDEMPOTENT_DRAWS)
def test_reduce_is_idempotent(draw):
    fam, lam = draw
    rep = reduce(fam, rep_matrix(fam, lam))[0]
    assert abs(reduce(fam, rep.matrix)[0].lam - rep.lam) <= 4e-16 * abs(rep.lam), (fam, lam)


def test_rep_matrix_shapes():
    np.testing.assert_allclose(rep_matrix(Family("r3"), 4.0),
                               np.diag([1.0, 1.0, 0.25]))
    m = rep_matrix(Family("r3_a", 0.5), 2.5)
    assert m[2, 1] == 2.5 and m[2, 2] == 1.0
    np.testing.assert_allclose(rep_matrix(Family("r3p_a", 1.0), 2.0),
                               np.diag([1.0, 1.0, 0.5]))
    np.testing.assert_allclose(rep_matrix(Family("h3"), 1.0), np.eye(3))
    # the single-class r3_a at a = 1 has no parameter either
    assert rep_matrix(Family("r3_a", 1.0), 2.5).tobytes() == np.eye(3).tobytes()


def test_rep_matrix_lambda_ranges():
    with pytest.raises(InvalidFamilyError):
        rep_matrix(Family("r3"), 0.0)
    with pytest.raises(InvalidFamilyError):
        rep_matrix(Family("r3"), -1.0)
    with pytest.raises(InvalidFamilyError):
        rep_matrix(Family("r3p_a", 1.0), 0.99)
    with pytest.raises(InvalidFamilyError):
        rep_matrix(Family("r3_a", 0.5), float("nan"))


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
@pytest.mark.parametrize("lam", [float("inf"), float("-inf"), float("nan")])
def test_rep_matrix_rejects_non_finite_lambda(fam, lam):
    with pytest.raises(InvalidFamilyError, match="lambda must be finite"):
        rep_matrix(fam, lam)


@pytest.mark.parametrize("exact", [False, True])
def test_rep_matrix_is_the_identity_but_rep_entries(exact):
    for fam in FAMILIES:
        for lam in (1.0, 2.5, 3, 1e-300 if fam.tag == "r3" else 7.0):
            want = np.eye(3).tolist()
            want[2][1:] = rep_entries(fam, lam, exact)
            assert rep_matrix(fam, lam, exact).tolist() == want
            assert all(type(x) in ((Fraction, int) if exact else (float,)) for x in want[2][1:])


def test_family_constants_keep_the_bits_of_a_zero_parameter():
    # Family's == merges a = 0.0, -0.0 and Fraction(0), but the float tensors
    # differ in the signs of their zeros: d and the mirror entries
    fams = [Family("r3_a", 0.0), Family("r3_a", -0.0), Family("r3_a", Fraction(0))]
    assert fams[0] == fams[1] == fams[2] and len({hash(f) for f in fams}) == 1
    tensors = set()
    for fam in fams + fams:  # the second pass reads the kept constants
        sc, block, _ = moduli.family_constants(fam)
        want = make_family(fam).c
        assert sc.c.tobytes() == want.tobytes()
        assert np.array(block).tobytes() == want[0, 1:, 1:].tobytes()
        assert not sc.c.flags.writeable
        tensors.add(sc.c.tobytes())
    assert len(tensors) == 3


def test_frame_brackets_solve_no_derivation(monkeypatch):
    frames = [(fam, rep_matrix(fam, 2.0)) for fam in ONE_PER_TAG]
    want = [frame_algebra(fam, g)[0] for fam, g in frames]

    def refuse(*args):
        raise AssertionError("a derivation algebra was read")
    monkeypatch.setattr(moduli, "derivation_algebra", refuse)
    assert [frame_brackets(fam, g)[0] for fam, g in frames] == want


def test_frame_constants_shapes():
    sc = frame_constants(Family("r3"), 2.0)
    assert sc.nonzero() == [(0, 1, 1, 1.0), (0, 1, 2, 2.0), (0, 2, 2, 1.0)]
    sc = frame_constants(Family("r3_a", 0.5), 3.0)
    np.testing.assert_allclose(sc.c[0, 1], [0.0, 1.0, -1.5], atol=1e-12)
    np.testing.assert_allclose(sc.c[0, 2], [0.0, 0.0, 0.5], atol=1e-12)
    sc = frame_constants(Family("r3p_a", 2.0), 2.0)
    np.testing.assert_allclose(sc.c[0, 1], [0.0, 2.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(sc.c[0, 2], [0.0, 0.5, 2.0], atol=1e-12)
    # frame brackets keep x2, x3 commuting
    np.testing.assert_allclose(sc.c[1, 2], 0.0, atol=1e-14)


def test_frame_derivations_equal_conjugated_derivations():
    for fam, lam in [(Family("r3"), 2.0), (Family("r3_a", -0.5), 1.5),
                     (Family("r3p_a", 1.0), 3.0)]:
        direct = derivation_algebra(frame_constants(fam, lam))
        conjugated = conjugate_subspace(derivation_algebra(make_family(fam)),
                                        rep_matrix(fam, lam))
        assert subspace_equal(direct, conjugated, tol=1e-8)


def _brackets(fam, lam) -> tuple:
    """The brackets ``frame_algebra`` reads on the Milnor frame x_i = g_lambda e_i."""
    return frame_algebra(fam, rep_matrix(fam, lam))[0]


def _accepted(fam, lams) -> list:
    """The lambdas of ``lams`` that ``_brackets`` accepts for ``fam``."""
    accepted = []
    for lam in lams:
        try:
            _brackets(fam, lam)
        except (InvalidFamilyError, SingularMatrixError):
            continue
        accepted.append(lam)
    return accepted


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_frame_brackets_within_one_ulp_of_exact(fam):
    # two lambdas per decade over all of float64's normal range, and random
    # dyadic lambdas with full 53-bit significands, each of either sign
    rng = np.random.default_rng(67)
    logs = [float(x) for x in np.geomspace(1e-300, 1e300, 1201)]
    dyadic = [math.ldexp(int(rng.integers(2 ** 52, 2 ** 53)), int(rng.integers(-100, 0)))
              for _ in range(200)]
    accepted = _accepted(fam, [s * x for x in logs + dyadic for s in (1.0, -1.0)])
    assert len(accepted) >= 100
    for lam in accepted:
        exact = frame_constants(fam, Fraction(lam), exact=True).c[0, 1:, 1:].ravel()
        got = _brackets(fam, lam)
        assert all(type(x) is float for x in got)
        for x, want in zip(got, (float(y) for y in exact)):
            assert abs(x - want) <= math.ulp(want), (lam, got, exact)


def _grid(fam) -> list:
    """The default verify grid, and lambdas near the ends of the accepted domain."""
    ends = {"r3": [1e-11, 1e11], "r3_a": [-1e5, -1e-9, 1e-9, 1e5], "r3p_a": [1.001, 1e11]}
    return list(default_grid(fam)) + ends.get(fam.tag, [])


def _lower_frames(fam, seed: int) -> list:
    """The Milnor frames g_lambda of ``_grid(fam)``, and the lower-triangular
    ``metric_to_group`` frames of random SPD metrics at scales 1e-6..1e6."""
    rng = np.random.default_rng(seed)
    frames = [rep_matrix(fam, lam) for lam in _grid(fam)]
    return frames + [metric_to_group(random_spd(rng, 10.0 ** rng.uniform(-6.0, 6.0)))
                     for _ in range(40)]


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_frame_algebra_rows_span_the_conjugated_orbit_algebra(fam):
    der = derivation_algebra(make_family(fam))
    for g in _lower_frames(fam, 89):
        brackets, rows, dim = frame_algebra(fam, g)
        assert all(type(x) is float for x in brackets)
        assert dim == der.dim
        np.testing.assert_allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-15)
        conjugated = conjugate_subspace(der, g)
        assert subspace_equal(MatrixSubspace(rows[:dim]), conjugated), g
        assert subspace_equal(MatrixSubspace(rows), scalar_plus(conjugated)), g


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_frame_algebra_brackets_are_the_frame_structure_constants(fam):
    # [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3 on x_i = L e_i, against the
    # exact change of basis by L's own rationals
    for g in _lower_frames(fam, 97):
        got = frame_algebra(fam, g)[0]
        exact = change_basis(make_family(fam, exact=True),
                             np.array([[Fraction(x) for x in row] for row in g.tolist()],
                                      dtype=object))
        assert semidirect_block(exact) is not None  # [x2,x3] = 0 and no x1 terms
        want = [float(x) for x in exact.c[0, 1:, 1:].ravel()]
        scale = max(map(abs, want))
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * scale, (g, got, want)


@pytest.mark.parametrize("fam", REDUCIBLE + TRANSITIVE,
                         ids=[f.label() for f in REDUCIBLE + TRANSITIVE])
def test_reduce_witness_properties(fam):
    rng = np.random.default_rng(17)
    sc = make_family(fam)
    for _ in range(40):
        g = random_group_element(rng)
        rep, trace = reduce(fam, g)
        assert witness_residual(rep, trace, g) < 1e-8
        assert automorphism_residual(sc, trace.auto_part) < 1e-8
        assert np.max(np.abs(trace.orth.T @ trace.orth - np.eye(3))) < 1e-10
        assert trace.scalar > 0
        if fam.tag == "r3":
            assert rep.lam > 0
        if fam.tag == "r3p_a":
            assert rep.lam >= 1.0
        # reducing the representative returns the same lambda
        rep2, _ = reduce(fam, rep.matrix)
        assert abs(rep2.lam - rep.lam) < 1e-9


def test_reduce_automorphism_on_c7_draws():
    # C7's draws: with L = R^T from numpy's QR, exactly lower triangular,
    # auto_part is an automorphism to 1e-10 (Gram-Schmidt's L gave 2.1e-9)
    rng = np.random.default_rng(123)
    worst = 0.0
    for fam in FAMILIES:
        sc = make_family(fam)
        for _ in range(200):
            trace = reduce(fam, random_group_element(rng))[1]
            worst = max(worst, automorphism_residual(sc, trace.auto_part))
    assert worst <= 1e-10


def test_reduce_r3p_a_calls_no_svd_or_det(monkeypatch):
    # the r3p_a Cartan split is closed form: no numpy SVD or determinant
    draws = _c7_r3p_a_draws()

    def forbidden(*args, **kwargs):
        raise AssertionError("reduce called an SVD or a determinant on r3p_a")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    for fam, g in draws:
        rep, trace = reduce(fam, g)
        assert witness_residual(rep, trace, g) < 1e-8


def test_reduce_r3p_a_cartan_steps():
    # both block moves are rotations, and rot @ B @ k2 = diag(s0, s1), s0 >= s1,
    # for B the lower-right 2x2 block of f_normalizer @ g @ lq_orthogonal
    for fam, g in _c7_r3p_a_draws():
        rep, trace = reduce(fam, g)
        steps = dict(trace.steps)
        rot, k2 = steps["cartan_rotation"], steps["cartan_orthogonal"]
        for m in (rot, k2):
            assert abs(np.linalg.det(m) - 1.0) <= 1e-15
            assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-15
            assert m[0, 0] == 1.0 and not m[0, 1:].any() and not m[1:, 0].any()
        block = (steps["f_normalizer"] @ g @ steps["lq_orthogonal"])[1:, 1:]
        diag = rot[1:, 1:] @ block @ k2[1:, 1:]
        s0 = 1.0 / steps["block_rescale"][1, 1]
        assert np.max(np.abs(diag - np.diag([s0, s0 / rep.lam]))) <= 1e-13 * s0
        assert s0 >= s0 / rep.lam > 0


def test_reduce_r3p_a_lambda_matches_lq_invariant():
    # lambda + 1/lambda = (l22^2 + l32^2 + l33^2) / (l22 l33), from the LQ factor
    for fam, g in _c7_r3p_a_draws():
        lam = reduce(fam, g)[0].lam
        low = lower_triangular_lq(g)[0]
        l22, l32, l33 = low[1, 1], low[2, 1], low[2, 2]
        lhs, rhs = (lam + 1.0 / lam) * l22 * l33, l22 ** 2 + l32 ** 2 + l33 ** 2
        assert abs(lhs - rhs) <= 1e-12 * rhs


_INVARIANT_FAMILIES = [Family("r3"), Family("r3_a", -0.5), Family("r3_a", 0.5),
                       Family("r3p_a", 0.0), Family("r3p_a", 2.0)]


@pytest.mark.parametrize("fam", _INVARIANT_FAMILIES, ids=lambda f: f.label())
def test_reduce_lambda_matches_the_rational_invariant(fam):
    # the class as a rational function of G^-1, in Fractions: an oracle that
    # checks reduce's lambda from outside
    rng = np.random.default_rng(97)
    for _ in range(120):
        m = rng.standard_normal((3, 3))
        gram = m.T @ m + 0.1 * np.eye(3)
        lam = reduce(fam, metric_to_group(gram))[0].lam
        got = (lam + 1.0 / lam) ** 2 if fam.tag == "r3p_a" else lam * lam
        want = float(lambda_invariant(fam.tag, gram))
        assert abs(got - want) <= 1e-12 * want, gram


@pytest.mark.parametrize("tag", ["r3", "r3_a", "r3p_a"])
def test_rational_invariant_is_exactly_scale_invariant(tag):
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        gram = [[Fraction(x) for x in row] for row in (m.T @ m + 0.1 * np.eye(3)).tolist()]
        want = lambda_invariant(tag, gram)
        for t in (Fraction(3, 7), Fraction(10 ** 12 + 1, 3), Fraction(1, 2 ** 80)):
            assert lambda_invariant(tag, [[t * x for x in row] for row in gram]) == want


@pytest.mark.parametrize("a33", [1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40])
@pytest.mark.parametrize("a32", [0.0, 2.0 ** -60, -(2.0 ** -60)])
def test_reduce_r3p_a_lambda_at_least_one_near_identity(a33, a32):
    # L = g here; det B / s0 rounds above s0 at a33 = 1 + 2^-52, a32 = 0, and
    # lambda = 1 exactly at g = I
    g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, a32, a33]])
    rep, trace = reduce(Family("r3p_a", 1.0), g)
    assert rep.lam >= 1.0
    assert witness_residual(rep, trace, g) < 1e-14
    if a33 == 1.0 and a32 == 0.0:
        assert rep.lam == 1.0 and witness_residual(rep, trace, g) == 0.0


@pytest.mark.parametrize("fam", ONE_PER_TAG, ids=[f.label() for f in ONE_PER_TAG])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reduce_rejects_non_finite_group_element(fam, bad):
    g = np.eye(3)
    g[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="group element is not finite"):
            reduce(fam, g)


@pytest.mark.parametrize("fam", REDUCIBLE, ids=[f.label() for f in REDUCIBLE])
def test_reduce_invariant_on_coset(fam):
    # lambda is unchanged under scaling, identity-component automorphisms,
    # and right orthogonal moves
    rng = np.random.default_rng(23)
    der = scalar_plus(derivation_algebra(make_family(fam)))
    for _ in range(10):
        g = random_group_element(rng)
        lam = reduce(fam, g)[0].lam
        coeffs = rng.uniform(-0.7, 0.7, der.dim)
        alpha = expm(sum(c * b for c, b in zip(coeffs, der.basis)))
        k, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lam2 = reduce(fam, alpha @ g @ k)[0].lam
        assert abs(lam - lam2) < 1e-7


def test_reduce_steps_labels():
    fam = parse_family("r3pa:a=1.0")
    _, trace = reduce(fam, np.diag([1.0, 1.0, 3.0]))
    names = [name for name, _ in trace.steps]
    assert names == ["lq_orthogonal", "f_normalizer", "cartan_rotation",
                     "cartan_orthogonal", "block_rescale"]
    _, trace = reduce(Family("r3"), np.diag([1.0, 1.0, 3.0]))
    assert [n for n, _ in trace.steps] == ["lq_orthogonal", "f_normalizer", "shear"]
    _, trace = reduce(Family("h3"), np.diag([1.0, 1.0, 3.0]))
    assert [n for n, _ in trace.steps] == ["lq_orthogonal", "triangular_inverse"]


def test_reduce_r3p_a_diagonal_example():
    # group element diag(1,1,3): singular values of the lower block are
    # (3,1), so lambda = 3 and the representative is diag(1,1,1/3)
    rep, trace = reduce(Family("r3p_a", 1.0), np.diag([1.0, 1.0, 3.0]))
    assert rep.lam == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(rep.matrix, np.diag([1.0, 1.0, 1.0 / 3.0]), atol=1e-12)


@pytest.mark.parametrize("fam", TRANSITIVE, ids=[f.label() for f in TRANSITIVE])
def test_transitive_families_reduce_to_identity(fam):
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_group_element(rng)
        rep, trace = reduce(fam, g)
        assert rep.lam == 1.0
        np.testing.assert_allclose(rep.matrix, np.eye(3))
        assert witness_residual(rep, trace, g) < 1e-8


@pytest.mark.parametrize("fam", REDUCIBLE + TRANSITIVE,
                         ids=[f.label() for f in REDUCIBLE + TRANSITIVE])
def test_reduce_representative_is_rep_matrix_of_its_lambda(fam):
    # bit for bit, on Gram frames and on elements that take a QR
    rng = np.random.default_rng(43)
    for _ in range(25):
        for g in (metric_to_group(random_spd(rng)), random_group_element(rng)):
            rep = reduce(fam, g)[0]
            assert rep.matrix.tobytes() == rep_matrix(fam, rep.lam).tobytes(), g


def test_reduce_rejects_near_singular():
    g = np.eye(3)
    g[2, 2] = 1e-12
    with pytest.raises(SingularMatrixError):
        reduce(Family("r3"), g)
    with pytest.raises(ValueError):
        reduce(Family("r3"), np.eye(2))


def test_reduce_of_a_gram_frame_runs_no_qr(monkeypatch):
    # metric_to_group's frame is already lower triangular with positive
    # diagonal: its LQ factor is itself and k1 = I, with no QR
    calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counting)
    rng = np.random.default_rng(43)
    for fam in FAMILIES:
        for _ in range(5):
            g = metric_to_group(random_spd(rng, 10 ** rng.uniform(-2, 2)))
            rep, trace = reduce(fam, g)
            assert dict(trace.steps)["lq_orthogonal"].tobytes() == np.eye(3).tobytes()
            assert witness_residual(rep, trace, g) <= 1e-9 * np.abs(rep.matrix).max()
    assert calls == []
    reduce(Family("r3"), random_group_element(rng))  # positive control
    assert calls == [1]


def test_milnor_data_examples():
    # lambda, k_scale = c^2 for the witness scalar c, and the frame brackets,
    # as ``solvgeo reduce`` reports them
    fam = Family("r3")
    rep, trace = reduce(fam, metric_to_group(np.diag([1.0, 1.0, 16.0])))
    assert rep.lam == pytest.approx(4.0, abs=1e-12)
    assert float(trace.scalar ** 2) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(frame_constants(fam, rep.lam).c[0, 1], [0, 1, 4], atol=1e-12)

    rep, _ = reduce(Family("r3_a", 0.5), metric_to_group(np.eye(3)))
    assert rep.lam == pytest.approx(0.0, abs=1e-12)

    rep, _ = reduce(Family("r3p_a", 1.0), metric_to_group(np.diag([1.0, 1.0, 1.0 / 9.0])))
    assert rep.lam == pytest.approx(3.0, abs=1e-10)


def test_milnor_k_scale_tracks_metric_scaling():
    gram = np.diag([1.0, 1.0, 16.0])
    base, base_trace = reduce(Family("r3"), metric_to_group(gram))
    scaled, scaled_trace = reduce(Family("r3"), metric_to_group(4.0 * gram))
    assert scaled.lam == pytest.approx(base.lam, abs=1e-12)
    assert float(scaled_trace.scalar ** 2) == pytest.approx(4.0 * float(base_trace.scalar ** 2),
                                                           abs=1e-10)


def test_same_class():
    fam = Family("r3")
    g16 = np.diag([1.0, 1.0, 16.0])
    assert same_class(fam, g16, 4.0 * g16)          # scaling is isometric
    assert not same_class(fam, g16, np.diag([1.0, 1.0, 25.0]))
    fam = Family("r3p_a", 1.0)
    assert same_class(fam, np.diag([1.0, 1.0, 1.0 / 9.0]), np.diag([9.0, 9.0, 1.0]))
    assert same_class(Family("h3"), np.eye(3), random_spd(np.random.default_rng(7)))


def test_same_class_random_isometric_pairs():
    rng = np.random.default_rng(41)
    for fam in REDUCIBLE:
        der = scalar_plus(derivation_algebra(make_family(fam)))
        for _ in range(5):
            g = random_group_element(rng)
            gram1 = np.linalg.inv(g).T @ np.linalg.inv(g)
            coeffs = rng.uniform(-0.5, 0.5, der.dim)
            alpha = expm(sum(c * b for c, b in zip(coeffs, der.basis)))
            g2 = alpha @ g
            gram2 = np.linalg.inv(g2).T @ np.linalg.inv(g2)
            assert same_class(fam, gram1, gram2)


@pytest.mark.parametrize("a", [-1.0, -0.3, 0.0, 0.5, 0.9])
def test_reduce_r3_a_lambda_is_canonical_and_nonnegative(a):
    # phi = diag(1, 1, -1) is an orthogonal automorphism of r3_a taking
    # g_lambda to g_-lambda, so g, phi g, g phi and 3.7 phi g phi are one class
    fam = Family("r3_a", a)
    sc = make_family(fam)
    phi = np.diag([1.0, 1.0, -1.0])
    rng = np.random.default_rng(31)
    for _ in range(60):
        g = random_group_element(rng)
        lams = []
        for h in (g, phi @ g, g @ phi, 3.7 * phi @ g @ phi):
            rep, trace = reduce(fam, h)
            assert witness_residual(rep, trace, h) <= 1e-12 * np.abs(rep.matrix).max()
            assert automorphism_residual(sc, trace.auto_part) <= 1e-12
            assert np.abs(trace.orth.T @ trace.orth - np.eye(3)).max() <= 1e-14
            lams.append(rep.lam)
        assert min(lams) >= 0
        assert max(lams) - min(lams) <= 1e-13 * max(1.0, lams[0])
