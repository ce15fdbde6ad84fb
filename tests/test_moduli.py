import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import FAMILIES, automorphism_residual, random_group_element, random_spd
from oracles import same_class, subspace_equal
from solvgeo.derivations import derivation_algebra, scalar_plus, conjugate_subspace
from solvgeo.errors import InvalidFamilyError, NonSPDMetricError, SingularMatrixError
from solvgeo.lie_core import Family, make_family, parse_family
from solvgeo.linalg import lower_triangular_lq
from solvgeo.moduli import (frame_constants, metric_to_group, reduce, rep_matrix,
                            witness_residual)

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


def test_rep_matrix_shapes():
    np.testing.assert_allclose(rep_matrix(Family("r3"), 4.0),
                               np.diag([1.0, 1.0, 0.25]))
    m = rep_matrix(Family("r3_a", 0.5), 2.5)
    assert m[2, 1] == 2.5 and m[2, 2] == 1.0
    np.testing.assert_allclose(rep_matrix(Family("r3p_a", 1.0), 2.0),
                               np.diag([1.0, 1.0, 0.5]))
    np.testing.assert_allclose(rep_matrix(Family("h3"), 1.0), np.eye(3))


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


def test_reduce_rejects_near_singular():
    g = np.eye(3)
    g[2, 2] = 1e-12
    with pytest.raises(SingularMatrixError):
        reduce(Family("r3"), g)
    with pytest.raises(ValueError):
        reduce(Family("r3"), np.eye(2))


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
