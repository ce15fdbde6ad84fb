import numpy as np
import pytest
from scipy.linalg import expm

from helpers import FAMILIES, automorphism_residual, random_group_element, random_spd
from oracles import same_class, subspace_equal
from solvgeo.derivations import derivation_algebra, scalar_plus, conjugate_subspace
from solvgeo.errors import InvalidFamilyError, NonSPDMetricError, SingularMatrixError
from solvgeo.lie_core import Family, make_family, parse_family
from solvgeo.moduli import (frame_constants, metric_to_group, reduce, rep_matrix,
                            witness_residual)

REDUCIBLE = [f for f in FAMILIES if f.tag in ("r3", "r3_a", "r3p_a")]
TRANSITIVE = [Family("h3"), Family("r3_1"), Family("r3_a", 1.0)]


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
    # the symmetry test has no relative slack, as in metric_data
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
