import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import FAMILIES, random_spd
from oracles import derivation_residual
from solvgeo import soliton
from solvgeo.derivations import derivation_algebra
from solvgeo.errors import InvalidFamilyError
from solvgeo.lie_core import Family, make_family
from solvgeo.moduli import metric_to_group, reduce
from solvgeo.soliton import soliton_from_frame, solvsoliton_check


@pytest.mark.parametrize("a", [-1.0, -0.5, 0.0, 0.5])
def test_r3_a_identity_certificate(a):
    # Ric = c I + D with c = -(1 + a^2) and D = diag(0, a^2 - a, 1 - a)
    verdict = solvsoliton_check(make_family(Family("r3_a", a)), np.eye(3))
    assert verdict.is_soliton
    assert not verdict.is_einstein
    cert = verdict.certificate
    assert cert.residual < 1e-10
    assert cert.c == pytest.approx(-(1 + a * a), abs=1e-10)
    np.testing.assert_allclose(cert.d, np.diag([0.0, a * a - a, 1 - a]), atol=1e-10)


def test_r3_a_top_value_is_einstein():
    verdict = solvsoliton_check(make_family(Family("r3_a", 1.0)), np.eye(3))
    assert verdict.is_soliton and verdict.is_einstein
    assert verdict.certificate.c == pytest.approx(-2.0, abs=1e-10)
    np.testing.assert_allclose(verdict.certificate.d, 0.0, atol=1e-10)


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
def test_r3p_a_identity_is_einstein(a):
    verdict = solvsoliton_check(make_family(Family("r3p_a", a)), np.eye(3))
    assert verdict.is_soliton and verdict.is_einstein
    assert verdict.certificate.c == pytest.approx(-2 * a * a, abs=1e-10)


def test_h3_identity_certificate():
    verdict = solvsoliton_check(make_family(Family("h3")), np.eye(3))
    assert verdict.is_soliton and not verdict.is_einstein
    assert verdict.certificate.c == pytest.approx(-1.5, abs=1e-10)
    np.testing.assert_allclose(verdict.certificate.d, np.diag([1.0, 1.0, 2.0]),
                               atol=1e-10)


def test_r3_1_identity_is_einstein():
    verdict = solvsoliton_check(make_family(Family("r3_1")), np.eye(3))
    assert verdict.is_soliton and verdict.is_einstein
    assert verdict.certificate.c == pytest.approx(-2.0, abs=1e-10)


@pytest.mark.parametrize("tag", ["h3", "r3_1"])
def test_point_moduli_families_always_soliton(tag):
    rng = np.random.default_rng(5)
    sc = make_family(Family(tag))
    for _ in range(30):
        verdict = solvsoliton_check(sc, random_spd(rng))
        assert verdict.is_soliton
        assert verdict.certificate.residual < 1e-8
        assert verdict.is_einstein == (tag == "r3_1")


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_r3_never_soliton(lam):
    verdict = soliton_from_frame(Family("r3"), lam)
    assert not verdict.is_soliton
    expected = np.sqrt(lam**2 + lam**4 / 2)
    assert verdict.certificate.residual == pytest.approx(expected, rel=1e-12)


def test_r3_a_zero_obstruction_away_from_flat_point():
    # a = 0 is a soliton only at lambda = 0; frozen residuals elsewhere
    for lam, expected in [(0.5, 0.5103103630798287),
                          (1.0, 1.1547005383792515),
                          (2.0, 3.3333333333333335)]:
        verdict = soliton_from_frame(Family("r3_a", 0.0), lam)
        assert not verdict.is_soliton
        assert verdict.certificate.residual == pytest.approx(expected, rel=1e-10)
    assert soliton_from_frame(Family("r3_a", 0.0), 0.0).is_soliton


def test_frame_and_metric_checks_agree():
    rng = np.random.default_rng(11)
    for fam in FAMILIES:
        sc = make_family(fam)
        for _ in range(15):
            gram = random_spd(rng)
            direct = solvsoliton_check(sc, gram)
            lam = reduce(fam, metric_to_group(gram))[0].lam
            framed = soliton_from_frame(fam, lam)
            assert direct.is_soliton == framed.is_soliton
            assert direct.is_einstein == framed.is_einstein


def test_verdict_invariant_under_scaling():
    rng = np.random.default_rng(13)
    for fam in FAMILIES:
        sc = make_family(fam)
        gram = random_spd(rng)
        base = solvsoliton_check(sc, gram)
        scaled = solvsoliton_check(sc, 4.0 * gram)
        assert base.is_soliton == scaled.is_soliton
        if base.is_soliton:
            # Ricci (hence c) scales inversely with the metric
            assert scaled.certificate.c == pytest.approx(base.certificate.c / 4.0,
                                                         abs=1e-10)


def test_verdict_invariant_under_automorphism_pullback():
    rng = np.random.default_rng(19)
    for fam in FAMILIES:
        sc = make_family(fam)
        der = derivation_algebra(sc)
        for _ in range(5):
            gram = random_spd(rng)
            coeffs = rng.uniform(-0.5, 0.5, der.dim)
            alpha = expm(sum(t * b for t, b in zip(coeffs, der.basis)))
            pulled = alpha.T @ gram @ alpha
            v1 = solvsoliton_check(sc, gram)
            v2 = solvsoliton_check(sc, pulled)
            assert v1.is_soliton == v2.is_soliton
            if v1.is_soliton:
                assert v2.certificate.c == pytest.approx(v1.certificate.c, abs=1e-8)


def test_certificate_d_is_a_derivation():
    cases = [(Family("h3"), np.eye(3)),
             (Family("r3_a", -0.5), np.eye(3)),
             (Family("r3_a", 0.5), np.diag([2.0, 1.0, 1.0])),
             (Family("r3p_a", 1.0), np.eye(3))]
    for fam, gram in cases:
        sc = make_family(fam)
        verdict = solvsoliton_check(sc, gram)
        assert verdict.is_soliton
        assert derivation_residual(sc, verdict.certificate.d) < 1e-8


def test_frame_check_rejects_bad_lambda():
    with pytest.raises(InvalidFamilyError):
        soliton_from_frame(Family("r3"), -2.0)
    with pytest.raises(InvalidFamilyError):
        soliton_from_frame(Family("r3p_a", 1.0), 0.5)


def test_norm_scales_only_huge_vectors():
    rng = np.random.default_rng(7)
    for v in rng.normal(size=(100, 9)) * 10.0 ** rng.integers(-300, 149, (100, 1)):
        assert soliton._norm(v) == np.linalg.norm(v)
    assert soliton._norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert soliton._norm(np.array([1.5e308, 1.5e308])) == math.inf


def test_overflowed_residual_rejected():
    ric = np.zeros((3, 3))
    ric[0, 2] = ric[1, 2] = 1.5e308  # orthogonal to span{I} + Der(h3)
    der = derivation_algebra(make_family(Family("h3")))
    with pytest.raises(ValueError, match="^soliton residual is not finite: "
                                         "its norm overflows float64$"):
        soliton._project(ric, der, 1e-8)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 0.0, -1])
def test_tol_must_be_finite_and_positive(tol):
    message = re.escape(f"tol must be finite and > 0, got {tol}")
    fam = Family("r3p_a", 1.0)
    # lambda = 1 is a soliton point, so a bad tol cannot hide behind a verdict
    with pytest.raises(ValueError, match=message):
        soliton_from_frame(fam, 1.0, tol=tol)
    # a non-SPD Gram matrix: tol is checked before any curvature work
    with pytest.raises(ValueError, match=message):
        solvsoliton_check(make_family(fam), -np.eye(3), tol=tol)
