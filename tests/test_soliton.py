import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from helpers import FAMILIES, random_group_element, random_spd
from oracles import derivation_residual, lstsq_soliton_split
from solvgeo import cli, curvature, derivations, lie_core, linalg, orbit_geometry, soliton
from solvgeo.derivations import conjugate_subspace, derivation_algebra
from solvgeo.errors import InvalidFamilyError
from solvgeo.lie_core import Family, StructureConstants, make_family
from solvgeo.moduli import frame_constants, metric_to_group, reduce, rep_matrix
from solvgeo.soliton import soliton_from_frame, solvsoliton_check


@pytest.mark.parametrize("a", [-1.0, -0.5, 0.0, 0.5])
def test_r3_a_identity_certificate(a):
    # Ric = c I + D with c = -(1 + a^2) and D = diag(0, a^2 - a, 1 - a)
    verdict = solvsoliton_check(make_family(Family("r3_a", a)), np.eye(3))
    assert verdict.is_soliton
    assert not verdict.is_einstein
    assert verdict.residual < 1e-10
    assert verdict.c == pytest.approx(-(1 + a * a), abs=1e-10)
    np.testing.assert_allclose(verdict.d, np.diag([0.0, a * a - a, 1 - a]), atol=1e-10)


def test_r3_a_top_value_is_einstein():
    verdict = solvsoliton_check(make_family(Family("r3_a", 1.0)), np.eye(3))
    assert verdict.is_soliton and verdict.is_einstein
    assert verdict.c == pytest.approx(-2.0, abs=1e-10)
    np.testing.assert_allclose(verdict.d, 0.0, atol=1e-10)


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
def test_r3p_a_identity_is_einstein(a):
    verdict = solvsoliton_check(make_family(Family("r3p_a", a)), np.eye(3))
    assert verdict.is_soliton and verdict.is_einstein
    assert verdict.c == pytest.approx(-2 * a * a, abs=1e-10)


def test_h3_identity_certificate():
    verdict = solvsoliton_check(make_family(Family("h3")), np.eye(3))
    assert verdict.is_soliton and not verdict.is_einstein
    assert verdict.c == pytest.approx(-1.5, abs=1e-10)
    np.testing.assert_allclose(verdict.d, np.diag([1.0, 1.0, 2.0]),
                               atol=1e-10)


def test_r3_1_identity_is_einstein():
    verdict = solvsoliton_check(make_family(Family("r3_1")), np.eye(3))
    assert verdict.is_soliton and verdict.is_einstein
    assert verdict.c == pytest.approx(-2.0, abs=1e-10)


@pytest.mark.parametrize("tag", ["h3", "r3_1"])
def test_point_moduli_families_always_soliton(tag):
    rng = np.random.default_rng(5)
    sc = make_family(Family(tag))
    for _ in range(30):
        verdict = solvsoliton_check(sc, random_spd(rng))
        assert verdict.is_soliton
        assert verdict.residual < 1e-8
        assert verdict.is_einstein == (tag == "r3_1")


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_r3_never_soliton(lam):
    verdict = soliton_from_frame(Family("r3"), lam)
    assert not verdict.is_soliton
    expected = np.sqrt(lam**2 + lam**4 / 2)
    assert verdict.residual == pytest.approx(expected, rel=1e-12)


def test_r3_a_zero_obstruction_away_from_flat_point():
    # a = 0 is a soliton only at lambda = 0; frozen residuals elsewhere
    for lam, expected in [(0.5, 0.5103103630798287),
                          (1.0, 1.1547005383792515),
                          (2.0, 3.3333333333333335)]:
        verdict = soliton_from_frame(Family("r3_a", 0.0), lam)
        assert not verdict.is_soliton
        assert verdict.residual == pytest.approx(expected, rel=1e-10)
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
            assert scaled.c == pytest.approx(base.c / 4.0,
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
                assert v2.c == pytest.approx(v1.c, abs=1e-8)


def test_certificate_d_is_a_derivation():
    cases = [(Family("h3"), np.eye(3)),
             (Family("r3_a", -0.5), np.eye(3)),
             (Family("r3_a", 0.5), np.diag([2.0, 1.0, 1.0])),
             (Family("r3p_a", 1.0), np.eye(3))]
    for fam, gram in cases:
        sc = make_family(fam)
        verdict = solvsoliton_check(sc, gram)
        assert verdict.is_soliton
        assert derivation_residual(sc, verdict.d) < 1e-8


@pytest.mark.parametrize("fam,lam", [(Family("r3"), lam) for lam in (1e-3, 1e3, 1e5)]
                         + [(Family("r3_a", 0.5), lam) for lam in (-1e3, 1e3, 1e5)]
                         + [(Family("r3p_a", 0.375), lam) for lam in (1e3, 1e5)])
def test_frame_ricci_is_accurate_at_large_lambda(fam, lam):
    # the exact closed form on the exact frame brackets, rounded once, split
    # over the same conjugated Der; cond(G_lambda) grows like lambda^4 on r3_a,
    # so a Ricci read from (c, G_lambda) misses this by 1.7e-10 at lambda = 1e3
    c = frame_constants(fam, Fraction(lam), exact=True).c
    ric = curvature.ricci_closed_form(*c[0, 1:, 1:].ravel().tolist()).astype(float)
    der = conjugate_subspace(derivation_algebra(make_family(fam)), rep_matrix(fam, lam))
    want = soliton._project(ric, der.scalar_frame, der.dim,
                            soliton.DEFAULT_TOL).residual
    assert soliton_from_frame(fam, lam).residual == pytest.approx(want, rel=1e-12)


def test_frame_check_rejects_bad_lambda():
    with pytest.raises(InvalidFamilyError):
        soliton_from_frame(Family("r3"), -2.0)
    with pytest.raises(InvalidFamilyError):
        soliton_from_frame(Family("r3p_a", 1.0), 0.5)


def test_residual_is_read_at_every_scale():
    # the [e1, e3] and [e2, e3] entries are orthogonal to span{I} + Der(h3);
    # at 1e-200 their squares underflow float64, at 1e200 they overflow
    der = derivation_algebra(make_family(Family("h3")))
    for scale in (1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e200, 1e300):
        ric = np.zeros((3, 3))
        ric[0, 2], ric[1, 2] = 3 * scale, 4 * scale
        verdict = soliton._project(ric, der.scalar_frame, der.dim, 1e-8)
        assert verdict.residual == pytest.approx(5 * scale, rel=1e-15, abs=0), scale
        assert verdict.is_soliton == verdict.is_einstein == (scale < 1e-8)


def test_overflowed_residual_rejected():
    ric = np.zeros((3, 3))
    ric[0, 2] = ric[1, 2] = 1.5e308  # orthogonal to span{I} + Der(h3)
    der = derivation_algebra(make_family(Family("h3")))
    with pytest.raises(ValueError, match="^soliton residual is not finite: "
                                         "its norm overflows float64$"):
        soliton._project(ric, der.scalar_frame, der.dim, 1e-8)


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


# r3_a a=0.5 at G below is not a soliton, at any scale; its residual at
# 1e8 G (3.7e-9) is below the default tol at the input's scale
_ITEM4_GRAM = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])


def test_residual_scales_exactly_by_powers_of_two():
    # Ric(2^k G) = 2^-k Ric(G) with no rounding, and so is the residual
    sc = make_family(Family("r3_a", 0.5))
    base = solvsoliton_check(sc, _ITEM4_GRAM).residual
    moved = [k for k in range(-1000, 1001, 25)
             if 2.0 ** k * solvsoliton_check(sc, 2.0 ** k * _ITEM4_GRAM).residual
             != base]
    assert moved == []


def _scaled_gram(seed, diagonal):
    """A random SPD Gram matrix, or a random positive diagonal one (a soliton
    on r3_a and r3_1, with a residual of exactly 0)."""
    rng = np.random.default_rng(seed)
    return np.diag(rng.uniform(0.1, 10.0, 3)) if diagonal else random_spd(rng)


@settings(max_examples=200, deadline=None)
@given(fam=st.sampled_from(FAMILIES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans(), k=st.integers(-40, 40))
def test_verdict_and_residual_follow_power_of_two_scaling(fam, seed, diagonal, k):
    sc, gram = make_family(fam), _scaled_gram(seed, diagonal)
    base, moved = solvsoliton_check(sc, gram), solvsoliton_check(sc, 2.0 ** k * gram)
    assert moved.residual == 2.0 ** -k * base.residual
    assert moved.is_soliton == base.is_soliton
    assert moved.is_einstein == base.is_einstein


@settings(max_examples=200, deadline=None)
@given(fam=st.sampled_from(FAMILIES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans(), t=st.floats(1e-8, 1e8))
def test_verdict_does_not_depend_on_scale(fam, seed, diagonal, t):
    # away from tol (a residual of 0, or above 2 tol at unit scale) no
    # factor t can move the verdict: t G lands at unit scale within 2x
    sc, gram = make_family(fam), _scaled_gram(seed, diagonal)
    e = math.frexp(np.abs(gram).max())[1] - 1
    unit = solvsoliton_check(sc, np.ldexp(gram, -e)).residual
    assume(unit == 0 or unit > 2 * soliton.DEFAULT_TOL)
    assert solvsoliton_check(sc, t * gram).is_soliton == (unit == 0)


def test_item4_gram_is_not_a_soliton_at_unit_scale():
    assert not solvsoliton_check(make_family(Family("r3_a", 0.5)), _ITEM4_GRAM).is_soliton


@pytest.mark.parametrize("fam,gram", [
    (Family("r3_a", 0.5), 1e8 * _ITEM4_GRAM),
    (Family("r3_a", 0.5), 1e12 * _ITEM4_GRAM),
    (Family("r3"), 1e300 * np.eye(3)),
], ids=["r3a-1e8", "r3a-1e12", "r3-1e300"])
def test_scaled_metric_is_not_a_soliton(fam, gram):
    assert not solvsoliton_check(make_family(fam), gram).is_soliton


def test_solvsoliton_check_builds_no_frame(monkeypatch, capsys):
    # wrap each name in every solvgeo namespace that binds it, since a
    # from-import copies the binding
    calls = []
    for home, name in ((lie_core, "change_basis"), (curvature, "metric_data"),
                       (curvature, "ricci_operator"), (derivations, "conjugate_subspace")):
        original = getattr(home, name)

        def spy(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for mod in [m for key, m in list(sys.modules.items())
                    if key == "solvgeo" or key.startswith("solvgeo.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    rng = np.random.default_rng(23)
    for fam in FAMILIES:
        solvsoliton_check(make_family(fam), random_spd(rng))
    assert calls == []
    # positive control: the spies see Der conjugated by der --lambda and the
    # brackets on a Milnor frame
    fam = Family("r3_a", 0.5)
    assert cli.main(["der", "--family", fam.label(), "--lambda", "2.0"]) == 0
    capsys.readouterr()
    frame_constants(fam, 2.0)
    assert sorted(calls) == ["change_basis", "conjugate_subspace"]


def _spy_der_solves(monkeypatch) -> list:
    """Record each call of ``linalg.nullspace`` and ``derivation_algebra``
    through every solvgeo namespace that binds it, and each MatrixSubspace
    built."""
    calls = []
    for home, name in ((linalg, "nullspace"), (derivations, "derivation_algebra")):
        original = getattr(home, name)

        def spy(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for mod in [m for key, m in list(sys.modules.items())
                    if key == "solvgeo" or key.startswith("solvgeo.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    post_init = derivations.MatrixSubspace.__post_init__

    def built(self):
        calls.append("MatrixSubspace")
        post_init(self)

    monkeypatch.setattr(derivations.MatrixSubspace, "__post_init__", built)
    return calls


def test_solvsoliton_check_solves_no_der_kernel_for_semidirect_families(monkeypatch):
    # fresh parameters miss every memo, so any Der solve would show
    calls = _spy_der_solves(monkeypatch)
    rng = np.random.default_rng(71)
    fams = [Family("r3")]
    fams += [Family("r3_a", float(a)) for a in rng.uniform(-1.0, 1.0, 50)]
    fams += [Family("r3p_a", float(a)) for a in rng.uniform(0.0, 50.0, 50)]
    for fam in fams:
        solvsoliton_check(make_family(fam), random_spd(rng))
    assert calls == []
    # positive control: the spies see Der solved for a nilpotent or scalar
    # ad(e1), and for a tensor off the semidirect shape, which
    # solvsoliton_check refuses, so its Der is asked for directly
    for fam in (Family("h3"), Family("r3_1")):
        solvsoliton_check(make_family(fam), random_spd(rng))
        assert "derivation_algebra" in calls
        calls.clear()
    sc = lie_core.change_basis(make_family(Family("r3_a", float(rng.uniform(-1.0, 1.0)))),
                               random_group_element(rng))
    derivations.derivation_algebra(sc)
    assert calls[:1] == ["derivation_algebra"] and "nullspace" in calls


def test_exact_and_float_twins_give_identical_certificates():
    rng = np.random.default_rng(73)
    fams = [Family("h3"), Family("r3"), Family("r3_1"), Family("r3_a", 1.0)]
    fams += [Family("r3_a", float(a)) for a in rng.uniform(-1.0, 1.0, 20)]
    fams += [Family("r3p_a", float(a)) for a in rng.uniform(0.0, 20.0, 20)]
    for fam in fams:
        for _ in range(5):
            gram = random_spd(rng)
            got = solvsoliton_check(make_family(fam, exact=True), gram)
            want = solvsoliton_check(make_family(fam), gram)
            assert (got.is_soliton, got.c, got.residual) == \
                (want.is_soliton, want.c, want.residual)
            assert got.d.tobytes() == want.d.tobytes()


def test_scalar_line_inside_der_gives_zero_c():
    # the zero tensor has Der = gl(3), which holds I: there is no unit part
    # of I orthogonal to Der to divide by, and c is 0; a 0/0 would raise a
    # RuntimeWarning, which fails the run
    gram = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
    verdict = solvsoliton_check(StructureConstants(np.zeros((3, 3, 3))), gram)
    assert verdict.is_soliton
    assert verdict.c == 0.0
    assert verdict.residual == 0.0
    assert not verdict.d.any()


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_orthogonal_split_matches_lstsq(fam):
    # the conjugated Der of each family at random g, with the Ricci operator
    # on the frame g and a random matrix, each scaled through 1e-150..1e150
    rng = np.random.default_rng(47)
    sc = make_family(fam)
    for _ in range(5):
        g = random_group_element(rng)
        der = conjugate_subspace(derivation_algebra(sc), g)
        g_inv = np.linalg.inv(g)
        frame_ric = g_inv @ curvature.ricci_canonical(sc, g_inv.T @ g_inv) @ g
        for ric in (frame_ric, rng.normal(size=(3, 3))):
            for scale in 10.0 ** np.arange(-150, 151, 30):
                scaled = scale * ric
                want_c, want_d, want_res = lstsq_soliton_split(scaled, der)
                got = soliton._project(scaled, der.scalar_frame, der.dim, 1e-8)
                big = np.abs(scaled).max()
                assert abs(got.c - want_c) <= 1e-12 * big
                assert np.abs(got.d - want_d).max() <= 1e-12 * big
                assert abs(got.residual - want_res) <= 1e-12 * big


def test_verify_and_gram_paths_call_no_lstsq_or_orthonormalize(monkeypatch):
    # both soliton paths split over the frame that Der's independence check
    # already holds, and the orbit half reuses it: nothing factors u' again.
    # That check orthonormalizes each new Der once, so every Der is built first
    families = [Family("r3")] + [Family("r3_a", a) for a in (-1.0, -0.5, 0.0, 0.5)]
    families += [Family("r3p_a", a) for a in (0.0, 1.0, 2.0)]
    for fam in families + FAMILIES:
        derivation_algebra(make_family(fam))
    calls = []

    def counting(home, name):
        original = getattr(home, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(home, name, wrapper)

    counting(np.linalg, "lstsq")
    counting(linalg, "orthonormalize")
    for fam in families:
        cli.verify_main_theorem(cli.RunConfig(family=fam, grid=cli.default_grid(fam)))
    rng = np.random.default_rng(29)
    for fam in FAMILIES:
        solvsoliton_check(make_family(fam), random_spd(rng))
    assert calls == []
    # the counters see calls that do factor a span
    orbit_geometry.mean_curvature(np.eye(9).reshape(9, 3, 3))
    lstsq_soliton_split(np.eye(3), derivation_algebra(make_family(Family("h3"))))
    assert calls == ["orthonormalize", "lstsq"]
