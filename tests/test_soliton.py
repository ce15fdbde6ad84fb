import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

from helpers import FAMILIES, VERIFY_FAMILIES, random_group_element, random_spd
from oracles import (block_constants, derivation_residual, exact_block_soliton,
                     exact_frame_soliton, lstsq_soliton_split, projection_split)
from solvgeo import cli, curvature, derivations, lie_core, linalg, orbit_geometry, soliton
from solvgeo.derivations import conjugate_subspace, derivation_algebra
from solvgeo.errors import InvalidFamilyError
from solvgeo.lie_core import Family, StructureConstants, make_family
from solvgeo.moduli import frame_algebra, frame_constants, metric_to_group, reduce, rep_matrix
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
    # a non-SPD Gram matrix: tol is checked before any curvature work
    with pytest.raises(ValueError, match=message):
        solvsoliton_check(make_family(fam), -np.eye(3), tol=tol)
    # the identity is a soliton, so a bad tol cannot hide behind a verdict
    with pytest.raises(ValueError, match=message):
        solvsoliton_check(make_family(fam), np.eye(3), tol=tol)


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


def _assert_closed_form_split(ric: list, rows: np.ndarray):
    """The closed-form split of the flat ``ric`` over semidirect ``rows``
    against the numpy projection, within 4 ulp of max|Ric|."""
    assert derivations.semidirect_n(rows) is not None  # the closed form runs
    c, d, residual = soliton._split(ric, rows, 4)
    want_c, want_d, want_residual = projection_split(ric, rows, 4)
    tol = 4 * math.ulp(max(map(abs, ric)))
    assert abs(c - want_c) <= tol, (ric, rows)
    assert np.abs(d - want_d).max() <= tol, (ric, rows)
    assert abs(residual - want_residual) <= tol, (ric, rows)


def test_closed_form_split_matches_the_projection_on_every_verify_row():
    count = 0
    for fam in VERIFY_FAMILIES:
        for lam in cli.default_grid(fam):
            brackets, rows, _ = frame_algebra(fam, rep_matrix(fam, lam))
            _assert_closed_form_split(curvature.ricci_closed_form(*brackets).ravel().tolist(),
                                      rows)
            count += 1
    assert count == 377


_SEMIDIRECT_FAMILIES = [Family("r3"), Family("r3_a", -1.0), Family("r3_a", -0.25),
                        Family("r3_a", 0.0), Family("r3_a", 0.5), Family("r3p_a", 0.0),
                        Family("r3p_a", 1.5)]


@pytest.mark.parametrize("fam", _SEMIDIRECT_FAMILIES, ids=lambda f: f.label())
def test_closed_form_split_matches_the_projection_on_gram_frames(fam):
    # Ric on the metric_to_group frame over frame_algebra's rows, and the Gram
    # path's Ric on the canonical basis over the family's own rows
    rng = np.random.default_rng(101)
    sc = make_family(fam)
    own_rows, dim = derivations.block_der_rows(sc, derivations.semidirect_block(sc))
    assert dim == 4
    for _ in range(60):
        gram = random_spd(rng, 10.0 ** rng.uniform(-6.0, 6.0))
        brackets, rows, _ = frame_algebra(fam, metric_to_group(gram))
        _assert_closed_form_split(curvature.ricci_closed_form(*brackets).ravel().tolist(), rows)
        _assert_closed_form_split(curvature.ricci_canonical(sc, gram).ravel().tolist(), own_rows)


@settings(max_examples=300, deadline=None)
@given(block=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
@example(block=[0.0, 0.0, 0.0, 5e-324])  # (a - d) / 2 rounds to 0
def test_closed_form_split_matches_the_projection_on_drawn_blocks(block):
    a, b, c, d = block
    assume((a - d, b, c) != (0, 0, 0))  # a scalar block has no unit traceless part
    _assert_closed_form_split(curvature.ricci_closed_form(*block).ravel().tolist(),
                              derivations.semidirect_rows(a, b, c, d))


def test_frame_flags_build_no_object_array(monkeypatch):
    rows = [(fam, lam) for fam in VERIFY_FAMILIES for lam in cli.default_grid(fam)]
    want = [soliton.frame_flags(fam, lam) for fam, lam in rows]  # each family's block kept

    def refuse(*args):
        raise AssertionError("object array built")
    monkeypatch.setattr(linalg, "object_array", refuse)
    assert [soliton.frame_flags(fam, lam) for fam, lam in rows] == want


def test_verify_and_gram_paths_call_no_lstsq_or_orthonormalize(monkeypatch):
    # both soliton paths split over the frame that Der's independence check
    # already holds, and the orbit half reuses it: nothing factors u' again.
    # That check orthonormalizes each new Der once, so every Der is built first
    families = VERIFY_FAMILIES
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


# ------------------------------------------------- the exact frame oracle

def _classified_soliton(fam: Family, lam) -> bool:
    """The classification's answer at g_lambda: r3 never, r3_a at lambda = 0,
    r3p_a at lambda = 1, and h3, r3_1 and r3_a at a = 1 at every lambda."""
    if fam.tag in ("h3", "r3_1") or (fam.tag == "r3_a" and fam.a == 1):
        return True
    return fam.tag != "r3" and lam == (0 if fam.tag == "r3_a" else 1)


def test_exact_oracle_matches_the_float_verdict_on_every_verify_row():
    rows = [(fam, lam) for fam in VERIFY_FAMILIES for lam in cli.default_grid(fam)]
    assert len(rows) == 377
    got = [exact_frame_soliton(fam, lam) for fam, lam in rows]
    assert got == [soliton_from_frame(fam, lam).is_soliton for fam, lam in rows]
    assert sum(got) == 7


@pytest.mark.parametrize("text,lam,want", [
    ("r3pa:a=0.375", 1.000000001, False),
    ("r3a:a=0.5", 1e-9, False),
    ("r3a:a=0.999999999999", 2.0, False),
    ("r3", 1e-12, False),
    ("r3", 1e-300, False),
    ("r3pa:a=1e4", 1.0, True),
    ("r3pa:a=1e4", 2.0, False),
    ("r3pa:a=6e153", 1.0, True),
])
def test_exact_oracle_decides_the_extreme_rows_by_the_classification(text, lam, want):
    # rows where the float verdict is refused or wrong: the exact answer is
    # lambda = lambda*, with no tolerance
    fam = lie_core.parse_family(text)
    assert exact_frame_soliton(fam, lam) is want
    assert _classified_soliton(fam, lam) is want


@st.composite
def _family_and_rational_lambda(draw):
    tag = draw(st.sampled_from(lie_core.FAMILY_TAGS))
    lam = Fraction(draw(st.integers(0, 40)), draw(st.integers(1, 40)))
    if tag == "r3_a":
        return Family(tag, draw(st.integers(-64, 64)) / 64), draw(st.sampled_from((1, -1))) * lam
    if tag == "r3p_a":
        return Family(tag, draw(st.integers(0, 256)) / 2 ** draw(st.integers(0, 6))), 1 + lam
    return Family(tag), lam + Fraction(1, 64)


@given(_family_and_rational_lambda())
@settings(max_examples=300, deadline=None)
def test_exact_oracle_is_the_classification_on_rational_rows(row):
    fam, lam = row
    assert exact_frame_soliton(fam, lam) is _classified_soliton(fam, lam)


def test_frame_ricci_block_commutes_with_the_bracket_block_exactly_when_b_equals_c():
    # Der = span{E21, E31, 0 + I, 0 + A} on a frame with dim Der = 4, so Ric lies
    # in RI + Der exactly when its lower block R2 commutes with A = [[a, c], [b, d]];
    # [R2, A] = (b - c) P, and P != 0 off a = d, b = -c (sigma = 0)
    a, b, c, d = sp.symbols("a b c d", real=True)
    _, x22, x23, x32, x33 = curvature._ricci2(a, d, b, c, 1, 1)
    r2 = sp.Matrix([[x22, x23], [x32, x33]]) / 2
    m = sp.Matrix([[a, c], [b, d]])
    p = sp.Matrix([[-(a * c + b * d), a * d - b * c - c ** 2 - d ** 2],
                   [a ** 2 - a * d + b ** 2 + b * c, a * c + b * d]])
    assert (r2 * m - m * r2 - (b - c) * p).expand() == sp.zeros(2, 2)
    assert sp.expand(p[1, 0] - p[0, 1] - (a - d) ** 2 - (b + c) ** 2) == 0


# ------------------------------------------------- the exact frame verdict

_SINGLE_CLASS = [Family("h3"), Family("r3_1"), Family("r3_a", 1.0)]


def _exact_frame_block(fam: Family, lam) -> list:
    """The brackets on g_lambda's Milnor frame in Fractions, by an exact
    change of basis: no code of the exact verdict is read."""
    return frame_constants(fam, Fraction(lam), exact=True).c[0, 1:, 1:].ravel().tolist()


def _outside_flags(fam: Family, lam) -> tuple:
    """``frame_flags`` from outside: the oracle's soliton verdict, Einstein when
    the exact Ricci operator is scalar, and minimal on a transitive orbit (the
    single-class families) and else when b = c on the exact block or sigma = 0
    (a = d and b = -c), the identity of ROADMAP item 17."""
    a, b, c, d = block = _exact_frame_block(fam, lam)
    ric = curvature.ricci_closed_form(*block)
    einstein = bool((ric == ric[0, 0] * np.eye(3, dtype=object)).all())
    transitive = fam in _SINGLE_CLASS
    return (exact_frame_soliton(fam, lam), einstein,
            transitive or b == c or (a == d and b == -c))


def _rep_gram(fam: Family, lam) -> np.ndarray:
    """The Gram matrix g^-T g^-1 of g_lambda."""
    g_inv = np.linalg.inv(rep_matrix(fam, lam))
    return g_inv.T @ g_inv


def test_exact_flags_match_the_oracles_on_every_verify_row():
    rows = [(fam, lam) for fam in VERIFY_FAMILIES for lam in cli.default_grid(fam)]
    rows += [(fam, 1.0) for fam in _SINGLE_CLASS]
    got = [soliton.frame_flags(fam, lam) for fam, lam in rows]
    assert got == [_outside_flags(fam, lam) for fam, lam in rows]
    assert [f[0] for f in got] == [f[2] for f in got] == [
        _classified_soliton(fam, lam) for fam, lam in rows]
    assert sum(f[0] for f in got) == 10 and sum(f[1] for f in got) == 5
    # the Gram verdict reads the same Einstein metrics at g_lambda's Gram matrix
    assert [f[1] for f in got] == [solvsoliton_check(make_family(fam), _rep_gram(fam, lam))
                                   .is_einstein for fam, lam in rows]


@pytest.mark.parametrize("text,lam,want", [
    # ROADMAP item 1's rows that the absolute tol read wrong
    ("r3pa:a=0.375", 1.000000001, False),
    ("r3a:a=0.5", 1e-9, False),
    ("r3a:a=0.999999999999", 2.0, False),
    ("r3", 1e-12, False),
    # right under the absolute tol too, and kept as regression rows
    ("r3pa:a=1e4", 1.0, True),
    ("r3pa:a=1e4", 2.0, False),
    # once refused by the conditioning of g_lambda
    ("r3", 1e-300, False),
])
def test_item_1_rows_are_decided_exactly(text, lam, want):
    fam = lie_core.parse_family(text)
    verdict, minimal = soliton.frame_verdict(fam, lam)
    assert verdict.is_soliton is minimal is want is _classified_soliton(fam, lam)
    assert soliton.frame_flags(fam, lam) == _outside_flags(fam, lam)
    assert soliton_from_frame(fam, lam).is_soliton is want


def test_huge_parameter_is_decided_exactly_where_floats_overflow():
    # the trace of Ric overflows float64, so frame_verdict refuses the row;
    # the exact flags still decide it as lambda = lambda* does
    fam = Family("r3p_a", 6e153)
    with pytest.raises(ValueError, match="Ricci operator is not finite"):
        soliton.frame_verdict(fam, 1.0)
    assert soliton.frame_flags(fam, 1.0) == (True, True, True) == _outside_flags(fam, 1.0)
    assert soliton.frame_flags(fam, 2.0) == (False, False, False) == _outside_flags(fam, 2.0)


def test_rational_parameter_stays_exact():
    # a = 1/3 has no float: its block is read as a Fraction, not rounded
    third = Family("r3_a", Fraction(1, 3))
    for lam in (0, Fraction(1, 2), 2):
        assert soliton.frame_flags(third, lam) == _outside_flags(third, lam)
        assert soliton.frame_flags(third, lam)[0] is (lam == 0)
    assert soliton_from_frame(third, 0.0).is_soliton
    assert soliton.frame_verdict(third, 0.5)[1] is False


@given(_family_and_rational_lambda())
@settings(max_examples=300, deadline=None)
def test_exact_flags_are_the_classification_on_rational_rows(row):
    fam, lam = row
    flags = soliton.frame_flags(fam, lam)
    assert flags == _outside_flags(fam, lam)
    assert flags[0] is flags[2] is _classified_soliton(fam, lam)


@given(st.tuples(*[st.integers(-6, 6)] * 4), st.integers(0, 200))
@example((0, 0, 0, 0), 0)  # A = 0
@example((2, 0, 0, 2), 0)  # scalar
@example((1, 1, -1, -1), 0)  # nilpotent
@example((3, -1, 1, 3), 0)  # sigma = 0, b != c
@example((1, 2, 3, -2), 0)  # a != d and c != 0
@settings(max_examples=300, deadline=None)
def test_frame_conditions_on_integer_blocks(block, shift):
    # every stratum, on blocks no family frame reaches, at the scale 2^shift,
    # which none of the homogeneous conditions sees
    a, b, c, d = block
    transitive = derivation_algebra(block_constants(*block)).dim != 4
    ric = curvature.ricci_closed_form(*block)
    einstein = bool((ric == ric[0, 0] * np.eye(3, dtype=object)).all())
    want = (exact_block_soliton(*block), einstein, transitive or b == c or (a == d and b == -c))
    assert curvature.frame_conditions(*(x << shift for x in block)) == want
