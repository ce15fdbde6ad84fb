import numpy as np
import pytest

from helpers import FAMILIES, random_group_element, unit
from oracles import SYM_DIM, congruence_check, sym_basis, trace_form
from solvgeo.derivations import (MatrixSubspace, conjugate_subspace,
                                 derivation_algebra, scalar_plus)
from solvgeo.lie_core import Family, make_family
from solvgeo.moduli import rep_matrix
from solvgeo.orbit_geometry import (SYM_BASIS, dpi, mean_curvature, orbit_at,
                                    orbit_data, second_fundamental_form)


def test_sym_basis_orthonormal():
    basis = SYM_BASIS
    # the module constant is the entry-by-entry construction, bit for bit
    assert basis.tobytes() == np.array(sym_basis()).tobytes()
    assert not basis.flags.writeable
    assert len(basis) == SYM_DIM
    gram = np.array([[trace_form(x, y) for y in basis] for x in basis])
    np.testing.assert_allclose(gram, np.eye(SYM_DIM), atol=1e-14)
    for b in basis:
        np.testing.assert_allclose(b, b.T, atol=1e-15)


def test_dpi_is_symmetrization():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    np.testing.assert_allclose(dpi(m), (m + m.T) / 2, atol=1e-15)
    skew = m - m.T
    np.testing.assert_allclose(dpi(skew), 0.0, atol=1e-15)


def test_full_matrix_algebra_orbit():
    # gl(3) acts transitively on inner products: orbit dim 6, stabilizer o(3)
    basis = tuple(unit(i, j) for i in range(3) for j in range(3))
    od = orbit_data(MatrixSubspace(basis))
    assert od.orbit_dim == 6 and od.stab_dim == 3
    assert len(od.normals) == 0
    for s in od.stabilizer:
        np.testing.assert_allclose(s, -s.T, atol=1e-12)


ORBIT_CASES = [(f, lam) for f in FAMILIES for lam in ((1.0,) if f.tag in ("h3", "r3_1")
                                                      else (2.0,) if f.tag == "r3p_a"
                                                      else (0.7,))]


@pytest.mark.parametrize("fam,lam", ORBIT_CASES,
                         ids=[f"{f.label()}-{lam}" for f, lam in ORBIT_CASES])
def test_orbit_data_invariants(fam, lam):
    u = conjugate_subspace(scalar_plus(derivation_algebra(make_family(fam))),
                           rep_matrix(fam, lam))
    od = orbit_data(u)
    assert od.orbit_dim + od.stab_dim == u.dim
    assert od.orbit_dim + len(od.normals) == SYM_DIM
    # lifts map onto the tangent frame and are orthogonal to the stabilizer
    assert len(od.lifts) == od.orbit_dim
    for x, t in zip(od.lifts, od.tangent):
        np.testing.assert_allclose(dpi(x), t, atol=1e-10)
    for x in od.lifts:
        for s in od.stabilizer:
            assert abs(np.sum(x * s)) < 1e-10
    # tangent and normals together form an orthonormal frame of sym(3)
    frame = list(od.tangent) + list(od.normals)
    gram = np.array([[trace_form(x, y) for y in frame] for x in frame])
    np.testing.assert_allclose(gram, np.eye(SYM_DIM), atol=1e-10)


@pytest.mark.parametrize("fam,lam", ORBIT_CASES,
                         ids=[f"{f.label()}-{lam}" for f, lam in ORBIT_CASES])
def test_second_fundamental_form_symmetric(fam, lam):
    u = conjugate_subspace(scalar_plus(derivation_algebra(make_family(fam))),
                           rep_matrix(fam, lam))
    od = orbit_data(u)
    shape = second_fundamental_form(od)
    assert shape.shape == (len(od.normals), od.orbit_dim, od.orbit_dim)
    assert np.max(np.abs(shape - shape.transpose(0, 2, 1)), initial=0.0) < 1e-10


def test_mean_curvature_lies_in_normal_space():
    fam = Family("r3_a", 0.5)
    u = conjugate_subspace(scalar_plus(derivation_algebra(make_family(fam))),
                           rep_matrix(fam, 2.0))
    od = orbit_data(u)
    r = mean_curvature(u)
    for t in od.tangent:
        assert abs(trace_form(r.h, t)) < 1e-10
    coords = [trace_form(r.h, n) for n in od.normals]
    recon = sum(c * n for c, n in zip(coords, od.normals))
    np.testing.assert_allclose(r.h, recon, atol=1e-12)
    np.testing.assert_allclose(r.h, r.h.T, atol=1e-12)
    # per_normal pairs rebuild the same vector
    recon2 = sum(val * a for a, val in r.per_normal)
    np.testing.assert_allclose(r.h, recon2, atol=1e-12)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_r3_orbit_norm_constant(lam):
    r = orbit_at(Family("r3"), rep_matrix(Family("r3"), lam))
    assert r.norm == pytest.approx(np.sqrt(2) / 5, abs=1e-12)
    assert r.orbit_dim == 5 and r.stab_dim == 0
    direction = (unit(1, 1) - unit(2, 2)) / np.sqrt(2)
    assert trace_form(r.h, direction) == pytest.approx(np.sqrt(2) / 5, abs=1e-12)


@pytest.mark.parametrize("a", [-1.0, -0.5, 0.0, 0.5])
@pytest.mark.parametrize("lam", [-3.0, -1.0, -0.2, 0.5, 2.0, 5.0])
def test_r3_a_orbit_norm(a, lam):
    r = orbit_at(Family("r3_a", a), rep_matrix(Family("r3_a", a), lam))
    expected = 2 * abs(lam) / (5 * np.sqrt(2 * (1 + lam * lam)))
    assert r.norm == pytest.approx(expected, abs=1e-12)
    assert r.orbit_dim == 5 and r.stab_dim == 0
    direction = (-lam * unit(1, 1) + lam * unit(2, 2) - unit(1, 2) - unit(2, 1))
    direction /= np.sqrt(2 * (1 + lam * lam))
    signed = -2 * lam / (5 * np.sqrt(2 * (1 + lam * lam)))
    assert trace_form(r.h, direction) == pytest.approx(signed, abs=1e-12)
    np.testing.assert_allclose(r.h, trace_form(r.h, direction) * direction,
                               atol=1e-12)


def test_r3_a_flat_point_is_minimal():
    r = orbit_at(Family("r3_a", 0.5), rep_matrix(Family("r3_a", 0.5), 0.0))
    assert r.norm < 1e-12
    assert r.orbit_dim == 5


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("lam", [1.2, 2.0, 5.0])
def test_r3p_a_orbit_norm(a, lam):
    r = orbit_at(Family("r3p_a", a), rep_matrix(Family("r3p_a", a), lam))
    expected = np.sqrt(2) * (1 + lam * lam) / (5 * (lam * lam - 1))
    assert r.norm == pytest.approx(expected, rel=1e-12)
    assert r.orbit_dim == 5 and r.stab_dim == 0
    direction = (unit(1, 1) - unit(2, 2)) / np.sqrt(2)
    assert trace_form(r.h, direction) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
def test_r3p_a_round_point_orbit_degenerates(a):
    # at lambda = 1 the stabilizer jumps and the orbit is minimal
    r = orbit_at(Family("r3p_a", a), np.eye(3))
    assert r.orbit_dim == 4 and r.stab_dim == 1
    assert r.norm < 1e-12


@pytest.mark.parametrize("a", [0.0, 1.0])
@pytest.mark.parametrize("lam", [1 + 1e-10, 1 + 1e-11, 1 + 1e-12])
def test_r3p_a_near_round_point_one_rank_decision(a, lam):
    # dpi on u' has one singular value of about lam - 1, below the rank cutoff
    fam = Family("r3p_a", a)
    r = orbit_at(fam, rep_matrix(fam, lam))
    assert r.orbit_dim == 4 and r.stab_dim == 1
    assert r.norm < 1e-12


@pytest.mark.parametrize("tag", ["h3", "r3_1"])
def test_transitive_orbits_fill_sym(tag):
    rng = np.random.default_rng(29)
    for _ in range(5):
        g = random_group_element(rng)
        r = orbit_at(Family(tag), g)
        assert r.orbit_dim == 6 and r.stab_dim == 1
        assert r.norm == 0.0
        assert r.per_normal == ()


def test_zero_dimensional_orbit_rejected():
    skew = unit(0, 1) - unit(1, 0)
    with pytest.raises(ValueError):
        mean_curvature(MatrixSubspace((skew,)))


def test_orbit_at_matches_manual_composition():
    rng = np.random.default_rng(37)
    fam = Family("r3p_a", 1.0)
    g = random_group_element(rng)
    manual = mean_curvature(conjugate_subspace(
        scalar_plus(derivation_algebra(make_family(fam))), g))
    auto = orbit_at(fam, g)
    np.testing.assert_allclose(auto.h, manual.h, atol=1e-12)
    assert auto.orbit_dim == manual.orbit_dim


def test_congruence_check_examples():
    g1 = np.diag([1.0, 1.0, 0.5])
    g2 = np.diag([1.0, 1.0, 0.2])
    iso = np.diag([1.0, 1.0, 0.4])
    assert congruence_check(Family("r3"), g1, g2, iso)
    assert not congruence_check(Family("r3"), g1, g2, np.eye(3))
    # transitive family: any invertible map works
    assert congruence_check(Family("h3"), g1, np.diag([2.0, 1.0, 0.2]),
                            np.diag([3.0, 1.0, 0.4]))
