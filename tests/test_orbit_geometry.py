import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st

from helpers import DER_GRID, FAMILIES, VERIFY_FAMILIES, random_group_element, random_spd, unit
from oracles import (SYM_DIM, congruence_check, h_norm_block, h_norm_closed_form,
                     normality, semidirect_stack, shape_trace_mean_curvature, sym_basis,
                     trace_form)
from solvgeo.derivations import (MatrixSubspace, conjugate_subspace,
                                 derivation_algebra, scalar_plus, traceless_row)
from solvgeo import cli, linalg, orbit_geometry
from solvgeo.lie_core import Family, make_family
from solvgeo.cli import default_grid
from solvgeo.errors import SingularMatrixError
from solvgeo.moduli import frame_algebra, metric_to_group, reduce, rep_matrix
from solvgeo.soliton import soliton_from_frame
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
    od = orbit_data(MatrixSubspace(basis).basis)
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
    _assert_orbit_invariants(orbit_data(u.scalar_frame[:u.dim]), u.dim)


def _assert_orbit_invariants(od, dim):
    assert od.orbit_dim + od.stab_dim == dim
    assert od.orbit_dim + len(od.normals) == SYM_DIM
    # lifts map onto the tangent frame and are orthogonal to the stabilizer
    assert len(od.lifts) == od.orbit_dim
    # a lift has size about 1 / |dpi(N)|, so each is checked relative to its own size
    for x, t in zip(od.lifts, od.tangent):
        np.testing.assert_allclose(dpi(x), t, atol=1e-10 * max(1.0, np.abs(x).max()))
    for x in od.lifts:
        for s in od.stabilizer:
            assert abs(np.sum(x * s)) < 1e-10 * max(1.0, np.abs(x).max())
    # tangent and normals together form an orthonormal frame of sym(3)
    frame = list(od.tangent) + list(od.normals)
    gram = np.array([[trace_form(x, y) for y in frame] for x in frame])
    np.testing.assert_allclose(gram, np.eye(SYM_DIM), atol=1e-10)


@pytest.mark.parametrize("fam,lam", ORBIT_CASES,
                         ids=[f"{f.label()}-{lam}" for f, lam in ORBIT_CASES])
def test_second_fundamental_form_symmetric(fam, lam):
    u = conjugate_subspace(scalar_plus(derivation_algebra(make_family(fam))),
                           rep_matrix(fam, lam))
    od = orbit_data(u.scalar_frame[:u.dim])
    shape = second_fundamental_form(od)
    assert shape.shape == (len(od.normals), od.orbit_dim, od.orbit_dim)
    assert np.max(np.abs(shape - shape.transpose(0, 2, 1)), initial=0.0) < 1e-10


def test_mean_curvature_lies_in_normal_space():
    fam = Family("r3_a", 0.5)
    u = conjugate_subspace(scalar_plus(derivation_algebra(make_family(fam))),
                           rep_matrix(fam, 2.0))
    od = orbit_data(u.scalar_frame[:u.dim])
    r = mean_curvature(u.basis)
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


_H_CASES = ([(Family("r3"), float(lam)) for lam in np.geomspace(1e-11, 1e11, 45)]
            + [(Family("r3_a", 0.5), float(s * lam)) for lam in np.geomspace(1e-9, 1e5, 29)
               for s in (1, -1)]
            + [(Family("r3p_a", a), float(lam)) for lam in np.geomspace(1.001, 1e11, 23)
               for a in (0.0, 2.0)])


def test_frame_orbit_matches_closed_form_across_the_domain():
    # at r3_a a = 0.5, lambda = 1e-9 the conjugated Der gave |H| 1.4e-7 off
    for fam, lam in _H_CASES:
        r = orbit_at(fam, rep_matrix(fam, lam))
        assert r.norm == pytest.approx(h_norm_closed_form(fam.tag, lam), rel=1e-12), (fam, lam)
        assert r.orbit_dim == 5 and r.stab_dim == 0


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_frame_orbit_matches_orbit_at(fam):
    # conjugating span{I} + Der by g_lambda: the reference for the closed-form
    # rows that orbit_at reads off the Milnor frame
    for lam in default_grid(fam):
        g = rep_matrix(fam, lam)
        got, want = orbit_at(fam, g), _orbit_at_by_span_plus_identity(fam, g)
        assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
        np.testing.assert_allclose(got.h, want.h, rtol=0, atol=1e-14)


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
        mean_curvature(MatrixSubspace((skew,)).basis)


def test_orbit_at_matches_manual_composition():
    rng = np.random.default_rng(37)
    fam = Family("r3p_a", 1.0)
    g = random_group_element(rng)
    manual = mean_curvature(conjugate_subspace(
        scalar_plus(derivation_algebra(make_family(fam))), g).basis)
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


def _orbit_at_by_span_plus_identity(fam, g):
    """The construction orbit_at used before: conjugate span{I} + Der by g."""
    u = conjugate_subspace(scalar_plus(derivation_algebra(make_family(fam))), g)
    return mean_curvature(u.basis)


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_orbit_at_matches_span_plus_identity_construction(fam):
    # u' = g^-1 (RI + Der) g = RI + g^-1 Der g, so conjugating Der and
    # appending I spans the same u' as conjugating span{I} + Der
    rng = np.random.default_rng(61)
    elements = [rep_matrix(fam, lam) for lam in default_grid(fam)]
    elements += [metric_to_group(random_spd(rng)) for _ in range(20)]
    for g in elements:
        new, old = orbit_at(fam, g), _orbit_at_by_span_plus_identity(fam, g)
        np.testing.assert_allclose(new.h, old.h, rtol=0, atol=1e-12)
        assert (new.orbit_dim, new.stab_dim) == (old.orbit_dim, old.stab_dim)


@pytest.mark.parametrize("fam", [Family("r3_a", a) for a in (-1.0, -0.5, 0.0, 0.5)]
                         + [Family("h3"), Family("r3_1")], ids=lambda f: f.label())
def test_orbit_at_soliton_points_exactly_minimal(fam):
    # at the soliton points H is exactly 0, not rounding noise, so no
    # threshold is needed to call these orbits minimal
    r = orbit_at(fam, rep_matrix(fam, 0.0 if fam.tag == "r3_a" else 1.0))
    assert r.norm == 0.0
    assert not r.h.any()


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
def test_orbit_at_passes_orthonormal_rows_of_u(monkeypatch, fam):
    # orbit_data no longer orthonormalizes: orbit_at hands it the frame of
    # g^-1 Der g with the unit part of I orthogonal to it appended
    seen = []
    original = orbit_geometry.orbit_data
    monkeypatch.setattr(orbit_geometry, "orbit_data",
                        lambda frame: seen.append(frame) or original(frame))
    g = random_group_element(np.random.default_rng(17))
    r = orbit_at(fam, g)
    (rows,) = seen
    der = conjugate_subspace(derivation_algebra(make_family(fam)), g)
    np.testing.assert_allclose(rows @ rows.T, np.eye(der.dim + 1), atol=1e-14)
    spanning = np.vstack([der.basis.reshape(-1, 9), np.eye(3).ravel()])
    assert np.linalg.matrix_rank(np.vstack([rows, spanning])) == der.dim + 1
    np.testing.assert_allclose(r.h, mean_curvature(spanning.reshape(-1, 3, 3)).h,
                               rtol=0, atol=1e-12)


def test_orbit_data_takes_any_spanning_stack():
    # mean_curvature orthonormalizes its input before orbit_data, so
    # repeated and rescaled spanning matrices give the same orbit
    fam = Family("r3p_a", 1.0)
    g = rep_matrix(fam, 2.0)
    u = conjugate_subspace(derivation_algebra(make_family(fam)), g).basis
    span = np.concatenate([u, np.eye(3)[None]])
    again = np.concatenate([3.0 * span, -span[:2], np.eye(3)[None] + u[0]])
    for stack in (again, list(again)):
        r = mean_curvature(stack)
        np.testing.assert_allclose(r.h, mean_curvature(span).h, rtol=0, atol=1e-12)
        assert (r.orbit_dim, r.stab_dim) == (5, 0)


@pytest.mark.parametrize("fam", DER_GRID, ids=[f.label() for f in DER_GRID])
def test_commutator_sum_matches_shape_tensor_trace(monkeypatch, fam):
    # sum_i h(A; X_i, X_i) = -<A, sum_i [X_i, T_i]>: the same H and the same
    # component per normal as the traces of the whole shape tensor on the
    # rows orbit_at hands orbit_data, at random g and at every soliton point
    # of the family's verify grid
    rng = np.random.default_rng(71)
    elements = [random_group_element(rng) for _ in range(3)]
    elements += [rep_matrix(fam, lam) for lam in default_grid(fam)
                 if soliton_from_frame(fam, lam).is_soliton]
    if fam.tag == "r3p_a":
        elements.append(np.eye(3))  # the round point, where the stabilizer jumps
    assert len(elements) > 3 or fam.tag == "r3"
    seen = []
    monkeypatch.setattr(orbit_geometry, "orbit_data",
                        lambda frame: seen.append(frame) or orbit_data(frame))
    for g in elements:
        got = orbit_at(fam, g)
        # a stack, N's rebuilt one too, takes the SVD, so the oracle never reads
        # the closed-form split it checks
        frame = seen.pop()
        stack = semidirect_stack(frame) if isinstance(frame, tuple) else frame
        want = shape_trace_mean_curvature(orbit_data(stack))
        tol = 1e-12 * max(1.0, want.norm)
        np.testing.assert_allclose(got.h, want.h, rtol=0, atol=tol)
        assert abs(got.norm - want.norm) <= tol
        assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
        assert len(got.per_normal) == len(want.per_normal)
        for (a, v), (b, w) in zip(got.per_normal, want.per_normal):
            assert np.abs(a - b).max() <= tol and abs(v - w) <= tol


def _split_against_the_svd(monkeypatch, n):
    """``(closed form, SVD)``: orbit_data of N = ``n``, which must run no SVD
    and pass the invariants, and of ``semidirect_stack(n)``, which spans the
    same u' and must run one."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m: calls.append(m) or svd(m))
    got = orbit_data(n)
    assert calls == []
    _assert_orbit_invariants(got, 5)
    want = orbit_data(semidirect_stack(n))
    assert len(calls) == 1
    monkeypatch.undo()
    return got, want


def _assert_same_split(got, want, rel=1e-12):
    assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
    g, w = orbit_geometry._mean_curvature(got), orbit_geometry._mean_curvature(want)
    tol = rel * max(1.0, w.norm)
    # the tangent and normal spaces by their projectors, not their bases: at b = -c the SVD's
    # normal can take the other orientation, and at the round point the normal planes' bases
    # can differ; H, the sum of the per_normal components times the normals, is compared whole
    projector = "kij,kab->ijab"
    for x, y in ((got.tangent, want.tangent), (g.normals, w.normals)):
        np.testing.assert_allclose(np.einsum(projector, x, x), np.einsum(projector, y, y),
                                   rtol=0, atol=rel)
    np.testing.assert_allclose(g.h, w.h, rtol=0, atol=tol)
    assert abs(g.norm - w.norm) <= tol


def test_closed_form_split_matches_the_svd_on_every_verify_row(monkeypatch):
    # the 377 rows of the 8 acceptance sweeps, the round points of r3p_a among them
    rows = [frame_algebra(fam, rep_matrix(fam, lam))[1]
            for fam in VERIFY_FAMILIES for lam in default_grid(fam)]
    assert len(rows) == 377
    dims = set()
    for n in rows:
        got, want = _split_against_the_svd(monkeypatch, n)
        _assert_same_split(got, want)
        dims.add(got.orbit_dim)
    assert dims == {4, 5}


def test_verify_rows_build_no_stacks_and_k_is_the_stacked_sum(monkeypatch):
    # orbit_at reads the closed-form K alone; the tangent and lift stacks are
    # built when something reads them, and K is their commutator sum
    seen, built = [], []
    concatenate = np.concatenate
    monkeypatch.setattr(orbit_geometry, "orbit_data",
                        lambda frame: seen.append(orbit_data(frame)) or seen[-1])
    monkeypatch.setattr(np, "concatenate", lambda *a, **k: built.append(1) or concatenate(*a, **k))
    for fam in VERIFY_FAMILIES:
        for lam in default_grid(fam):
            orbit_at(fam, rep_matrix(fam, lam))
            assert built == []
            od = seen.pop()
            x, t = od.lifts, od.tangent
            built.clear()
            np.testing.assert_allclose(np.reshape(od.k, (3, 3)), (x @ t - t @ x).sum(axis=0),
                                       rtol=0, atol=1e-14)


def test_h_norm_is_the_block_identity_on_every_verify_row():
    # the theorem as one identity in the frame block (a, b, c, d), checked from
    # outside: |H| is sqrt(2)|b - c| / (5 sqrt((a - d)^2 + (b + c)^2)) off
    # sigma = 0, and the soliton rows are exactly those where A is normal
    rows, off_sigma, solitons, least_nu = 0, 0, 0, math.inf
    for fam in VERIFY_FAMILIES:
        for lam in default_grid(fam):
            rows += 1
            g = rep_matrix(fam, lam)
            a, b, c, d = block = frame_algebra(fam, g)[0]
            if (a - d, b + c) != (0.0, 0.0):
                want = h_norm_block(*block)
                assert abs(orbit_at(fam, g).norm - want) <= 1e-12 * want, (fam, lam)
                off_sigma += 1
            nu = normality(*block)
            if soliton_from_frame(fam, lam).is_soliton:
                assert nu == 0.0, (fam, lam)
                solitons += 1
            else:
                least_nu = min(least_nu, nu)
    assert (rows, off_sigma, solitons) == (377, 374, 7)
    assert least_nu >= 0.18


_GRAM_FRAME_FAMILIES = [Family("r3"), Family("r3_a", -0.25), Family("r3_a", 0.5),
                        Family("r3p_a", 0.0), Family("r3p_a", 1.5)]


@pytest.mark.parametrize("fam", _GRAM_FRAME_FAMILIES, ids=lambda f: f.label())
def test_h_norm_is_the_block_identity_on_gram_frames(fam):
    rng = np.random.default_rng(89)
    for _ in range(60):
        m = rng.standard_normal((3, 3))
        g = metric_to_group(m.T @ m + 0.1 * np.eye(3))
        want = h_norm_block(*frame_algebra(fam, g)[0])
        assert abs(orbit_at(fam, g).norm - want) <= 1e-12 * want


def test_mean_curvature_on_the_principal_stratum_is_the_block_identity():
    # Lie(R^x Aut) = span{I, E21, E31, 0 + I2, 0 + A} on a frame with dim Der = 4,
    # A = [[a, c], [b, d]], T_i = (X_i + X_i^T)/2 and M_ij = tr(T_i T_j); with
    # T_i = X_i + X_i^T instead, det M is 256 sigma^2 and the block below is
    # 32768 sigma^2 (A A^T - A^T A).  K = sum (M^-1)_ij [X_i, T_j]; its normal
    # part times det(M)^2 is read with the adjugate, so every step is a polynomial
    a, b, c, d = sp.symbols("a b c d", real=True)
    big_a = sp.Matrix([[a, c], [b, d]])
    e21, e31 = sp.zeros(3, 3), sp.zeros(3, 3)
    e21[1, 0] = e31[2, 0] = 1
    xs = [sp.eye(3), e21, e31, sp.diag(0, 1, 1), sp.diag(0, big_a)]
    ts = [(x + x.T) / 2 for x in xs]
    m = sp.Matrix(5, 5, lambda i, j: (ts[i] * ts[j]).trace())
    det, adj = m.det(), m.adjugate()
    sigma2 = (a - d) ** 2 + (b + c) ** 2
    assert sp.expand(det - sigma2 / 4) == 0
    pairs = [(i, j) for i in range(5) for j in range(5)]
    k = sum((adj[i, j] * (xs[i] * ts[j] - ts[j] * xs[i]) for i, j in pairs), sp.zeros(3, 3))
    normal = det * k - sum((ts[i] * adj[i, j] * (ts[j] * k).trace() for i, j in pairs),
                           sp.zeros(3, 3))
    comm = big_a * big_a.T - big_a.T * big_a
    assert (normal - sp.diag(0, sigma2 / 16 * comm)).expand() == sp.zeros(3, 3)
    assert (comm - (b - c) * sp.Matrix([[-(b + c), a - d], [a - d, b + c]])).expand() \
        == sp.zeros(2, 2)
    assert sp.expand(sum(x ** 2 for x in comm) - 2 * (b - c) ** 2 * sigma2) == 0
    # so the normal part is comm / sigma^2, and |H| = |normal| / 5 = h_norm_block
    h_squared = 2 * (b - c) ** 2 / (25 * sigma2)
    for block in [(1, 2, 3, 4), (0, -1, 2, 0), (2, 5, 5, -1), (-3, 1, 4, 7)]:
        want = math.sqrt(float(h_squared.subs(dict(zip((a, b, c, d), block)))))
        assert h_norm_block(*block) == pytest.approx(want, rel=1e-15, abs=0.0), block


@pytest.mark.parametrize("fam", _GRAM_FRAME_FAMILIES, ids=lambda f: f.label())
def test_closed_form_split_matches_the_svd_on_gram_frames(monkeypatch, fam):
    rng = np.random.default_rng(83)
    for _ in range(60):
        gram = random_spd(rng, 10.0 ** rng.uniform(-6.0, 6.0))
        n = frame_algebra(fam, metric_to_group(gram))[1]
        got, want = _split_against_the_svd(monkeypatch, n)
        _assert_same_split(got, want)


def _exact_h_norm(n: tuple) -> tuple:
    """``(|H|^2, sigma)`` at N = ``n``: item 17's |H| = sqrt(2)|b - c| / (5 sqrt(u^2 + w^2)),
    u = N22 - N33, w = N23 + N32 and b - c = N32 - N23, in Fractions of N's floats, and
    sigma = |dpi(N)| = sqrt((u^2 + w^2) / 2), 1 at most for a unit N."""
    _, _, _, _, n22, n23, _, n32, n33 = map(Fraction, n)
    u, w = n22 - n33, n23 + n32
    return 2 * (n32 - n23) ** 2 / (25 * (u * u + w * w)), math.sqrt((u * u + w * w) / 2)


@settings(max_examples=200, deadline=None)
@given(block=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
@example(block=[0.0, 0.0, 0.0, 5e-324])  # (a - d) / 2 rounds to 0
# sigma = 3.1e-5: the SVD's |H| is 1.5e-12 off, the closed form's 5.6e-16
@example(block=[689.5625, 687.5859375, -687.625, 689.578125])
@example(block=[0.0078125, 998.0, -998.0, 0.0])  # sigma = 3.9e-6, b = -c
# b = -c, sigma = 5.5e-7: the SVD's normal takes the other orientation
@example(block=[206.140625, 890.984375, -890.984375, 206.1396484375])
# sigma = 2e-9: dpi(x) = t is off by 1.5e-8 on lifts of size about 5e8
@example(block=[-766.4097577450957, 746.833178141598, -746.8331778760747, -766.4097607300077])
# sigma = 1.4e-11 <= RANK_TOL: both take the round point, with different normal bases
@example(block=[404.885673170191, 225.93881196849634, -225.93881197128997, 404.8856731647599])
def test_closed_form_split_matches_the_svd_on_drawn_blocks(block):
    a, b, c, d = block
    assume((a - d, b, c) != (0, 0, 0))  # a scalar block has no unit traceless part
    n = traceless_row(a, b, c, d)
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, want = _split_against_the_svd(monkeypatch, n)
    if got.orbit_dim == 4:  # sigma <= RANK_TOL: both take the round point
        _assert_same_split(got, want)
        return
    # each split loses about eps / sigma against the exact identity: over 28400
    # draws (uniform, dyadic, small-integer and near-round blocks, sigma down to
    # 1e-9) the largest |H| error in units of eps * max(1, |H|) / sigma was 0.91
    # for the closed form and 1.52 for the SVD, and the two splits' other numbers
    # differed by at most 4.0 of it (the tangent projectors by 4.0 eps / sigma)
    h_sq, sigma = _exact_h_norm(n)
    rel = 8 * np.finfo(float).eps / sigma
    tol = Fraction(rel / 2 * max(1.0, math.sqrt(h_sq)))
    for od in (got, want):
        x = Fraction(orbit_geometry._mean_curvature(od).norm)
        assert max(x - tol, 0) ** 2 <= h_sq <= (x + tol) ** 2  # | |H| - x | <= tol
    _assert_same_split(got, want, rel)


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0])
def test_closed_form_split_near_the_round_point(monkeypatch, a):
    # dpi(N) has norm about lambda - 1: both splits make the same rank decision,
    # and both lose about eps / (lambda - 1) of |H| against the closed form C5
    fam = Family("r3p_a", a)
    ranks = []
    for k in np.arange(6.0, 14.5, 0.5):
        lam = 1 + 10.0 ** -k
        n = frame_algebra(fam, rep_matrix(fam, lam))[1]
        got, want = _split_against_the_svd(monkeypatch, n)
        assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
        ranks.append(got.orbit_dim)
        if got.orbit_dim == 5:
            want_norm = h_norm_closed_form("r3p_a", lam)
            for od in (got, want):
                norm = orbit_geometry._mean_curvature(od).norm
                assert abs(norm - want_norm) <= np.finfo(float).eps / (lam - 1) * want_norm
    assert ranks == sorted(ranks, reverse=True) and set(ranks) == {4, 5}


def test_verify_sweeps_build_no_shape_tensor(monkeypatch):
    # the trace of the shape tensor is one commutator sum: the 8 acceptance
    # sweeps (377 rows) never form the (m, r, r) tensor
    calls = []
    original = orbit_geometry.second_fundamental_form
    monkeypatch.setattr(orbit_geometry, "second_fundamental_form",
                        lambda od: calls.append(od) or original(od))
    rows = 0
    for fam in VERIFY_FAMILIES:
        out, status = cli.verify_main_theorem(cli.RunConfig(family=fam,
                                                            grid=default_grid(fam)))
        assert status == 0
        rows += len(out)
    assert rows == 377 and calls == []
    # the counter sees a call that does build it
    od = orbit_data(np.eye(9))
    shape_trace_mean_curvature(od)
    assert calls == [od]


def _cayley(skew: list) -> np.ndarray:
    """k = (I - S)(I + S)^-1 for the rational skew S with entries
    S12, S13, S23 = ``skew``: orthogonal in exact arithmetic, then rounded."""
    s12, s13, s23 = skew
    s = np.array([[0, s12, s13], [-s12, 0, s23], [-s13, -s23, 0]], dtype=object)
    eye = np.array([[Fraction(int(i == j)) for j in range(3)] for i in range(3)], dtype=object)
    return np.asarray((eye - s).dot(linalg.exact_inv(eye + s)), dtype=float)


@settings(max_examples=40, deadline=None)
@given(skew=st.lists(st.fractions(-8, 8, max_denominator=64), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_orbit_at_is_invariant_under_the_right_action_of_o3(skew, seed):
    # g and g k are the same metric up to k: u'(g k) = k^T u'(g) k, so the
    # orbit dimensions and |H| agree and H(g k) = k^T H(g) k; on a triangular
    # g the product g k runs orbit_at's QR, and on a random g both do
    k = _cayley(skew)
    rng = np.random.default_rng(seed)
    for fam in FAMILIES:
        for g in (metric_to_group(random_spd(rng)), random_group_element(rng)):
            got, want = orbit_at(fam, g @ k), orbit_at(fam, g)
            assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim), fam
            # near r3_a's minimal points |H| ~ 2|lambda|/5 is read off a lambda
            # rounded to a few ulps absolute: 8e-13 relative at |H| = 2e-4
            tol = 1e-12 * max(1.0, want.norm)
            assert abs(got.norm - want.norm) <= tol, fam
            assert np.abs(got.h - k.T @ want.h @ k).max() <= tol, fam


# a nonzero rational f 2^k: |f| <= 8 with denominator <= 64, |k| <= 40
_SCALED_RATIONAL = st.builds(lambda f, k: f * Fraction(2) ** k,
                             st.fractions(-8, 8, max_denominator=64).filter(bool),
                             st.integers(-40, 40))


def _automorphism(draw) -> tuple:
    """``(family, phi)`` for a drawn automorphism phi, a Fraction matrix:
    the lower-triangular ones of r3_a, the rotation-scalings of r3p_a, item
    11's diag(1, 1, -1) of r3_a, and e2 <-> e3, e1 -> -e1 on r3_a at a = -1."""
    kind, a, (u, v, x, y) = draw
    if kind == "r3_a":
        return Family("r3_a", a), [[1, 0, 0], [u, x, 0], [v, 0, y]]
    if kind == "r3p_a":
        return Family("r3p_a", 2 * abs(a)), [[1, 0, 0], [u, x, -y], [v, y, x]]  # a in 0, 1, 2
    if kind == "flip":
        return Family("r3_a", a), [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    return Family("r3_a", -1.0), [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]


@settings(max_examples=100, deadline=None)
@given(draw=st.tuples(st.sampled_from(["r3_a", "r3p_a", "flip", "swap"]),
                      st.sampled_from([-1.0, -0.5, 0.0, 0.5]),
                      st.lists(_SCALED_RATIONAL, min_size=4, max_size=4)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_orbit_at_is_invariant_under_pullback_by_an_automorphism(draw, seed):
    # phi in Aut normalizes RI + Der, so u'(phi^-1 g) = g^-1 phi (RI + Der)
    # phi^-1 g = u'(g): the same orbit, the same H; phi^-1 g is rounded once
    # from exact rationals, however ill-conditioned phi is
    fam, phi = _automorphism(draw)
    inv = linalg.exact_inv(np.array([[Fraction(x) for x in row] for row in phi], dtype=object))
    rng = np.random.default_rng(seed)
    for gram in (random_spd(rng), random_spd(rng, 10.0 ** rng.uniform(-6.0, 6.0))):
        g = metric_to_group(gram)
        exact = np.array([[Fraction(x) for x in row] for row in g.tolist()], dtype=object)
        got, want = orbit_at(fam, np.asarray(inv.dot(exact), dtype=float)), orbit_at(fam, g)
        assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
        tol = 1e-12 * max(1.0, want.norm)
        assert abs(got.norm - want.norm) <= tol
        assert np.abs(got.h - want.h).max() <= tol


def _bad_elements() -> list:
    inf_entry, nan_entry = np.eye(3), np.eye(3)
    inf_entry[0, 2], nan_entry[1, 0] = np.inf, np.nan
    return [np.zeros((3, 3)), np.full((3, 3), np.nan), nan_entry, inf_entry,
            np.diag([1.0, 1e300, 1e-300])]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
def test_orbit_at_refuses_degenerate_elements_by_name(fam):
    # a zero, NaN or inf g, and one whose L33 / L22 underflows, fail the
    # guards of frame_algebra, never with ZeroDivisionError or LinAlgError
    message = "^conjugating matrix is singular or not finite$"
    for g in _bad_elements():
        with pytest.raises(SingularMatrixError, match=message):
            orbit_at(fam, g)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 4)])
def test_group_element_of_another_shape_is_refused_by_lq(shape):
    # orbit_at reaches lq directly and reduce through lower_triangular_lq
    for fn in (orbit_at, reduce):
        with pytest.raises(ValueError, match="^group element must be a 3x3 matrix$") as err:
            fn(Family("r3_a", 0.5), np.eye(*shape))
        assert err.traceback[-1].name == "lq"


def test_orbit_at_refuses_frame_brackets_that_overflow():
    # L passes the singularity guard, but h^-1 A h with h = [[1, 0], [L32,
    # L33]] / L22 overflows: L32 / L22 is 1e200 and L33 / L22 1e-100
    g = [[1.0, 0.0, 0.0], [0.0, 1e-150, 0.0], [0.0, 1e50, 1e-250]]
    with pytest.raises(ValueError, match="^frame brackets are not finite"):
        orbit_at(Family("r3p_a", 0.5), g)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
def test_orbit_at_gram_frame_matches_the_representative(fam):
    # the orbit through G and through reduce's g_lambda is one orbit: |H| and
    # the dimensions agree wherever reduce answers, at anisotropy up to 1e200
    # (reduce refuses by LQ_DET_TOL or a witness overflow; orbit_at answers all)
    rng = np.random.default_rng(109)
    answered = 0
    for _ in range(150):
        m, s = rng.normal(size=(3, 3)), np.diag(10.0 ** rng.uniform(-100.0, 100.0, 3))
        g = metric_to_group(s @ (m @ m.T + 1e-3 * np.eye(3)) @ s)
        try:
            rep = reduce(fam, g)[0]
        except ValueError:
            continue
        want, got = orbit_at(fam, rep.matrix), orbit_at(fam, g)
        answered += 1
        assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
        assert abs(got.norm - want.norm) <= 1e-12 * want.norm
    assert answered >= 10


@pytest.mark.parametrize("fam", [f for f in FAMILIES if f.tag == "r3p_a"],
                         ids=lambda f: f.label())
def test_orbit_at_reads_every_r3p_a_frame_at_extreme_anisotropy(fam):
    # S (m m^T + 1e-3 I) S, S = diag(10^U(-150, 150)): on about one frame in
    # eight r = L32 / L22 passes 1e154, where r^2 overflows float64
    rng = np.random.default_rng(113)
    compared = 0
    for _ in range(400):
        m, s = rng.normal(size=(3, 3)), np.diag(10.0 ** rng.uniform(-150.0, 150.0, 3))
        g = metric_to_group(s @ (m @ m.T + 1e-3 * np.eye(3)) @ s)
        got = orbit_at(fam, g)
        try:
            rep = reduce(fam, g)[0]
        except ValueError:
            continue
        want = orbit_at(fam, rep.matrix)
        compared += 1
        assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
        assert abs(got.norm - want.norm) <= 1e-12 * want.norm
    assert compared >= 100


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
def test_orbit_at_is_exact_under_scaling_by_powers_of_four(fam):
    # metric_to_group(4^j G) = 2^-j metric_to_group(G) bit for bit, and the
    # frame rows depend on the ratios of its entries only
    rng = np.random.default_rng(101)
    for _ in range(5):
        gram = random_spd(rng)
        want = orbit_at(fam, metric_to_group(gram))
        for j in range(-30, 31):
            got = orbit_at(fam, metric_to_group(4.0 ** j * gram))
            assert got.h.tobytes() == want.h.tobytes(), j
            assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)
            for (a, v), (b, w) in zip(got.per_normal, want.per_normal):
                assert a.tobytes() == b.tobytes() and v == w


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
def test_orbit_at_norm_does_not_depend_on_scale(fam):
    rng = np.random.default_rng(103)
    for _ in range(40):
        gram = random_spd(rng)
        t = 10.0 ** rng.uniform(-6.0, 6.0)
        got, want = orbit_at(fam, metric_to_group(t * gram)), orbit_at(fam, metric_to_group(gram))
        assert abs(got.norm - want.norm) <= 1e-12 * want.norm, t
        assert (got.orbit_dim, got.stab_dim) == (want.orbit_dim, want.stab_dim)


def test_orbit_at_reads_a_gram_matrix_at_the_condition_limit():
    # diag(1, 1, 1e-24) pulls back I by an automorphism of r3_a (reduce gives
    # lambda = 0), and cond(g) = 1e12 is exactly COND_LIMIT; conjugate_subspace
    # refuses this g, as a conjugated Der basis matrix shrinks to ZERO_TOL
    fam = Family("r3_a", 0.5)
    r = orbit_at(fam, metric_to_group(np.diag([1.0, 1.0, 1e-24])))
    assert r.norm == 0.0 and (r.orbit_dim, r.stab_dim) == (5, 0)
