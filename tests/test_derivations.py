import numpy as np
import pytest

from helpers import FAMILIES, unit
from oracles import derivation_basis_sympy, pattern_subspace
from solvgeo import cli, derivations, linalg
from solvgeo.derivations import (MatrixSubspace, conjugate_subspace,
                                 derivation_algebra, derivation_residual,
                                 scalar_plus, subspace_equal,
                                 subspace_membership)
from solvgeo.errors import SingularMatrixError
from solvgeo.lie_core import Family, StructureConstants, make_family

EXPECTED_DIMS = {"h3": 6, "r3": 4, "r3_a": 4, "r3_1": 6, "r3p_a": 4}

# printed derivation patterns: free entries of D for each reducible family
PATTERNS = {
    "r3": [{(1, 0): 1}, {(1, 1): 1, (2, 2): 1}, {(2, 0): 1}, {(2, 1): 1}],
    "r3_a": [{(1, 0): 1}, {(1, 1): 1}, {(2, 0): 1}, {(2, 2): 1}],
    "r3p_a": [{(1, 0): 1}, {(1, 1): 1, (2, 2): 1}, {(2, 1): 1, (1, 2): -1}, {(2, 0): 1}],
    # h3: first 2x2 block free, last column (0,0,a11+a22), bottom row free
    "h3": [{(0, 0): 1, (2, 2): 1}, {(0, 1): 1}, {(1, 0): 1},
           {(1, 1): 1, (2, 2): 1}, {(2, 0): 1}, {(2, 1): 1}],
    # r3_1: every matrix with zero first row
    "r3_1": [{(1, 0): 1}, {(1, 1): 1}, {(1, 2): 1},
             {(2, 0): 1}, {(2, 1): 1}, {(2, 2): 1}],
}


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_dimension_and_basis_match_sympy_oracle(fam):
    sc = make_family(fam, exact=True)
    dim, basis = derivation_basis_sympy(sc)
    assert dim == EXPECTED_DIMS[fam.tag]
    ours = derivation_algebra(sc)
    assert ours.dim == dim
    assert subspace_equal(ours, MatrixSubspace(tuple(basis)), tol=1e-9)


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_float_lane_agrees_with_exact(fam):
    exact = derivation_algebra(make_family(fam, exact=True))
    flt = derivation_algebra(make_family(fam))
    assert subspace_equal(exact, flt, tol=1e-9)


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_printed_patterns_two_way(fam):
    if fam.tag == "r3_a" and fam.a == 1:
        pattern = PATTERNS["r3_1"]
    else:
        pattern = PATTERNS[fam.tag]
    der = derivation_algebra(make_family(fam, exact=True))
    want = MatrixSubspace(tuple(pattern_subspace(pattern)))
    assert subspace_equal(der, want, tol=1e-9)


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_derivation_identity_holds(fam):
    sc = make_family(fam)
    der = derivation_algebra(sc)
    for b in der.basis:
        assert derivation_residual(sc, b) < 1e-12


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_closed_under_commutator(fam):
    der = derivation_algebra(make_family(fam))
    for b1 in der.basis:
        for b2 in der.basis:
            comm = b1 @ b2 - b2 @ b1
            if np.linalg.norm(comm) < 1e-13:
                continue
            ok, _, _ = subspace_membership(der, comm, tol=1e-9)
            assert ok


def test_scalar_plus_dimensions():
    dims = {"h3": 7, "r3": 5, "r3_a": 5, "r3_1": 7, "r3p_a": 5}
    for fam in FAMILIES:
        sp = scalar_plus(derivation_algebra(make_family(fam)))
        assert sp.dim == dims[fam.tag], fam.label()


def test_scalar_plus_r3_pattern_frees_corner():
    # span{I} + Der(r3) = lower-triangular-like pattern with free (1,1)
    sp = scalar_plus(derivation_algebra(make_family(Family("r3"))))
    want = MatrixSubspace(tuple(pattern_subspace(
        [{(0, 0): 1}, {(1, 0): 1}, {(1, 1): 1, (2, 2): 1}, {(2, 0): 1}, {(2, 1): 1}])))
    assert subspace_equal(sp, want, tol=1e-9)


def test_scalar_plus_idempotent_when_identity_present():
    sp = scalar_plus(derivation_algebra(make_family(Family("h3"))))
    again = scalar_plus(sp)
    assert again.dim == sp.dim
    assert subspace_equal(sp, again, tol=1e-9)


def test_conjugate_r3_a_pattern():
    # conjugating Der(r3_a) by the unipotent g with (3,2)=lam couples the
    # (3,2)-entry to -lam*(x22 - x33)
    lam = 1.7
    g = np.eye(3)
    g[2, 1] = lam
    der = conjugate_subspace(derivation_algebra(make_family(Family("r3_a", 0.5))), g)
    want = MatrixSubspace(tuple(pattern_subspace([
        {(1, 0): 1, (2, 0): -lam},
        {(1, 1): 1, (2, 1): -lam},
        {(2, 0): 1},
        {(2, 2): 1, (2, 1): lam},
    ])))
    assert subspace_equal(der, want, tol=1e-9)
    inside = pattern_subspace([{(1, 1): 1, (2, 1): -lam}])[0]
    outside = pattern_subspace([{(1, 1): 1, (2, 1): lam}])[0]
    assert subspace_membership(der, inside, tol=1e-9)[0]
    assert not subspace_membership(der, outside, tol=1e-9)[0]


def test_conjugate_r3p_a_pattern():
    # conjugation by diag(1,1,1/lam): (2,3) -> -x23/lam, (3,2) -> lam*x23,
    # (3,1) -> lam*x31
    lam = 2.0
    g = np.diag([1.0, 1.0, 1.0 / lam])
    der = conjugate_subspace(derivation_algebra(make_family(Family("r3p_a", 1.0))), g)
    want = MatrixSubspace(tuple(pattern_subspace([
        {(1, 0): 1},
        {(1, 1): 1, (2, 2): 1},
        {(1, 2): -1.0 / lam, (2, 1): lam},
        {(2, 0): lam},
    ])))
    assert subspace_equal(der, want, tol=1e-9)


def test_conjugation_preserves_dimension():
    rng = np.random.default_rng(2)
    der = derivation_algebra(make_family(Family("r3p_a", 0.5)))
    for _ in range(10):
        g = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        assert conjugate_subspace(der, g).dim == der.dim


def test_conjugate_singular_raises():
    der = derivation_algebra(make_family(Family("r3")))
    with pytest.raises(SingularMatrixError):
        conjugate_subspace(der, np.zeros((3, 3)))
    with pytest.raises(SingularMatrixError):
        conjugate_subspace(der, np.diag([1.0, 1.0, 1e-13]))
    for bad in (np.nan, np.inf):
        g = np.eye(3)
        g[1, 2] = bad
        with pytest.raises(SingularMatrixError, match="not finite"):
            conjugate_subspace(der, g)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
def test_conjugation_is_scale_invariant(scale):
    # g and s*g conjugate to the same subspace, so both must be accepted
    der = derivation_algebra(make_family(Family("r3_a", 0.5)))
    g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.8]])
    assert subspace_equal(conjugate_subspace(der, scale * g),
                          conjugate_subspace(der, g), tol=1e-9)


def test_membership_residual_lower_bound():
    # Der(r3) has zero (2,3)-entry, so that entry survives projection
    der = derivation_algebra(make_family(Family("r3")))
    for v in (0.3, -1.2, 5.0):
        m = unit(1, 2) * v
        ok, _, residual = subspace_membership(der, m, tol=1e-8)
        assert not ok
        assert residual >= abs(v) - 1e-12


def test_membership_diagonal_example():
    der = derivation_algebra(make_family(Family("r3_a", 0.5)))
    ok, coeffs, residual = subspace_membership(der, np.diag([0.0, 1.0, 2.0]))
    assert ok
    assert residual < 1e-12
    recon = sum(c * b for c, b in zip(coeffs, der.basis))
    np.testing.assert_allclose(recon, np.diag([0.0, 1.0, 2.0]), atol=1e-12)


def test_membership_zero_dimensional_subspace():
    empty = MatrixSubspace(())
    ok, coeffs, residual = subspace_membership(empty, np.zeros((3, 3)))
    assert ok and residual == 0.0 and coeffs.size == 0
    ok, _, residual = subspace_membership(empty, np.eye(3))
    assert not ok
    assert residual == pytest.approx(np.sqrt(3.0))


def test_perturbed_constants_still_satisfy_identity():
    # even for a bracket violating Jacobi the kernel members satisfy the
    # derivation identity by construction
    rng = np.random.default_rng(9)
    base = make_family(Family("r3")).c.copy()
    for _ in range(5):
        noise = rng.normal(scale=0.05, size=(3, 3, 3))
        noise = noise - np.einsum("ijk->jik", noise)  # keep antisymmetry
        sc = StructureConstants(base + noise)
        der = derivation_algebra(sc)
        for b in der.basis:
            assert derivation_residual(sc, b) < 1e-9


def test_matrix_subspace_normalization():
    s = MatrixSubspace((np.array([[0.0, -2.0, 0.0],
                                  [0.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0]]),))
    b = s.basis[0]
    assert np.linalg.norm(b) == pytest.approx(1.0)
    assert b[0, 1] == pytest.approx(1.0)  # sign flipped to make lead positive


def test_matrix_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        MatrixSubspace((np.eye(3), 2 * np.eye(3)))
    with pytest.raises(ValueError):
        MatrixSubspace((np.zeros((3, 3)),))


def test_matrix_subspace_equality_is_identity():
    s1 = derivation_algebra(make_family(Family("r3")))
    s2 = MatrixSubspace(s1.basis)
    assert s1 == s1
    assert s1 != s2
    assert len({s1, s2, s1}) == 2
    assert subspace_equal(s1, s2)


# ---------------------------------------------------------- float-lane memo

def _clear_memos():
    derivations._float_derivations.cache_clear()
    derivations._scalar_plus.cache_clear()


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_memo_cold_and_warm_results_byte_identical(fam):
    _clear_memos()
    cold = derivation_algebra(make_family(fam))
    cold_plus = scalar_plus(cold)
    warm = derivation_algebra(make_family(fam))  # an equal, distinct tensor
    warm_plus = scalar_plus(warm)
    assert derivations._float_derivations.cache_info().hits == 1
    assert derivations._scalar_plus.cache_info().hits == 1
    assert warm.stacked().tobytes() == cold.stacked().tobytes()
    assert warm_plus.stacked().tobytes() == cold_plus.stacked().tobytes()
    # and both equal a computation that bypasses the memo
    fresh = derivations._derivation_kernel(make_family(fam).c, linalg.PIVOT_TOL)
    assert fresh.stacked().tobytes() == cold.stacked().tobytes()


def test_memo_verify_json_cold_and_warm_identical(capsys):
    argv = ["verify", "--family", "r3pa:a=2.0", "--format", "json"]
    _clear_memos()
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    assert cli.main(argv) == 0
    warm = capsys.readouterr().out
    assert derivations._float_derivations.cache_info().hits > 0
    assert cold == warm


def test_memo_results_are_read_only():
    der = derivation_algebra(make_family(Family("r3")))
    for sub in (der, scalar_plus(der)):
        with pytest.raises(ValueError):
            sub.basis[0][0, 0] = 5.0
    assert not der.basis[0].flags.writeable


def test_memo_sees_in_place_edit():
    sc = make_family(Family("r3_a", 0.5))
    assert derivation_algebra(sc).dim == 4
    sc.c[0, 2, 2], sc.c[2, 0, 2] = 1.0, -1.0  # now the brackets of r3_1
    der = derivation_algebra(sc)
    assert der.dim == 6
    assert subspace_equal(der, derivation_algebra(make_family(Family("r3_1"))))
    assert scalar_plus(der).dim == 7


def test_memo_is_bounded():
    _clear_memos()
    for a in np.linspace(-0.99, 0.99, 200):
        scalar_plus(derivation_algebra(make_family(Family("r3_a", float(a)))))
    assert derivations._float_derivations.cache_info().misses == 200
    assert derivations._float_derivations.cache_info().currsize <= derivations.MEMO_SIZE
    assert derivations._scalar_plus.cache_info().currsize <= derivations.MEMO_SIZE
    assert derivations.MEMO_SIZE == 128


def test_exact_lane_bypasses_memo():
    before = derivations._float_derivations.cache_info()
    der = derivation_algebra(make_family(Family("r3p_a", 0.5), exact=True))
    assert der.dim == 4
    after = derivations._float_derivations.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_warm_verify_sweeps_do_no_row_reduction(monkeypatch):
    # once each family is warm, the 8 acceptance sweeps (377 rows) solve no
    # derivation system and reduce no span{I} + Der
    families = [Family("r3")] + [Family("r3_a", a) for a in (-1.0, -0.5, 0.0, 0.5)]
    families += [Family("r3p_a", a) for a in (0.0, 1.0, 2.0)]
    for fam in families:
        scalar_plus(derivation_algebra(make_family(fam)))
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "nullspace", counting(linalg.nullspace))
    monkeypatch.setattr(linalg, "row_space_basis", counting(linalg.row_space_basis))
    rows = 0
    for fam in families:
        out, status = cli.verify_main_theorem(
            cli.RunConfig(family=fam, grid=cli.default_grid(fam)))
        assert status == 0
        rows += len(out)
    assert rows == 377
    assert calls == []
