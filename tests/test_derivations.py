import sys
from fractions import Fraction

import numpy as np
import pytest

from helpers import DER_GRID, FAMILIES, abcd_constants, random_group_element, unit
from oracles import (derivation_basis_sympy, derivation_residual, pattern_subspace,
                     semidirect_stack, subspace_equal, subspace_membership)
from solvgeo import cli, derivations, lie_core, linalg, moduli
from solvgeo.derivations import (MatrixSubspace, conjugate_subspace,
                                 derivation_algebra, scalar_plus)
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


@pytest.mark.parametrize("fam", DER_GRID, ids=[f.label() for f in DER_GRID])
def test_float_lane_agrees_with_exact(fam):
    # one exact elimination: the float tensor's basis is its exact twin's
    exact = derivation_algebra(make_family(fam, exact=True))
    flt = derivation_algebra(make_family(fam))
    r3_1 = fam.tag == "r3_1" or (fam.tag == "r3_a" and fam.a == 1)
    assert flt.dim == exact.dim == (6 if r3_1 else EXPECTED_DIMS[fam.tag])
    assert flt.basis.tobytes() == exact.basis.tobytes()


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
    # the boundary is on the condition number: s_max <= COND_LIMIT * s_min passes
    limit = derivations.COND_LIMIT
    for s in (np.nextafter(limit, 0.0), limit):
        assert conjugate_subspace(der, np.diag([s, 1.0, 1.0])).dim == der.dim
    with pytest.raises(SingularMatrixError, match="singular"):
        conjugate_subspace(der, np.diag([np.nextafter(limit, np.inf), 1.0, 1.0]))
    for bad in (np.nan, np.inf):
        g = np.eye(3)
        g[1, 2] = bad
        with pytest.raises(SingularMatrixError, match="not finite"):
            conjugate_subspace(der, g)


def test_conjugate_collapsing_basis_is_singular():
    # cond(g) is exactly COND_LIMIT, which passes, but g^-1 D g of a Der(r3)
    # basis matrix has norm 1e-12, at ZERO_TOL
    der = derivation_algebra(make_family(Family("r3")))
    g = np.diag([1.0, 1.0, derivations.COND_LIMIT])
    assert np.linalg.cond(g) == derivations.COND_LIMIT
    with pytest.raises(SingularMatrixError, match="^conjugating matrix is singular$"):
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


def test_frame_is_a_read_only_orthonormal_basis():
    rng = np.random.default_rng(61)
    der = derivation_algebra(make_family(Family("r3p_a", 0.5)))
    for sub in (der, scalar_plus(der), conjugate_subspace(der, rng.normal(size=(3, 3))),
                MatrixSubspace(rng.normal(size=(5, 3, 3))), MatrixSubspace(())):
        # scalar_frame is read-only, orthonormal, and its first dim rows span S
        rows = sub.scalar_frame
        assert rows.shape[1] == 9 and len(rows) in (sub.dim, sub.dim + 1)
        assert not rows.flags.writeable
        np.testing.assert_allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-14)
        frame = rows[:sub.dim]
        assert np.linalg.matrix_rank(np.vstack([frame, sub.basis.reshape(-1, 9)])) == sub.dim
        with pytest.raises(ValueError):
            rows[0, 0] = 5.0
    with pytest.raises(TypeError):
        MatrixSubspace(der.basis, der.scalar_frame)
    for name in ("basis", "scalar_frame"):
        with pytest.raises(AttributeError):  # frozen: no attribute can be rebound
            setattr(der, name, np.eye(9))


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_scalar_frame_is_an_orthonormal_basis_of_s_plus_i(fam):
    g = np.array([[1.0, 0.5, -2.0], [0.25, 3.0, 0.0], [1.0, 0.0, 0.5]])
    der = conjugate_subspace(derivation_algebra(make_family(fam)), g)
    rows = der.scalar_frame
    assert rows is der.scalar_frame  # an attribute, built once with the subspace
    np.testing.assert_allclose(rows @ rows.T, np.eye(der.dim + 1), atol=1e-14)
    spanning = np.vstack([der.basis.reshape(-1, 9), np.eye(3).ravel()])
    assert np.linalg.matrix_rank(np.vstack([rows, spanning])) == der.dim + 1
    # I in S: the frame alone, with no 0/0 row
    gl3 = MatrixSubspace(np.eye(9).reshape(9, 3, 3))
    assert gl3.scalar_frame.shape == (9, 9)


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
    derivations._kernel_subspace.cache_clear()


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_memo_cold_and_warm_results_byte_identical(fam):
    _clear_memos()
    cold = derivation_algebra(make_family(fam))
    cold_plus = scalar_plus(cold)
    warm = derivation_algebra(make_family(fam))  # an equal, distinct tensor
    warm_plus = scalar_plus(warm)
    assert derivations._float_derivations.cache_info().hits == 1
    assert warm.basis.tobytes() == cold.basis.tobytes()
    assert warm_plus.basis.tobytes() == cold_plus.basis.tobytes()
    # and both equal a computation that bypasses the memo
    fresh = derivations._derivation_kernel(make_family(fam).c)
    assert fresh.basis.tobytes() == cold.basis.tobytes()


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


def test_scalar_plus_of_a_conjugated_subspace():
    # an exact elimination of the float rows [basis; I] read rounding noise as
    # exact and gave rows too close to dependent; the frame gives S + RI at once
    g = np.array([[1.0, 0.5, -2.0], [0.25, 3.0, 0.0], [1.0, 0.0, 0.5]])
    der = conjugate_subspace(derivation_algebra(make_family(Family("h3"))), g)
    plus = scalar_plus(der)
    assert plus.dim == 7
    spanning = np.vstack([der.basis.reshape(-1, 9), np.eye(3).ravel()])
    assert np.linalg.matrix_rank(np.vstack([plus.basis.reshape(-1, 9), spanning])) == 7


def test_memo_is_bounded():
    _clear_memos()
    for a in np.linspace(-0.99, 0.99, 200):
        scalar_plus(derivation_algebra(make_family(Family("r3_a", float(a)))))
    assert derivations._float_derivations.cache_info().misses == 200
    assert derivations._float_derivations.cache_info().currsize <= derivations.MEMO_SIZE
    assert derivations._kernel_subspace.cache_info().currsize <= derivations.MEMO_SIZE
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


# ---------------------------------------------------------- frame path

def _count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every solvgeo namespace that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "solvgeo" or name.startswith("solvgeo."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_frame_path_changes_no_basis_and_conjugates_nothing(monkeypatch, capsys):
    # a verify row, soliton --lambda and orbit --lambda read the closed-form
    # rows of the orbit algebra on the Milnor frame, and reduce --gram its
    # brackets, in every family
    families = [Family("h3"), Family("r3"), Family("r3_1"), Family("r3_a", 0.5),
                Family("r3_a", 1.0), Family("r3p_a", 2.0)]
    for fam in families:
        derivation_algebra(make_family(fam))  # Der itself is built once per kernel
    der_calls = _count_calls(monkeypatch, derivation_algebra)
    basis_calls = _count_calls(monkeypatch, lie_core.change_basis)
    conjugate_calls = _count_calls(monkeypatch, conjugate_subspace)
    built = []
    post_init = MatrixSubspace.__post_init__
    monkeypatch.setattr(MatrixSubspace, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    for fam in families:
        lam = 1.0 if fam.tag in ("h3", "r3_1") else 1.5
        del der_calls[:]
        rows, status = cli.verify_main_theorem(cli.RunConfig(family=fam, grid=(lam,)))
        assert len(rows) == 1 and status == 0
        assert len(der_calls) == 2  # one per half
        for command in ("soliton", "orbit"):
            assert cli.main([command, "--family", fam.label(), "--lambda", repr(lam)]) == 0
        # reduce lists the brackets on its g_lambda off the same closed form
        gram = ["2", "0.3", "-0.4", "0.3", "1.5", "0.2", "-0.4", "0.2", "0.8"]
        assert cli.main(["reduce", "--family", fam.label(), "--gram", *gram]) == 0
    capsys.readouterr()
    assert basis_calls == conjugate_calls == built == []
    # positive control: der --lambda conjugates Der into a new subspace, and
    # the spies see that and a basis change
    fam, lam = Family("r3_a", 0.5), 1.5
    assert cli.main(["der", "--family", fam.label(), "--lambda", repr(lam)]) == 0
    capsys.readouterr()
    moduli.frame_constants(fam, lam)
    assert (len(conjugate_calls), len(basis_calls), len(built)) == (1, 1, 1)


def test_subspace_as_array_is_its_basis():
    der = derivation_algebra(make_family(Family("r3")))
    assert np.asarray(der).tobytes() == der.basis.tobytes()
    assert np.asarray(der, dtype=np.float32).dtype == np.float32
    assert np.shares_memory(np.asarray(der), der.basis)
    copied = np.array(der)  # a writable copy; the shared basis stays read-only
    assert copied.flags.writeable and not np.shares_memory(copied, der.basis)


# ---------------------------------------------------------- kernel memo

def _uncached_der(c) -> MatrixSubspace:
    system = derivations._derivation_system(c)
    return MatrixSubspace(linalg.ratios(*linalg.nullspace(system), exact=False))


def test_kernel_memo_one_entry_per_distinct_kernel():
    _clear_memos()
    for a in np.linspace(-0.99, 0.99, 200):
        assert derivation_algebra(make_family(Family("r3_a", float(a)))).dim == 4
    info = derivations._kernel_subspace.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 199, 1)
    assert derivation_algebra(make_family(Family("r3_a", 1.0))).dim == 6
    info = derivations._kernel_subspace.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


@pytest.mark.parametrize("fam", DER_GRID, ids=[f.label() for f in DER_GRID])
def test_kernel_memo_matches_uncached(fam):
    _clear_memos()
    c = make_family(fam).c
    want = _uncached_der(c).basis.tobytes()
    assert derivation_algebra(make_family(fam)).basis.tobytes() == want
    # warm, and through a parameter that shares the kernel
    assert derivations._derivation_kernel(c).basis.tobytes() == want
    exact = make_family(fam, exact=True)
    assert _uncached_der(linalg.integer_numerators(exact.c)[0]).basis.tobytes() == want
    # the exact twin shares the float lane's object
    assert derivation_algebra(exact) is derivation_algebra(make_family(fam))


@pytest.mark.parametrize("seed", range(30))
def test_kernel_memo_matches_uncached_on_random_floats(seed):
    # dense tensors that are not brackets have small kernels, often {0};
    # zeroed planes give larger ones
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.integers(-8, 8, size=(3, 3, 3))
    c[rng.random((3, 3, 3)) < 0.5] = 0.0
    c[:, :, rng.integers(0, 3)] *= seed % 2
    want = _uncached_der(c)
    for _ in range(2):
        got = derivation_algebra(StructureConstants(c.copy()))
        assert got.dim == want.dim
        assert got.basis.tobytes() == want.basis.tobytes()


def test_new_parameters_build_no_subspace(monkeypatch):
    for fam in (Family("r3_a", 0.5), Family("r3p_a", 0.5)):
        derivation_algebra(make_family(fam))
    built = []
    init = MatrixSubspace.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(MatrixSubspace, "__post_init__", counting)
    rng = np.random.default_rng(11)
    for a in rng.uniform(-0.999, 0.999, 100):
        assert derivation_algebra(make_family(Family("r3_a", float(a)))).dim == 4
    for a in rng.uniform(0.0, 100.0, 100):
        fam = Family("r3p_a", float(a))
        assert derivation_algebra(make_family(fam, exact=bool(a < 50))).dim == 4
    assert built == []


# ---------------------------------------------------- stacked basis layout

def _normalize_one(mat) -> np.ndarray:
    """The per-matrix normalization that the stacked one replaced."""
    mat = np.asarray(mat, dtype=float)
    mat = mat / np.linalg.norm(mat)
    flat = mat.ravel()
    lead = flat[np.abs(flat) > derivations.ZERO_TOL][0]
    return (-mat if lead < 0 else mat) + 0.0


def _seeded_stacks(count: int, seed: int = 8):
    """Float stacks with sign flips, zero and -0.0 entries, tiny leads and
    every tenth stack as exact Fractions."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = int(rng.integers(1, 7))
        if k % 10 == 0:
            nums = rng.integers(-9, 10, size=(d, 3, 3))
            nums[:, 2, 2] = np.where((nums == 0).all(axis=(1, 2)), 1, nums[:, 2, 2])
            dens = rng.integers(1, 12, size=(d, 3, 3))
            yield np.array([[[Fraction(int(p), int(q)) for p, q in zip(pr, qr)]
                             for pr, qr in zip(pm, qm)] for pm, qm in zip(nums, dens)],
                           dtype=object)
            continue
        stack = rng.normal(size=(d, 3, 3)) * 10.0 ** rng.integers(-6, 7, size=(d, 1, 1))
        stack[rng.random(stack.shape) < 0.4] = 0.0
        stack[rng.random(stack.shape) < 0.1] = -0.0
        stack[:, 2, 2] += 1.0  # no zero matrix
        # a first entry at or below ZERO_TOL after scaling is skipped for the sign
        tiny = rng.random(d) < 0.2
        stack[tiny, 0, 0] = rng.choice([-1e-14, 1e-14], size=int(tiny.sum()))
        yield stack * rng.choice([-1.0, 1.0], size=(d, 1, 1))


def test_stacked_normalize_matches_per_matrix_loop():
    stacks = list(_seeded_stacks(200))
    assert any(s.dtype == object for s in stacks)
    assert any(np.signbit(s[s == 0]).any() for s in stacks if s.dtype == float)
    for stack in stacks:
        want = np.array([_normalize_one(m) for m in stack])
        got = derivations._normalize(stack)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # a tuple of matrices and a stack of flat vectors give the same bytes
        assert derivations._normalize(tuple(stack)).tobytes() == want.tobytes()
        assert derivations._normalize(stack.reshape(-1, 9)).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="zero matrix"):
        derivations._normalize(np.stack([np.eye(3), np.zeros((3, 3))]))


# the eight acceptance verify sweeps, 377 rows on their default grids
VERIFY_SWEEPS = ([Family("r3")] + [Family("r3_a", a) for a in (-1.0, -0.5, 0.0, 0.5)]
                 + [Family("r3p_a", a) for a in (0.0, 1.0, 2.0)])


def test_conjugate_matches_per_matrix_loop_on_verify_rows():
    rows = 0
    for fam in VERIFY_SWEEPS:
        der = derivation_algebra(make_family(fam))
        for lam in cli.default_grid(fam):
            g = moduli.rep_matrix(fam, lam)
            ginv = np.linalg.inv(g)
            for sub in (der, scalar_plus(der)):
                want = np.array([_normalize_one(ginv @ b @ g) for b in sub.basis])
                assert conjugate_subspace(sub, g).basis.tobytes() == want.tobytes(), (fam, lam)
            rows += 1
    assert rows == 377


def test_basis_is_one_read_only_stack():
    der = derivation_algebra(make_family(Family("r3p_a", 0.5)))
    subspaces = (der, scalar_plus(der), conjugate_subspace(der, np.diag([1.0, 2.0, 3.0])),
                 MatrixSubspace(tuple(np.eye(3)[None] + unit(0, 1)[None])),
                 MatrixSubspace(()))
    for sub in subspaces:
        assert isinstance(sub.basis, np.ndarray)
        assert sub.basis.dtype == float and sub.basis.shape == (sub.dim, 3, 3)
        assert not sub.basis.flags.writeable
        for b in sub.basis:
            assert b.shape == (3, 3) and np.shares_memory(b, sub.basis)
            assert not b.flags.writeable
            with pytest.raises(ValueError):
                b[0, 0] = 1.0


# ------------------------------------------- the gathered derivation system

def _loop_system(c):
    """The derivation-identity system built entry by entry, as a reference."""
    n = c.shape[0]
    dtype = object if c.dtype == object else float
    c = c.tolist()
    zero = 0
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                row = []
                for m in range(n):
                    for k in range(n):
                        entry = c[i][j][k] if m == l else zero
                        if k == i:
                            entry = entry - c[m][j][l]
                        if k == j:
                            entry = entry - c[i][m][l]
                        row.append(entry)
                rows.append(row)
    return np.array(rows, dtype=dtype)


def _same_system(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape == (9, 9)
    if want.dtype == object:
        assert got.tolist() == want.tolist()
        assert all(type(x) is int for x in got.ravel())
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fam", DER_GRID, ids=[f.label() for f in DER_GRID])
def test_gathered_system_matches_loop(fam):
    c = make_family(fam).c
    _same_system(derivations._derivation_system(c), _loop_system(c))
    ints = linalg.integer_numerators(make_family(fam, exact=True).c)[0]
    _same_system(derivations._derivation_system(ints), _loop_system(ints))


@pytest.mark.parametrize("seed", range(30))
def test_gathered_system_matches_loop_on_random_floats(seed):
    # signed zeros (c_000 among them) and terms of very different size,
    # whose differences round
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.integers(-20, 20, size=(3, 3, 3))
    c[rng.random((3, 3, 3)) < 0.3] = 0.0
    c[rng.random((3, 3, 3)) < 0.3] = -0.0
    c[0, 0, 0] = (-0.0, 0.0, -1.5, 2.0)[seed % 4]
    _same_system(derivations._derivation_system(c), _loop_system(c))


def _exact_twin(sc: StructureConstants) -> StructureConstants:
    if sc.exact:
        return sc
    return StructureConstants(linalg.object_array([Fraction(x) for x in sc.c.ravel().tolist()],
                                                  (3, 3, 3)))


def _scalar_der_rows(sc) -> tuple:
    """``(rows, dim Der)`` of RI + Der(sc), as ``solvsoliton_check`` reads them."""
    return derivations.block_der_rows(sc, derivations.semidirect_block(sc))


def _assert_closed_form_rows(sc):
    """``block_der_rows`` of sc took the closed form: N, whose stack has
    orthonormal rows spanning RI + Der of sc's exact twin, at its dim 4."""
    n, got_dim = _scalar_der_rows(sc)
    assert type(n) is tuple and all(type(x) is float for x in n)
    rows = semidirect_stack(n)
    want = derivation_algebra(_exact_twin(sc))
    assert got_dim == want.dim == 4
    assert rows.shape == want.scalar_frame.shape == (5, 9)
    assert np.abs(rows @ rows.T - np.eye(5)).max() <= 1e-15
    assert np.abs(rows - (rows @ want.scalar_frame.T) @ want.scalar_frame).max() <= 1e-12


def _random_semidirect_families(seed: int, count: int) -> list:
    # r3_a below its scalar top a = 1, r3p_a on a log scale up to 1e3
    rng = np.random.default_rng(seed)
    fams = [Family("r3_a", float(a)) for a in rng.uniform(-1.0, 1.0, count)]
    fams += [Family("r3p_a", float(a)) for a in 10.0 ** rng.uniform(-3.0, 3.0, count)]
    return fams


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_scalar_der_rows_span_rI_plus_der(fam):
    for exact in (False, True):
        sc = make_family(fam, exact=exact)
        if EXPECTED_DIMS[fam.tag] == 4:
            _assert_closed_form_rows(sc)
        else:
            rows, dim = _scalar_der_rows(sc)
            der = derivation_algebra(sc)
            assert (rows.tobytes(), dim) == (der.scalar_frame.tobytes(), der.dim)


def test_scalar_der_rows_closed_form_on_random_parameters():
    for fam in _random_semidirect_families(61, 100):
        for exact in (False, True):
            _assert_closed_form_rows(make_family(fam, exact=exact))


@pytest.mark.parametrize("abcd", [(0.1, 0.1 * 0.1, -1.0, -0.1), (1.0, 1e-300, 0.0, 1.0),
                                  (1.0, 0.0, 0.0, -1.0), (0.0, 1.0, -1.0, 0.0),
                                  (1.0, 0.0, 0.0, 0.0)])
def test_scalar_der_rows_closed_form_at_boundary_tensors(abcd):
    # a hair from nilpotent, a hair from scalar, trace 0, and singular A:
    # Der of the exact twin is 4-dimensional at each
    sc = abcd_constants(*abcd)
    _assert_closed_form_rows(sc)
    _assert_closed_form_rows(_exact_twin(sc))


_FALLBACK_TENSORS = {
    "h3": lambda: make_family(Family("h3")),
    "r3_1": lambda: make_family(Family("r3_1")),
    "r3_a_at_1": lambda: make_family(Family("r3_a", 1.0)),
    "zero": lambda: StructureConstants(np.zeros((3, 3, 3))),
    "exact_nilpotent": lambda: abcd_constants(0.5, 0.25, -1.0, -0.5),
    "scalar": lambda: abcd_constants(2.0, 0.0, 0.0, 2.0),
}


@pytest.mark.parametrize("name", _FALLBACK_TENSORS)
def test_scalar_der_rows_falls_back_to_derivation_algebra(name):
    sc = _FALLBACK_TENSORS[name]()
    for tensor in (sc, _exact_twin(sc)):
        rows, dim = _scalar_der_rows(tensor)
        der = derivation_algebra(tensor)
        assert (rows.tobytes(), dim) == (der.scalar_frame.tobytes(), der.dim)
    if name in ("exact_nilpotent", "scalar"):
        assert dim == 6


def _semidirect_variants() -> dict:
    """abcd_constants(1, 2, 3, 4) broken at one entry each."""
    def broken(i, j, k, value):
        sc = abcd_constants(1.0, 2.0, 3.0, 4.0)
        sc.c[i, j, k] = value
        return sc
    return {"bracket_23": broken(1, 2, 0, 1.0), "c010": broken(0, 1, 0, 1.0),
            "mirror": broken(1, 0, 2, 2.0), "nan_block": broken(0, 1, 2, np.nan),
            "change_basis": lie_core.change_basis(
                make_family(Family("r3_a", 0.5)), random_group_element(np.random.default_rng(67)))}


def test_semidirect_block_reads_a_or_refuses():
    # every family has the shape, and the block is c[0, 1:, 1:], float or exact
    for fam in DER_GRID:
        for exact in (False, True):
            sc = make_family(fam, exact=exact)
            assert derivations.semidirect_block(sc) == tuple(sc.c[0, 1:, 1:].ravel().tolist())
    assert derivations.semidirect_block(StructureConstants(np.zeros((3, 3, 3)))) == (0.0,) * 4
    assert derivations.semidirect_block(abcd_constants(1.0, 2.0, 3.0, 4.0)) == (1.0, 2.0, 3.0, 4.0)
    for name, sc in _semidirect_variants().items():
        assert derivations.semidirect_block(sc) is None, name
    with pytest.raises(ValueError):
        StructureConstants(np.zeros((2, 2, 2)))

