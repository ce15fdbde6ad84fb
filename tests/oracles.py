"""Independent oracles used by the tests.

The derivation-algebra oracle goes through sympy's symbolic nullspace,
a completely separate code path from the package's own row reduction.
The others are the residuals, span tests, sym(3) basis and sampling
checks that the tests apply to library output; the package itself needs
none of them.
"""

from fractions import Fraction

import numpy as np
import sympy as sp
from scipy.linalg import expm

from solvgeo import linalg
from solvgeo.derivations import MatrixSubspace, derivation_algebra, scalar_plus
from solvgeo.lie_core import Family, StructureConstants, make_family
from solvgeo.moduli import metric_to_group, reduce

SYM_DIM = 6


def derivation_basis_sympy(sc):
    """Exact derivation basis of a StructureConstants via sympy.

    Returns (dim, [numpy float 3x3 matrices]).
    """
    n = sc.dim
    c = [[[sp.Rational(Fraction(sc.c[i, j, k])) for k in range(n)]
          for j in range(n)] for i in range(n)]
    syms = sp.symbols(f"d0:{n * n}")
    d = sp.Matrix(n, n, syms)

    def br(x, y):
        return sp.Matrix([sum(c[i][j][k] * x[i] * y[j]
                              for i in range(n) for j in range(n))
                          for k in range(n)])

    eqs = []
    eye = sp.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d * br(eye.col(i), eye.col(j))
            rhs = br(d * eye.col(i), eye.col(j)) + br(eye.col(i), d * eye.col(j))
            eqs.extend(list(lhs - rhs))
    a, _ = sp.linear_eq_to_matrix(eqs, syms)
    kernel = a.nullspace()
    basis = [np.array(v, dtype=float).reshape(n, n) for v in kernel]
    return len(basis), basis


def pattern_subspace(entries):
    """MatrixSubspace-style basis from a list of {(i,j): coeff} patterns."""
    mats = []
    for pattern in entries:
        m = np.zeros((3, 3))
        for (i, j), v in pattern.items():
            m[i, j] = v
        mats.append(m)
    return mats


def bracket(sc: StructureConstants, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] in coordinates, for coordinate vectors x, y."""
    n = sc.dim
    if len(x) != n or len(y) != n:
        raise ValueError("coordinate vectors must match the algebra dimension")
    x = np.asarray(x)
    y = np.asarray(y)
    return np.array([np.dot(np.dot(x, sc.c[:, :, k]), y) for k in range(n)])


def antisymmetry_residual(sc: StructureConstants) -> float:
    """max |c_ij^k + c_ji^k|; zero for a well-formed bracket."""
    c = sc.c
    return float(max(abs(c[i, j, k] + c[j, i, k])
                     for i in range(sc.dim) for j in range(sc.dim) for k in range(sc.dim)))


def derivation_residual(sc: StructureConstants, d: np.ndarray) -> float:
    """max-norm violation of the derivation identity over basis pairs."""
    n = sc.dim
    d = linalg.to_float(np.asarray(d))
    eye = np.eye(n)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d @ linalg.to_float(bracket(sc, eye[i], eye[j]))
            rhs = (linalg.to_float(bracket(sc, d[:, i], eye[j]))
                   + linalg.to_float(bracket(sc, eye[i], d[:, j])))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def subspace_membership(subspace: MatrixSubspace, mat: np.ndarray,
                        tol: float = 1e-8):
    """Least-squares test whether ``mat`` lies in the subspace.

    Returns (is_member, coefficients, residual) where residual is the
    Frobenius distance from ``mat`` to the subspace and the coefficients
    expand the projection in the stored basis.
    """
    mat = linalg.to_float(np.asarray(mat))
    a = subspace.stacked().T
    coeffs, *_ = np.linalg.lstsq(a, mat.ravel(), rcond=None)
    residual = float(np.linalg.norm(a @ coeffs - mat.ravel()))
    return residual <= tol, coeffs, residual


def subspace_equal(s1: MatrixSubspace, s2: MatrixSubspace, tol: float = 1e-9) -> bool:
    """Two-way membership of the bases, plus matching dimensions."""
    if s1.dim != s2.dim:
        return False
    return (all(subspace_membership(s2, b, tol)[0] for b in s1.basis)
            and all(subspace_membership(s1, b, tol)[0] for b in s2.basis))


def trace_form(x: np.ndarray, y: np.ndarray) -> float:
    """The ambient inner product <X,Y> = tr(XY) on sym(3)."""
    return float(np.trace(np.asarray(x) @ np.asarray(y)))


def sym_basis() -> list[np.ndarray]:
    """Orthonormal basis of sym(3) for the trace form: E_ii, then
    (E_ij + E_ji)/sqrt(2) for i < j."""
    basis = [np.diag([1.0 if k == i else 0.0 for k in range(3)]) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
    return basis


def same_class(family: Family, gram1: np.ndarray, gram2: np.ndarray,
               tol: float = 1e-7) -> bool:
    """Whether two metrics reduce to the same canonical representative."""
    lam1 = reduce(family, metric_to_group(gram1))[0].lam
    lam2 = reduce(family, metric_to_group(gram2))[0].lam
    return abs(lam1 - lam2) <= tol


def congruence_check(family: Family, g1: np.ndarray, g2: np.ndarray,
                     iso: np.ndarray, samples: int = 8, tol: float = 1e-6,
                     seed: int = 0) -> bool:
    """Sampling test that ``iso`` maps the orbit of g1 onto the orbit of g2.

    Random identity-component elements exp(sum t_i B_i) of the
    scaling-automorphism group are applied to g1, pushed through ``iso``,
    and reduced; all samples must land in g2's isometry class (equal
    lambda within ``tol``).
    """
    u = scalar_plus(derivation_algebra(make_family(family)))
    lam2 = reduce(family, np.asarray(g2, dtype=float))[0].lam
    rng = np.random.default_rng(seed)
    iso = np.asarray(iso, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    for _ in range(samples):
        coeffs = rng.uniform(-0.5, 0.5, size=u.dim)
        alpha = expm(np.tensordot(coeffs, u.basis, axes=1))
        lam = reduce(family, iso @ alpha @ g1)[0].lam
        if abs(lam - lam2) > tol:
            return False
    return True
