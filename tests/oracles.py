"""Independent oracles used by the tests.

The derivation-algebra oracle goes through sympy's symbolic nullspace,
a completely separate code path from the package's own row reduction.
Two Ricci references check the closed form of ``curvature.ricci_canonical``:
the Koszul sums on the canonical basis evaluated entry by entry in
``Fraction`` arithmetic, and the frame pipeline (Koszul on the orthonormal
frame ``metric_to_group``, then conjugation back).
The others are the residuals, span tests, sym(3) basis and sampling
checks that the tests apply to library output; the package itself needs
none of them.  ``lstsq_soliton_split`` keeps the package's earlier
least-squares soliton split as the reference for its orthogonal one,
``projection_split`` the numpy projection of that split as the reference
for its closed form on ``derivations.semidirect_rows``' layout, and
``shape_trace_mean_curvature`` its earlier mean curvature, the traces of
the whole shape tensor, as the reference for the commutator sum.
``h_norm_closed_form`` holds the paper's closed forms for ``|H|`` (C5);
``h_norm_block`` and ``normality`` hold the theorem as one identity in the
frame block, and ``lambda_invariant`` the class of a Gram matrix as a
rational function of its inverse.  These check verdicts from outside and
never decide one.  ``exact_frame_soliton`` decides the soliton question at
g_lambda in ``Fraction`` arithmetic alone, as the reference for the float
verdict, and ``koszul_soliton_exact`` decides it at any Gram matrix, from
the Koszul Ricci operator and pi(Ric)mu, as the reference for the exact
Gram verdict.
"""

import math
from fractions import Fraction

import numpy as np
import sympy as sp
from scipy.linalg import expm

from solvgeo import derivations, linalg, orbit_geometry
from solvgeo.curvature import require_finite, ricci_closed_form
from solvgeo.derivations import MatrixSubspace, derivation_algebra, scalar_plus
from solvgeo.lie_core import Family, StructureConstants, change_basis, make_family
from solvgeo.moduli import frame_constants, metric_to_group, reduce

SYM_DIM = 6


def derivation_basis_sympy(sc):
    """Exact derivation basis of a StructureConstants via sympy.

    Returns (dim, [numpy float 3x3 matrices]).
    """
    n = 3
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
    n = 3
    if len(x) != n or len(y) != n:
        raise ValueError("coordinate vectors must match the algebra dimension")
    x = np.asarray(x)
    y = np.asarray(y)
    return np.array([np.dot(np.dot(x, sc.c[:, :, k]), y) for k in range(n)])


def antisymmetry_residual(sc: StructureConstants) -> float:
    """max |c_ij^k + c_ji^k|; zero for a well-formed bracket."""
    c = sc.c
    return float(max(abs(c[i, j, k] + c[j, i, k])
                     for i in range(3) for j in range(3) for k in range(3)))


def derivation_residual(sc: StructureConstants, d: np.ndarray) -> float:
    """max-norm violation of the derivation identity over basis pairs."""
    n = 3
    d = np.asarray(d, dtype=float)
    eye = np.eye(n)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d @ np.asarray(bracket(sc, eye[i], eye[j]), dtype=float)
            rhs = (np.asarray(bracket(sc, d[:, i], eye[j]), dtype=float)
                   + np.asarray(bracket(sc, eye[i], d[:, j]), dtype=float))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def subspace_membership(subspace: MatrixSubspace, mat: np.ndarray,
                        tol: float = 1e-8):
    """Least-squares test whether ``mat`` lies in the subspace.

    Returns (is_member, coefficients, residual) where residual is the
    Frobenius distance from ``mat`` to the subspace and the coefficients
    expand the projection in the stored basis.
    """
    mat = np.asarray(mat, dtype=float)
    a = subspace.basis.reshape(-1, 9).T
    coeffs, *_ = np.linalg.lstsq(a, mat.ravel(), rcond=None)
    residual = float(np.linalg.norm(a @ coeffs - mat.ravel()))
    return residual <= tol, coeffs, residual


def lstsq_soliton_split(ric: np.ndarray, der: MatrixSubspace) -> tuple:
    """(c, D, residual) of the least-squares fit ric ~ c*I + D, D in ``der``.

    The split the package made before its orthogonal one: ``lstsq`` over
    the columns [I | derivation basis].
    """
    a = np.concatenate([np.eye(3).reshape(1, 9), der.basis.reshape(-1, 9)]).T
    coeffs, *_ = np.linalg.lstsq(a, ric.ravel(), rcond=None)
    residual = float(np.linalg.norm(a @ coeffs - ric.ravel()))
    return float(coeffs[0]), (coeffs[1:] @ der.basis.reshape(-1, 9)).reshape(3, 3), residual


def projection_split(ric, rows: np.ndarray, dim: int) -> tuple:
    """(c, D, residual) of ric over the orthonormal flat ``rows`` of S + RI,
    laid out as ``MatrixSubspace.scalar_frame``, by numpy projection: c =
    <ric, e>/<I, e> for e the last row (0 when there are only ``dim``), D the
    projection of ric - cI on the first ``dim`` rows, and the Frobenius norm
    of what is left."""
    r = np.ravel(np.asarray(ric, dtype=float))
    eye = np.eye(3).ravel()
    c = float(rows[-1] @ r / (rows[-1] @ eye)) if len(rows) > dim else 0.0
    rest = r - c * eye
    d = (rest @ rows[:dim].T) @ rows[:dim]
    return c, d.reshape(3, 3), math.hypot(*(rest - d).tolist())


def shape_trace_mean_curvature(od: orbit_geometry.OrbitData
                               ) -> orbit_geometry.MeanCurvatureResult:
    """Mean curvature from the traces of the whole (m, r, r) shape tensor.

    The package's computation before the commutator sum.  The call goes
    through the module attribute, so a test that counts
    ``second_fundamental_form`` there sees it.
    """
    shape = orbit_geometry.second_fundamental_form(od)
    vals = np.trace(shape, axis1=1, axis2=2) / od.orbit_dim
    h = np.einsum("n,nab->ab", vals, od.normals)
    return orbit_geometry.MeanCurvatureResult(
        h=h, norm=float(np.linalg.norm(h)),
        per_normal=tuple((a, float(v)) for a, v in zip(od.normals, vals)),
        orbit_dim=od.orbit_dim, stab_dim=od.stab_dim)


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


def koszul_ricci_exact(c, gram) -> list:
    """Ricci operator on the canonical basis, exactly, as nested lists of
    Fractions: the Koszul sums on the canonical basis written out index by index.

    C_ijm = sum_k c_ij^k G_km, Gamma_ij^k = sum_m (C_ijm - C_jmi + C_mij)/2
    (G^-1)_mk, and Ric[m][j] = sum_ab (G^-1)_ab R(e_j, e_a) e_b in e_m.
    Every float is a dyadic rational, so float input is read exactly.
    """
    r = range(3)
    c = [[[Fraction(c[i][j][k]) for k in r] for j in r] for i in r]
    g = [[Fraction(gram[i][j]) for j in r] for i in r]
    inv = sp.Matrix(3, 3, [sp.Rational(x.numerator, x.denominator) for row in g for x in row]).inv()
    gi = [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in r] for i in r]
    cg = [[[sum(c[i][j][k] * g[k][m] for k in r) for m in r] for j in r] for i in r]
    gam = [[[sum((cg[i][j][m] - cg[j][m][i] + cg[m][i][j]) / 2 * gi[m][k] for m in r)
             for k in r] for j in r] for i in r]

    def riem(j, a, b, m):  # e_m component of R(e_j, e_a) e_b
        return sum(gam[a][b][l] * gam[j][l][m] - gam[j][b][l] * gam[a][l][m]
                   - c[j][a][l] * gam[l][b][m] for l in r)

    return [[sum(gi[a][b] * riem(j, a, b, m) for a in r for b in r) for j in r] for m in r]


def koszul_soliton_exact(c, gram) -> tuple:
    """``(is_soliton, is_einstein)`` of the metric ``gram``, exactly, from
    ``koszul_ricci_exact``'s Ric on the canonical basis: a soliton when
    pi(Ric)mu, (pi(R)mu)_ij^k = sum_l R_kl c_ij^l - R_li c_lj^k - R_lj c_il^k,
    is parallel to mu as a 27-vector (Lauret 2001), and Einstein when Ric
    is its trace over 3 times I.  No Der and no block shape is read."""
    ric, r = koszul_ricci_exact(c, gram), range(3)
    c = [[[Fraction(c[i][j][k]) for k in r] for j in r] for i in r]
    mu = [c[i][j][k] for i in r for j in r for k in r]
    pi = [sum(ric[k][m] * c[i][j][m] - ric[m][i] * c[m][j][k] - ric[m][j] * c[i][m][k]
              for m in r) for i in r for j in r for k in r]
    parallel = all(x * w == y * v for x, v in zip(pi, mu) for y, w in zip(pi, mu))
    scalar = (ric[0][0] + ric[1][1] + ric[2][2]) / 3
    return parallel, all(ric[i][j] == (scalar if i == j else 0) for i in r for j in r)


def connection_coeffs(c: np.ndarray) -> np.ndarray:
    """Koszul coefficients Gamma[i,j,k] on an orthonormal frame.

    For constant structure constants c on an orthonormal frame the Koszul
    formula collapses to Gamma_ij^k = (c_ij^k + c_ki^j + c_kj^i) / 2, where
    nabla_{x_i} x_j = sum_k Gamma[i,j,k] x_k.
    """
    c = np.asarray(c, dtype=float)
    return (c + np.einsum("kij->ijk", c) + np.einsum("kji->ijk", c)) / 2.0


def frame_ricci(sc: StructureConstants, gram: np.ndarray) -> tuple:
    """(ric_frame, ric_canonical) by the Cholesky-frame pipeline.

    Computed by (i) rewriting the structure constants on the orthonormal
    frame, (ii) forming the connection coefficients, (iii) contracting the
    curvature tensor R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z -
    nabla_[x,y] z over the frame.  ``ric_canonical`` is the same operator
    conjugated back to the canonical basis.
    """
    frame = metric_to_group(gram)
    c = change_basis(sc, frame).c
    gamma = connection_coeffs(c)
    with np.errstate(over="ignore", invalid="ignore"):
        riem = (np.einsum("jkl,ilm->ijkm", gamma, gamma)
                - np.einsum("ikl,jlm->ijkm", gamma, gamma)
                - np.einsum("ijl,lkm->ijkm", c, gamma))
        ric_frame = require_finite(np.einsum("jiim->mj", riem))
        # frame 2^-e, inv(frame) 2^e: exact, and frame @ ric_frame cannot overflow
        e = np.frexp(np.abs(frame).max())[1]
        ric_canonical = require_finite(np.ldexp(frame, -e) @ ric_frame
                                       @ np.ldexp(np.linalg.inv(frame), e))
    return ric_frame, ric_canonical


def h_norm_closed_form(tag: str, lam: float) -> float:
    """|H| of the orbit through g_lambda, the paper's closed forms (C5)."""
    if tag == "r3":
        return math.sqrt(2.0) / 5.0
    if tag == "r3_a":
        return 2.0 * abs(lam) / (5.0 * math.sqrt(2.0 * (1.0 + lam * lam)))
    if tag == "r3p_a":
        if lam == 1.0:
            return 0.0
        return math.sqrt(2.0) * (1.0 + lam * lam) / (5.0 * (lam * lam - 1.0))
    raise ValueError(f"no |H| closed form for {tag!r}")


def h_norm_block(a: float, b: float, c: float, d: float) -> float:
    """|H| of the orbit through a frame whose brackets are [x1,x2] = a x2 +
    b x3, [x1,x3] = c x2 + d x3, [x2,x3] = 0, with A = [[a, c], [b, d]]
    neither scalar nor nilpotent, off sigma = 0 (a = d and b = -c)."""
    return math.sqrt(2.0) * abs(b - c) / (5.0 * math.hypot(a - d, b + c))


def normality(a: float, b: float, c: float, d: float) -> float:
    """max|[A0, A0^T]| / |A0|^2 for A0 the traceless part of A = [[a, c],
    [b, d]]: 0 exactly when A is normal, off a scalar A."""
    h = (a - d) / 2
    a0 = np.array([[h, c], [b, -h]])
    return float(np.abs(a0 @ a0.T - a0.T @ a0).max() / np.sum(a0 * a0))


def _inverse_and_det(m: list) -> tuple:
    """The inverse and the determinant of a 3x3 matrix of Fractions, by its
    adjugate."""
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    return [[x / det for x in row] for row in adj], det


def lambda_invariant(tag: str, gram) -> Fraction:
    """``reduce``'s lambda of the metric ``gram`` as a rational function of
    M = gram^-1, in Fractions: lambda^2 on r3 and r3_a, (lambda + 1/lambda)^2
    on r3p_a.  With M = L L^T, L lower triangular, the squares l22^2 =
    (M11 M22 - M21^2)/M11, l33^2 = det M/(M11 M22 - M21^2) and l32^2 =
    (M11 M32 - M31 M21)^2/(M11 (M11 M22 - M21^2)) are rational in M.  Each
    value is homogeneous of degree 0 in M, so G -> t G leaves it unchanged."""
    m, det_g = _inverse_and_det([[Fraction(x) for x in row] for row in gram])
    (m11, _, _), (m21, m22, _), (m31, m32, _) = m
    det_m = 1 / det_g
    minor = m11 * m22 - m21 * m21  # M is symmetric, so M12 = M21
    if tag == "r3":
        return minor ** 2 / (m11 * det_m)
    if tag == "r3_a":
        return (m11 * m32 - m31 * m21) ** 2 / (m11 * det_m)
    if tag == "r3p_a":
        l22, l33 = minor / m11, det_m / minor
        l32 = (m11 * m32 - m31 * m21) ** 2 / (m11 * minor)
        return (l22 + l32 + l33) ** 2 / (l22 * l33)
    raise ValueError(f"no lambda invariant for {tag!r}")


def exact_frame_soliton(family: Family, lam) -> bool:
    """Whether the metric at g_lambda is a solvsoliton, decided exactly.

    Everything is in Fractions and no float verdict code is read: the
    constants on the Milnor frame x_i = g_lambda e_i, orthonormal for that
    metric; Ric there by ``ricci_closed_form`` on their block; Der as the
    exact kernel of the derivation system; and Ric lies in QI + Der exactly
    when appending it to the rows of I and Der leaves their rank unchanged.
    """
    sc = frame_constants(family, Fraction(lam), exact=True)
    assert all(i == 0 for i, *_ in sc.nonzero())  # [x2, x3] = 0
    return exact_block_soliton(*sc.c[0, 1:, 1:].ravel().tolist())


def block_constants(a, b, c, d) -> StructureConstants:
    """Exact constants of [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3, [x2,x3] = 0."""
    t = np.zeros((3, 3, 3), dtype=object)
    t[0, 1, 1:], t[0, 2, 1:] = (a, b), (c, d)
    t[1, 0], t[2, 0] = -t[0, 1], -t[0, 2]
    return StructureConstants(linalg.ratios(*linalg.integer_numerators(t)))


def exact_block_soliton(a, b, c, d) -> bool:
    """Whether the orthonormal frame with this bracket block is a solvsoliton,
    in Fractions: Ric by ``ricci_closed_form``, Der as the exact kernel of the
    derivation system, and Ric in QI + Der exactly when appending it to the
    rows of I and Der leaves their rank unchanged."""
    ric = ricci_closed_form(*(Fraction(x) for x in (a, b, c, d)))
    ints = linalg.integer_numerators(block_constants(a, b, c, d).c)[0]
    der = linalg.ratios(*linalg.nullspace(derivations._derivation_system(ints)))
    span = np.vstack([der, np.eye(3, dtype=object).reshape(1, 9)])
    rank = len(linalg.row_space_basis(span))
    return len(linalg.row_space_basis(np.vstack([span, ric.reshape(1, 9)]))) == rank
