"""Left-invariant curvature from structure constants and a Gram matrix.

In every algebra here span{e2, e3} is an abelian ideal that contains
[g, g], so on any lower-triangular basis y the brackets read [y1,y2] =
p y2 + q y3, [y1,y3] = r y2 + s y3, [y2,y3] = 0 (Milnor 1976; Besse,
*Einstein Manifolds*, ch. 7).  Factor G = U diag(D) U^T with U unit upper
triangular, from the last row up, and take y = U^-T: the metric on y is
diag(D), and with b^2 = q^2 D3/(D1 D2), c^2 = r^2 D2/(D1 D3) and bc = q r/D1
the Ricci operator on y is

    2 Ric_y = -[[2(p^2 + s^2)/D1 + b^2 + 2bc + c^2, 0, 0],
                [0, 2p(p + s)/D1 + b^2 - c^2, 2(p r/D1 + q s D3/(D1 D2))],
                [0, 2(p r D2/(D1 D3) + q s/D1), 2s(p + s)/D1 - b^2 + c^2]],

rational in (p, q, r, s, D), with no square root; Ric = y Ric_y y^-1 on
the canonical basis.  At D = (1, 1, 1) it is ``ricci_closed_form``.  The
orthonormal frame of G is lower triangular too: ``metric_to_group``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .derivations import semidirect_block
from .errors import NonSPDMetricError
from .lie_core import StructureConstants


@dataclass(frozen=True)
class MetricData:
    """Structure constants, a validated Gram matrix and its lower-triangular
    orthonormal frame ``metric_to_group(gram)``."""

    sc: StructureConstants
    gram: np.ndarray
    frame: np.ndarray


@dataclass(frozen=True)
class RicciResult:
    """Ricci operator on the orthonormal frame and on the canonical basis."""

    ric_frame: np.ndarray
    ric_canonical: np.ndarray
    scalar: float


def metric_data(sc: StructureConstants, gram: np.ndarray) -> MetricData:
    """Validate a Gram matrix (NonSPDMetricError unless SPD) and attach its orthonormal
    frame B = ``metric_to_group(gram)``: B^T G B = I, with B lower triangular."""
    return MetricData(sc, np.asarray(gram, dtype=float), metric_to_group(gram))


def metric_to_group(gram: np.ndarray) -> np.ndarray:
    """A group element g with g^-T g^-1 = G: g = U^-T for G = U U^T, U =
    ``_gram_cholesky(gram)``.

    g is lower triangular with positive diagonal, the one such solution
    (any other differs by an orthogonal factor on the right), so it is its
    own LQ factor and ``moduli.reduce`` runs no QR on it.  The inverse is
    taken entry by entry, so the zeros above the diagonal are exact.
    """
    (u11, u12, u13), (_, u22, u23), (_, _, u33) = _gram_cholesky(gram).tolist()
    g11, g22, g33 = 1.0 / u11, 1.0 / u22, 1.0 / u33
    g21 = -u12 * g11 / u22
    return np.array([[g11, 0.0, 0.0],
                     [g21, g22, 0.0],
                     [-(u13 * g11 + u23 * g21) / u33, -u23 * g22 / u33, g33]])


def _gram_cholesky(gram: np.ndarray) -> np.ndarray:
    """Validate a Gram matrix and return U, upper triangular with positive
    diagonal, with G = U U^T.

    The one SPD check of the package: raises NonSPDMetricError unless
    ``gram`` is a finite, symmetric (to ``ZERO_TOL`` times its largest
    entry, at any scale), positive definite 3x3 matrix.  U is the Cholesky
    factor from the last row up: G[::-1, ::-1] = L L^T and U = L[::-1, ::-1].
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (3, 3):
        raise NonSPDMetricError(f"Gram matrix must be 3x3, got shape {gram.shape}")
    if not np.isfinite(gram).all():
        i, j = np.argwhere(~np.isfinite(gram))[0]
        raise NonSPDMetricError(f"Gram matrix entry ({i + 1}, {j + 1}) is not finite: "
                                f"{gram[i, j]}")
    if np.abs(gram - gram.T).max() > linalg.ZERO_TOL * np.abs(gram).max():
        raise NonSPDMetricError("Gram matrix is not symmetric")
    try:
        return np.linalg.cholesky(gram[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError:
        raise NonSPDMetricError("Gram matrix is not positive definite") from None


def ricci_canonical(sc: StructureConstants, gram: np.ndarray) -> np.ndarray:
    """Ricci operator on the canonical basis, by the module's closed form.

    Raises NonSPDMetricError unless ``gram`` is SPD, and ValueError unless
    ``sc`` has ``derivations.semidirect_block``'s shape.  It runs on the
    basis P e_i, P = diag(2^e) with P G P's diagonal in [1/4, 2), so no
    product underflows on a badly scaled diagonal; there P G P = U diag(D)
    U^T.  e moves uniformly when G is scaled by 2^k, every step after it is
    a product, quotient or sum, and P and P Ric' P^-1 are exact, so
    t Ric(tG) == Ric(G) bit for bit at t = 2^k.
    """
    _gram_cholesky(gram)
    block = semidirect_block(sc)
    if block is None:
        raise ValueError("structure constants must have the shape [e1,e2] = a e2 + b e3, "
                         "[e1,e3] = c e2 + d e3, [e2,e3] = 0")
    rows = np.asarray(gram, dtype=float).tolist()
    d = [math.frexp(rows[i][i])[1] for i in range(3)]
    e = [(max(d) - x) // 2 - max(d) // 2 for x in d]
    (g11, g12, g13), (_, g22, g23), (_, _, d3) = _scaled(rows, e, e)
    a, b, c, dd = map(_ldexp, map(float, block),
                      (e[0], e[0] + e[1] - e[2], e[0] + e[2] - e[1], e[0]))
    # LDL^T from the last row up; every quotient is by one pivot
    u23, u13 = g23 / d3, g13 / d3
    d2 = _pivot(g22 - u23 * g23)
    t = g12 - u13 * g23
    u12 = t / d2
    d1 = _pivot(g11 - u13 * g13 - u12 * t)
    # ad(y1) = ad(e1) on span{e2, e3}, here on y2 = e2 - u23 e3 and y3 = e3;
    # bb and cc are D1 b^2 and D1 c^2
    p, q, r, s = a - c * u23, b - (dd - a) * u23 - c * u23 * u23, c, dd + c * u23
    k, k_inv = d3 / d2, d2 / d3
    bb, cc = q * q * k, r * r * k_inv
    x11 = -(p * p + s * s + (bb + 2 * q * r + cc) / 2) / d1
    x22 = -(p * (p + s) + (bb - cc) / 2) / d1
    x33 = -(s * (p + s) - (bb - cc) / 2) / d1
    x23 = -(p * r + q * s * k) / d1
    x32 = -(p * r * k_inv + q * s) / d1
    # y Ric_y y^-1 with y = U^-T and y^-1 = U^T
    m21, m22 = x32 - u23 * x22, x33 - u23 * x23
    m20 = (u12 * u23 - u13) * x11 + u12 * m21 + u13 * m22
    ric = [[x11, 0.0, 0.0],
           [u12 * (x22 - x11) + u13 * x23, x22 + u23 * x23, x23],
           [m20, m21 + u23 * m22, m22]]
    return require_finite(np.array(_scaled(ric, e, [-x for x in e])))


def _scaled(rows: list, e: list, f: list) -> list:
    """The nested list ``rows`` with entry (i, j) times 2^(e_i + f_j)."""
    return [[_ldexp(x, e[i] + f[j]) for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _ldexp(x: float, n: int) -> float:
    """``math.ldexp(x, n)``, an overflow giving inf of x's sign, as ``np.ldexp`` does."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _pivot(x: float) -> float:
    """``x``; NonSPDMetricError unless it is > 0, as rounding can leave a
    pivot of a nearly singular G that Cholesky accepted."""
    if not x > 0:
        raise NonSPDMetricError("Gram matrix is not positive definite")
    return x


def ricci_operator(m: MetricData) -> RicciResult:
    """``ricci_canonical`` of the metric, and on its orthonormal frame
    ``ric_frame`` = frame^-1 ric_canonical frame."""
    ric_canonical = ricci_canonical(m.sc, m.gram)
    # frame 2^-e, inv(frame) 2^e: exact, and ric_canonical @ frame cannot overflow
    e = np.frexp(np.abs(m.frame).max())[1]
    with np.errstate(over="ignore", invalid="ignore"):
        ric_frame = require_finite(np.ldexp(np.linalg.inv(m.frame), e)
                                   @ (ric_canonical @ np.ldexp(m.frame, -e)))
    return RicciResult(ric_frame, ric_canonical, float(np.trace(ric_canonical)))


def require_finite(ric: np.ndarray) -> np.ndarray:
    """Return ``ric``; raises ValueError if an entry or the trace is inf or NaN."""
    flat = ric.ravel().tolist()
    # a sum of Python floats overflows to inf without a warning
    if not (all(map(math.isfinite, flat)) and math.isfinite(sum(flat[::len(ric) + 1]))):
        raise ValueError("Ricci operator is not finite: the curvature "
                         "overflows float64 for this metric")
    return ric


def ricci_closed_form(a, b, c, d) -> np.ndarray:
    """Ricci operator for [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3.

    The frame x1, x2, x3 is orthonormal and [x2,x3] = 0; every bracket in
    this package's families takes this shape on its Milnor frame.  One
    integer-coefficient formula gives 2 Ric.  On float input it runs on the
    floats and each entry is halved.  When all four inputs are ``int`` or
    ``Fraction`` it runs on their integer numerators over one common
    denominator q, and each entry is one Fraction over 2 q^2.
    """
    # a float first argument skips the scan: the float lane runs this per verify row
    exact = not isinstance(a, float) and all(isinstance(x, (int, Fraction)) for x in (a, b, c, d))
    if exact:
        (a, b, c, d), q = linalg.integer_numerators(linalg.object_array([a, b, c, d], (4,)))
    skew = b * b - c * c
    off = -2 * (a * c + b * d)
    ric2 = [-(2 * (a * a + d * d) + (b + c) * (b + c)), 0 * a, 0 * a,
            0 * a, -(2 * a * (a + d) + skew), off,
            0 * a, off, -(2 * d * (a + d) - skew)]
    if exact:
        return linalg.ratios(linalg.object_array(ric2, (3, 3)), 2 * q * q)
    return np.array(ric2).reshape(3, 3) / 2
