"""Left-invariant curvature from structure constants and a Gram matrix.

In every algebra here span{e2, e3} is an abelian ideal that contains
[g, g], so on any lower-triangular basis y the brackets read [y1,y2] =
p y2 + q y3, [y1,y3] = r y2 + s y3, [y2,y3] = 0 (Milnor 1976; Besse,
*Einstein Manifolds*, ch. 7).  ``_gram_ldl`` is the one factorization of
G and its one SPD check: P G P = U diag(D) U^T, with P = diag(2^e) and U
unit upper triangular, from the last row up.  Take y = U^-T on the basis
P e_i: the metric on y is diag(D), and with w = q D3 and v = r D2 the
Ricci operator on y is

    2 D1 D2 D3 Ric_y = -[[2(p^2 + s^2) D2 D3 + (w + v)^2, 0, 0],
                         [0, 2p(p + s) D2 D3 + (w - v)(w + v), 2 D3 (p v + s w)],
                         [0, 2 D2 (p v + s w), 2s(p + s) D2 D3 - (w - v)(w + v)]],

with integer coefficients and no division or square root (``_ricci2``);
``block_ricci`` reads it at the pivots D and ``ricci_closed_form`` at
D = (1, 1, 1).  Ric = P y Ric_y y^-1 P^-1 on the canonical basis; the
orthonormal frame of G is g = P y D^-1/2 (``metric_to_group``), lower
triangular, and Ric on it is D^1/2 Ric_y D^-1/2, symmetric by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .derivations import block_conjugate, semidirect_block
from .errors import NonSPDMetricError
from .lie_core import StructureConstants


@dataclass(frozen=True)
class MetricData:
    """Structure constants and a Gram matrix; ``ricci_operator`` factors it
    with ``_gram_ldl``, which refuses one that is not SPD."""

    sc: StructureConstants
    gram: np.ndarray


@dataclass(frozen=True)
class RicciResult:
    """Ricci operator on the orthonormal frame and on the canonical basis."""

    ric_frame: np.ndarray
    ric_canonical: np.ndarray
    scalar: float


def metric_data(sc: StructureConstants, gram: np.ndarray) -> MetricData:
    """``sc`` and ``gram``, once ``_gram_ldl`` has accepted the Gram matrix."""
    _gram_ldl(gram)
    return MetricData(sc, np.asarray(gram, dtype=float))


def metric_to_group(gram: np.ndarray) -> np.ndarray:
    """A group element g with g^-T g^-1 = G: g = P y D^-1/2, y = U^-T, from
    ``_gram_ldl(gram)`` entry by entry.  It is lower triangular with
    positive diagonal, the one such solution (any other differs by an
    orthogonal factor on the right), so it is its own LQ factor and
    ``moduli.reduce`` runs no QR on it.  Its zeros above the diagonal are
    exact, and g(4^k G) = 2^-k g(G) bit for bit.
    """
    e, (u12, u13, u23), dv, _ = _gram_ldl(gram)
    y = [[1.0], [-u12, 1.0], [u12 * u23 - u13, -u23, 1.0]]
    return np.array([[_ldexp(x / math.sqrt(dv[j]), e[i]) for j, x in enumerate(row)]
                     + [0.0] * (2 - i) for i, row in enumerate(y)])


def _gram_ldl(gram: np.ndarray) -> tuple:
    """The one factorization and SPD check of a Gram matrix: ``(e, (u12, u13,
    u23), (D1, D2, D3), max|G_ij|)`` with P G P = U diag(D) U^T from the last row up.

    Raises NonSPDMetricError unless ``gram`` is a finite, symmetric (to
    ``ZERO_TOL`` times its largest entry) 3x3 matrix whose pivots D are all
    > 0.  P = diag(2^e) puts P G P's diagonal in [1/4, 2), so no product of
    pivots underflows; under G -> 2^k G, e moves and U and D keep their bits.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (3, 3):
        raise NonSPDMetricError(f"Gram matrix must be 3x3, got shape {gram.shape}")
    rows = gram.tolist()
    flat = rows[0] + rows[1] + rows[2]
    for k, x in enumerate(flat):
        if not math.isfinite(x):
            raise NonSPDMetricError(f"Gram matrix entry ({k // 3 + 1}, {k % 3 + 1}) is not "
                                    f"finite: {x}")
    top = max(map(abs, flat))
    if max(abs(flat[1] - flat[3]), abs(flat[2] - flat[6]),
           abs(flat[5] - flat[7])) > linalg.ZERO_TOL * top:
        raise NonSPDMetricError("Gram matrix is not symmetric")
    d = [math.frexp(rows[i][i])[1] for i in range(3)]
    e = [(max(d) - x) // 2 - max(d) // 2 for x in d]
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = _scaled(rows, e, e)
    # every quotient is by a pivot already found > 0
    d3 = _pivot(g33)
    u23, u13 = g23 / d3, g13 / d3
    d2 = _pivot(g22 - u23 * g23)
    t = g12 - u13 * g23
    u12 = t / d2
    d1 = _pivot(g11 - u13 * g13 - u12 * t)
    return e, (u12, u13, u23), (d1, d2, d3), top


def ricci_canonical(sc: StructureConstants, gram: np.ndarray) -> np.ndarray:
    """Ricci operator on the canonical basis, by the module's closed form.

    Raises NonSPDMetricError unless ``gram`` is SPD, then ValueError unless
    ``sc`` has ``derivations.semidirect_block``'s shape.  Every step after
    ``_gram_ldl``'s e is a product, quotient or sum, and P and P Ric' P^-1
    are exact, so t Ric(tG) == Ric(G) bit for bit at t = 2^k.
    """
    return block_ricci(gram, semidirect_block(sc))[0]


def block_ricci(gram: np.ndarray, block) -> tuple:
    """``(ricci_canonical, ric_frame, max|G_ij|)`` of a tensor whose
    ``semidirect_block`` is ``block`` (None: ValueError, after the Gram
    check), ric_frame = D^1/2 Ric_y D^-1/2 as lists: Ric on ``metric_to_group``'s frame."""
    e, (u12, u13, u23), (d1, d2, d3), top = _gram_ldl(gram)
    if block is None:
        raise ValueError("structure constants must have the shape [e1,e2] = a e2 + b e3, "
                         "[e1,e3] = c e2 + d e3, [e2,e3] = 0")
    a, b, c, dd = map(_ldexp, map(float, block),
                      (e[0], e[0] + e[1] - e[2], e[0] + e[2] - e[1], e[0]))
    # ad(y1) = ad(e1) on span{e2, e3}, here on y2 = e2 - u23 e3 and y3 = e3
    p, q, r, s = block_conjugate((a, b, c, dd), -u23, 1.0)
    x11, x22, x23, x32, x33 = _ricci2(p, s, q * d3, r * d2, d2, d3)
    t = 2 * d1 * d2 * d3
    x11, x22, x23, x32, x33 = x11 / t, x22 / t, x23 / t, x32 / t, x33 / t
    # y Ric_y y^-1 with y = U^-T and y^-1 = U^T
    m21, m22 = x32 - u23 * x22, x33 - u23 * x23
    m20 = (u12 * u23 - u13) * x11 + u12 * m21 + u13 * m22
    ric = [[x11, 0.0, 0.0],
           [u12 * (x22 - x11) + u13 * x23, x22 + u23 * x23, x23],
           [m20, m21 + u23 * m22, m22]]
    h = x23 * math.sqrt(d2 / d3)  # = x32 sqrt(D3/D2), once for both entries
    return (require_finite(np.array(_scaled(ric, e, [-x for x in e]))),
            [[x11, 0.0, 0.0], [0.0, x22, h], [0.0, h, x33]], top)


def _ricci2(p, s, w, v, d2, d3) -> tuple:
    """Entries (1,1), (2,2), (2,3), (3,2), (3,3) of the module's 2 D1 D2 D3 Ric_y."""
    m, plus, pv = d2 * d3, w + v, p * v + s * w
    skew = (w - v) * plus
    return (-(2 * (p * p + s * s) * m + plus * plus), -(2 * p * (p + s) * m + skew),
            -2 * d3 * pv, -2 * d2 * pv, -(2 * s * (p + s) * m - skew))


def frame_conditions(a, b, c, d) -> tuple:
    """``(is_soliton, is_einstein, minimal)`` of the orthonormal frame with
    [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3, [x2,x3] = 0: equalities of
    polynomials in the block, exact on ints (Lauret 2011).

    A = [[a, c], [b, d]] scalar or nilpotent: the orbit is transitive.  Else
    Der = span{E21, E31, 0 + I, 0 + A}, and Ric lies in RI + Der exactly when
    the traceless parts r of its lower block and n of A are parallel: S =
    sum_{i<j} (r_i n_j - r_j n_i)^2 = 0.  Of the lifts in ``orbit_geometry.
    orbit_data``'s commutator sum only N / sigma, N = 0 + A0, sigma = |dpi(N)|,
    has a normal part: sigma^-3 <[N, dpi(N)], nu>, nu = 0 + [[m, -h], [-h, -m]]
    for h = (a - d)/2, m = (b + c)/2; at sigma = 0 N is in the stabilizer.
    """
    x11, x22, x23, x32, x33 = _ricci2(a, d, b, c, 1, 1)  # 2 Ric
    einstein = x11 == x22 == x33 and x23 == 0
    if (b == c == 0 and a == d) or (a == -d and a * a + b * c == 0):
        return True, einstein, True
    t = x22 - x33
    r1, r2, r3, r4 = t, 2 * x23, 2 * x32, -t
    n1, n2, n3, n4 = a - d, 2 * c, 2 * b, d - a
    s = ((r1 * n2 - r2 * n1) ** 2 + (r1 * n3 - r3 * n1) ** 2 + (r1 * n4 - r4 * n1) ** 2
         + (r2 * n3 - r3 * n2) ** 2 + (r2 * n4 - r4 * n2) ** 2 + (r3 * n4 - r4 * n3) ** 2)
    # 2N = [[u, 2c], [2b, -u]], 2 dpi(N) = [[u, w], [w, -u]] and 2 nu sigma = [[w, -u], [-u, -w]]
    u, w = a - d, b + c
    k11 = (u * u + 2 * c * w) - (u * u + w * 2 * b)
    k12 = (u * w - 2 * c * u) - (u * 2 * c - w * u)
    k21 = (2 * b * u - u * w) - (w * u - u * 2 * b)
    k22 = (2 * b * w + u * u) - (w * 2 * c + u * u)
    num = k11 * w - k12 * u - k21 * u - k22 * w
    return s == 0, einstein, (u == 0 and w == 0) or num == 0


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
    """``x``; NonSPDMetricError unless x > 0, the one test of definiteness."""
    if not x > 0:
        raise NonSPDMetricError("Gram matrix is not positive definite")
    return x


def ricci_operator(m: MetricData) -> RicciResult:
    """``ricci_canonical`` of the metric, and on its orthonormal frame g =
    ``metric_to_group(gram)`` = P y D^-1/2 the block-diagonal ``ric_frame`` =
    g^-1 Ric g = D^1/2 Ric_y D^-1/2, from five closed-form entries."""
    ric, ric_frame, _ = block_ricci(m.gram, semidirect_block(m.sc))
    # + 0.0: a zero entry prints as 0.0, never as the -0.0 a product of zeros can give
    return RicciResult(require_finite(np.array(ric_frame) + 0.0), ric, float(np.trace(ric)))


def require_finite(ric):
    """Return ``ric``, a 3x3 array or the list of its 9 entries; raises
    ValueError if an entry or the trace is inf or NaN."""
    flat = ric if isinstance(ric, list) else ric.ravel().tolist()
    # a sum of Python floats overflows to inf without a warning
    if not (all(map(math.isfinite, flat)) and math.isfinite(sum(flat[::4]))):
        raise ValueError("Ricci operator is not finite: the curvature "
                         "overflows float64 for this metric")
    return ric


def ricci_closed_form(a, b, c, d) -> np.ndarray:
    """Ricci operator for [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3.

    The frame x1, x2, x3 is orthonormal and [x2,x3] = 0; every bracket in
    this package's families takes this shape on its Milnor frame.  The
    module's formula at D = (1, 1, 1) gives 2 Ric.  On float input it runs on the
    floats and each entry is halved.  When all four inputs are ``int`` or
    ``Fraction`` it runs on their integer numerators over one common
    denominator q, and each entry is one Fraction over 2 q^2.
    """
    exact = all(isinstance(x, (int, Fraction)) for x in (a, b, c, d))
    if exact:
        (a, b, c, d), q = linalg.integer_numerators(linalg.object_array([a, b, c, d], (4,)))
    x11, x22, x23, x32, x33 = _ricci2(a, d, b, c, 1, 1)
    ric2 = [x11, 0 * a, 0 * a, 0 * a, x22, x23, 0 * a, x32, x33]
    if exact:
        return linalg.ratios(linalg.object_array(ric2, (3, 3)), 2 * q * q)
    return np.array(ric2).reshape(3, 3) / 2
