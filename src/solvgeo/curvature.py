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
    (e1, e2, e3), (u12, u13, u23), dv = _gram_ldl(gram)
    r1, r2, r3 = map(math.sqrt, dv)
    return np.array([_ldexp(1.0 / r1, e1), 0.0, 0.0, _ldexp(-u12 / r1, e2), _ldexp(1.0 / r2, e2),
                     0.0, _ldexp((u12 * u23 - u13) / r1, e3), _ldexp(-u23 / r2, e3),
                     _ldexp(1.0 / r3, e3)]).reshape(3, 3)


def _gram_ldl(gram: np.ndarray) -> tuple:
    """The one factorization and SPD check of a Gram matrix: ``(e, (u12, u13,
    u23), (D1, D2, D3))`` with P G P = U diag(D) U^T from the last row up.

    Raises NonSPDMetricError unless ``gram`` is a finite, symmetric (to
    ``ZERO_TOL`` times its largest entry) 3x3 matrix whose pivots D are all > 0,
    D2 also exactly.  P = diag(2^e) puts P G P's diagonal in [1/4, 2), so no
    product of pivots underflows; under G -> 2^k G, e moves and U and D keep their bits.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (3, 3):
        raise NonSPDMetricError(f"Gram matrix must be 3x3, got shape {gram.shape}")
    flat = gram.ravel().tolist()
    for k, x in enumerate(flat):
        if not math.isfinite(x):
            raise NonSPDMetricError(f"Gram matrix entry ({k // 3 + 1}, {k % 3 + 1}) is not "
                                    f"finite: {x}")
    asym = max(abs(flat[1] - flat[3]), abs(flat[2] - flat[6]), abs(flat[5] - flat[7]))
    if asym and asym > linalg.ZERO_TOL * max(map(abs, flat)):
        raise NonSPDMetricError("Gram matrix is not symmetric")
    n1, n2, n3 = math.frexp(flat[0])[1], math.frexp(flat[4])[1], math.frexp(flat[8])[1]
    m = max(n1, n2, n3)
    e1, e2, e3 = (m - n1) // 2 - m // 2, (m - n2) // 2 - m // 2, (m - n3) // 2 - m // 2
    # the six entries read of P G P, each times 2^(e_i + e_j)
    g11, g12, g13 = _ldexp(flat[0], e1 + e1), _ldexp(flat[1], e1 + e2), _ldexp(flat[2], e1 + e3)
    g22, g23, g33 = _ldexp(flat[4], e2 + e2), _ldexp(flat[5], e2 + e3), _ldexp(flat[8], e3 + e3)
    # every quotient is by a pivot already found > 0
    d3 = _pivot(g33)
    u23, u13 = g23 / d3, g13 / d3
    # and exactly: G's g22 g33 - g23^2 = (p22 p33 q23^2 - p23^2 q22 q33) / (q22 q33 q23^2)
    (p22, q22), (p23, q23), (p33, q33) = map(float.as_integer_ratio, flat[4:6] + flat[8:])
    d2 = _pivot(g22 - u23 * g23 if p22 * p33 * q23 * q23 > p23 * p23 * q22 * q33 else 0.0)
    t = g12 - u13 * g23
    u12 = t / d2
    d1 = _pivot(g11 - u13 * g13 - u12 * t)
    return (e1, e2, e3), (u12, u13, u23), (d1, d2, d3)


def ricci_canonical(sc: StructureConstants, gram: np.ndarray) -> np.ndarray:
    """Ricci operator on the canonical basis, by the module's closed form.

    Raises NonSPDMetricError unless ``gram`` is SPD, then ValueError unless
    ``sc`` has ``derivations.semidirect_block``'s shape.  Every step after
    ``_gram_ldl``'s e is a product, quotient or sum, and P and P Ric' P^-1
    are exact, so t Ric(tG) == Ric(G) bit for bit at t = 2^k.
    """
    return np.array(block_ricci(gram, semidirect_block(sc))[0]).reshape(3, 3)


def block_ricci(gram: np.ndarray, block) -> tuple:
    """``(ricci_canonical, ric_frame)``, each the flat list of its 9 entries, of a tensor
    whose ``semidirect_block`` is ``block`` (None: ValueError, after the Gram check);
    ric_frame = D^1/2 Ric_y D^-1/2 is Ric on ``metric_to_group``'s frame."""
    (e1, e2, e3), (u12, u13, u23), (d1, d2, d3) = _gram_ldl(gram)
    if block is None:
        raise ValueError("structure constants must have the shape [e1,e2] = a e2 + b e3, "
                         "[e1,e3] = c e2 + d e3, [e2,e3] = 0")
    a, b, c, dd = map(float, block)
    a, b, c, dd = _ldexp(a, e1), _ldexp(b, e1 + e2 - e3), _ldexp(c, e1 + e3 - e2), _ldexp(dd, e1)
    # ad(y1) = ad(e1) on span{e2, e3}, here on y2 = e2 - u23 e3 and y3 = e3
    p, q, r, s = block_conjugate((a, b, c, dd), -u23, 1.0)
    x11, x22, x23, x32, x33 = _ricci2(p, s, q * d3, r * d2, d2, d3)
    t = 2 * d1 * d2 * d3
    x11, x22, x23, x32, x33 = x11 / t, x22 / t, x23 / t, x32 / t, x33 / t
    # y Ric_y y^-1 with y = U^-T and y^-1 = U^T
    m21, m22 = x32 - u23 * x22, x33 - u23 * x23
    m20 = (u12 * u23 - u13) * x11 + u12 * m21 + u13 * m22
    # P Ric' P^-1: entry (i, j) times 2^(e_i - e_j), off the diagonal only
    ric = [x11, 0.0, 0.0,
           _ldexp(u12 * (x22 - x11) + u13 * x23, e2 - e1), x22 + u23 * x23, _ldexp(x23, e2 - e3),
           _ldexp(m20, e3 - e1), _ldexp(m21 + u23 * m22, e3 - e2), m22]
    h = x23 * math.sqrt(d2 / d3)  # = x32 sqrt(D3/D2), once for both entries
    return require_finite(ric), [x11, 0.0, 0.0, 0.0, x22, h, 0.0, h, x33]


def _ricci2(p, s, w, v, d2, d3) -> tuple:
    """Entries (1,1), (2,2), (2,3), (3,2), (3,3) of the module's 2 D1 D2 D3 Ric_y."""
    m, plus, pv = d2 * d3, w + v, p * v + s * w
    skew = (w - v) * plus
    return (-(2 * (p * p + s * s) * m + plus * plus), -(2 * p * (p + s) * m + skew),
            -2 * d3 * pv, -2 * d2 * pv, -(2 * s * (p + s) * m - skew))


def soliton_flags(p, q, r, s, d2, d3) -> tuple:
    """``(is_soliton, is_einstein)`` of the metric diag(D1, D2, D3) on a basis y
    with [y1,y2] = p y2 + q y3, [y1,y3] = r y2 + s y3, [y2,y3] = 0, exact on ints.

    Ric lies in RI + Der(mu) exactly when pi(Ric)mu is parallel to mu (Lauret
    2001, 2011); Ric_y is block diagonal, so pi(Ric)mu = [R2, A] - Ric_11 A on
    the block, for A = [[p, r], [q, s]] and R2 Ric_y's lower block, and the
    test is that no 2x2 minor of (vec A, vec [R2, A]) is nonzero.  [R2, A] =
    [[k11, k12], [k21, -k11]] is traceless: off tr A = 0 that is [R2, A] = 0,
    at tr A = 0 (p, r, q) x (k11, k12, k21) = 0.  With w = q D3, v = r D2 and
    pv = p v + s w, k11 = -2 pv (w - v) and Ric_y's (2,3) entry is -2 D3 pv,
    so off tr A = 0, pv != 0 and w != v say neither.  Both tests are
    homogeneous in the block and in (D2, D3), and D1 only scales Ric_y.
    """
    w, v = q * d3, r * d2
    if p + s and w != v and p * v + s * w:
        return False, False
    x11, x22, x23, x32, x33 = _ricci2(p, s, w, v, d2, d3)
    t, u = x22 - x33, s - p
    k11, k12, k21 = x23 * q - r * x32, r * t + x23 * u, -(q * t + x32 * u)
    soliton = (k11 == k12 == k21 == 0 if p + s else
               p * k12 == r * k11 and p * k21 == q * k11 and r * k21 == q * k12)
    return soliton, x11 == x22 == x33 and x23 == x32 == 0


def frame_conditions(a, b, c, d) -> tuple:
    """``(is_soliton, is_einstein, minimal)`` of the orthonormal frame with
    [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3, [x2,x3] = 0: ``soliton_flags``
    at D2 = D3 = 1, and minimality as an equality of polynomials in the block.

    A = [[a, c], [b, d]] scalar or nilpotent: the orbit is transitive, so
    minimal.  Else, of the lifts in ``orbit_geometry.orbit_data``'s
    commutator sum only N / sigma, N = 0 + A0, sigma = |dpi(N)|, has a normal
    part: sigma^-3 <[N, dpi(N)], nu>, nu = 0 + [[m, -h], [-h, -m]] for h =
    (a - d)/2, m = (b + c)/2; at sigma = 0 N is in the stabilizer, and num is 0.
    """
    soliton, einstein = soliton_flags(a, b, c, d, 1, 1)
    if (b == c == 0 and a == d) or (a == -d and a * a + b * c == 0):
        return soliton, einstein, True
    # 2N = [[u, 2c], [2b, -u]], 2 dpi(N) = [[u, w], [w, -u]] and 2 nu sigma = [[w, -u], [-u, -w]]
    # give 2 [N, dpi(N)] = [[k, l], [l, -k]] with k = w (c - b), l = u (b - c), and num =
    # 8 <nu sigma, [N, dpi(N)]> = 4 (k w - l u) = -4 (b - c)(u^2 + w^2)
    u, w = a - d, b + c
    return soliton, einstein, (b - c) * (u * u + w * w) == 0


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
    ric, ric_frame = (np.array(x).reshape(3, 3)
                      for x in block_ricci(m.gram, semidirect_block(m.sc)))
    # + 0.0: a zero entry prints as 0.0, never as the -0.0 a product of zeros can give
    return RicciResult(require_finite(ric_frame + 0.0), ric, float(np.trace(ric)))


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
        (a, b, c, d), q = linalg.numerators([a, b, c, d])
    x11, x22, x23, x32, x33 = _ricci2(a, d, b, c, 1, 1)
    ric2 = [x11, 0 * a, 0 * a, 0 * a, x22, x23, 0 * a, x32, x33]
    if exact:
        return linalg.ratios(linalg.object_array(ric2, (3, 3)), 2 * q * q)
    return np.array(ric2).reshape(3, 3) / 2
