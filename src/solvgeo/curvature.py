"""Left-invariant curvature from structure constants and a Gram matrix.

Koszul on the canonical basis e1,e2,e3 (Milnor 1976; Besse, *Einstein
Manifolds*, ch. 7), with no orthonormal frame: C = c G, so C_ijm =
<[e_i,e_j], e_m>; 2<nabla_{e_i} e_j, e_m> = C_ijm - C_jmi + C_mij, raised
by G^-1; and Ric(e_j) = sum_ab (G^-1)_ab R(e_j, e_a) e_b, where R(X,Y)Z =
nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import NonSPDMetricError
from .lie_core import StructureConstants


@dataclass(frozen=True)
class MetricData:
    """Structure constants, a validated Gram matrix and an orthonormal frame."""

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
    frame B = ``metric_to_group(gram)``: B^T G B = I, with B upper triangular."""
    return MetricData(sc, np.asarray(gram, dtype=float), metric_to_group(gram))


def metric_to_group(gram: np.ndarray) -> np.ndarray:
    """A group element g with g^-T g^-1 = G, from the Cholesky factor.

    g is upper triangular with positive diagonal; any other solution
    differs by an orthogonal factor on the right.
    """
    return np.linalg.inv(_gram_cholesky(gram).T)


def _gram_cholesky(gram: np.ndarray) -> np.ndarray:
    """Validate a Gram matrix and return its Cholesky factor L.

    The one SPD check of the package: raises NonSPDMetricError unless
    ``gram`` is a finite, symmetric (to ``ZERO_TOL`` times its largest
    entry, at any scale), positive definite 3x3 matrix.  G = L L^T with L
    lower triangular.
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
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NonSPDMetricError("Gram matrix is not positive definite") from None


def ricci_canonical(sc: StructureConstants, gram: np.ndarray) -> np.ndarray:
    """Ricci operator on the canonical basis; raises NonSPDMetricError unless SPD.

    The sums run on the basis P e_i, P = diag(2^e) with P G P's diagonal in
    [1/4, 2): no product underflows on a badly scaled diagonal.  e moves
    uniformly when G is scaled by 2^k, and P and P Ric' P^-1 are exact, so
    t Ric(tG) == Ric(G) bit for bit at t = 2^k.
    """
    _gram_cholesky(gram)
    gram = np.asarray(gram, dtype=float)
    d = [math.frexp(x)[1] for x in gram.diagonal().tolist()]
    e = np.array([(max(d) - x) // 2 - max(d) // 2 for x in d])
    eg = e[:, None] + e
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.ldexp(gram, eg)
        c = np.ldexp(linalg.to_float(sc.c), eg[:, :, None] - e)
        ginv = np.linalg.inv(g)
        cg = c @ g
        gamma = (cg - cg.transpose(2, 0, 1) + cg.transpose(1, 2, 0)) / 2 @ ginv
        # sum_ab (G^-1)_ab [Gamma_ab^l Gamma_jl^m - Gamma_jb^l Gamma_al^m - c_ja^l Gamma_lb^m]
        mix = (ginv @ gamma + c.transpose(0, 2, 1) @ ginv).reshape(3, 9)
        ric = ginv.ravel() @ gamma.reshape(9, 3) @ gamma - mix @ gamma.reshape(9, 3)
        return require_finite(np.ldexp(ric.T, e[:, None] - e))


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
    with np.errstate(over="ignore"):
        finite = np.isfinite(ric).all() and np.isfinite(np.trace(ric))
    if not finite:
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
        (a, b, c, d), q = linalg.integer_numerators(np.array([a, b, c, d], dtype=object))
    skew = b * b - c * c
    off = -2 * (a * c + b * d)
    ric2 = [-(2 * (a * a + d * d) + (b + c) * (b + c)), 0 * a, 0 * a,
            0 * a, -(2 * a * (a + d) + skew), off,
            0 * a, off, -(2 * d * (a + d) - skew)]
    if exact:
        return linalg.ratios(linalg.object_array(ric2, (3, 3)), 2 * q * q)
    return np.array(ric2).reshape(3, 3) / 2
