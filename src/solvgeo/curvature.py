"""Left-invariant curvature from structure constants and a Gram matrix.

The metric is determined by its Gram matrix G on the fixed basis e1,e2,e3.
An orthonormal frame is x_i = B e_i with B = L^-T from the Cholesky
factorization G = L L^T; on that frame the Levi-Civita connection has
constant coefficients given by the Koszul formula, and the Ricci operator
follows from finite sums over the frame structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import NonSPDMetricError
from .lie_core import StructureConstants, change_basis


@dataclass(frozen=True)
class MetricData:
    """Structure constants and an orthonormal frame matrix."""

    sc: StructureConstants
    frame: np.ndarray


@dataclass(frozen=True)
class RicciResult:
    """Ricci operator on the orthonormal frame and on the canonical basis."""

    ric_frame: np.ndarray
    ric_canonical: np.ndarray
    scalar: float


def metric_data(sc: StructureConstants, gram: np.ndarray) -> MetricData:
    """Validate a Gram matrix and attach an orthonormal frame.

    Raises NonSPDMetricError unless ``gram`` is symmetric positive
    definite.  The frame satisfies B^T G B = I, with B upper triangular.
    """
    return MetricData(sc=sc, frame=np.linalg.inv(_gram_cholesky(gram)).T)


def _gram_cholesky(gram: np.ndarray) -> np.ndarray:
    """Validate a Gram matrix and return its Cholesky factor L.

    The one SPD check of the package: raises NonSPDMetricError unless
    ``gram`` is a finite, symmetric (to 1e-12 of its largest entry, no
    relative slack), positive definite 3x3 matrix.  G = L L^T with L
    lower triangular.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (3, 3):
        raise NonSPDMetricError(f"Gram matrix must be 3x3, got shape {gram.shape}")
    if not np.isfinite(gram).all():
        i, j = np.argwhere(~np.isfinite(gram))[0]
        raise NonSPDMetricError(f"Gram matrix entry ({i + 1}, {j + 1}) is not finite: "
                                f"{gram[i, j]}")
    if np.abs(gram - gram.T).max() > 1e-12 * max(1.0, np.abs(gram).max()):
        raise NonSPDMetricError("Gram matrix is not symmetric")
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NonSPDMetricError("Gram matrix is not positive definite") from None


def connection_coeffs(c: np.ndarray) -> np.ndarray:
    """Koszul coefficients Gamma[i,j,k] on an orthonormal frame.

    For constant structure constants c on an orthonormal frame the Koszul
    formula collapses to Gamma_ij^k = (c_ij^k + c_ki^j + c_kj^i) / 2, where
    nabla_{x_i} x_j = sum_k Gamma[i,j,k] x_k.
    """
    c = np.asarray(c, dtype=float)
    return (c + np.einsum("kij->ijk", c) + np.einsum("kji->ijk", c)) / 2.0


def ricci_operator(m: MetricData) -> RicciResult:
    """Ricci operator of the left-invariant metric.

    Computed by (i) rewriting the structure constants on the orthonormal
    frame, (ii) forming the connection coefficients, (iii) contracting the
    curvature tensor R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z -
    nabla_[x,y] z over the frame.  ``ric_canonical`` is the same operator
    conjugated back to the canonical basis.
    """
    c = change_basis(m.sc, m.frame).c
    gamma = connection_coeffs(c)
    with np.errstate(over="ignore", invalid="ignore"):
        riem = (np.einsum("jkl,ilm->ijkm", gamma, gamma)
                - np.einsum("ikl,jlm->ijkm", gamma, gamma)
                - np.einsum("ijl,lkm->ijkm", c, gamma))
        ric_frame = require_finite(np.einsum("jiim->mj", riem))
        # frame 2^-e, inv(frame) 2^e: exact, and frame @ ric_frame cannot overflow
        e = np.frexp(np.abs(m.frame).max())[1]
        ric_canonical = require_finite(np.ldexp(m.frame, -e) @ ric_frame
                                       @ np.ldexp(np.linalg.inv(m.frame), e))
    return RicciResult(ric_frame=ric_frame,
                       ric_canonical=ric_canonical,
                       scalar=float(np.trace(ric_frame)))


def require_finite(ric: np.ndarray) -> np.ndarray:
    """Return ``ric``; raises ValueError if an entry overflowed to inf or NaN."""
    if not np.isfinite(ric).all():
        raise ValueError("Ricci operator is not finite: the curvature "
                         "overflows float64 for this metric")
    return ric


def ricci_closed_form(a, b, c, d) -> np.ndarray:
    """Ricci operator for [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3.

    The frame x1, x2, x3 is orthonormal and [x2,x3] = 0; every bracket in
    this package's families takes this shape on its Milnor frame.  Exact
    (an object array of Fractions) when all four inputs are ``int`` or
    ``Fraction``: then it runs on the integer numerators over one common
    denominator q, and each entry is one integer over 2 q^2.
    """
    # a float first argument skips the scan: the float lane runs this per verify row
    if not isinstance(a, float) and all(isinstance(x, (int, Fraction)) for x in (a, b, c, d)):
        return _exact_ricci_closed_form(a, b, c, d)
    half = (b + c) * (b + c) / 2
    skew = (b * b - c * c) / 2
    return np.array([
        [-(a * a + d * d + half), 0 * a, 0 * a],
        [0 * a, -(a * (a + d) + skew), -(a * c + b * d)],
        [0 * a, -(a * c + b * d), -(d * (a + d) - skew)],
    ])


def _exact_ricci_closed_form(a, b, c, d) -> np.ndarray:
    (A, B, C, D), q = linalg.integer_numerators(np.array([a, b, c, d], dtype=object))
    den = 2 * q * q
    skew = B * B - C * C
    off = linalg.ratio(-2 * (A * C + B * D), den)
    zero = linalg.ZERO
    return linalg.object_array([
        linalg.ratio(-(2 * (A * A + D * D) + (B + C) * (B + C)), den), zero, zero,
        zero, linalg.ratio(-(2 * A * (A + D) + skew), den), off,
        zero, off, linalg.ratio(-(2 * D * (A + D) - skew), den),
    ], (3, 3))
