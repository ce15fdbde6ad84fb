"""Solvsoliton certificates.

A left-invariant metric is a solvsoliton exactly when its Ricci operator
splits as c*I + D with D a derivation of the algebra.  The check splits
the Ricci operator orthogonally over an orthonormal frame of span{I} + Der;
the certificate (c, D, residual) is reported whether or not the test passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import require_finite, ricci_canonical, ricci_closed_form
from .derivations import MatrixSubspace, conjugate_subspace, derivation_algebra
from .lie_core import Family, StructureConstants, change_basis, make_family
from .moduli import rep_matrix

# bound on the soliton and Einstein residuals (and on |H| in verify).
# solvsoliton_check reads it at the scale where the Gram matrix's largest
# entry lies in [1, 2); on the Milnor frame of g_lambda it is absolute, not
# relative to |Ric| (ROADMAP items 1 and 7)
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SolitonCertificate:
    """Best decomposition Ric ~ c*I + D with D in the derivation algebra."""

    c: float
    d: np.ndarray
    residual: float


@dataclass(frozen=True)
class SolitonVerdict:
    is_soliton: bool
    is_einstein: bool
    certificate: SolitonCertificate


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _project(ric: np.ndarray, der: MatrixSubspace, tol: float) -> SolitonVerdict:
    """Orthogonal split of a finite ric as c*I + D + rest, D in der: c = <ric, e>/<I, e>
    for e the last row of ``der.scalar_frame`` (c = 0 when I lies in der)."""
    r, eye, frame = ric.ravel(), np.eye(3).ravel(), der.scalar_frame
    c = float(frame[-1] @ r / (frame[-1] @ eye)) if len(frame) > der.dim else 0.0
    rest = r - c * eye
    d = (rest @ der.frame.T) @ der.frame
    # hypot scales by a power of two, so no square overflows or underflows
    residual = math.hypot(*(rest - d).tolist())
    if residual == math.inf:
        raise ValueError("soliton residual is not finite: its norm overflows float64")
    ein_res = math.hypot(*(r - (np.trace(ric) / 3.0) * eye).tolist())
    return SolitonVerdict(is_soliton=residual <= tol,
                          is_einstein=ein_res <= tol,
                          certificate=SolitonCertificate(c, d.reshape(3, 3), residual))


def solvsoliton_check(sc: StructureConstants, gram: np.ndarray,
                      tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test for the metric with Gram matrix ``gram``.

    The Ricci operator on the canonical basis is projected onto
    span{I} + Der(sc); the metric is a solvsoliton when the Frobenius
    residual is at most ``tol``, which must be finite and > 0, at the scale
    2^-e G whose largest entry lies in [1, 2).  The certificate is reported
    at the scale of ``gram``.
    """
    _check_tol(tol)
    ric = ricci_canonical(sc, gram)
    # Ric(2^-e G) = 2^e Ric(G) exactly, so this is the verdict at 2^-e G
    e = math.frexp(np.abs(np.asarray(gram, dtype=float)).max())[1] - 1
    return _project(ric, derivation_algebra(sc), math.ldexp(tol, -e))


def soliton_from_frame(family: Family, lam: float,
                       tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test at the canonical representative g_lambda.

    Works entirely on the Milnor frame: the Ricci operator comes from the
    closed form on the frame brackets, and membership is tested against
    the derivation algebra conjugated by g_lambda.  The verdict is
    ``solvsoliton_check``'s at the representative's Gram matrix; the
    residual is not, as it is the Frobenius norm on the Milnor frame.
    """
    _check_tol(tol)
    sc = make_family(family)
    g = rep_matrix(family, lam)
    # conjugating first names an ill-conditioned g_lambda the conjugating matrix
    der = conjugate_subspace(derivation_algebra(sc), g)
    c = change_basis(sc, g).c
    # as Python floats (a, b, c, d) overflow to inf or NaN without a warning,
    # and require_finite rejects the result
    ric = ricci_closed_form(*c[0, 1:, 1:].ravel().tolist())
    return _project(require_finite(np.asarray(ric, dtype=float)), der, tol)
