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

from . import linalg
from .curvature import block_ricci, require_finite, ricci_closed_form
from .derivations import block_der_rows, semidirect_block
from .lie_core import Family, StructureConstants
from .moduli import frame_algebra, rep_matrix

# bound on the soliton and Einstein residuals (and on |H| in verify).
# solvsoliton_check reads it at the scale where the Gram matrix's largest
# entry lies in [1, 2); on the Milnor frame of g_lambda it is absolute, not
# relative to |Ric| (ROADMAP items 1 and 7)
DEFAULT_TOL = 1e-8
_EYE = np.eye(3).ravel()
_EYE.setflags(write=False)


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


def _project(ric: np.ndarray, rows: np.ndarray, dim: int, tol: float) -> SolitonVerdict:
    """Orthogonal split of a finite ric as c*I + D + rest over the orthonormal
    flat ``rows`` of S + RI laid out as ``MatrixSubspace.scalar_frame``: D in
    the span of the first ``dim`` rows, S, and c = <ric, e>/<I, e> for e the
    last row (c = 0 when I lies in S, and there is no such row)."""
    r = ric.ravel()
    c = float(rows[-1] @ r / (rows[-1] @ _EYE)) if len(rows) > dim else 0.0
    rest = r - c * _EYE
    d = (rest @ rows[:dim].T) @ rows[:dim]
    # hypot scales by a power of two, so no square overflows or underflows
    residual = math.hypot(*(rest - d).tolist())
    if residual == math.inf:
        raise ValueError("soliton residual is not finite: its norm overflows float64")
    ein_res = math.hypot(*(r - ((r.item(0) + r.item(4) + r.item(8)) / 3.0) * _EYE).tolist())
    return SolitonVerdict(is_soliton=residual <= tol,
                          is_einstein=ein_res <= tol,
                          certificate=SolitonCertificate(c, d.reshape(3, 3), residual))


def solvsoliton_check(sc: StructureConstants, gram: np.ndarray,
                      tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test for the metric with Gram matrix ``gram``.

    The Ricci operator on the canonical basis is projected onto
    span{I} + Der(sc), with ``derivations.block_der_rows`` as its rows (in
    closed form for r3, r3_a at a != 1 and r3p_a, with no kernel solved);
    the metric is a solvsoliton when the Frobenius residual is at most
    ``tol``, which must be finite and > 0, at the scale 2^-e G whose
    largest entry lies in [1, 2).  The certificate is reported at the
    scale of ``gram``.
    """
    _check_tol(tol)
    block = semidirect_block(sc)
    ric, _, top = block_ricci(gram, block)
    # Ric(2^-e G) = 2^e Ric(G) exactly, so this is the verdict at 2^-e G
    e = math.frexp(top)[1] - 1
    rows, dim = block_der_rows(sc, block)
    return _project(ric, rows, dim, math.ldexp(tol, -e))


def soliton_from_frame(family: Family, lam: float,
                       tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test at the canonical representative g_lambda.

    Works entirely on the Milnor frame: the Ricci operator is the closed
    form on the frame brackets, split over the closed-form rows of
    g_lambda^-1 (RI + Der) g_lambda (``moduli.frame_algebra``); no basis is
    changed and no subspace is conjugated.  The verdict is
    ``solvsoliton_check``'s at the representative's Gram matrix; the
    residual is not, as it is the Frobenius norm on the Milnor frame.
    g_lambda must pass ``linalg.check_conditioned``: with ``tol`` absolute,
    that refusal keeps extreme lambdas unread (ROADMAP items 1 and 7).
    """
    _check_tol(tol)
    g = rep_matrix(family, lam)
    linalg.check_conditioned(g, "conjugating matrix")
    brackets, rows, dim = frame_algebra(family, g)
    # as Python floats the brackets overflow to inf or NaN without a warning,
    # and require_finite rejects the result
    return _project(require_finite(ricci_closed_form(*brackets)), rows, dim, tol)
