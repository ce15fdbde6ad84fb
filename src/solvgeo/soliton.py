"""Solvsoliton certificates.

A left-invariant metric is a solvsoliton exactly when its Ricci operator
splits as c*I + D with D a derivation of the algebra.  The check splits
the Ricci operator orthogonally over an orthonormal frame of span{I} + Der;
c, D and the residual are reported whether or not the test passes.  The
verdict at g_lambda is exact; on a Gram matrix it reads the residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .curvature import block_ricci, frame_conditions, require_finite, ricci_closed_form
from .derivations import MEMO_SIZE, block_der_rows, semidirect_block
from .lie_core import Family, StructureConstants, make_family
from .moduli import frame_algebra, rep_matrix

# bound on the Gram path's soliton and Einstein residuals, read at the scale
# where the Gram matrix's largest entry lies in [1, 2); the g_lambda verdict
# takes none (ROADMAP item 19 takes it off the Gram path too)
DEFAULT_TOL = 1e-8
_EYE = np.eye(3).ravel()
_EYE.setflags(write=False)


@dataclass(frozen=True)
class SolitonVerdict:
    """The verdict and the best split Ric ~ c*I + D, D in the derivation
    algebra, with the Frobenius norm of what is left."""

    is_soliton: bool
    is_einstein: bool
    c: float
    d: np.ndarray
    residual: float


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _split(ric: np.ndarray, rows: np.ndarray, dim: int) -> tuple:
    """``(c, D, residual)``: the orthogonal split of a finite ric as c*I + D +
    rest over the orthonormal flat ``rows`` of S + RI laid out as
    ``MatrixSubspace.scalar_frame``: D in the span of the first ``dim`` rows,
    S, and c = <ric, e>/<I, e> for e the last row (c = 0 when I lies in S,
    and there is no such row)."""
    r = ric.ravel()
    c = float(rows[-1] @ r / (rows[-1] @ _EYE)) if len(rows) > dim else 0.0
    rest = r - c * _EYE
    d = (rest @ rows[:dim].T) @ rows[:dim]
    # hypot scales by a power of two, so no square overflows or underflows
    residual = math.hypot(*(rest - d).tolist())
    if residual == math.inf:
        raise ValueError("soliton residual is not finite: its norm overflows float64")
    return c, d.reshape(3, 3), residual


def _project(ric: np.ndarray, rows: np.ndarray, dim: int, tol: float) -> SolitonVerdict:
    """``_split`` of ric, a soliton when the residual is at most ``tol`` and
    Einstein when ric is within ``tol`` of its trace part."""
    c, d, residual = _split(ric, rows, dim)
    r = ric.ravel()
    ein_res = math.hypot(*(r - ((r.item(0) + r.item(4) + r.item(8)) / 3.0) * _EYE).tolist())
    return SolitonVerdict(is_soliton=residual <= tol, is_einstein=ein_res <= tol,
                          c=c, d=d, residual=residual)


def solvsoliton_check(sc: StructureConstants, gram: np.ndarray,
                      tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test for the metric with Gram matrix ``gram``.

    The Ricci operator on the canonical basis is projected onto
    span{I} + Der(sc), with ``derivations.block_der_rows`` as its rows (in
    closed form for r3, r3_a at a != 1 and r3p_a, with no kernel solved);
    the metric is a solvsoliton when the Frobenius residual is at most
    ``tol``, which must be finite and > 0, at the scale 2^-e G whose
    largest entry lies in [1, 2).  c, D and the residual are reported at
    the scale of ``gram``.
    """
    _check_tol(tol)
    block = semidirect_block(sc)
    ric, _, top = block_ricci(gram, block)
    # Ric(2^-e G) = 2^e Ric(G) exactly, so this is the verdict at 2^-e G
    e = math.frexp(top)[1] - 1
    rows, dim = block_der_rows(sc, block)
    return _project(ric, rows, dim, math.ldexp(tol, -e))


def frame_flags(family: Family, lam) -> tuple:
    """``(is_soliton, is_einstein, minimal)`` at g_lambda: ``curvature.
    frame_conditions`` on the Milnor frame's block h^-1 A h (``derivations.
    block_conjugate``) in Python ints, h = [[1, 0], [L32, L33]] / L22 from
    ``rep_matrix(family, lam, exact=True)`` and A the family's exact block,
    each over its common denominator and times L22 L33 > 0, a factor that no
    homogeneous condition sees.  A float is read at its dyadic value."""
    g = rep_matrix(family, lam, exact=True).tolist()
    a, b, c, d = _family_block(family)
    (l22, l32, l33), _ = linalg.numerators([g[1][1], g[2][1], g[2][2]])
    return frame_conditions(l33 * (a * l22 + c * l32),
                            b * l22 * l22 + l32 * l22 * (d - a) - c * l32 * l32,
                            c * l33 * l33, l33 * (d * l22 - c * l32))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _family_block(family: Family) -> tuple:
    """The integer numerators of [e1,e2] = a e2 + b e3, [e1,e3] = c e2 + d e3
    in the family's exact constants, kept per family."""
    block = make_family(family, exact=True).c[0, 1:, 1:].ravel().tolist()
    return tuple(linalg.numerators(block)[0])


def frame_verdict(family: Family, lam) -> tuple:
    """``(SolitonVerdict, minimal)`` at g_lambda, the flags ``frame_flags``'.

    c, D and the residual are floats on the Milnor frame: the closed-form
    Ricci operator on its brackets, split over the closed-form rows of
    g_lambda^-1 (RI + Der) g_lambda (``moduli.frame_algebra``), with no basis
    changed and no subspace conjugated.  What float64 cannot hold is refused:
    ``frame_algebra``'s guards, and a Ricci operator that overflows.
    """
    brackets, rows, dim = frame_algebra(family, rep_matrix(family, lam))
    # as Python floats the brackets overflow to inf or NaN without a warning,
    # and require_finite rejects the result
    c, d, residual = _split(require_finite(ricci_closed_form(*brackets)), rows, dim)
    is_soliton, is_einstein, minimal = frame_flags(family, lam)
    return SolitonVerdict(is_soliton, is_einstein, c, d, residual), minimal


def soliton_from_frame(family: Family, lam) -> SolitonVerdict:
    """``frame_verdict``'s SolitonVerdict at g_lambda."""
    return frame_verdict(family, lam)[0]
