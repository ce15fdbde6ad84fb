"""Solvsoliton certificates.

A left-invariant metric is a solvsoliton exactly when its Ricci operator
splits as c*I + D with D a derivation of the algebra.  The check splits
the Ricci operator orthogonally over an orthonormal frame of span{I} + Der;
c, D and the residual are reported whether or not the test passes.  The
verdict at g_lambda is exact; on a Gram matrix it reads the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .curvature import _ricci2, block_ricci, frame_conditions, require_finite
from .derivations import block_der_rows, semidirect_block, semidirect_n
from .lie_core import Family, StructureConstants
from .moduli import family_constants, frame_algebra, rep_entries, rep_matrix

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


def _split(r: list, rows: np.ndarray, dim: int) -> tuple:
    """``(c, D, residual)``: the orthogonal split of a finite ric, the flat list
    ``r``, as c*I + D + rest over the orthonormal flat ``rows`` of S + RI laid
    out as ``MatrixSubspace.scalar_frame``: D in S, the span of the first
    ``dim`` rows, and c = <ric, e>/<I, e> for e the last row (c = 0 when I lies
    in S, and there is no such row).  On ``semidirect_n``'s layout e = E11, so c =
    Ric11, and D = Ric21 E21 + Ric31 E31 + s (E22 + E33) + <rest, N> N, 2s = tr rest."""
    if (n := semidirect_n(rows)) is None:
        c = float(rows[-1] @ r / (rows[-1] @ _EYE)) if len(rows) > dim else 0.0
        rest = np.array(r) - c * _EYE
        d = (rest @ rows[:dim].T) @ rows[:dim]
        left = (rest - d).tolist()
    else:
        c = r[0] + 0.0  # + 0.0: never the -0.0 of a product of zeros, nor in D
        r22, r23, r32, r33 = r[4] - c, r[5], r[7], r[8] - c
        s, w = (r22 + r33) / 2, n[4] * r22 + n[5] * r23 + n[7] * r32 + n[8] * r33
        d = [x + 0.0 for x in (0.0, 0.0, 0.0, r[3], s + w * n[4], w * n[5],
                               r[6], w * n[7], s + w * n[8])]
        left = [r[1], r[2], r22 - d[4], r23 - d[5], r32 - d[7], r33 - d[8]]
    # hypot scales by a power of two, so no square overflows or underflows
    residual = math.hypot(*left)
    if residual == math.inf:
        raise ValueError("soliton residual is not finite: its norm overflows float64")
    return c, np.array(d).reshape(3, 3), residual


def _project(ric: np.ndarray, rows: np.ndarray, dim: int, tol: float) -> SolitonVerdict:
    """``_split`` of ric, a soliton when the residual is at most ``tol`` and
    Einstein when ric is within ``tol`` of its trace part."""
    c, d, residual = _split(ric.ravel().tolist(), rows, dim)
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
    ``rep_entries(family, lam, exact=True)`` (L22 = 1) and A the family's
    exact block (``moduli.family_constants``), each over its common
    denominator and times L22 L33 > 0, a factor that no homogeneous
    condition sees.  A float is read at its dyadic value."""
    l32, l33 = rep_entries(family, lam, exact=True)
    a, b, c, d = family_constants(family)[2]
    (l22, l32, l33), _ = linalg.numerators([1, l32, l33])
    return frame_conditions(l33 * (a * l22 + c * l32),
                            b * l22 * l22 + l32 * l22 * (d - a) - c * l32 * l32,
                            c * l33 * l33, l33 * (d * l22 - c * l32))


def frame_verdict(family: Family, lam) -> tuple:
    """``(SolitonVerdict, minimal)`` at g_lambda, the flags ``frame_flags``'.

    c, D and the residual are Python floats on the Milnor frame: the
    closed-form Ricci operator (``curvature._ricci2``) on its brackets, split
    over the closed-form rows of g_lambda^-1 (RI + Der) g_lambda (``moduli.
    frame_algebra``), with no basis changed and no subspace conjugated.  What
    float64 cannot hold is refused: ``frame_algebra``'s guards, and a Ricci
    operator that overflows.
    """
    (a, b, c, d), rows, dim = frame_algebra(family, rep_matrix(family, lam))
    x11, x22, x23, x32, x33 = _ricci2(a, d, b, c, 1, 1)
    ric = require_finite([x11 / 2, 0.0, 0.0, 0.0, x22 / 2, x23 / 2, 0.0, x32 / 2, x33 / 2])
    c, d, residual = _split(ric, rows, dim)
    is_soliton, is_einstein, minimal = frame_flags(family, lam)
    return SolitonVerdict(is_soliton, is_einstein, c, d, residual), minimal


def soliton_from_frame(family: Family, lam) -> SolitonVerdict:
    """``frame_verdict``'s SolitonVerdict at g_lambda."""
    return frame_verdict(family, lam)[0]
