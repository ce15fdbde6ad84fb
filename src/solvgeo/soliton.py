"""Solvsoliton certificates.

A left-invariant metric is a solvsoliton exactly when its Ricci operator
splits as c*I + D with D a derivation of the algebra.  Both verdicts,
on a Gram matrix and at g_lambda, are ``curvature.soliton_flags`` on an
integer bracket block; c, D and the residual are the orthogonal split of
the Ricci operator over an orthonormal frame of span{I} + Der, reported
whether or not the test passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .curvature import _ricci2, block_ricci, frame_conditions, require_finite, soliton_flags
from .derivations import block_der_rows, semidirect_block
from .lie_core import Family, StructureConstants
from .moduli import family_constants, frame_algebra, rep_entries, rep_matrix

_EYE = np.eye(3).ravel()
_EYE.setflags(write=False)


@dataclass(frozen=True, slots=True)
class SolitonVerdict:
    """The verdict and the best split Ric ~ c*I + D, D in the derivation
    algebra, with the Frobenius norm of what is left."""

    is_soliton: bool
    is_einstein: bool
    c: float
    d: np.ndarray
    residual: float


def _split(r: list, rows, dim: int) -> tuple:
    """``(c, D, residual)``: the orthogonal split of a finite ric, the flat list
    ``r``, as c*I + D + rest over the orthonormal flat ``rows`` of S + RI laid
    out as ``MatrixSubspace.scalar_frame``: D in S, the span of the first
    ``dim`` rows, and c = <ric, e>/<I, e> for e the last row (c = 0 when I lies
    in S).  A tuple is N, for ``derivations.semidirect_frame(N)``: e = E11, c =
    Ric11, and D = Ric21 E21 + Ric31 E31 + s (E22 + E33) + <rest, N> N, 2s = tr rest."""
    if isinstance(rows, tuple):
        *_, n22, n23, _, n32, n33 = rows
        c = r[0] + 0.0  # + 0.0: never the -0.0 of a product of zeros, nor in D
        r22, r23, r32, r33 = r[4] - c, r[5], r[7], r[8] - c
        s, w = (r22 + r33) / 2, n22 * r22 + n23 * r23 + n32 * r32 + n33 * r33
        d = [x + 0.0 for x in (0, 0, 0, r[3], s + w * n22, w * n23, r[6], w * n32, s + w * n33)]
        left = [r[1], r[2], r22 - d[4], r23 - d[5], r32 - d[7], r33 - d[8]]
    else:
        c = float(rows[-1] @ r / (rows[-1] @ _EYE)) if len(rows) > dim else 0.0
        rest = np.array(r) - c * _EYE
        d = (rest @ rows[:dim].T) @ rows[:dim]
        left = (rest - d).tolist()
    # hypot scales by a power of two, so no square overflows or underflows
    residual = math.hypot(*left)
    if residual == math.inf:
        raise ValueError("soliton residual is not finite: its norm overflows float64")
    return c, np.array(d).reshape(3, 3), residual


def solvsoliton_check(sc: StructureConstants, gram: np.ndarray) -> SolitonVerdict:
    """Solvsoliton test for the metric with Gram matrix ``gram``.

    The flags are ``curvature.soliton_flags`` on ``_gram_ldl``'s frame y, in
    Python ints: the block's entries and G's lower block (g22, g23, g33)
    over one common denominator give ``_conjugated`` with (L22, L32, L33) =
    (g33, -g23, g33) and (D2, D3) = (g22 g33 - g23^2, g33^2), positive
    multiples of the block and pivots on y, whose exact sign ``_gram_ldl``
    checks.  c, D and the residual are Ric on the canonical
    basis split over span{I} + Der(sc), with ``derivations.block_der_rows``
    as its rows (in closed form for r3, r3_a at a != 1 and r3p_a, with no
    kernel solved).
    """
    block = semidirect_block(sc)
    ric = block_ricci(gram, block)[0]
    (g22, g23), (_, g33) = np.asarray(gram, dtype=float)[1:, 1:].tolist()
    (*a, g22, g23, g33), _ = linalg.numerators([*block, g22, g23, g33])
    flags = soliton_flags(*_conjugated(a, g33, -g23, g33), g22 * g33 - g23 * g23, g33 * g33)
    return SolitonVerdict(*flags, *_split(ric, *block_der_rows(sc, block)))


def _conjugated(block, l22, l32, l33) -> tuple:
    """h^-1 A h times L22 L33, for A = [[a, c], [b, d]] given as ``block`` =
    (a, b, c, d) and h = [[1, 0], [L32, L33]] / L22: ``derivations.
    block_conjugate``, in Python ints on ints."""
    a, b, c, d = block
    return (l33 * (a * l22 + c * l32), b * l22 * l22 + l32 * l22 * (d - a) - c * l32 * l32,
            c * l33 * l33, l33 * (d * l22 - c * l32))


def frame_flags(family: Family, lam) -> tuple:
    """``(is_soliton, is_einstein, minimal)`` at g_lambda: ``curvature.
    frame_conditions`` on the Milnor frame's block h^-1 A h (``derivations.
    block_conjugate``) in Python ints, h = [[1, 0], [L32, L33]] / L22 from
    ``rep_entries(family, lam, exact=True)``'s ints and A the family's exact
    block's numerators (``moduli.family_constants``), times L22 L33 > 0 and a
    positive common factor, which no homogeneous condition sees.  A float is
    read at its dyadic value."""
    return frame_conditions(*_conjugated(family_constants(family)[2],
                                         *rep_entries(family, lam, exact=True)))


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
