"""Solvsoliton certificates.

A left-invariant metric is a solvsoliton exactly when its Ricci operator
splits as c*I + D with D a derivation of the algebra.  The check is a
least-squares projection of the Ricci operator onto span{I} + Der; the
certificate (c, D, residual) is reported whether or not the test passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import metric_data, require_finite, ricci_closed_form, ricci_operator
from .derivations import MatrixSubspace, derivation_algebra, conjugate_subspace
from .lie_core import Family, StructureConstants, change_basis, make_family
from .moduli import rep_matrix

DEFAULT_TOL = 1e-8
# the squares of a vector with a larger entry may overflow float64
_SCALE_ABOVE = 1e150


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


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)``, taken of v / max|v| when its squares may overflow."""
    big = float(np.abs(v).max())
    if big <= _SCALE_ABOVE:
        return float(np.linalg.norm(v))
    return big * float(np.linalg.norm(v / big))


def _project(ric: np.ndarray, der: MatrixSubspace, tol: float) -> SolitonVerdict:
    """Least-squares split of ric over [I | derivation basis]."""
    require_finite(ric)
    a = np.concatenate([np.eye(3).reshape(1, 9), der.stacked()]).T
    coeffs, *_ = np.linalg.lstsq(a, ric.ravel(), rcond=None)
    residual = _norm(a @ coeffs - ric.ravel())
    if residual == math.inf:
        raise ValueError("soliton residual is not finite: its norm overflows float64")
    c = float(coeffs[0])
    d = sum((coeffs[1 + i] * b for i, b in enumerate(der.basis)),
            start=np.zeros((3, 3)))
    ein_res = _norm(ric - (np.trace(ric) / 3.0) * np.eye(3))
    return SolitonVerdict(is_soliton=residual <= tol,
                          is_einstein=ein_res <= tol,
                          certificate=SolitonCertificate(c, d, residual))


def solvsoliton_check(sc: StructureConstants, gram: np.ndarray,
                      tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test for the metric with Gram matrix ``gram``.

    The Ricci operator on the canonical basis is projected onto
    span{I} + Der(sc); the metric is a solvsoliton when the Frobenius
    residual is at most ``tol``, which must be finite and > 0.
    """
    _check_tol(tol)
    ric = ricci_operator(metric_data(sc, gram)).ric_canonical
    return _project(ric, derivation_algebra(sc), tol)


def soliton_from_frame(family: Family, lam: float,
                       tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test at the canonical representative g_lambda.

    Works entirely on the Milnor frame: the Ricci operator comes from the
    closed form on the frame brackets, and membership is tested against
    the derivation algebra conjugated by g_lambda.  Equivalent to
    ``solvsoliton_check`` at the Gram matrix of the representative.
    """
    _check_tol(tol)
    sc = make_family(family)
    g = rep_matrix(family, lam)
    c = change_basis(sc, g).c
    # as Python floats (a, b, c, d) overflow to inf or NaN without a warning,
    # and _project rejects the result
    ric = ricci_closed_form(*c[0, 1:, 1:].ravel().tolist())
    der = conjugate_subspace(derivation_algebra(sc), g)
    return _project(np.asarray(ric, dtype=float), der, tol)
