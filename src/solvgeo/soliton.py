"""Solvsoliton certificates.

A left-invariant metric is a solvsoliton exactly when its Ricci operator
splits as c*I + D with D a derivation of the algebra.  The check is a
least-squares projection of the Ricci operator onto span{I} + Der; the
certificate (c, D, residual) is reported whether or not the test passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import metric_data, require_finite, ricci_closed_form, ricci_operator
from .derivations import MatrixSubspace, derivation_algebra, conjugate_subspace
from .lie_core import Family, StructureConstants, make_family
from .moduli import frame_constants, rep_matrix

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


def _project(ric: np.ndarray, der: MatrixSubspace, tol: float) -> SolitonVerdict:
    """Least-squares split of ric over [I | derivation basis]."""
    require_finite(ric)
    columns = [np.eye(3).ravel()]
    columns.extend(b.ravel() for b in der.basis)
    a = np.array(columns).T
    coeffs, *_ = np.linalg.lstsq(a, ric.ravel(), rcond=None)
    residual = float(np.linalg.norm(a @ coeffs - ric.ravel()))
    c = float(coeffs[0])
    d = sum((coeffs[1 + i] * b for i, b in enumerate(der.basis)),
            start=np.zeros((3, 3)))
    ein_res = float(np.linalg.norm(ric - (np.trace(ric) / 3.0) * np.eye(3)))
    return SolitonVerdict(is_soliton=residual <= tol,
                          is_einstein=ein_res <= tol,
                          certificate=SolitonCertificate(c, d, residual))


def solvsoliton_check(sc: StructureConstants, gram: np.ndarray,
                      tol: float = DEFAULT_TOL) -> SolitonVerdict:
    """Solvsoliton test for the metric with Gram matrix ``gram``.

    The Ricci operator on the canonical basis is projected onto
    span{I} + Der(sc); the metric is a solvsoliton when the Frobenius
    residual is at most ``tol``.
    """
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
    scf = frame_constants(family, lam)
    c = scf.c
    ric = ricci_closed_form(c[0, 1, 1], c[0, 1, 2], c[0, 2, 1], c[0, 2, 2])
    der = conjugate_subspace(derivation_algebra(make_family(family)),
                             rep_matrix(family, lam))
    return _project(np.asarray(ric, dtype=float), der, tol)
