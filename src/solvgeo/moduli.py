"""Canonical representatives for left-invariant metrics up to isometry.

Metrics on a fixed family correspond to group elements g in GL(3) through
G = g^-T g^-1 (the metric is the pushforward of the standard inner product).
Two elements give isometric metrics when they lie in the same double coset
of R* x Aut x O(3), acting by scaling and automorphisms on the left and by
orthogonal maps on the right.  ``reduce`` computes a canonical coset
representative g_lambda together with an explicit witness factorization

    rep = c * phi * g * k,   c > 0,  phi an automorphism,  k orthogonal,

whose factors are recorded step by step in a :class:`ReductionTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .curvature import metric_to_group  # noqa: F401 (callers reach it as moduli.metric_to_group)
from .errors import InvalidFamilyError, SingularMatrixError
from .lie_core import Family, StructureConstants, change_basis, make_family


@dataclass(frozen=True)
class Representative:
    """Canonical group element of an isometry class within a family."""

    lam: float
    matrix: np.ndarray


@dataclass(frozen=True)
class ReductionTrace:
    """Witness factors for rep = scalar * auto_part * g * orth."""

    scalar: float
    auto_part: np.ndarray
    orth: np.ndarray
    steps: tuple


def rep_matrix(family: Family, lam: float, exact: bool = False) -> np.ndarray:
    """The canonical group element g_lambda of a family.

    r3 and r3p_a use diag(1, 1, 1/lambda); r3_a uses the unipotent matrix
    with (3,2)-entry lambda; the single-class families h3 and r3_1 use the
    identity (lam is ignored for them).
    """
    _check_lambda(family, lam)
    one, lam = (Fraction(1), Fraction(lam)) if exact else (1.0, float(lam))
    mat = np.diag([one, one, one])
    if family.tag == "r3_a":
        mat[2, 1] = lam
    elif family.tag in ("r3", "r3p_a"):
        mat[2, 2] = Fraction(lam.denominator, lam.numerator) if exact else one / lam
    return mat


def _check_lambda(family: Family, lam: float) -> None:
    if not math.isfinite(lam):
        raise InvalidFamilyError(f"lambda must be finite, got {lam}")
    if family.tag == "r3" and not lam > 0:
        raise InvalidFamilyError(f"r3 requires lambda > 0, got {lam}")
    if family.tag == "r3p_a" and not lam >= 1:
        raise InvalidFamilyError(f"r3p_a requires lambda >= 1, got {lam}")


def frame_constants(family: Family, lam: float, exact: bool = False) -> StructureConstants:
    """Structure constants on the Milnor frame x_i = g_lambda e_i."""
    return change_basis(make_family(family, exact=exact),
                        rep_matrix(family, lam, exact=exact))


def _transitive(family: Family) -> bool:
    return family.tag in ("h3", "r3_1") or (family.tag == "r3_a" and family.a == 1)


def _block_rotation(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def reduce(family: Family, g: np.ndarray):
    """Canonical representative and witness factorization of g's coset.

    Steps: an LQ-type factorization g k1 = L (lower triangular, positive
    diagonal); a normalizer from the subgroup F of lower-triangular
    automorphism-scalings clearing the first column and (2,2)-entry; then
    one family-specific move fixing the remaining (3,2)/(3,3) block: a
    shear for r3, a diagonal rescale to lambda >= 0 for r3_a, a closed-form
    2x2 Cartan split for r3p_a.  For the single-class families (h3, r3_1,
    and r3_a at a = 1) the inverse of L itself splits into scalar times
    automorphism and the representative is the identity.

    Returns (Representative, ReductionTrace); the product
    scalar * auto_part @ g @ orth reproduces the representative matrix.
    A non-finite or numerically singular g raises SingularMatrixError.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError("group element must be a 3x3 matrix")
    if not np.isfinite(g).all():
        raise SingularMatrixError("group element is not finite")
    lower, k1 = linalg.lower_triangular_lq(g)
    steps = [("lq_orthogonal", k1)]

    if _transitive(family):
        m = np.linalg.inv(lower)
        steps.append(("triangular_inverse", m))
        if family.tag == "h3":
            scalar = m[0, 0] * m[1, 1] / m[2, 2]
        else:
            scalar = m[0, 0]
        phi = m / scalar
        rep = Representative(1.0, np.eye(3))
        return rep, ReductionTrace(float(scalar), phi, k1, tuple(steps))

    (l11, _, _), (l21, l22, _), (l31, l32, l33) = lower.tolist()
    phi1 = np.array([[l22, 0.0, 0.0],
                     [-l21, l11, 0.0],
                     [-l31, 0.0, l11]]) / (l11 * l22)
    steps.append(("f_normalizer", phi1))
    gp = phi1 @ lower
    a32, a33 = gp[2, 1], gp[2, 2]

    if family.tag == "r3":
        phi2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -a32, 1.0]])
        steps.append(("shear", phi2))
        lam = 1.0 / a33
        left = phi2 @ phi1
        orth = k1
    elif family.tag == "r3_a":
        # a33 > 0, and diag(1, 1, -1) is an orthogonal automorphism taking
        # g_lam to g_-lam: with it on both sides, lam >= 0
        sign = -1.0 if a32 < 0 else 1.0
        phi2 = np.diag([1.0, 1.0, sign / a33])
        steps.append(("diagonal_rescale", phi2))
        lam = sign * a32 / a33
        left = phi2 @ phi1
        orth = k1 * [1.0, 1.0, sign]
    elif family.tag == "r3p_a":
        # closed-form SVD of B = [[1, 0], [a32, a33]]: rot B k2 = diag(s0, s1)
        e, f, h = (1 + a33) / 2, (1 - a33) / 2, a32 / 2
        s0 = math.hypot(e, h) + math.hypot(f, h)
        s1 = min(a33 / s0, s0)  # det B = s0 s1; keeps lambda >= 1 under rounding
        t1, t2 = math.atan2(h, f), math.atan2(h, e)
        rot, k2 = _block_rotation(-(t2 + t1) / 2), _block_rotation(-(t2 - t1) / 2)
        steps.append(("cartan_rotation", rot))
        steps.append(("cartan_orthogonal", k2))
        phi3 = np.diag([1.0, 1.0 / s0, 1.0 / s0])
        steps.append(("block_rescale", phi3))
        lam = s0 / s1
        left = phi3 @ rot @ phi1
        orth = k1 @ k2
    else:
        raise InvalidFamilyError(f"no reduction defined for {family.tag}")

    scalar = left[0, 0]
    phi = left / scalar
    rep = Representative(float(lam), rep_matrix(family, float(lam)))
    return rep, ReductionTrace(float(scalar), phi, orth, tuple(steps))


def witness_residual(rep: Representative, trace: ReductionTrace, g: np.ndarray) -> float:
    """max-norm of rep - scalar * auto_part @ g @ orth."""
    recon = trace.scalar * trace.auto_part @ np.asarray(g, dtype=float) @ trace.orth
    return float(np.max(np.abs(rep.matrix - recon)))

