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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .curvature import metric_to_group  # noqa: F401 (callers reach it as moduli.metric_to_group)
from .derivations import MEMO_SIZE, block_conjugate, derivation_algebra, traceless_row
from .errors import InvalidFamilyError, SingularMatrixError
from .lie_core import Family, StructureConstants, change_basis, make_family

_OVERFLOW = "reduction witness is not finite: its factors overflow float64 for this metric"


@dataclass(frozen=True, slots=True)
class Representative:
    """Canonical group element of an isometry class within a family."""

    lam: float
    matrix: np.ndarray


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """Witness factors for rep = scalar * auto_part * g * orth."""

    scalar: float
    auto_part: np.ndarray
    orth: np.ndarray
    steps: tuple


def rep_matrix(family: Family, lam: float, exact: bool = False) -> np.ndarray:
    """The canonical group element g_lambda of a family, I but for ``rep_entries``."""
    l22, l32, l33 = rep_entries(family, lam, exact)
    one, zero, ratio = (Fraction(1), 0, Fraction) if exact else (1.0, 0.0, float.__truediv__)
    rows = [one, zero, zero, zero, one, zero, zero, ratio(l32, l22), ratio(l33, l22)]
    return linalg.object_array(rows, (3, 3)) if exact else np.array(rows).reshape(3, 3)


def rep_entries(family: Family, lam, exact: bool = False) -> tuple:
    """``(L22, L32, L33)`` of g_lambda up to a factor > 0, from lam = p / q: Python ints
    from ``lam.as_integer_ratio()`` when ``exact``, else floats from (p, q) = (lam, 1.0).

    r3 and r3p_a use diag(1, 1, 1/lambda), (p, 0, q); r3_a the unipotent matrix with
    (3,2)-entry lambda, (q, p, q); the single-class families h3, r3_1 and r3_a at a = 1
    the identity, (q, 0, q) (lam is ignored), which ``reduce`` returns for every metric.
    """
    _check_lambda(family, lam)
    # numpy ints have no as_integer_ratio
    p, q = ((lam if hasattr(lam, "as_integer_ratio") else lam.__index__()).as_integer_ratio()
            if exact else (float(lam), 1.0))
    if family.tag == "r3_a" and not _transitive(family):
        return q, p, q
    return p if family.tag in ("r3", "r3p_a") else q, 0 * q, q


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


def frame_brackets(family: Family, lower: np.ndarray) -> tuple:
    """``((a, b, c, d), block)``: [x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3
    ([x2,x3] = 0) in Python floats on x_i = L e_i, ``lower`` lower triangular
    (``rep_matrix``, ``metric_to_group``, ``linalg.lq``'s L).  span{e2, e3} is
    an abelian ideal, so ad(x1) there is L11 times ``block`` = h^-1 A h, h =
    [[1, 0], [L32, L33]] / L22 (``derivations.block_conjugate``).  An L not
    finite with positive diagonal and L33 / L22 > 0 raises SingularMatrixError,
    and an h^-1 A h that overflows ValueError; L11, 1 at every g_lambda, may
    still over- or underflow the brackets."""
    flat = lower.ravel().tolist()
    l11, l22, l32, l33 = flat[0], flat[4], flat[7], flat[8]
    if not (all(map(math.isfinite, flat)) and min(l11, l22, l33) > 0 and l33 / l22 > 0):
        raise SingularMatrixError("conjugating matrix is singular or not finite")
    block = block_conjugate(family_constants(family)[1], l32 / l22, l33 / l22)
    if not all(map(math.isfinite, block)):
        raise ValueError("frame brackets are not finite: they overflow float64 for this metric")
    a, b, c, d = block
    return (l11 * a, l11 * b, l11 * c, l11 * d), block


def frame_algebra(family: Family, lower: np.ndarray) -> tuple:
    """``(brackets, rows, dim Der)``: ``frame_brackets``' brackets, and L^-1 (RI + Der) L: for
    dim 4 N = ``traceless_row`` of the unscaled block, a tuple for ``semidirect_frame(N)``,
    which no scale or conditioning of L changes, and for dim 6 (h3, r3_1, r3_a at a = 1)
    Der's ``scalar_frame``, which L fixes (zero first row, or h3's, rescaled)."""
    brackets, block = frame_brackets(family, lower)
    der = derivation_algebra(family_constants(family)[0])
    if der.dim != 4:
        return brackets, der.scalar_frame, der.dim
    return brackets, traceless_row(*block), 4


def family_constants(family: Family) -> tuple:
    """``(make_family(family), its [e1, .] block, its exact block's integer numerators)``, kept
    per tag, a and type and sign of a (``Family``'s == merges a = 0.0, -0.0 and Fraction(0))."""
    a = family.a
    return _family_constants(family.tag, a, a if a is None else (type(a), math.copysign(1.0, a)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _family_constants(tag: str, a, kind) -> tuple:
    sc, exact = (make_family(Family(tag, a), exact=lane) for lane in (False, True))
    sc.c.setflags(write=False)
    return (sc, tuple(sc.c[0, 1:, 1:].ravel().tolist()),
            tuple(linalg.numerators(exact.c[0, 1:, 1:].ravel().tolist())[0]))


def _transitive(family: Family) -> bool:
    return family.tag in ("h3", "r3_1") or (family.tag == "r3_a" and family.a == 1)


def _block_rotation(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c]).reshape(3, 3)


def reduce(family: Family, g: np.ndarray):
    """Canonical representative and witness factorization of g's coset.

    Steps: an LQ-type factorization g k1 = L (lower triangular, positive
    diagonal; k1 = I and no QR runs when g is already L, as a
    ``metric_to_group`` frame is); a normalizer from the subgroup F of
    lower-triangular automorphism-scalings clearing the first column and
    (2,2)-entry; then one family-specific move fixing the remaining
    (3,2)/(3,3) block: a shear for r3, a diagonal rescale to lambda >= 0
    for r3_a, a closed-form 2x2 Cartan split for r3p_a.  For the
    single-class families (h3, r3_1, and r3_a at a = 1) the inverse of L
    itself splits into scalar times automorphism and the representative is
    the identity.

    Returns (Representative, ReductionTrace); the product scalar * auto_part @ g @ orth
    reproduces the representative matrix.  A non-finite or numerically singular g raises
    SingularMatrixError, and a g not 3x3 (``linalg.lq``) or a witness that does not fit in
    float64 ValueError.
    """
    g = np.asarray(g, dtype=float)
    if not all(map(math.isfinite, g.ravel().tolist())):
        raise SingularMatrixError("group element is not finite")
    lower, k1 = linalg.lower_triangular_lq(g)
    steps = [("lq_orthogonal", k1)]

    if _transitive(family):
        m = np.linalg.inv(lower)
        steps.append(("triangular_inverse", m))
        (m11, _, _), (_, m22, _), (_, _, m33) = m.tolist()
        scalar = m11 * m22 / m33 if family.tag == "h3" else m11
        lam, left, orth = 1.0, m.ravel().tolist(), k1
    else:
        l11, _, _, l21, l22, _, l31, l32, l33 = lower.ravel().tolist()
        # phi1, (a32, a33) of phi1 @ L and left = (next step) @ phi1 as numpy's matmul rounds
        # them, + 0.0 where it sums to +0.0: exact when they and 1 / a33 are finite
        p = l11 * l22
        scalar, u, v, i1 = l22 / p, -l21 / p, -l31 / p, l11 / p
        a32, a33 = i1 * l32 + 0.0, i1 * l33
        if not (a33 > 0 and all(map(math.isfinite, (scalar, u, v, i1, a32, a33, 1 / a33)))):
            raise ValueError(_OVERFLOW)
        phi1 = np.array([scalar, 0.0, 0.0, u, i1, 0.0, v, 0.0, i1]).reshape(3, 3)
        steps.append(("f_normalizer", phi1))
        if family.tag == "r3p_a":
            # closed-form SVD of B = [[1, 0], [a32, a33]]: rot B k2 = diag(s0, s1)
            e, f, h = (1 + a33) / 2, (1 - a33) / 2, a32 / 2
            s0 = math.hypot(e, h) + math.hypot(f, h)
            s1 = min(a33 / s0, s0)  # det B = s0 s1; keeps lambda >= 1 under rounding
            t1, t2 = math.atan2(h, f), math.atan2(h, e)
            rot, k2 = _block_rotation(-(t2 + t1) / 2), _block_rotation(-(t2 - t1) / 2)
            phi3 = np.array([1.0, 0.0, 0.0, 0.0, 1 / s0, 0.0, 0.0, 0.0, 1 / s0]).reshape(3, 3)
            steps += [("cartan_rotation", rot), ("cartan_orthogonal", k2), ("block_rescale", phi3)]
            lam = s0 / s1 if s1 else math.inf  # a33 / s0 underflowed: rep_matrix refuses lambda
            # phi3 @ rot @ phi1 stays a matmul: numpy rounds its sums of two products its own way
            left, orth = (phi3 @ rot @ phi1).ravel().tolist(), k1 @ k2
        else:
            # one last-row step [[1, 0, 0], [0, 1, 0], [0, s, t]]: on r3 the shear to
            # lambda = 1 / a33; on r3_a a rescale to lambda >= 0, with diag(1, 1, -1), an
            # orthogonal automorphism taking g_lam to g_-lam, on both sides where a32 < 0
            sign = -1.0 if family.tag == "r3_a" and a32 < 0 else 1.0
            name, s, t, lam = (("shear", -a32, 1.0, 1.0 / a33) if family.tag == "r3" else
                               ("diagonal_rescale", 0.0, sign / a33, sign * a32 / a33))
            steps.append((name, np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, s, t]).reshape(3, 3)))
            # each move's own bits: 1.0 * v is v on r3, and (+-0.0) + t * v + 0.0 is t * v + 0.0
            left = [scalar, 0.0, 0.0, u + 0.0, i1, 0.0, s * u + t * v + 0.0, s * i1 + 0.0, t * i1]
            orth = k1 * [1.0, 1.0, sign]

    # the one exit: k_scale = scalar^2, then auto_part = left / scalar in Python floats (an
    # overflow is inf, no RuntimeWarning), each refused unless it fits in float64
    rep = Representative(lam, rep_matrix(family, lam))
    if not 0 < scalar * scalar < math.inf:
        raise ValueError(_OVERFLOW)
    phi = [x / scalar for x in left]
    if not all(map(math.isfinite, phi)):
        raise ValueError(_OVERFLOW)
    return rep, ReductionTrace(scalar, np.array(phi).reshape(3, 3), orth, tuple(steps))


def witness_residual(rep: Representative, trace: ReductionTrace, g: np.ndarray) -> float:
    """max-norm of rep - scalar * auto_part @ g @ orth."""
    recon = trace.scalar * trace.auto_part @ np.asarray(g, dtype=float) @ trace.orth
    return float(abs(rep.matrix - recon).max())

