"""Derivation algebras and subspaces of 3x3 matrices.

A derivation of an algebra with bracket [.,.] is a matrix D with
D[x,y] = [Dx,y] + [x,Dy].  The derivations form the Lie algebra of the
automorphism group; together with the scalar line R*I they generate the
subgroup of GL(3) whose orbits are studied in :mod:`solvgeo.orbit_geometry`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import SingularMatrixError
from .lie_core import StructureConstants
from .linalg import COND_LIMIT, ZERO_TOL


def _normalize(stack) -> np.ndarray:
    """d 3x3 matrices (or their flat 9-vectors) as one (d, 3, 3) float
    array, each at unit Frobenius norm, first nonzero entry positive, zeros
    all +0.0."""
    flat = np.reshape(np.asarray(stack, dtype=float), (len(stack), 9))
    # the batched row dot is the dot np.linalg.norm takes, bit for bit
    nrm = np.sqrt(flat[:, None, :] @ flat[:, :, None])[:, 0]
    if (nrm <= ZERO_TOL).any():
        raise ValueError("cannot normalize a zero matrix")
    return (linalg.lead_positive(flat / nrm) + 0.0).reshape(-1, 3, 3)


# Der(g) and kernel-subspace results kept per input content.  A sweep holds
# one key of each per family; 128 keys keep every family of a mixed sweep.
MEMO_SIZE = 128


@dataclass(frozen=True, eq=False)
class MatrixSubspace:
    """A subspace of 3x3 matrices given by a normalized, independent basis.

    ``basis`` is one read-only float array of shape (dim, 3, 3), so one
    instance can be shared and each ``basis[i]`` is a read-only 3x3 view;
    ``np.asarray`` gives it too.  ``==`` and ``hash`` are by identity, not span.
    ``scalar_frame`` is the read-only orthonormal rows of S + R*I: the dim
    rows of the rank check's orthonormal basis of S, then the unit part of I
    orthogonal to S unless I lies in S at ``ZERO_TOL`` (a relative 6e-13 of
    |I| = sqrt(3)).
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = _normalize(self.basis)
        frame = linalg.orthonormalize(basis.reshape(len(basis), 9))
        if len(frame) < len(basis):
            raise ValueError("subspace basis is linearly dependent")
        eye = np.eye(3).ravel()
        perp = eye - (frame @ eye) @ frame
        norm = np.linalg.norm(perp)
        scalar = frame if norm <= ZERO_TOL else np.vstack([frame, perp / norm])
        for name, value in (("basis", basis), ("scalar_frame", scalar)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.basis, dtype=dtype, copy=copy)


def derivation_algebra(sc: StructureConstants) -> MatrixSubspace:
    """Kernel of the derivation-identity operator as a matrix subspace.

    The identity D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] over all basis pairs
    i < j is a linear system in the 9 entries of D.  Its kernel is computed
    exactly in both lanes: exact ``sc`` is solved on the integer multiple of
    ``c`` that clears its denominators, float ``sc`` on the system formed in
    float, which can round (``2**-60 - 1``).  So the dimension has no pivot
    threshold, but a float tensor and its exact twin can differ, even in dim.

    Both memo levels are here.  Float results are kept per content of the
    tensor, so an edited tensor is solved afresh.  The float subspace is
    kept per content of the RREF kernel, which is canonical, so a new
    parameter whose kernel is known builds no new subspace.  The exact lane
    always eliminates but shares the float subspace of its kernel: an exact
    tensor and its float twin get the same object.
    """
    if sc.exact:
        # the identity is linear and homogeneous in c: Der(t c) = Der(c)
        return _derivation_kernel(linalg.integer_numerators(sc.c)[0])
    c = np.ascontiguousarray(sc.c, dtype=float)
    return _float_derivations(c.tobytes(), c.shape)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _float_derivations(data: bytes, shape: tuple) -> MatrixSubspace:
    return _derivation_kernel(np.frombuffer(data).reshape(shape))


def _derivation_kernel(c: np.ndarray) -> MatrixSubspace:
    flat = linalg.ratios(*linalg.nullspace(_derivation_system(c)), exact=False)
    return _kernel_subspace(flat.tobytes(), flat.shape)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _kernel_subspace(data: bytes, shape: tuple) -> MatrixSubspace:
    return MatrixSubspace(np.frombuffer(data).reshape(shape))


def _derivation_system(c: np.ndarray) -> np.ndarray:
    """The derivation identity as a linear system in the entries of D.

    One gather from ``_derivation_template``; each entry is
    ``(plus - minus1) - minus2``.  An absent positive term reads
    ``c[0,0,0] * 0`` and an absent subtracted one reads +0, so the entries
    are bit for bit those of the entry-by-entry construction that
    ``tests/test_derivations.py`` keeps as the reference, signed zeros
    included.
    """
    plus, minus1, minus2 = _derivation_template(c.shape[0])
    flat = np.concatenate([c.ravel(), [c[0, 0, 0] * 0, 0]])
    return (flat[plus] - flat[minus1]) - flat[minus2]


@functools.lru_cache(maxsize=None)
def _derivation_template(n: int) -> tuple:
    """Indices of the derivation-identity system into the padded flat ``c``.

    Row (i<j, l), column (m, k) of the system is
    (c_ij^k [m = l]) - (c_mj^l [k = i]) - (c_im^l [k = j]): the coefficient
    of D[m, k] in component l of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j].
    Index n^3 holds the signed zero, n^3 + 1 the +0.
    """
    signed_zero, plus_zero = n ** 3, n ** 3 + 1

    def at(p, q, r):
        return (p * n + q) * n + r

    plus, minus1, minus2 = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                for m in range(n):
                    for k in range(n):
                        plus.append(at(i, j, k) if m == l else signed_zero)
                        minus1.append(at(m, j, l) if k == i else plus_zero)
                        minus2.append(at(i, m, l) if k == j else plus_zero)
    return tuple(np.array(t).reshape(-1, n * n) for t in (plus, minus1, minus2))


# E21, E31, (E22 + E33)/sqrt(2), a slot for the unit traceless part of 0 + A,
# and E11, as flat rows (orbit_geometry.orbit_data reads this layout too)
SEMIDIRECT_ROWS = np.zeros((5, 9))
SEMIDIRECT_ROWS[[0, 1, 2, 2, 4], [3, 6, 4, 8, 0]] = [1.0, 1.0, 2 ** -0.5, 2 ** -0.5, 1.0]
SEMIDIRECT_ROWS.setflags(write=False)

# flat indices of c[0, 1:, 1:] ([e1, e2], [e1, e3]), of c[1:, 0, 1:], and of
# every other entry of a 3x3x3 tensor c
_BLOCK, _MIRROR = (4, 5, 7, 8), (10, 11, 19, 20)
_OFF_SEMIDIRECT = tuple(sorted(set(range(27)) - set(_BLOCK) - set(_MIRROR)))


def semidirect_rows(a: float, b: float, c: float, d: float) -> np.ndarray:
    """The flat rows of RI + Der, laid out as ``MatrixSubspace.scalar_frame``,
    for [e1,e2] = a e2 + b e3, [e1,e3] = c e2 + d e3, [e2,e3] = 0 with
    A = [[a, c], [b, d]] neither scalar nor nilpotent: Der = span{E21, E31,
    0 + I, 0 + A}, so E21, E31, (E22 + E33)/sqrt(2), the unit traceless
    part of 0 + A, and E11, with pairwise orthogonal symmetric parts."""
    h = (a - d) / 2
    norm = math.hypot(h, h, b, c)
    rows = SEMIDIRECT_ROWS.copy()
    rows[3, 4:9] = h / norm, c / norm, 0.0, b / norm, -h / norm  # 0.0 at E31's entry
    return rows


def semidirect_block(sc: StructureConstants):
    """``(a, b, c, d)`` when sc is exactly [e1,e2] = a e2 + b e3, [e1,e3] =
    c e2 + d e3, [e2,e3] = 0 (every other entry zero and c[1:, 0, 1:] =
    -c[0, 1:, 1:], tested by equality on the entries), else None."""
    if sc.c.shape != (3, 3, 3):
        return None
    flat = sc.c.ravel().tolist()
    block = [flat[i] for i in _BLOCK]
    if any(flat[i] for i in _OFF_SEMIDIRECT) or [-flat[i] for i in _MIRROR] != block:
        return None
    return tuple(block)


def block_conjugate(block, r: float, s: float) -> tuple:
    """``block`` = (a, b, c, d), the matrix A = [[a, c], [b, d]], as h^-1 A h
    for h = [[1, 0], [r, s]], s != 0, in the same layout.  b' is formed as
    b/s + (r/s)((d - a) - c r), with no r^2, which overflows past |r| = 1e154
    where b' is representable."""
    # written so that s never meets the diagonal: the product h^-1 A h rounds
    # r3's d = 1 at about one lambda in ten on the Milnor frame, an error that
    # swamps A_lambda's traceless part, of size lambda, when lambda is small
    a, b, c, d = block
    return a + c * r, b / s + (r / s) * ((d - a) - c * r), c * s, d - c * r


def block_der_rows(sc: StructureConstants, block) -> tuple:
    """``(rows, dim Der)``, rows the orthonormal flat rows of RI + Der(sc),
    given ``block = semidirect_block(sc)``, not None, as A = [[a, c], [b,
    d]].  A derivation D with D e1 = alpha e1 + v keeps span{e2, e3}, acting
    there as B with [B, A] = alpha A: a non-nilpotent A forces alpha = 0,
    and a non-scalar A then B in span{I, A}, so the rows are
    ``semidirect_rows`` and no kernel is solved.  Every test is an equality
    on the entries, nilpotency (trace 0 and a^2 + bc = 0) is decided in
    Fractions, and a scalar or nilpotent A takes ``derivation_algebra(sc)``'s
    rows and dim."""
    a, b, c, d = block
    scalar = b == c == 0 and a == d
    if not scalar and not (a == -d and Fraction(a) ** 2 + Fraction(b) * Fraction(c) == 0):
        return semidirect_rows(*map(float, block)), 4
    der = derivation_algebra(sc)
    return der.scalar_frame, der.dim


def conjugate_subspace(subspace: MatrixSubspace, g: np.ndarray) -> MatrixSubspace:
    """The subspace g^-1 S g; the basis is re-normalized, dimension preserved.

    Singularity is judged by the condition number against ``COND_LIMIT``:
    g and s*g give the same subspace, so both pass or both fail.  A g that shrinks
    a basis matrix to ``ZERO_TOL`` fails too.
    """
    g = np.asarray(g, dtype=float)
    conjugated = linalg.inverse(g, "conjugating matrix") @ subspace.basis @ g
    try:
        return MatrixSubspace(conjugated)
    except ValueError:  # a basis matrix shrank to ZERO_TOL
        raise SingularMatrixError("conjugating matrix is singular") from None


def scalar_plus(subspace: MatrixSubspace) -> MatrixSubspace:
    """span(S + R*I), with ``subspace.scalar_frame`` as its basis."""
    return MatrixSubspace(subspace.scalar_frame)
