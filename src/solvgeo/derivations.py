"""Derivation algebras and subspaces of 3x3 matrices.

A derivation of an algebra with bracket [.,.] is a matrix D with
D[x,y] = [Dx,y] + [x,Dy].  The derivations form the Lie algebra of the
automorphism group; together with the scalar line R*I they generate the
subgroup of GL(3) whose orbits are studied in :mod:`solvgeo.orbit_geometry`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import SingularMatrixError
from .lie_core import StructureConstants
from .linalg import COND_LIMIT, ZERO_TOL


def _normalize(stack) -> np.ndarray:
    """d 3x3 matrices (or their flat 9-vectors) as one (d, 3, 3) float
    array, each at unit Frobenius norm, first nonzero entry positive, zeros
    all +0.0."""
    flat = linalg.to_float(np.reshape(stack, (len(stack), 9)))
    # the batched row dot is the dot np.linalg.norm takes, bit for bit
    nrm = np.sqrt(flat[:, None, :] @ flat[:, :, None])[:, 0]
    if (nrm <= ZERO_TOL).any():
        raise ValueError("cannot normalize a zero matrix")
    return (linalg.lead_positive(flat / nrm) + 0.0).reshape(-1, 3, 3)


# Der(g), kernel and g^-1 S g results kept per input content
MEMO_SIZE = 128


@dataclass(frozen=True, eq=False)
class MatrixSubspace:
    """A subspace of 3x3 matrices given by a normalized, independent basis.

    ``basis`` is one read-only float array of shape (dim, 3, 3), so one
    instance can be shared and each ``basis[i]`` is a read-only 3x3 view;
    ``np.asarray`` gives it too.  ``==`` and ``hash`` are by identity, not span.
    ``frame`` is the read-only orthonormal (dim, 9) basis from the rank check,
    and ``scalar_frame`` the read-only orthonormal rows of S + R*I: ``frame``,
    then the unit part of I orthogonal to S unless I lies in S at ``ZERO_TOL``
    (a relative 6e-13 of |I| = sqrt(3)).
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = _normalize(self.basis)
        _, s, frame = np.linalg.svd(basis.reshape(len(basis), 9), full_matrices=False)
        if (s <= linalg.RANK_TOL).any():
            raise ValueError("subspace basis is linearly dependent")
        eye = np.eye(3).ravel()
        perp = eye - (frame @ eye) @ frame
        norm = np.linalg.norm(perp)
        scalar = frame if norm <= ZERO_TOL else np.vstack([frame, perp / norm])
        for name, value in (("basis", basis), ("frame", frame), ("scalar_frame", scalar)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.basis, dtype=dtype, copy=copy)

    def stacked(self) -> np.ndarray:
        """The basis vectorized row-wise, a read-only (dim, 9) view."""
        return self.basis.reshape(self.dim, 9)


def derivation_algebra(sc: StructureConstants) -> MatrixSubspace:
    """Kernel of the derivation-identity operator as a matrix subspace.

    The identity D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] over all basis pairs
    i < j is a linear system in the 9 entries of D.  Its kernel is computed
    exactly in both lanes: exact ``sc`` is solved on the integer multiple of
    ``c`` that clears its denominators, float ``sc`` on the system formed in
    float, which can round (``2**-60 - 1``).  So the dimension has no pivot
    threshold, but a float tensor and its exact twin can differ, even in dim.

    Two of the three memo levels are here (the third is ``g^-1 S g`` in
    ``conjugate_subspace``).  Float results are kept per content of the
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
    system = _derivation_system(c)
    kernel = linalg.nullspace(system)
    flat = linalg.to_float(np.reshape(kernel, (len(kernel), system.shape[1])))
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


def conjugate_subspace(subspace: MatrixSubspace, g: np.ndarray) -> MatrixSubspace:
    """The subspace g^-1 S g; the basis is re-normalized, dimension preserved.

    Singularity is judged by the condition number against ``COND_LIMIT``:
    g and s*g give the same subspace, so both pass or both fail.  A g that shrinks
    a basis matrix to ``ZERO_TOL`` fails too.  Results, not errors, are memoized.
    """
    g = np.asarray(g, dtype=float)
    return _conjugate(subspace.stacked().tobytes(), g.tobytes(), g.shape)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _conjugate(data: bytes, g_data: bytes, g_shape: tuple) -> MatrixSubspace:
    g = np.frombuffer(g_data).reshape(g_shape)
    basis = np.frombuffer(data).reshape(-1, 3, 3)
    conjugated = linalg.inverse(g, "conjugating matrix") @ basis @ g
    try:
        return MatrixSubspace(conjugated)
    except ValueError:  # a basis matrix shrank to ZERO_TOL
        raise SingularMatrixError("conjugating matrix is singular") from None


def scalar_plus(subspace: MatrixSubspace) -> MatrixSubspace:
    """span(S + R*I), with ``subspace.scalar_frame`` as its basis."""
    return MatrixSubspace(subspace.scalar_frame)
