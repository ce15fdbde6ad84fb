"""Independent oracles for the benchmark workloads, and the output checksum.

Nothing here calls solvgeo's curvature, soliton, reduction or orbit code.
The references are the paper's statements, written out again from the
bracket table of the five families:

* the soliton classification (C4): ``h3`` and ``r3_1`` always, ``r3_a``
  exactly at lambda = 0, ``r3p_a`` exactly at lambda = 1, ``r3`` never;
* the mean-curvature closed forms (C5) for ``|H|``;
* the exact Ricci operators on the Milnor frame (C3);
* the derivation identity and ``dim Der`` (6 for ``h3`` and ``r3_1``,
  4 otherwise; 6 is the computed value for ``r3_1``, not the pinned 5);
* the witness factorization ``rep = c * phi * g * k`` of a reduction,
  checked factor by factor: c > 0, k orthogonal, phi an automorphism of
  the bracket, and rep the canonical element g_lambda.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

# Relative tolerances of the float checks.
H_TOL = 1e-9            # |H| against its closed form (C5)
LAMBDA_TOL = 1e-9       # distance of lambda from the soliton value
WITNESS_TOL = 1e-8      # rep - c phi g k, relative to max|rep|
ORTH_TOL = 1e-9         # k^T k - I
AUTO_TOL = 1e-8         # phi[x,y] - [phi x, phi y], relative to max|phi|^2
FRAME_TOL = 1e-9        # g^T G g - I for the group element of a metric
DER_TOL = 1e-10         # derivation identity on a unit-norm basis element

SOLITON_LAMBDA = {"r3_a": 0.0, "r3p_a": 1.0}


def structure_constants(tag: str, a: float | None = None) -> np.ndarray:
    """c[i,j,k] with [e_i,e_j] = sum_k c[i,j,k] e_k, from the bracket table."""
    c = np.zeros((3, 3, 3))

    def put(i, j, k, v):
        c[i, j, k] = v
        c[j, i, k] = -v

    if tag == "h3":
        put(0, 1, 2, 1.0)
    elif tag == "r3":
        put(0, 1, 1, 1.0)
        put(0, 1, 2, 1.0)
        put(0, 2, 2, 1.0)
    elif tag in ("r3_a", "r3_1"):
        put(0, 1, 1, 1.0)
        put(0, 2, 2, 1.0 if tag == "r3_1" else a)
    elif tag == "r3p_a":
        put(0, 1, 1, a)
        put(0, 1, 2, -1.0)
        put(0, 2, 1, 1.0)
        put(0, 2, 2, a)
    else:
        raise ValueError(f"unknown family tag {tag!r}")
    return c


def _bracket(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("i,j,ijk->k", x, y, c)


def expected_soliton(tag: str, lam: float) -> bool:
    """The paper's classification of the class with parameter lambda."""
    if tag in ("h3", "r3_1"):
        return True
    if tag == "r3":
        return False
    return abs(lam - SOLITON_LAMBDA[tag]) <= LAMBDA_TOL


def h_norm(tag: str, lam: float) -> float:
    """|H| of the orbit through g_lambda (C5 closed forms)."""
    if tag == "r3":
        return math.sqrt(2.0) / 5.0
    if tag == "r3_a":
        return 2.0 * abs(lam) / (5.0 * math.sqrt(2.0 * (1.0 + lam * lam)))
    if tag == "r3p_a":
        if lam == 1.0:
            return 0.0
        return math.sqrt(2.0) * (1.0 + lam * lam) / (5.0 * (lam * lam - 1.0))
    raise ValueError(f"no |H| closed form for {tag!r}")


def frame_ricci(tag: str, a, lam) -> list:
    """Exact Ricci operator on the Milnor frame of g_lambda (C3), as rows."""
    half = Fraction(1, 2)
    if tag == "h3":
        return [[-half, 0, 0], [0, -half, 0], [0, 0, half]]
    if tag == "r3_1":
        return [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    if tag == "r3":
        return [[-(2 + lam * lam / 2), 0, 0],
                [0, -(2 + lam * lam / 2), -lam],
                [0, -lam, -(2 - lam * lam / 2)]]
    if tag == "r3_a":
        t = lam * lam * (a - 1) ** 2 / 2
        off = -lam * a * (a - 1)
        return [[-(1 + a * a + t), 0, 0],
                [0, -(1 + a + t), off],
                [0, off, -(a + a * a - t)]]
    if tag == "r3p_a":
        s = lam - 1 / lam
        u = lam * lam - 1 / (lam * lam)
        return [[-half * (4 * a * a + s * s), 0, 0],
                [0, -half * (4 * a * a + u), a * s],
                [0, a * s, -half * (4 * a * a - u)]]
    raise ValueError(f"unknown family tag {tag!r}")


def der_dim(tag: str, a=None) -> int:
    """dim Der: 6 for h3 and r3_1 (and r3_a at a = 1), 4 for the rest."""
    if tag in ("h3", "r3_1") or (tag == "r3_a" and a == 1):
        return 6
    return 4


def canonical_element(tag: str, lam: float) -> np.ndarray:
    """g_lambda: identity for h3/r3_1, unipotent for r3_a, diag(1,1,1/lam)."""
    g = np.eye(3)
    if tag == "r3_a":
        g[2, 1] = lam
    elif tag in ("r3", "r3p_a"):
        g[2, 2] = 1.0 / lam
    return g


def derivation_problem(tag: str, a, basis) -> str | None:
    """Why ``basis`` is not a basis of Der, or None when it is."""
    want = der_dim(tag, a)
    if len(basis) != want:
        return f"dim Der {len(basis)}, expected {want}"
    c = structure_constants(tag, None if a is None else float(a))
    eye = np.eye(3)
    for d in basis:
        d = np.asarray(d, dtype=float)
        for i in range(3):
            for j in range(i + 1, 3):
                lhs = d @ _bracket(c, eye[i], eye[j])
                rhs = _bracket(c, d[:, i], eye[j]) + _bracket(c, eye[i], d[:, j])
                if np.max(np.abs(lhs - rhs)) > DER_TOL * max(1.0, np.abs(d).max()):
                    return "basis element violates the derivation identity"
    stacked = np.array([np.asarray(d, dtype=float).ravel() for d in basis])
    if np.linalg.matrix_rank(stacked, tol=1e-10) != want:
        return "derivation basis is linearly dependent"
    return None


def witness_problem(tag: str, a, gram, g, lam, rep, scalar, phi, orth) -> str | None:
    """Why (lam, rep, scalar, phi, orth) is not a certified reduction of g."""
    gram = np.asarray(gram, dtype=float)
    if np.max(np.abs(g.T @ gram @ g - np.eye(3))) > FRAME_TOL:
        return "group element does not realise the Gram matrix"
    if (tag == "r3" and not lam > 0) or (tag == "r3p_a" and not lam >= 1):
        return f"lambda {lam} outside the family's range"
    if not np.allclose(rep, canonical_element(tag, lam), rtol=0.0, atol=1e-12):
        return "representative is not g_lambda"
    if not scalar > 0:
        return "witness scalar is not positive"
    if np.max(np.abs(orth.T @ orth - np.eye(3))) > ORTH_TOL:
        return "witness orthogonal factor is not orthogonal"
    c = structure_constants(tag, a)
    eye = np.eye(3)
    size = max(1.0, float(np.abs(phi).max())) ** 2
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = phi @ _bracket(c, eye[i], eye[j])
            rhs = _bracket(c, phi[:, i], phi[:, j])
            if np.max(np.abs(lhs - rhs)) > AUTO_TOL * size:
                return "witness phi is not an automorphism"
    recon = scalar * phi @ g @ orth
    if np.max(np.abs(rep - recon)) > WITNESS_TOL * np.abs(rep).max():
        return "rep != c * phi * g * k"
    return None


class Checksum:
    """sha256 over the rounded outputs of the first ``limit`` items.

    The records are hashed in sorted order, so the digest does not
    depend on the order the items ran in.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self._records: list[str] = []

    def add(self, record: tuple) -> None:
        if self.count < self.limit:
            self._records.append(repr(record))
        self.count += 1

    def hexdigest(self) -> str:
        return hashlib.sha256("\n".join(sorted(self._records)).encode()).hexdigest()


def rounded(x: float, digits: int = 9) -> str:
    """A float as text with ``digits`` significant digits, -0 folded to 0."""
    return f"{x + 0.0:.{digits}g}"
