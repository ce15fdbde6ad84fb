"""Structure constants for the three-dimensional solvable Lie algebras.

The classification used throughout the package, on a fixed basis e1, e2, e3
(all unlisted brackets vanish):

=======  ==========================================  =================
tag      nonzero brackets                            parameter range
=======  ==========================================  =================
h3       [e1,e2] = e3                                none (Heisenberg)
r3       [e1,e2] = e2 + e3,  [e1,e3] = e3            none
r3_a     [e1,e2] = e2,       [e1,e3] = a e3          -1 <= a <= 1
r3_1     r3_a at a = 1 (its own tag)                 none
r3p_a    [e1,e2] = a e2 - e3, [e1,e3] = e2 + a e3    a >= 0
=======  ==========================================  =================

Structure constants are stored as a dense (3,3,3) array ``c`` with
``[e_i, e_j] = sum_k c[i,j,k] e_k``, either as float64 or as exact
``fractions.Fraction`` entries in an object array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .errors import InvalidFamilyError, SingularMatrixError

FAMILY_TAGS = ("h3", "r3", "r3_a", "r3_1", "r3p_a")

_TAG_TO_TEXT = {"h3": "h3", "r3": "r3", "r3_1": "r3_1", "r3_a": "r3a", "r3p_a": "r3pa"}
_TEXT_TO_TAG = {v: k for k, v in _TAG_TO_TEXT.items()}


@dataclass(frozen=True)
class Family:
    """A family tag plus its parameter, validated on construction."""

    tag: str
    a: float | Fraction | None = None

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InvalidFamilyError(f"unknown family tag {self.tag!r}")
        if self.tag in ("h3", "r3", "r3_1"):
            if self.a is not None:
                raise InvalidFamilyError(f"{self.tag} takes no parameter")
        elif self.a is None:
            raise InvalidFamilyError(f"{self.tag} requires a parameter a")
        elif not math.isfinite(self.a):
            raise InvalidFamilyError(f"{self.tag} requires a finite parameter a, got {self.a}")
        elif self.tag == "r3_a" and not -1 <= self.a <= 1:
            raise InvalidFamilyError(f"r3_a requires -1 <= a <= 1, got {self.a}")
        elif self.tag == "r3p_a" and not self.a >= 0:
            raise InvalidFamilyError(f"r3p_a requires a >= 0, got {self.a}")

    def label(self) -> str:
        """The CLI string form, e.g. ``r3a:a=0.5``."""
        text = _TAG_TO_TEXT[self.tag]
        if self.a is None:
            return text
        return f"{text}:a={float(self.a)!r}"


def parse_family(text: str, a: float | None = None) -> Family:
    """Parse a family string such as ``h3``, ``r3a:a=0.5`` or ``r3pa:a=2``.

    A parameter may ride along in the string after ``:a=`` or be supplied
    separately through ``a``; giving both (or neither, for a parametric
    family) is an error.
    """
    text = text.strip()
    if ":" in text:
        head, _, tail = text.partition(":")
        if not tail.startswith("a="):
            raise InvalidFamilyError(f"malformed family string {text!r}")
        if a is not None:
            raise InvalidFamilyError("parameter given both in string and separately")
        try:
            a = float(tail[2:])
        except ValueError:
            raise InvalidFamilyError(f"malformed parameter in {text!r}") from None
    else:
        head = text
    tag = _TEXT_TO_TAG.get(head)
    if tag is None:
        raise InvalidFamilyError(f"unknown family {head!r}")
    return Family(tag, a)


@dataclass(frozen=True)
class StructureConstants:
    """Dense structure-constant tensor of a 3-dimensional algebra."""

    c: np.ndarray

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def exact(self) -> bool:
        return self.c.dtype == object

    def to_float(self) -> "StructureConstants":
        return StructureConstants(linalg.to_float(self.c))

    def nonzero(self) -> list[tuple[int, int, int, float | Fraction]]:
        """Entries (i, j, k, c_ij^k) with i < j and nonzero value."""
        n = self.dim
        return [(i, j, k, self.c[i, j, k])
                for i in range(n) for j in range(i + 1, n) for k in range(n)
                if self.c[i, j, k] != 0]


# each family's tensor c flattened row-major, a space between rows of a
# plane c[i] and two between planes: "0" is zero, "1" one, "-" minus one,
# "a" the parameter and "A" its negative (so a zero parameter gives a -0.0
# in the float lane where an absent bracket gives +0.0).  Each is kept as
# the getter of its 27 symbols from a symbol -> entry mapping.
_TENSORS = {tag: operator.itemgetter(*"".join(text.split())) for tag, text in {
    "h3": "000 001 000  00- 000 000  000 000 000",
    "r3": "000 011 001  0-- 000 000  00- 000 000",
    "r3_a": "000 010 00a  0-0 000 000  00A 000 000",
    "r3_1": "000 010 001  0-0 000 000  00- 000 000",
    "r3p_a": "000 0a- 01a  0A1 000 000  0-A 000 000",
}.items()}

_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def make_family(family: Family, exact: bool = False) -> StructureConstants:
    """Structure constants of a classified family.

    With ``exact=True`` the entries are Fractions (the parameter is
    converted exactly; binary floats are dyadic rationals).  Zeros and
    the entries +-1 are shared Fraction objects.
    """
    a = family.a
    if exact:
        entries = {"0": linalg.ZERO, "1": _ONE, "-": _MINUS_ONE}
        if a is not None:
            a = Fraction(a)
    else:
        entries = {"0": 0.0, "1": 1.0, "-": -1.0}
    if a is not None:
        entries.update(a=a, A=-a)
    flat = _TENSORS[family.tag](entries)
    if exact:
        return StructureConstants(linalg.object_array(flat, (3, 3, 3)))
    return StructureConstants(np.array(flat, dtype=float).reshape(3, 3, 3))


def bracket(sc: StructureConstants, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] in coordinates, for coordinate vectors x, y."""
    n = sc.dim
    if len(x) != n or len(y) != n:
        raise ValueError("coordinate vectors must match the algebra dimension")
    x = np.asarray(x)
    y = np.asarray(y)
    return np.array([np.dot(np.dot(x, sc.c[:, :, k]), y) for k in range(n)])


def change_basis(sc: StructureConstants, h: np.ndarray) -> StructureConstants:
    """Structure constants on the new basis x_i = h e_i.

    c'_ij^k = sum_r (h^-1)[k,r] * sum_pq h[p,i] h[q,j] c[p,q,r].  The result
    is exact only when both the constants and h are exact; the exact lane
    contracts integer numerators (h^-1 through the adjugate of h's) in
    Python ints, over the nonzero terms only, and divides once per entry.
    """
    h = np.asarray(h)
    n = sc.dim
    if h.shape != (n, n):
        raise ValueError(f"basis matrix must be {n}x{n}")
    if sc.exact and h.dtype == object:
        c, dc = linalg.integer_numerators(sc.c)
        h, dh = linalg.integer_numerators(h)
        h = h.tolist()
        hinv, det = _adjugate(h)
        if det == 0:
            raise SingularMatrixError("basis change matrix is singular")
        # c = C/dc, h = H/dh and h^-1 = dh adj(H)/det(H)
        return StructureConstants(_ratios(_integer_contract(c.tolist(), h, hinv), dc * dh * det))
    h = linalg.to_float(h)
    c = linalg.to_float(sc.c)
    if abs(np.linalg.det(h)) < 1e-12:
        raise SingularMatrixError("basis change matrix is singular")
    return StructureConstants(_contract(c, h, np.linalg.inv(h)))


def _contract(c: np.ndarray, h: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    n = c.shape[0]
    w = [np.dot(np.dot(h.T, c[:, :, r]), h) for r in range(n)]
    cprime = np.zeros((n, n, n), dtype=c.dtype)
    for k in range(n):
        acc = hinv[k, 0] * w[0]
        for r in range(1, n):
            acc = acc + hinv[k, r] * w[r]
        cprime[:, :, k] = acc
    return cprime


def _integer_contract(c: list, h: list, hinv: list) -> list:
    """``_contract`` on nested lists of Python ints.

    Only nonzero terms are summed: a bracket has few nonzero constants and
    a canonical group element few nonzero entries.
    """
    n = len(h)
    cols = [[(i, x) for i, x in enumerate(row) if x] for row in h]
    rows = [[(k, hinv[k][r]) for k in range(n) if hinv[k][r]] for r in range(n)]
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for p, plane in enumerate(c):
        for q, line in enumerate(plane):
            for r, x in enumerate(line):
                if not x:
                    continue
                for i, hpi in cols[p]:
                    for j, hqj in cols[q]:
                        t = x * hpi * hqj
                        acc = out[i][j]
                        for k, hkr in rows[r]:
                            acc[k] += hkr * t
    return out


def _adjugate(m: list) -> tuple[list, int]:
    """Adjugate and determinant of a 3x3 integer matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


def _ratios(nums: list, den: int) -> np.ndarray:
    """(n,n,n) object array of the Fractions nums / den, zeros shared."""
    n = len(nums)
    return linalg.object_array([linalg.ratio(x, den) for plane in nums for row in plane
                                for x in row], (n, n, n))


def antisymmetry_residual(sc: StructureConstants) -> float:
    """max |c_ij^k + c_ji^k|; zero for a well-formed bracket."""
    c = sc.c
    return float(max(abs(c[i, j, k] + c[j, i, k])
                     for i in range(sc.dim) for j in range(sc.dim) for k in range(sc.dim)))


def jacobi_residual(sc: StructureConstants) -> float:
    """max abs component of the Jacobi cyclic sum over basis triples."""
    n = sc.dim
    c = sc.c
    worst = 0.0
    for i, j, k in combinations(range(n), 3):
        for l in range(n):
            s = sum(c[j, k, m] * c[i, m, l]
                    + c[k, i, m] * c[j, m, l]
                    + c[i, j, m] * c[k, m, l] for m in range(n))
            worst = max(worst, abs(float(s)))
    return worst
