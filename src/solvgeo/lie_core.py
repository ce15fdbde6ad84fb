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

import numpy as np

from . import linalg
from .errors import InvalidFamilyError, SingularMatrixError

FAMILY_TAGS = ("h3", "r3", "r3_a", "r3_1", "r3p_a")

_TAG_TO_TEXT = {"h3": "h3", "r3": "r3", "r3_1": "r3_1", "r3_a": "r3a", "r3p_a": "r3pa"}
# --family takes the CLI text and the tag itself (the spelling ``families`` lists)
_TEXT_TO_TAG = {**{tag: tag for tag in FAMILY_TAGS}, **{v: k for k, v in _TAG_TO_TEXT.items()}}


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


def parse_family(text: str) -> Family:
    """Parse a family string such as ``h3``, ``r3a:a=0.5`` or ``r3pa:a=2``.

    A parametric family takes its parameter in the string, after ``:a=``.
    """
    text = text.strip()
    a = None
    if ":" in text:
        head, _, tail = text.partition(":")
        if not tail.startswith("a="):
            raise InvalidFamilyError(f"malformed family string {text!r}")
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
    """Dense structure-constant tensor of a 3-dimensional algebra, of shape
    (3, 3, 3): any other shape raises ValueError."""

    c: np.ndarray

    def __post_init__(self):
        if self.c.shape != (3, 3, 3):
            raise ValueError(f"structure constants must be 3x3x3, got shape {self.c.shape}")

    @property
    def exact(self) -> bool:
        return self.c.dtype == object

    def nonzero(self) -> list[tuple[int, int, int, float | Fraction]]:
        """Entries (i, j, k, c_ij^k) with i < j and nonzero value."""
        return [(i, j, k, self.c[i, j, k])
                for i in range(3) for j in range(i + 1, 3) for k in range(3)
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


def change_basis(sc: StructureConstants, h: np.ndarray) -> StructureConstants:
    """Structure constants on the new basis x_i = h e_i.

    c'_ij^k = sum_r (h^-1)[k,r] * sum_pq h[p,i] h[q,j] c[p,q,r].  The result is exact only
    when both the constants and h are; the exact lane runs the contraction on integer
    numerators (h^-1 through the adjugate of h's), in Python ints, and divides once per
    entry, and the float lane takes h^-1 rounded once from ``linalg.exact_inv``.
    """
    h = np.asarray(h)
    if h.shape != (3, 3):
        raise ValueError("basis matrix must be 3x3")
    if sc.exact and h.dtype == object:
        c, dc = linalg.integer_numerators(sc.c)
        h, dh = linalg.integer_numerators(h)
        adj, det = linalg.adjugate(h)
        if det == 0:
            raise SingularMatrixError("basis change matrix is singular")
        # c = C/dc, h = H/dh and h^-1 = dh adj(H)/det(H)
        return StructureConstants(linalg.ratios(_contract(c, h, adj), dc * dh * det))
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise SingularMatrixError("basis change matrix is not finite")
    try:  # det h = 0, or an entry of h^-1 past float64
        hinv = linalg.exact_inv(h)
    except (SingularMatrixError, OverflowError):
        raise SingularMatrixError("basis change matrix has no inverse in float64") from None
    return StructureConstants(_contract(np.asarray(sc.c, dtype=float), h, hinv))


def _contract(c: np.ndarray, h: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """``change_basis``'s sum, on float arrays or object arrays of ints.

    w[r] = h^T c[:,:,r] h, and slice k of the result sums hinv[k,r] w[r]
    over r from left to right.
    """
    w = h.T @ c.transpose(2, 0, 1) @ h
    acc = hinv[:, 0, None, None] * w[0]
    for r in range(1, len(h)):
        acc = acc + hinv[:, r, None, None] * w[r]
    return acc.transpose(1, 2, 0)


def jacobi_residual(sc: StructureConstants) -> float:
    """max abs component of the Jacobi cyclic sum on the one basis triple."""
    c = sc.c
    # [e1,[e2,e3]] + [e3,[e1,e2]] + [e2,[e3,e1]]; c[j, k] @ c[i] is [e_i, [e_j, e_k]], 0-based
    s = c[1, 2] @ c[0] + c[0, 1] @ c[2] + c[2, 0] @ c[1]
    return float(np.abs(np.asarray(s, dtype=float)).max())
