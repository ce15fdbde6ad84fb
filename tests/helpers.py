"""Shared helpers for the test suite."""

import numpy as np

from oracles import bracket
from solvgeo import linalg
from solvgeo.lie_core import StructureConstants, parse_family

# one representative per family branch, parameters matching the paper grids
FAMILY_STRINGS = ["h3", "r3", "r3_1",
                  "r3a:a=-1.0", "r3a:a=-0.5", "r3a:a=0.0", "r3a:a=0.5",
                  "r3pa:a=0.0", "r3pa:a=1.0", "r3pa:a=2.0"]

FAMILIES = [parse_family(s) for s in FAMILY_STRINGS]

# every branch, r3_a and r3p_a at 41 parameters each, and r3_a a hair below
# r3_1: dim Der is 4 there, against 6 at a = 1, so a rank decided with a
# tolerance goes wrong
DER_GRID_STRINGS = list(dict.fromkeys(
    FAMILY_STRINGS
    + [f"r3a:a={k / 20!r}" for k in range(-20, 21)]
    + [f"r3pa:a={k / 8!r}" for k in range(41)]
    + [f"r3a:a={1 - 1e-12!r}"]))

DER_GRID = [parse_family(s) for s in DER_GRID_STRINGS]


def random_spd(rng, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(3, 3))
    return scale * (m.T @ m + 0.1 * np.eye(3))


def random_group_element(rng) -> np.ndarray:
    """Uniform [-3,3] entries, resampled until well conditioned."""
    while True:
        g = rng.uniform(-3.0, 3.0, (3, 3))
        if abs(np.linalg.det(g)) > 1e-2 and np.linalg.cond(g) < 1e3:
            return g


def automorphism_residual(sc: StructureConstants, phi: np.ndarray) -> float:
    """max-norm of phi[e_i,e_j] - [phi e_i, phi e_j] over basis pairs."""
    phi = np.asarray(phi, dtype=float)
    eye = np.eye(3)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = phi @ linalg.to_float(bracket(sc, eye[i], eye[j]))
            rhs = linalg.to_float(bracket(sc, phi[:, i], phi[:, j]))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def abcd_constants(a: float, b: float, c: float, d: float) -> StructureConstants:
    """[x1,x2] = a x2 + b x3, [x1,x3] = c x2 + d x3, [x2,x3] = 0."""
    cs = np.zeros((3, 3, 3))
    cs[0, 1, 1], cs[0, 1, 2] = a, b
    cs[0, 2, 1], cs[0, 2, 2] = c, d
    cs[1, 0, 1], cs[1, 0, 2] = -a, -b
    cs[2, 0, 1], cs[2, 0, 2] = -c, -d
    return StructureConstants(cs)


def unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return m
