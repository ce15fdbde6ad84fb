"""The numbers of every ``(family, lambda)`` row, pinned bit for bit.

A row's soliton half (``soliton.frame_verdict``: residual, c, D) and orbit
half (``orbit_geometry.orbit_at`` at g_lambda: H, |H|, per_normal,
orbit_dim) are closed forms on Python floats.  The fixture
``data/verify_row_bits.json`` holds a digest of each row's numbers, every
float as ``float.hex`` (so a -0.0 counts), for the 8 acceptance sweeps and
the rows ROADMAP items 1 and 4 name.  The digests were taken when
``moduli.frame_algebra`` still handed its readers the (5, 9) row stack that
``soliton._split`` and ``orbit_data`` took apart again, so a digit that
moves since is a defect, not rounding.  A float, an int and a Fraction
lambda of the same value give the same row.

To regenerate the fixture after a deliberate change of the numbers, run
``PYTHONPATH=src python tests/test_verify_rows.py``, and say in the change
which rows moved and why.
"""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from solvgeo import moduli, orbit_geometry, soliton
from solvgeo.cli import default_grid
from solvgeo.lie_core import parse_family

FIXTURE = pathlib.Path(__file__).parent / "data" / "verify_row_bits.json"

SWEEPS = ("r3", "r3a:a=-1.0", "r3a:a=-0.5", "r3a:a=0.0", "r3a:a=0.5",
          "r3pa:a=0.0", "r3pa:a=1.0", "r3pa:a=2.0", "r3a:a=0.999999999999")
# ROADMAP item 1's single rows, then item 4's (the last two are refused)
ROWS = (("r3pa:a=0.375", 1.000000001), ("r3a:a=0.5", 1e-9), ("r3", 1e-12), ("r3", 1e-300),
        ("r3pa:a=10000.0", 1.0), ("r3pa:a=10000.0", 2.0),
        ("r3pa:a=1.0", 1.00000000001), ("r3pa:a=1.0", 1.0000001),
        ("r3pa:a=6e153", 1.0), ("r3pa:a=1e200", 2.0))


def _rows() -> list:
    return ([(text, lam) for text in SWEEPS for lam in default_grid(parse_family(text))]
            + list(ROWS))


def _row_digest(text: str, lam) -> str:
    """sha256 of the row's numbers as ``float.hex`` and its orbit_dim, or of its refusal."""
    fam = parse_family(text)
    try:
        verdict = soliton.frame_verdict(fam, lam)[0]
        mc = orbit_geometry.orbit_at(fam, moduli.rep_matrix(fam, lam))
    except ValueError as exc:
        record = f"refused: {exc}"
    else:
        floats = [verdict.residual, verdict.c, *verdict.d.ravel().tolist(),
                  *mc.h.ravel().tolist(), mc.norm]
        for normal, value in mc.per_normal:
            floats += [*normal.ravel().tolist(), value]
        record = " ".join(map(float.hex, floats)) + f" {mc.orbit_dim} {mc.stab_dim}"
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def _lambdas(lam: float) -> list:
    """``lam`` as a float, a Fraction and, when it is whole, an int."""
    return [lam, Fraction(lam)] + ([int(lam)] if lam.is_integer() else [])


@pytest.fixture(scope="module")
def stored() -> dict:
    return {(text, float.fromhex(lam)): digest
            for text, lam, digest in json.loads(FIXTURE.read_text())}


def test_every_row_keeps_its_bits_for_float_int_and_fraction_lambda(stored):
    rows = _rows()
    assert len(rows) == 377 + 51 + len(ROWS) == len(stored)
    types = set()
    for text, lam in rows:
        for value in _lambdas(lam):
            assert _row_digest(text, value) == stored[text, lam], (text, value)
            types.add(type(value))
    assert types == {float, int, Fraction}


def _regenerate():
    rows = [[text, lam.hex(), _row_digest(text, lam)] for text, lam in _rows()]
    FIXTURE.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")


if __name__ == "__main__":
    _regenerate()
