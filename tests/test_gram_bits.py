"""The numbers of the Gram path, pinned bit for bit.

A Gram item runs ``moduli.metric_to_group``, ``moduli.reduce`` on its
frame, ``moduli.witness_residual``, ``soliton.solvsoliton_check`` and
``curvature.ricci_operator``.  The fixture ``data/gram_bits.json`` holds,
for each input, a digest of every number each of those returns, every
float as ``float.hex`` (so a -0.0 counts), or of the message of its
refusal.  The inputs are seeded Gram matrices of every family at scales
10^k, k in -6..6 (the top scales meet ``linalg.LQ_DET_TOL``, ROADMAP item
4), the Gram matrices of the CLI corpus, a few refused ones, and group
elements that are not lower triangular, which ``reduce`` takes through
its QR.  Each input is stored as it was drawn.  The digests were taken
while the Gram path still did its arithmetic on numpy arrays, so a digit
that moves since is a defect, not rounding.  A nested list, and an int
array where the entries are whole, give the same numbers as the float
array.

The module also holds the Gram path's test of aim 3: under G -> 4^k G,
``reduce`` keeps lambda, the representative, phi and the orthogonal
factor bit for bit and scales its scalar by 2^k, and the soliton split
scales by 4^-k.

To regenerate the fixture after a deliberate change of the numbers, run
``PYTHONPATH=src python tests/test_gram_bits.py``, and say in the change
which inputs moved and why.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FAMILIES, FAMILY_STRINGS, random_group_element, random_spd
from solvgeo import curvature, moduli, soliton
from solvgeo.errors import SingularMatrixError
from solvgeo.lie_core import make_family, parse_family

FIXTURE = pathlib.Path(__file__).parent / "data" / "gram_bits.json"

# the Gram matrices of tests/test_cli_corpus.py
CORPUS_GRAMS = (
    [[1, 0, 0], [0, 1, 0.5], [0, 0.5, 1]],
    [[2, 0.3, -0.4], [0.3, 1.5, 0.2], [-0.4, 0.2, 0.8]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 16]],
    [[4, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1e-25]],
    [[1, 0, 0], [0, 1e200, -1e20], [0, -1e20, 1e-140]],
    [[1e200, 0, 0], [0, 1, 0], [0, 0, 1e-100]],
    [[1e8, 0, 0], [0, 1e8, 5e7], [0, 5e7, 1e8]],
)
# whole entries, read again as a nested list of ints and as an int array
INTEGER_GRAMS = (
    [[2, 1, 0], [1, 3, -1], [0, -1, 5]],
    [[7, -2, 3], [-2, 4, 1], [3, 1, 6]],
    [[1, 0, 0], [0, 9, 4], [0, 4, 2]],
)
# refused: not symmetric, indefinite, not finite, not 3x3, and a negative exact pivot
REFUSED_GRAMS = (
    [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 2, 0], [2, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, math.nan, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, math.inf]],
    [[1, 0], [0, 1]],
    [[10, 0, 0], [0, 0.11282462554412924, 0.4471535199604686],
     [0, 0.4471535199604686, 1.7721864304777324]],
)
# refused group elements: not finite, near singular, not 3x3
REFUSED_ELEMENTS = (
    [[1, 0, 0], [0, 1, math.nan], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1e-12]],
    [[1, 0], [0, 1]],
)


def _cases() -> list:
    """``(kind, family text, input)``: kind "gram" runs the whole Gram path
    on a Gram matrix, kind "g" ``reduce`` and its witness on a group element."""
    cases = []
    for i, text in enumerate(FAMILY_STRINGS):
        rng = np.random.default_rng([4501, i])
        for _ in range(2):
            base = random_spd(rng)
            cases += [("gram", text, 10.0 ** k * base) for k in range(-6, 7)]
        cases += [("gram", text, np.array(G, dtype=float))
                  for G in CORPUS_GRAMS + INTEGER_GRAMS]
        cases += [("g", text, random_group_element(rng)) for _ in range(3)]
        cases.append(("g", text, np.tril(random_group_element(rng))))
    cases += [("gram", "r3a:a=0.5", np.array(G, dtype=float)) for G in REFUSED_GRAMS]
    cases += [("g", "r3", np.array(g, dtype=float)) for g in REFUSED_ELEMENTS]
    return cases


def _floats(*values) -> str:
    out = []
    for v in values:
        out += np.asarray(v, dtype=float).ravel().tolist() if np.ndim(v) else [float(v)]
    return " ".join(map(float.hex, out))


def _stage(fn) -> str:
    """A short digest of ``fn()``'s record, or of its refusal."""
    try:
        record = fn()
    except (ValueError, ArithmeticError) as exc:
        record = f"refused: {type(exc).__name__}: {exc}"
    return hashlib.sha256(record.encode()).hexdigest()[:12]


def _reduce_record(fam, g) -> str:
    rep, trace = moduli.reduce(fam, g)
    steps = " ".join(f"{name} {_floats(m)}" for name, m in trace.steps)
    return (f"{_floats(rep.lam, rep.matrix, trace.scalar, trace.auto_part, trace.orth)} "
            f"{steps}")


def _witness_record(fam, g) -> str:
    rep, trace = moduli.reduce(fam, g)
    return _floats(moduli.witness_residual(rep, trace, g))


def _soliton_record(fam, gram) -> str:
    v = soliton.solvsoliton_check(make_family(fam), gram)
    return f"{v.is_soliton} {v.is_einstein} {_floats(v.c, v.d, v.residual)}"


def _ricci_record(fam, gram) -> str:
    res = curvature.ricci_operator(curvature.MetricData(make_family(fam), gram))
    return _floats(res.ric_frame, res.ric_canonical, res.scalar)


def _digests(kind: str, text: str, x) -> list:
    """One digest per stage of the Gram path on ``x`` (a Gram matrix for
    kind "gram", a group element for kind "g")."""
    fam = parse_family(text)
    if kind == "g":
        return [_stage(lambda: _reduce_record(fam, x)), _stage(lambda: _witness_record(fam, x))]
    try:
        g = moduli.metric_to_group(x)
    except ValueError as exc:
        frame = [_stage(lambda: f"refused: {type(exc).__name__}: {exc}")] * 3
    else:
        frame = [_stage(lambda: _floats(g)), _stage(lambda: _reduce_record(fam, g)),
                 _stage(lambda: _witness_record(fam, g))]
    return frame + [_stage(lambda: _soliton_record(fam, x)), _stage(lambda: _ricci_record(fam, x))]


def _forms(x: np.ndarray) -> list:
    """``x`` as a float array, a nested list, and, when every entry is whole, a
    nested list of ints and an int array."""
    forms = [x, x.tolist()]
    if np.isfinite(x).all() and (x == np.round(x)).all() and np.abs(x).max() < 2 ** 53:
        ints = x.astype(np.int64)
        forms += [ints.tolist(), ints]
    return forms


@pytest.fixture(scope="module")
def stored() -> list:
    return json.loads(FIXTURE.read_text())


def test_every_gram_input_keeps_its_bits_in_every_form(stored):
    assert len(stored) == len(_cases())
    kinds = set()
    for kind, text, entries, digests in stored:
        x = np.array([[float.fromhex(v) for v in row] for row in entries])
        for form in _forms(x):
            assert _digests(kind, text, form) == digests, (kind, text, x, type(form))
            kinds.add((kind, type(form).__name__, np.asarray(form).dtype.kind))
    assert {("gram", "list", "i"), ("gram", "ndarray", "i"), ("g", "list", "f")} <= kinds


def test_the_fixture_holds_the_seeded_inputs(stored):
    # the inputs above are the ones drawn; a numpy that draws others changes
    # only this test, as the fixture keeps what it drew
    for (kind, text, x), (k, t, entries, _) in zip(_cases(), stored):
        assert (kind, text, [[v.hex() for v in row] for row in x.tolist()]) == (k, t, entries)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), fam=st.sampled_from(FAMILIES),
       k=st.integers(-3, 3).filter(bool))
def test_gram_path_scales_exactly_under_powers_of_four(seed, fam, k):
    """Aim 3 on the Gram path: at 4^k G, ``reduce`` of the frame keeps lambda,
    rep, phi and orth bit for bit and its scalar is 2^k times as large, and
    ``solvsoliton_check`` keeps its flags while c, D and the residual are
    4^-k times as large, all exactly.  At larger k ``linalg.LQ_DET_TOL``,
    absolute, refuses the frame (ROADMAP item 4):
    ``test_reduce_refuses_a_scaled_frame_at_lq_det_tol`` pins where."""
    gram = random_spd(np.random.default_rng(seed), 10 ** (seed % 3 - 1))
    scaled = np.ldexp(gram, 2 * k)
    (rep, trace), (rep4, trace4) = (moduli.reduce(fam, moduli.metric_to_group(G))
                                    for G in (gram, scaled))
    assert rep4.lam == rep.lam and rep4.matrix.tobytes() == rep.matrix.tobytes()
    assert trace4.auto_part.tobytes() == trace.auto_part.tobytes()
    assert trace4.orth.tobytes() == trace.orth.tobytes()
    assert trace4.scalar == math.ldexp(trace.scalar, k)
    sc = make_family(fam)
    v, v4 = (soliton.solvsoliton_check(sc, G) for G in (gram, scaled))
    assert (v4.is_soliton, v4.is_einstein) == (v.is_soliton, v.is_einstein)
    assert v4.c == math.ldexp(v.c, -2 * k) and v4.residual == math.ldexp(v.residual, -2 * k)
    assert v4.d.tobytes() == np.ldexp(v.d, -2 * k).tobytes()


def test_reduce_refuses_a_scaled_frame_at_lq_det_tol():
    # the frame of 4^k I is 2^-k I, of determinant 2^-3k: accepted at k = 9
    # (7.5e-9), refused at k = 10 (9.3e-10 < LQ_DET_TOL = 1e-9)
    for fam in FAMILIES:
        assert moduli.reduce(fam, moduli.metric_to_group(np.ldexp(np.eye(3), 18)))[0].lam >= 0
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            moduli.reduce(fam, moduli.metric_to_group(np.ldexp(np.eye(3), 20)))


def _regenerate():
    rows = [[kind, text, [[v.hex() for v in row] for row in x.tolist()], _digests(kind, text, x)]
            for kind, text, x in _cases()]
    FIXTURE.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")


if __name__ == "__main__":
    _regenerate()
