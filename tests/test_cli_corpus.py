"""CLI output corpus: every subcommand's output on fixed inputs.

Each case reruns ``solvgeo <argv> --format json`` and compares the output
with the stored fixture ``data/cli_corpus.json``.  The output must be
byte-identical, except for the float entries of the mean curvature fields
``H``, ``H_norm`` and ``per_normal``, which are the last digits of an
orthonormalization and must agree to ``FLOAT_TOL`` absolute (keys, lengths,
orbit and stabilizer dimensions and every boolean still match exactly).
The same cases rerun with ``--format csv`` and ``--format table`` and
compare with ``data/cli_corpus_text.json`` under the same rule: the text
is byte-identical outside the numbers of those three fields.

To regenerate the fixtures after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_corpus.py`` and say in the change
which fields moved.
"""

import contextlib
import csv
import io
import json
import pathlib
import re

import pytest

from solvgeo import cli

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"
TEXT_FIXTURE = FIXTURE.with_name("cli_corpus_text.json")
TEXT_FORMATS = ("csv", "table")
FLOAT_TOL = 1e-12
TOLERANT_KEYS = ("H", "H_norm", "per_normal")

_GRAM_OFFDIAG = ["1", "0", "0", "0", "1", "0.5", "0", "0.5", "1"]
_GRAM_GENERIC = ["2", "0.3", "-0.4", "0.3", "1.5", "0.2", "-0.4", "0.2", "0.8"]

CASES = (
    [["verify", "--family", s] for s in
     ("r3", "r3a:a=-1.0", "r3a:a=-0.5", "r3a:a=0.0", "r3a:a=0.5",
      "r3pa:a=0.0", "r3pa:a=1.0", "r3pa:a=2.0", "h3", "r3_1")]
    + [["orbit", "--family", "r3pa:a=1.0", "--lambda", "2.0"],
       ["orbit", "--family", "r3pa:a=0.0", "--lambda", "1.0"],
       ["orbit", "--family", "r3a:a=0.5", "--lambda", "-0.7"],
       ["orbit", "--family", "r3", "--lambda", "0.5"],
       ["orbit", "--family", "r3", "--gram"] + _GRAM_GENERIC,
       ["orbit", "--family", "r3_1", "--gram"] + _GRAM_OFFDIAG,
       ["orbit", "--family", "h3"]]
    + [["reduce", "--family", "r3", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "16"],
       ["reduce", "--family", "r3a:a=0.5", "--gram"] + _GRAM_OFFDIAG,
       ["reduce", "--family", "r3pa:a=1.0", "--gram"] + _GRAM_GENERIC,
       ["reduce", "--family", "h3", "--gram"] + _GRAM_GENERIC]
    + [["der", "--family", "r3_1"],
       ["der", "--family", "r3", "--lambda", "2.0"],
       ["der", "--family", "r3pa:a=1.0"]]
    + [["soliton", "--family", "h3"],
       ["soliton", "--family", "r3a:a=0.5", "--lambda", "0"],
       ["soliton", "--family", "r3pa:a=2.0", "--gram"] + _GRAM_GENERIC]
    + [["ricci", "--family", "h3", "--gram", "4", "0", "0", "0", "1", "0", "0", "0", "1"],
       ["ricci", "--family", "r3_1"],
       ["ricci", "--family", "r3pa:a=1.0", "--gram"] + _GRAM_GENERIC]
)


# a number together with the blanks that pad it to its column
_NUMBER = re.compile(r"\s*-?\d+(?:\.\d*)?(?:e[+-]?\d+)?")
_CASE_IDS = [" ".join(a[:3]) + f"#{i}" for i, a in enumerate(CASES)]


def _run(capsys, argv, fmt="json"):
    code = cli.main(argv + ["--format", fmt])
    return code, capsys.readouterr().out


def _check_close(actual, expected, where):
    """Same structure; floats within FLOAT_TOL, everything else equal."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert abs(actual - expected) <= FLOAT_TOL, where
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (x, y) in enumerate(zip(actual, expected)):
            _check_close(x, y, f"{where}[{i}]")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for k in expected:
            _check_close(actual[k], expected[k], f"{where}.{k}")
    else:
        assert type(actual) is type(expected) and actual == expected, where


def _pin_tolerant(actual, expected, where):
    """Check the tolerant fields, then copy the expected values over them."""
    if isinstance(actual, list):
        for i, (x, y) in enumerate(zip(actual, expected)):
            _pin_tolerant(x, y, f"{where}[{i}]")
    elif isinstance(actual, dict):
        for k in actual:
            if k in TOLERANT_KEYS and k in expected:
                _check_close(actual[k], expected[k], f"{where}.{k}")
                actual[k] = expected[k]
            elif k in expected:
                _pin_tolerant(actual[k], expected[k], f"{where}.{k}")


def _load():
    return {tuple(case["argv"]): case for case in json.loads(FIXTURE.read_text())}


def test_corpus_covers_every_case():
    assert sorted(_load()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_CASE_IDS)
def test_cli_output_matches_corpus(capsys, argv):
    case = _load()[tuple(argv)]
    code, text = _run(capsys, argv)
    assert code == case["code"]
    actual = json.loads(text)
    # the output is the canonical rendering of its own content ...
    assert text == json.dumps(actual, indent=2) + "\n"
    # ... and that content matches the corpus outside the tolerant fields
    _pin_tolerant(actual, case["output"], "output")
    assert json.dumps(actual, indent=2) == json.dumps(case["output"], indent=2)


def _mask(text):
    """Replace each number in ``text`` by '#'; return it and the numbers."""
    return _NUMBER.sub("#", text), [float(x) for x in _NUMBER.findall(text)]


def _mask_tolerant(fmt, text):
    """Mask the numbers of the tolerant fields in csv or table output.

    Returns the masked lines (csv: cell lists) and the masked numbers in
    order.  Key/value output is tolerant on the lines of a tolerant key,
    row output in the ``H_norm`` column.
    """
    numbers = []

    def mask(piece):
        masked, found = _mask(piece)
        numbers.extend(found)
        return masked

    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] == ["key", "value"]:
            lines = [[k, mask(v) if k in TOLERANT_KEYS else v] for k, v in rows]
        else:
            cols = [i for i, name in enumerate(rows[0]) if name in TOLERANT_KEYS]
            lines = [rows[0]] + [[mask(c) if i in cols else c for i, c in enumerate(r)]
                                 for r in rows[1:]]
        return lines, numbers
    lines = text.split("\n")
    header = lines[0]
    if ":" not in header:  # rows: a column header, then one line per row
        start, stop = header.index("H_norm"), header.index("orbit_dim")
        return [header] + [ln[:start] + mask(ln[start:stop]) + ln[stop:]
                           for ln in lines[1:]], numbers
    out, key = [], None
    for ln in lines:  # key/value: "key: value", or "key:" and indented lines
        if ln.startswith(" "):
            head, tail = "", ln
        else:
            key, colon, tail = ln.partition(":")
            head = key + colon
        out.append(head + mask(tail) if key in TOLERANT_KEYS else ln)
    return out, numbers


def _load_text():
    return {tuple(case["argv"]): case for case in json.loads(TEXT_FIXTURE.read_text())}


def test_text_corpus_covers_every_case():
    assert sorted(_load_text()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
@pytest.mark.parametrize("argv", CASES, ids=_CASE_IDS)
def test_cli_text_output_matches_corpus(capsys, argv, fmt):
    case = _load_text()[tuple(argv)]
    code, text = _run(capsys, argv, fmt)
    assert code == _load()[tuple(argv)]["code"]
    actual, numbers = _mask_tolerant(fmt, text)
    expected, want = _mask_tolerant(fmt, case[fmt])
    assert actual == expected
    assert len(numbers) == len(want)
    for i, (x, y) in enumerate(zip(numbers, want)):
        assert abs(x - y) <= FLOAT_TOL, (i, x, y)


def _capture(argv, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", fmt])
    return code, buf.getvalue()


def _regenerate():
    cases, texts = [], []
    for argv in CASES:
        code, out = _capture(argv, "json")
        cases.append({"argv": argv, "code": code, "output": json.loads(out)})
        texts.append({"argv": argv, **{fmt: _capture(argv, fmt)[1] for fmt in TEXT_FORMATS}})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n")
    TEXT_FIXTURE.write_text(json.dumps(texts, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
