"""CLI output corpus: every subcommand's output on fixed inputs.

Each case reruns ``solvgeo <argv> --format json`` and compares the output
with the stored fixture ``data/cli_corpus.json``.  The output must be
byte-identical, except for the float entries of the mean curvature fields
``H``, ``H_norm`` and ``per_normal``, which are the last digits of an
orthonormalization and must agree to ``FLOAT_TOL`` absolute (keys, lengths,
orbit and stabilizer dimensions and every boolean still match exactly).
Each output is parsed as strict JSON: a NaN or Infinity token fails its case.
The same cases rerun with ``--format csv`` and ``--format table`` and
compare with ``data/cli_corpus_text.json`` under the same rule: the text
is byte-identical outside the numbers of those three fields.

To regenerate the fixtures after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_corpus.py``.  A tolerant field
within FLOAT_TOL of its stored value keeps that value, and the text
fixture is rendered from the JSON one, so only what moved is rewritten.
Before it writes, it prints the largest absolute and relative change of
each JSON field against the old fixture, and every change that is not a
float's (exit code, verdict, dimension, boolean, string, key or length);
say those in the change.
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import re

import pytest

from helpers import strict_json
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
    # lambda = 1 exactly: the closed-form Cartan split at B = I
    + [["reduce", "--family", "r3pa:a=1.0", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1"]]
    # lambda about 3e-13, past COND_LIMIT: the brackets of g_lambda in closed form
    + [["reduce", "--family", "r3", "--gram", "1", "0", "0", "0", "1", "0", "0", "0", "1e-25"]]
    # L32 / L22 = 1e160: h^-1 A h is read without squaring it
    + [["orbit", "--family", "r3pa:a=1.0", "--gram",
        "1", "0", "0", "0", "1e200", "-1e20", "0", "-1e20", "1e-140"]]
    # rows that an absolute tol read wrong: the verdicts are exact (ROADMAP item 1)
    + [["verify", "--family", "r3pa:a=0.375", "--lambda", "1.000000001"],
       ["verify", "--family", "r3a:a=0.5", "--lambda", "1e-9"],
       ["verify", "--family", "r3", "--lambda", "1e-12,1e-300"],
       ["verify", "--family", "r3a:a=0.999999999999", "--lambda", "0,2"],
       ["soliton", "--family", "r3", "--lambda", "1e-12"]]
    # Gram rows whose residual an absolute tol read as a soliton: r3 has none,
    # and r3_a's is at lambda = 0 (ROADMAP item 4)
    + [["soliton", "--family", "r3", "--gram", "1e200", "0", "0", "0", "1", "0", "0", "0",
        "1e-100"],
       ["soliton", "--family", "r3a:a=0.5", "--gram",
        "1e8", "0", "0", "0", "1e8", "5e7", "0", "5e7", "1e8"]]
)


# a number together with the blanks that pad it to its column
_NUMBER = re.compile(r"\s*-?\d+(?:\.\d*)?(?:e[+-]?\d+)?")
_CASE_IDS = [" ".join(a[:3]) + f"#{i}" for i, a in enumerate(CASES)]


def _run(capsys, argv, fmt="json"):
    code = cli.main(argv + ["--format", fmt])
    return code, capsys.readouterr().out


def _mismatches(actual, expected, where) -> list:
    """Where ``actual`` departs from ``expected``: the structure must match,
    floats to FLOAT_TOL and everything else exactly."""
    if isinstance(expected, float) and isinstance(actual, float):
        return [] if abs(actual - expected) <= FLOAT_TOL else [where]
    if isinstance(expected, list) and isinstance(actual, list) and len(actual) == len(expected):
        return [m for i, (x, y) in enumerate(zip(actual, expected))
                for m in _mismatches(x, y, f"{where}[{i}]")]
    if isinstance(expected, dict) and isinstance(actual, dict) and list(actual) == list(expected):
        return [m for k in expected for m in _mismatches(actual[k], expected[k], f"{where}.{k}")]
    return [] if type(actual) is type(expected) and actual == expected else [where]


def _pin_tolerant(actual, expected, where, check=True):
    """Copy the expected values over the tolerant fields of ``actual`` that
    are within FLOAT_TOL of them; with ``check``, fail on one that is not."""
    if isinstance(actual, list) and isinstance(expected, list):
        for i, (x, y) in enumerate(zip(actual, expected)):
            _pin_tolerant(x, y, f"{where}[{i}]", check)
    elif isinstance(actual, dict) and isinstance(expected, dict):
        for k in actual:
            if k in TOLERANT_KEYS and k in expected:
                moved = _mismatches(actual[k], expected[k], f"{where}.{k}")
                assert not (check and moved), moved
                if not moved:
                    actual[k] = expected[k]
            elif k in expected:
                _pin_tolerant(actual[k], expected[k], f"{where}.{k}", check)


def _load():
    return {tuple(case["argv"]): case for case in json.loads(FIXTURE.read_text())}


def test_corpus_covers_every_case():
    assert sorted(_load()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_CASE_IDS)
def test_cli_output_matches_corpus(capsys, argv):
    case = _load()[tuple(argv)]
    code, text = _run(capsys, argv)
    assert code == case["code"]
    actual = strict_json(text)
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
    _check_text(fmt, text, case[fmt])


def _check_text(fmt, text, stored):
    """``text`` is ``stored`` outside the tolerant numbers, and those are
    within FLOAT_TOL."""
    actual, numbers = _mask_tolerant(fmt, text)
    expected, want = _mask_tolerant(fmt, stored)
    assert actual == expected
    assert len(numbers) == len(want)
    for i, (x, y) in enumerate(zip(numbers, want)):
        assert abs(x - y) <= FLOAT_TOL, (i, x, y)


def _capture(argv, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", fmt])
    return code, buf.getvalue()


def _changes(old, new, field, where, floats, others):
    """Collect the float changes per field and every other change from old to new."""
    if type(old) is float and type(new) is float:
        if old != new:
            delta = abs(new - old)
            floats.setdefault(field, []).append(
                (delta, delta / abs(old) if old else math.inf, where))
    elif type(old) is list and type(new) is list and len(old) == len(new):
        for x, y in zip(old, new):
            _changes(x, y, field, where, floats, others)
    elif type(old) is dict and type(new) is dict and list(old) == list(new):
        for k in old:
            _changes(old[k], new[k], k, where, floats, others)
    elif type(old) is not type(new) or old != new:
        others.append(f"{where}: {field} {json.dumps(old)} -> {json.dumps(new)}")


def _change_report(old_cases, new_cases) -> str:
    """The largest float change per JSON field, then every non-float change."""
    old = {tuple(c["argv"]): c for c in old_cases}
    floats, others = {}, []
    for case in new_cases:
        argv = tuple(case["argv"])
        if argv in old:
            _changes(old.pop(argv), case, "case", " ".join(argv), floats, others)
        else:
            others.append(f"{' '.join(argv)}: new case")
    others += [f"{' '.join(argv)}: case removed" for argv in old]
    lines = ["largest float change per field (absolute, relative):"]
    for field, found in sorted(floats.items()):
        big, rel = max(found), max(found, key=lambda x: x[1])
        lines.append(f"  {field}: {big[0]:.3g} at {big[2]!r}, {rel[1]:.3g} at {rel[2]!r}"
                     f" ({len(found)} values)")
    if not floats:
        lines.append("  none")
    lines.append("non-float changes:")
    lines += [f"  {x}" for x in others] or ["  none"]
    return "\n".join(lines) + "\n"


def test_change_report_names_every_change():
    old = [{"argv": ["a"], "code": 0, "output": {"x": [1.0, 2.0], "ok": True, "dim": 4}},
           {"argv": ["b"], "code": 0, "output": {"x": [0.0]}}]
    new = [{"argv": ["a"], "code": 1, "output": {"x": [1.0, 2.5], "ok": False, "dim": 4.0}},
           {"argv": ["c"], "code": 0, "output": {}}]
    assert _change_report(old, new).splitlines() == [
        "largest float change per field (absolute, relative):",
        "  x: 0.5 at 'a', 0.25 at 'a' (1 values)",
        "non-float changes:",
        "  a: code 0 -> 1",
        "  a: ok true -> false",
        "  a: dim 4 -> 4.0",
        "  c: new case",
        "  b: case removed"]


def _render(output, fmt):
    """The corpus JSON document ``output`` as the CLI prints it in ``fmt``."""
    if isinstance(output, list):  # verify rows, under their field names
        names = {"lambda": "lam", "H_norm": "h_norm"}
        output = [cli.VerifyRow(**{names.get(k, k): v for k, v in row.items()})
                  for row in output]
    return cli.emit_report(output, fmt)


def _regenerate(fixture=FIXTURE, text_fixture=TEXT_FIXTURE):
    """Rewrite both fixtures from the current code.  A tolerant field within
    FLOAT_TOL of its stored value keeps that value, and the text fixture is
    the rendering of the JSON one, so a rerun rewrites only what moved."""
    old = json.loads(fixture.read_text()) if fixture.exists() else []
    stored = {tuple(c["argv"]): c["output"] for c in old}
    cases, texts = [], []
    for argv in CASES:
        code, out = _capture(argv, "json")
        output = strict_json(out)
        if tuple(argv) in stored:
            _pin_tolerant(output, stored[tuple(argv)], "output", check=False)
        cases.append({"argv": argv, "code": code, "output": output})
        texts.append({"argv": argv, **{fmt: _render(output, fmt) for fmt in TEXT_FORMATS}})
        for fmt in TEXT_FORMATS:
            _check_text(fmt, _capture(argv, fmt)[1], texts[-1][fmt])
    if old:
        print(_change_report(old, cases), end="")
    fixture.parent.mkdir(exist_ok=True)
    fixture.write_text(json.dumps(cases, indent=1) + "\n")
    text_fixture.write_text(json.dumps(texts, indent=1) + "\n")


def test_regeneration_rewrites_nothing_at_the_current_code(tmp_path):
    fixture, text_fixture = tmp_path / FIXTURE.name, tmp_path / TEXT_FIXTURE.name
    fixture.write_bytes(FIXTURE.read_bytes())
    text_fixture.write_bytes(TEXT_FIXTURE.read_bytes())
    _regenerate(fixture, text_fixture)
    assert fixture.read_bytes() == FIXTURE.read_bytes()
    assert text_fixture.read_bytes() == TEXT_FIXTURE.read_bytes()


if __name__ == "__main__":
    _regenerate()
