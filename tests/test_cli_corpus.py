"""CLI output corpus: every subcommand's JSON output on fixed inputs.

Each case reruns ``solvgeo <argv> --format json`` and compares the output
with the stored fixture ``data/cli_corpus.json``.  The output must be
byte-identical, except for the float entries of the mean curvature fields
``H``, ``H_norm`` and ``per_normal``, which are the last digits of an
orthonormalization and must agree to ``FLOAT_TOL`` absolute (keys, lengths,
orbit and stabilizer dimensions and every boolean still match exactly).

To regenerate the fixture after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_corpus.py`` and say in the change
which fields moved.
"""

import contextlib
import io
import json
import pathlib

import pytest

from solvgeo import cli

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"
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
       ["der", "--family", "r3pa:a=1.0", "--exact"]]
    + [["soliton", "--family", "h3"],
       ["soliton", "--family", "r3a:a=0.5", "--lambda", "0"],
       ["soliton", "--family", "r3pa:a=2.0", "--gram"] + _GRAM_GENERIC]
    + [["ricci", "--family", "h3", "--gram", "4", "0", "0", "0", "1", "0", "0", "0", "1"],
       ["ricci", "--family", "r3_1"],
       ["ricci", "--family", "r3pa:a=1.0", "--exact", "--gram"] + _GRAM_GENERIC]
)


def _run(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
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


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a[:3]) + f"#{i}"
                                              for i, a in enumerate(CASES)])
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


def _regenerate():
    cases = []
    for argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--format", "json"])
        cases.append({"argv": argv, "code": code, "output": json.loads(buf.getvalue())})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
