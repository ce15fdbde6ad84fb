"""The ``--help`` text of ``solvgeo`` and of each subcommand, pinned byte for byte.

The fixture ``data/cli_help.json`` maps each command (``""`` for the bare
``solvgeo``) to what ``--help`` prints.  argparse wraps help to the terminal
width, so every text is taken at ``COLUMNS=80``.

To regenerate the fixture after a deliberate change of an option or its
help, run ``PYTHONPATH=src python tests/test_cli_help.py``, and say in the
change which text moved and why.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from solvgeo import cli

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_help.json"

COMMANDS = ("", "families", "ricci", "der", "reduce", "soliton", "orbit", "verify")


def _help(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main([command, "--help"] if command else ["--help"])
        except SystemExit as exc:
            assert exc.code == 0, command
    return buf.getvalue()


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("command", COMMANDS)
def test_help_text_is_pinned(stored, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(stored) == list(COMMANDS)
    assert _help(command) == stored[command]


def _regenerate():
    os.environ["COLUMNS"] = "80"
    FIXTURE.write_text(json.dumps({c: _help(c) for c in COMMANDS}, indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
