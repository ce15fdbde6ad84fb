"""The package's declared runtime dependencies and its README example."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set:
    """Top-level names imported anywhere in src/solvgeo that are neither
    standard library nor the package itself."""
    names = set()
    for path in (ROOT / "src" / "solvgeo").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"solvgeo"}


def test_runtime_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0)
                for req in project["dependencies"]}
    assert declared == {"numpy"}
    assert _third_party_imports() == declared


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README.md has no Quick start python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 5
