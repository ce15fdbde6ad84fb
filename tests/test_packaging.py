"""The package's declared runtime dependencies, its README examples and
the names that the benchmark traces."""

import ast
import importlib
import inspect
import re
import shlex
import sys
from pathlib import Path

import pytest

from solvgeo import cli

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
    # each print's line against its "# value" comment; "..." ends a prefix
    shown = [line.split("#", 1)[1].strip() for line in block.group(1).splitlines()
             if line.startswith("print(")]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown) == 5
    for out, value in zip(printed, shown):
        head, dots, _ = value.partition("...")
        assert out.startswith(head) if dots else out == value, (out, value)


def _readme_command_line() -> str:
    """The "Command line" section of README.md."""
    text = (ROOT / "README.md").read_text()
    return text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_run(capsys):
    block = re.search(r"```sh\n(.*?)```", _readme_command_line(), re.S)
    assert block is not None, "README.md has no Command line sh block"
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    assert len(commands) == 7 and all(argv[0] == "solvgeo" for argv in commands)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out, argv


def test_readme_cli_transcripts_match(capsys):
    transcripts = re.findall(r"```\n\$ (solvgeo .*?)\n(.*?)```", _readme_command_line(), re.S)
    assert len(transcripts) == 2
    for command, shown in transcripts:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out == shown, command


def test_bench_traced_names_exist():
    # the benchmark wraps each function named in bench/spans.py LAYERS; read
    # the table from the source so that bench/ need not be importable here
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    layers = ast.literal_eval(value)
    assert layers
    for module, names in layers.items():
        mod = importlib.import_module(f"solvgeo.{module}")
        for name in names:
            assert inspect.isfunction(getattr(mod, name, None)), f"solvgeo.{module}.{name}"


VERDICT_PATH = {
    "FAMILY_TAGS", "Family", "parse_family", "make_family",
    "metric_to_group", "rep_matrix", "reduce",
    "solvsoliton_check", "soliton_from_frame", "orbit_at",
    "derivation_algebra", "ricci_canonical",
    "InvalidFamilyError", "NonSPDMetricError", "SingularMatrixError",
}


def test_public_surface_is_the_verdict_path():
    # every other name is imported from the module that defines it
    solvgeo = importlib.import_module("solvgeo")
    assert set(solvgeo.__all__) == VERDICT_PATH
    assert len(solvgeo.__all__) == len(VERDICT_PATH)
    for name in solvgeo.__all__:
        assert hasattr(solvgeo, name), name
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "solvgeo"
                for alias in node.names}
    assert imported and imported <= VERDICT_PATH


def test_thresholds_are_the_named_few():
    # a float literal this small or large is a threshold: it must be the value
    # of a module-level NAME = literal, and these three are all there are
    found = set()
    for path in sorted((ROOT / "src" / "solvgeo").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named = {node.value: node.targets[0].id for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and (0 < abs(node.value) <= 1e-6 or abs(node.value) >= 1e6)):
                assert node in named, f"{path.name}:{node.lineno} {node.value!r}"
                found.add(f"{path.stem}.{named[node]}")
    assert found == {"linalg.ZERO_TOL", "linalg.RANK_TOL", "linalg.LQ_DET_TOL"}


def test_one_inverse():
    # linalg.exact_inv is the package's one 3x3 inverse: no module reaches numpy's
    # inverse or condition number, as an attribute or by import
    found = []
    for path in sorted((ROOT / "src" / "solvgeo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([ast.unparse(node)] if isinstance(node, ast.Attribute) else
                     [f"{node.module}.{a.name}" for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if re.search(r"linalg\.(inv|cond)$", name)]
    assert found == []
