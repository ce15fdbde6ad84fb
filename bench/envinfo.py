"""Where the package under test lives, and the environment record.

The benchmark measures the ``solvgeo`` sources of the checkout it sits in
(``<root>/src``), never an installed copy.  ``use_source`` puts that
directory first on ``sys.path`` and fails when it is missing, so a
directory holding only the benchmark exits with an error instead of
measuring something else.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "solvgeo"


class MissingSourceError(RuntimeError):
    """The checkout has no ``src/solvgeo`` to measure."""


def use_source() -> None:
    """Import ``solvgeo`` from ``<root>/src`` or raise MissingSourceError."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSourceError(f"no solvgeo sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import solvgeo

    where = Path(solvgeo.__file__).resolve().parent
    if where != PACKAGE:
        raise MissingSourceError(f"solvgeo imported from {where}, not {PACKAGE}")


def child_env() -> dict:
    """Environment for a fresh interpreter that must import the same sources."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def source_digest() -> str:
    """sha256 over the package sources, in file-name order."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _version(dist: str) -> str | None:
    # read from the installed metadata: importing scipy here would add its
    # import time and memory to the process being measured
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record() -> dict:
    """Versions, machine and source identity to store with every result.

    The machine is measured as it is: nothing is pinned or flushed, so
    results carry their spread instead.
    """
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }
