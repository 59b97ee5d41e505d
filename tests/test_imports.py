"""Cold start: importing the CLI must not pull in ``dataclasses`` or the
source-introspection modules it imports.

Each import runs in a fresh ``python -S`` process, so only the package's own
imports count, not the environment's ``.pth`` files.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules ``dataclasses`` imports that a cold start would otherwise skip.
INTROSPECTION = ("inspect", "ast", "dis", "tokenize")


def _modules_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` after ``statement``, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_cli_import_skips_dataclasses_and_introspection():
    loaded = _modules_after("import fano95.cli")
    assert "fano95.cli" in loaded
    assert "dataclasses" not in loaded
    # From 3.12 on, importlib.resources loads inspect by itself; only modules
    # that the CLI's stdlib imports leave out may be checked.
    baseline = _modules_after("import importlib.resources, argparse, json, fractions")
    assert sorted(m for m in INTROSPECTION if m not in baseline and m in loaded) == []
