"""Cold start: importing the CLI must not pull in ``dataclasses``,
``importlib.resources`` or the source-introspection modules they import.

The import runs in a fresh ``python -S`` process, so only the package's own
imports count, not the environment's ``.pth`` files.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a cold start of the CLI leaves out on every supported Python.
SKIPPED = ("dataclasses", "importlib.resources", "inspect", "ast", "dis", "tokenize")


def test_cli_import_skips_dataclasses_and_introspection():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import fano95.cli, sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.split())
    assert "fano95.cli" in loaded
    assert sorted(m for m in SKIPPED if m in loaded) == []
