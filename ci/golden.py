"""Rewrite the golden output files under ``tests/golden/``.

    python ci/golden.py

Each file holds the exact stdout of one audit on the packaged tables
(``python -m fano95 COMMAND``) or of one demo in ``demos/``, each run in a
fresh interpreter with the checkout's ``src`` on PYTHONPATH and
PYTHONIOENCODING=utf-8.  The tests compare those outputs with the files
byte for byte; no test writes them.  A change that alters an output on
purpose runs this script, and the diff of the files shows what moved.
Nothing is written unless every run exits 0 with empty stderr; otherwise
each failed run is named on stderr and the script exits 1.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

#: The repository this script belongs to.
CHECKOUT = Path(__file__).resolve().parents[1]

#: The directory of the golden files.
GOLDEN = CHECKOUT / "tests" / "golden"

#: Each audit command whose output is kept, and its file in GOLDEN.
COMMANDS = {
    "validate": "validate.txt",
    "lists": "lists.txt",
    "lists --format json": "lists.json",
    "certify": "certify.txt",
    "certify --format json": "certify.json",
    "full": "full.txt",
    "full --format json": "full.json",
}

#: How many lines of a unified diff a mismatch shows.
DIFF_LINES = 40


def command_file(command: str) -> Path:
    """The golden file of an audit command in COMMANDS."""
    return GOLDEN / COMMANDS[command]


def demo_file(demo: Path) -> Path:
    """The golden file of a demo script."""
    return GOLDEN / "demos" / f"{demo.stem}.txt"


def runs() -> list[tuple[Path, list[str]]]:
    """Each golden file and the interpreter arguments whose stdout it holds."""
    audits = [(command_file(command), ["-m", "fano95", *command.split()])
              for command in COMMANDS]
    demos = [(demo_file(demo), [str(demo)])
             for demo in sorted((CHECKOUT / "demos").glob("*.py"))]
    return audits + demos


def mismatch(path: Path, actual: bytes) -> str | None:
    """None when ``actual`` is the content of the golden file ``path``,
    else the first DIFF_LINES lines of a unified diff from the file to it."""
    expected = path.read_bytes()
    if actual == expected:
        return None
    lines = list(difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(keepends=True),
        actual.decode("utf-8", "replace").splitlines(keepends=True),
        str(path.relative_to(CHECKOUT)), "output",
    ))
    more = len(lines) - DIFF_LINES
    return "".join(lines[:DIFF_LINES]) + (f"... {more} more diff lines\n" if more > 0 else "")


def main() -> int:
    # The demos print through the locale's encoding: fixed to UTF-8, the
    # bytes written do not depend on the locale this script runs in.
    env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"), PYTHONIOENCODING="utf-8")
    env.pop("AUDIT_DATA_DIR", None)
    outputs, failed = {}, []
    for path, args in runs():
        result = subprocess.run([sys.executable, *args], env=env, cwd=CHECKOUT,
                                capture_output=True, timeout=600)
        if result.returncode or result.stderr:
            failed.append(f"{' '.join(args)}: exit {result.returncode}, "
                          f"stderr {result.stderr.decode(errors='replace')[-300:]!r}")
        outputs[path] = result.stdout
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 1
    for path, out in outputs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists() or path.read_bytes() != out:
            path.write_bytes(out)
            print(f"wrote {path.relative_to(CHECKOUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
