"""Check that an installed ``fano95`` audits byte for byte as its checkout does.

    python ci/installed_parity.py

The checkout is the repository holding this script.  The installed side runs
the ``audit`` console script found on PATH, and this interpreter on the
demos, with this process's environment, so the installed package must be
importable from outside the checkout: by ``pip install .``, or by a
PYTHONPATH that names the install's site-packages.  The checkout side runs
``python -m fano95`` and the demos with PYTHONPATH set to its ``src`` alone.
Both sides run in a fresh temporary directory, and an installed ``fano95``
that is imported from inside the checkout is refused, so the installed side
cannot read the checkout's sources by accident.

Compared by exit code, stdout bytes and stderr bytes: the twelve COMMANDS,
three of them on the seed-3 950-row table of ``perfbench/widetable.py`` and
two that exit 2 (a usage error, and a table missing from the temporary
directory), and every demo in ``demos/``, which must also exit 0.  On the
installed side ``full --format json`` on that table must exit 1 (its JSON
round-trips; its certificates fail) and ``validate`` must exit 0.  Exits 0
when everything agrees, else 1 with one line per difference on stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: The repository this script belongs to.
CHECKOUT = Path(__file__).resolve().parents[1]

#: The audits compared, as argument strings; "WIDE" stands for the wide table.
COMMANDS = (
    "full --format json", "full", "certify --format json", "certify", "validate",
    "lists", "lists --format json", "full --format json --table WIDE",
    "full --table WIDE", "certify --table WIDE",
    "full --bogus", "certify --table missing.tsv",
)

#: The ``perfbench/widetable.py`` seed of the wide table.
WIDE_SEED = 3

_WRITE_WIDE = ("import sys, widetable; from fano95 import load_packaged_families; "
               f"sys.stdout.write(widetable.generate(load_packaged_families(), {WIDE_SEED})[0])")


def _run(argv: list[str], env: dict, cwd: Path) -> tuple[int, bytes, bytes]:
    result = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=600)
    return result.returncode, result.stdout, result.stderr


def _with_path(env: dict, *entries: str) -> dict:
    return dict(env, PYTHONPATH=os.pathsep.join(e for e in entries if e))


def check(work: Path) -> list[str]:
    """Every difference between the installed and the checkout audits, run in ``work``."""
    installed = dict(os.environ)
    local = _with_path(installed, str(CHECKOUT / "src"))
    code, out, _ = _run([sys.executable, "-c", "import fano95; print(fano95.__file__)"],
                        installed, work)
    where = out.decode().strip()
    if code or CHECKOUT in Path(where).resolve().parents:
        return [f"no installed fano95 outside the checkout (exit {code}, found {where!r})"]
    code, text, err = _run([sys.executable, "-c", _WRITE_WIDE],
                           _with_path(installed, str(CHECKOUT / "perfbench"),
                                      installed.get("PYTHONPATH", "")), work)
    if code:
        return [f"writing the seed-{WIDE_SEED} wide table exited {code}: {err.decode()[-300:]}"]
    wide = work / f"wide{WIDE_SEED}.tsv"
    wide.write_bytes(text)
    problems = []
    for args, expected in ((["full", "--format", "json", "--table", str(wide)], 1),
                           (["validate"], 0)):
        code, _, _ = _run(["audit", *args], installed, work)
        if code != expected:
            problems.append(f"installed audit {' '.join(args)}: exit {code}, want {expected}")
    runs = []  # (name, installed argv, checkout argv, whether it must exit 0)
    for command in COMMANDS:
        args = [str(wide) if a == "WIDE" else a for a in command.split()]
        runs.append((f"audit {command}", ["audit", *args],
                     [sys.executable, "-m", "fano95", *args], False))
    for demo in sorted((CHECKOUT / "demos").glob("*.py")):
        runs.append((f"demo {demo.name}", [sys.executable, str(demo)],
                     [sys.executable, str(demo)], True))
    for name, mine, theirs, must_pass in runs:
        got, want = _run(mine, installed, work), _run(theirs, local, work)
        if got != want or (must_pass and got[0] != 0):
            problems.append(f"{name}: installed exit {got[0]}, {len(got[1])} bytes; "
                            f"checkout exit {want[0]}, {len(want[1])} bytes"
                            + ("" if got[1] == want[1] else ", stdout differs")
                            + ("" if got[2] == want[2] else ", stderr differs"))
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        problems = check(Path(work))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
