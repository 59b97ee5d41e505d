"""Every demo script runs to completion against the public API and prints
exactly the pinned output, and the README's library tour runs clean."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: SHA-256 of each demo's stdout, so a change to the public API cannot alter
#: what the demos print without a test failing.
DEMO_OUTPUT_SHA256 = {
    "01_family_table.py": "e140ed9c0755bdddd3c78cb69b00d8dc4e62315a5ee2dab0da1008412fe338fb",
    "02_case_analysis.py": "ea977870356d0bc043b7f3009c6cdbec5bdcc1d8204bbb67b726e07b2bd20dfb",
    "03_certificates.py": "99e8f13cb5ac3bd695de51f9a558ab6affef3f8bccb6c3dcb5f304415900b71f",
    "04_coverage_and_reports.py": "0b3f55f32b6fb2c3cb3b376aa397ad54471843d41891966a97dbf35b283531d5",
}


def _run(*args):
    """Run the interpreter on ``args`` with the checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    result = _run(str(demo))
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""  # a warning under PYTHONDEVMODE=1 would show here
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_OUTPUT_SHA256[demo.name]


def test_readme_library_tour_runs():
    # The README's "Library tour" block runs as written in a fresh interpreter,
    # so a renamed or removed name cannot leave it stale.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1]
    result = _run("-c", tour.split("\n```", 1)[0])
    assert (result.returncode, result.stderr.decode()) == (0, "")
