"""Every demo script runs to completion against the public API and prints
exactly the pinned output."""

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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_OUTPUT_SHA256[demo.name]
