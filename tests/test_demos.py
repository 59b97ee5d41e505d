"""Every demo script runs to completion against the public API and prints
exactly its golden output, and the README's library tour runs clean."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: ``ci/golden.py``, which keeps each demo's stdout in a file under
#: ``tests/golden/demos/``, so a change to the public API cannot alter what the
#: demos print without a test failing.
GOLDEN = runpy.run_path(str(ROOT / "ci" / "golden.py"))


def _run(*args, encoding="utf-8"):
    """Run the interpreter on ``args`` with the checkout's ``src`` on PYTHONPATH
    and stdout in ``encoding``, UTF-8 as ``ci/golden.py`` writes the demos'
    golden files unless given."""
    env = dict(os.environ, PYTHONIOENCODING=encoding)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    result = _run(str(demo))
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""  # a warning under PYTHONDEVMODE=1 would show here
    diff = GOLDEN["mismatch"](GOLDEN["demo_file"](demo), result.stdout)
    assert diff is None, f"{demo.name}: the output differs from its golden file\n{diff}"


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "cp1252"])
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_bytes_do_not_follow_the_locale(demo, encoding):
    # The demos print ASCII, so any stdout encoding writes the golden bytes.
    result = _run(str(demo), encoding=encoding)
    assert (result.returncode, result.stderr.decode()) == (0, "")
    diff = GOLDEN["mismatch"](GOLDEN["demo_file"](demo), result.stdout)
    assert diff is None, f"{demo.name} under {encoding}: the output differs\n{diff}"


def test_readme_library_tour_runs():
    # The README's "Library tour" block runs as written in a fresh interpreter,
    # so a renamed or removed name cannot leave it stale.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1]
    result = _run("-c", tour.split("\n```", 1)[0])
    assert (result.returncode, result.stderr.decode()) == (0, "")
