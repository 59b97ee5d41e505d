"""The installed package audits as the checkout does: ``ci/installed_parity.py``
run against a real, offline install of a copy of the checkout; and it carries
the version the package states."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_package_version_is_the_pyproject_version():
    # Read with a regex: tomllib is new in Python 3.11, and 3.10 is supported.
    import fano95

    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', text, re.M) == [fano95.__version__]


def test_installed_package_matches_the_checkout(tmp_path):
    """Install with ``setuptools.setup() install --root``, then run the CI script.

    This is a stand-in for the workflow's ``pip install .``: it needs no
    network and no ``wheel``, but it is not the wheel build, and
    ``pyproject.toml`` asks for setuptools >= 68 where this path takes any
    setuptools that reads ``[project]``.  What it checks that a PYTHONPATH
    copy of ``src`` cannot is the package-data glob and the ``audit`` entry
    point.  Where setuptools is missing or cannot install this way (setup-
    python on 3.12 and later may ship no setuptools), the test skips and the
    workflow's real ``pip install .`` still runs the same script.
    """
    source = tmp_path / "source"
    source.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, source / name)
    shutil.copytree(ROOT / "src", source / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    root = tmp_path / "root"
    install = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "install", "--root", str(root), "--prefix", "/p"],
        cwd=source, capture_output=True, text=True, timeout=300,
    )
    if install.returncode:
        pytest.skip(f"setuptools cannot install offline here: {install.stderr[-300:]}")
    packages = list(root.glob("p/**/fano95/__init__.py"))
    scripts = list(root.glob("p/**/audit"))
    assert len(packages) == len(scripts) == 1, (packages, scripts)
    assert sorted(p.name for p in (packages[0].parent / "data").iterdir()) == [
        "families.tsv", "surface_rows.tsv"]
    env = dict(os.environ, PYTHONPATH=str(packages[0].parent.parent),
               PATH=os.pathsep.join([str(scripts[0].parent), os.environ.get("PATH", "")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "ci" / "installed_parity.py")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
