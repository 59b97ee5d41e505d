"""Shared fixtures: the packaged family database and surface-row table, and
the seeded wide tables of ``perfbench/widetable.py``."""

import importlib.util
from pathlib import Path

import pytest

from fano95 import load_packaged_families, load_packaged_surface_rows

ROOT = Path(__file__).resolve().parent.parent

#: Seeds of the 950-row wide tables the tests run on; seed 1 is the table
#: the ``wide-text`` benchmark workload audits.
WIDE_SEEDS = (1, 3, 11)


@pytest.fixture(scope="session")
def db():
    return load_packaged_families()


@pytest.fixture(scope="session")
def rows():
    return load_packaged_surface_rows()


@pytest.fixture(scope="session")
def wide_tables(tmp_path_factory):
    """Path of the ``perfbench/widetable.py`` table for each seed in WIDE_SEEDS."""
    spec = importlib.util.spec_from_file_location(
        "widetable", ROOT / "perfbench" / "widetable.py"
    )
    widetable = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(widetable)
    paths = {}
    for seed in WIDE_SEEDS:
        text, _ = widetable.generate(load_packaged_families(), seed)
        path = tmp_path_factory.mktemp(f"wide{seed}") / "rows.tsv"
        path.write_text(text, encoding="utf-8")
        paths[seed] = str(path)
    return paths
