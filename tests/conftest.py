"""Shared fixtures: the packaged family database and surface-row table, the
kinds of source a table loads from, and the seeded wide tables of
``perfbench/widetable.py``."""

import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fano95 import format_rational, load_packaged_families, load_packaged_surface_rows

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


@pytest.fixture(params=["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def line_end(request):
    """Each line end a table may use."""
    return request.param


@pytest.fixture(params=["path", "bytes", "text"])
def table_source(request, tmp_path):
    """A function from a table's text to a source of it of each kind the
    loaders take: a file, a byte stream and a text stream."""
    def source(text: str):
        if request.param == "path":
            path = tmp_path / "table.tsv"
            path.write_bytes(text.encode())
            return path
        return io.BytesIO(text.encode()) if request.param == "bytes" else io.StringIO(text)
    return source


@pytest.fixture
def digit_limit():
    """The most digits ``int()`` and ``str()`` convert (4,300 by default); the
    test is skipped where there is no such limit, or it is switched off."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    return limit


@pytest.fixture
def conic_overflow_weights(digit_limit):
    """Weights (1, x, x+1, x+2, x+3), x = 98·10^(limit/4 − 2), d = 4x + 6: as
    family 3, A³'s text has 4,300 digits at the default limit, so it prints,
    but its conic's test-class value 6·A³ − 16 has one digit more."""
    x = 98 * 10 ** (digit_limit // 4 - 2)
    weights = (1, x, x + 1, x + 2, x + 3)
    cap = Fraction(sum(weights) - 1, x * (x + 1) * (x + 2) * (x + 3))
    format_rational(cap)
    with pytest.raises(ValueError):
        format_rational(6 * cap - 16)
    return weights


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
