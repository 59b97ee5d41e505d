"""The ninety-five families of quasismooth Fano 3-fold hypersurfaces.

The classification data (family number, hypersurface degree, weights) ships as
a TSV table inside the package.  Loading re-validates every arithmetic
invariant a record must satisfy — the degree equals the sum of the nontrivial
weights, the weights ascend from 1, and any three of the nontrivial weights
are coprime — so a corrupted table cannot load silently.
"""

from __future__ import annotations

import io
import re
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, Union

from .lemmas import LIST_NAMES, FamilyVerdict, family_verdict
from .wps import Record, Weights, _check_integer, _shown, anticanonical_cube, format_rational

#: Number of families in the classification.
FAMILY_COUNT = 95

FAMILIES_FILENAME = "families.tsv"

#: Canonical TSV column layout: number, d, then the five weights.
TSV_COLUMNS = ("number", "d", "a0", "a1", "a2", "a3", "a4")

#: Tab-separated integers in ASCII digits; ``int()`` alone would also take
#: "+1", "1_0", " 1" and other digit scripts.
_INTEGER_FIELDS = re.compile(r"-?[0-9]+(?:\t-?[0-9]+)*")


class FamilyTableError(ValueError):
    """Base class for errors raised while loading the family table."""


class ParseError(FamilyTableError):
    """A line of the table could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ValidationError(FamilyTableError):
    """A parsed record violates an invariant; names the family and the invariant."""

    def __init__(self, family: int | None, message: str):
        prefix = f"family {_shown(family)}: " if family is not None else ""
        super().__init__(prefix + message)
        self.family = family


class FamilyNotFoundError(FamilyTableError):
    """Requested family number is not present in the database."""


class FamilyRecord(Record):
    """One family, built from its number in 1..95, degree d = a1+a2+a3+a4 (ints)
    and ``Weights``, which derive its degree invariant a_cube = A³ (a Fraction)
    and A³'s ``format_rational`` text, printed once for every view of the cap.
    ValidationError on bad data or an A³ too long to print; TypeError on a
    number or degree that is not an integer, or weights that are not ``Weights``."""

    __slots__ = ("number", "d", "weights", "a_cube", "a_cube_text")

    def __init__(self, number: int, d: int, weights: Weights):
        if type(number) is not int:
            _check_integer("family number", number)
        if type(d) is not int:
            _check_integer("degree", d)
        if not isinstance(weights, Weights):
            raise TypeError(f"weights must be Weights, got {weights!r}")
        if not 1 <= number <= FAMILY_COUNT:
            raise ValidationError(number, f"family number must lie in 1..{FAMILY_COUNT}")
        tail_sum = weights[1] + weights[2] + weights[3] + weights[4]
        if d != tail_sum:
            raise ValidationError(
                number,
                f"d = {_shown(d)} but a1+a2+a3+a4 = {_shown(tail_sum)} "
                "(invariant d = a1+a2+a3+a4 violated)",
            )
        cube = anticanonical_cube(d, weights)
        try:
            text = format_rational(cube)
        except ValueError:  # more digits than str() converts
            raise ValidationError(number, "A³ = d/(a1*a2*a3*a4) is too long to print") from None
        self._fill(number, d, weights, cube, text)


class FamilyDatabase(tuple):
    """The 95 validated records as an immutable tuple, numbered 1..95 in order,
    no two with the same degree and weights.  A copy or pickle is rebuilt
    through these checks, and keeps none of the verdicts or lists derived on
    the original."""

    def __new__(cls, records: Iterable[FamilyRecord]) -> "FamilyDatabase":
        records = tuple(records)
        if len(records) != FAMILY_COUNT:
            raise ValidationError(
                None,
                f"expected exactly {FAMILY_COUNT} family records, got {len(records)}",
            )
        numbers = [r.number for r in records]
        if numbers != list(range(1, FAMILY_COUNT + 1)):
            raise ValidationError(
                None,
                "family numbers must be exactly 1..95 in ascending order "
                f"(got {numbers[:5]}...{numbers[-3:]})",
            )
        first: dict[tuple[int, Weights], int] = {}
        for r in records:
            other = first.setdefault((r.d, r.weights), r.number)
            if other != r.number:
                raise ValidationError(
                    r.number, f"degree {r.d} and weights {r.weights} repeat family {other}"
                )
        return tuple.__new__(cls, records)

    def __reduce__(self):
        return type(self), (tuple(self),)

    def get(self, number: int) -> FamilyRecord:
        """The record numbered ``number``: TypeError for a non-integer (a bool or
        float included), FamilyNotFoundError for an integer outside 1..95."""
        if type(number) is not int:
            _check_integer("family number", number)
        if not 1 <= number <= FAMILY_COUNT:
            raise FamilyNotFoundError(
                f"no family numbered {_shown(number)}; valid numbers are 1..{FAMILY_COUNT}"
            )
        return self[number - 1]

    @cached_property
    def verdicts(self) -> tuple[FamilyVerdict, ...]:
        """Each record's ``family_verdict``, in order, decided on first read and
        kept with the database: every section of an audit reads these."""
        return tuple(map(family_verdict, self))

    @cached_property
    def lists(self) -> Mapping[str, tuple[int, ...]]:
        """Each name in ``LIST_NAMES`` with its members' numbers in order, read
        off the verdicts on first read; read-only, so every view shows the same."""
        verdicts = self.verdicts
        return MappingProxyType({
            name: tuple([f.number for f, v in zip(self, verdicts) if name in v.lists])
            for name in LIST_NAMES
        })


Source = Union[str, Path, IO[str], IO[bytes]]


def _data_lines(source: Source) -> Iterator[tuple[int, str]]:
    """The numbered lines of a TSV table, skipping blank lines and '#' comments."""
    if isinstance(source, (str, Path)):
        lines = open(source, "r", encoding="utf-8-sig")
    else:
        data = source.read()  # one leading byte-order mark is dropped, from text as from bytes
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data.removeprefix("\ufeff")
        lines = io.StringIO(text)
    with lines:
        for line_number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield line_number, line


def parse_family_line(line_number: int, line: str) -> FamilyRecord:
    """Parse one TSV data line into a validated record."""
    line = line.rstrip("\r\n")
    fields = line.split("\t")
    if len(fields) != len(TSV_COLUMNS):
        raise ParseError(
            line_number,
            f"expected {len(TSV_COLUMNS)} tab-separated fields "
            f"({' '.join(TSV_COLUMNS)}), got {len(fields)}",
        )
    if not _INTEGER_FIELDS.fullmatch(line):
        raise ParseError(line_number, f"non-integer field in {fields!r}")
    try:
        number, d, *ws = [int(f) for f in fields]
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(line_number, str(exc)) from None
    try:
        weights = Weights(ws)
    except ValueError as exc:
        raise ValidationError(number, str(exc)) from None
    return FamilyRecord(number, d, weights)


def load_families(source: Source) -> FamilyDatabase:
    """Load and validate the family table from a path, stream, or open file.

    Lines starting with '#' and blank lines are ignored.  Raises ParseError,
    ValidationError (including a count error when the table does not hold
    exactly 95 records), or OSError for unreadable paths.
    """
    return FamilyDatabase(parse_family_line(n, line) for n, line in _data_lines(source))


def serialize_families(db: FamilyDatabase) -> str:
    """Canonical TSV serialization: the 95 data lines, no comments."""
    lines = [
        "\t".join(str(v) for v in (r.number, r.d, *r.weights))
        for r in db
    ]
    return "\n".join(lines) + "\n"


def packaged_data_path(name: str) -> Path:
    """Filesystem path of a data file shipped inside the package."""
    return Path(__file__).parent / "data" / name


def load_packaged_families() -> FamilyDatabase:
    """Load the family table shipped with the package."""
    return load_families(packaged_data_path(FAMILIES_FILENAME))
