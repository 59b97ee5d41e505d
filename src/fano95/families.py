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
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from .wps import Record, Weights, _check_integer, anticanonical_cube, format_rational

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
        prefix = f"family {family}: " if family is not None else ""
        super().__init__(prefix + message)
        self.family = family


class FamilyNotFoundError(FamilyTableError):
    """Requested family number is not present in the database."""


class FamilyRecord(Record):
    """One family: its number and hypersurface degree d (ints), its
    ``Weights``, its degree invariant a_cube = A³ (a Fraction) and A³'s
    ``format_rational`` text, printed once for every view of the degree cap."""

    __slots__ = ("number", "d", "weights", "a_cube", "a_cube_text")

    def __init__(self, number, d, weights, a_cube, a_cube_text=None):
        """Print A³'s text from a_cube; a text passed in, as copy and pickle
        pass it, must be that text, else ValueError."""
        text = format_rational(a_cube)
        if a_cube_text is not None and a_cube_text != text:
            raise ValueError(f"a_cube_text must be {text!r}, the text of a_cube, "
                             f"got {a_cube_text!r}")
        Record.__init__(self, number, d, weights, a_cube, text)

    @classmethod
    def build(cls, number: int, d: int, weights: Weights) -> "FamilyRecord":
        """Construct and validate a record; raises ValidationError on bad data
        and TypeError on a number or degree that is not an integer."""
        _check_integer("family number", number)
        _check_integer("degree", d)
        if not 1 <= number <= FAMILY_COUNT:
            raise ValidationError(number, f"family number must lie in 1..{FAMILY_COUNT}")
        tail_sum = weights[1] + weights[2] + weights[3] + weights[4]
        if d != tail_sum:
            raise ValidationError(
                number,
                f"d = {d} but a1+a2+a3+a4 = {tail_sum} "
                "(invariant d = a1+a2+a3+a4 violated)",
            )
        return cls(number, d, weights, anticanonical_cube(d, weights))


class FamilyDatabase:
    """Immutable, number-indexed collection of exactly 95 validated records,
    numbered 1..95 in order, no two with the same degree and weights."""

    def __init__(self, records: Iterable[FamilyRecord]):
        self._records: tuple[FamilyRecord, ...] = tuple(records)
        if len(self._records) != FAMILY_COUNT:
            raise ValidationError(
                None,
                f"expected exactly {FAMILY_COUNT} family records, got {len(self._records)}",
            )
        numbers = [r.number for r in self._records]
        if numbers != list(range(1, FAMILY_COUNT + 1)):
            raise ValidationError(
                None,
                "family numbers must be exactly 1..95 in ascending order "
                f"(got {numbers[:5]}...{numbers[-3:]})",
            )
        first: dict[tuple[int, Weights], int] = {}
        for r in self._records:
            other = first.setdefault((r.d, r.weights), r.number)
            if other != r.number:
                raise ValidationError(
                    r.number, f"degree {r.d} and weights {r.weights} repeat family {other}"
                )

    def __iter__(self) -> Iterator[FamilyRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, number: int) -> FamilyRecord:
        """The record numbered ``number``: TypeError for a non-integer (a bool or
        float included), FamilyNotFoundError for an integer outside 1..95."""
        if type(number) is not int:
            _check_integer("family number", number)
        if not 1 <= number <= FAMILY_COUNT:
            raise FamilyNotFoundError(
                f"no family numbered {number}; valid numbers are 1..{FAMILY_COUNT}"
            )
        return self._records[number - 1]

    @property
    def records(self) -> tuple[FamilyRecord, ...]:
        return self._records


Source = Union[str, Path, IO[str], IO[bytes]]


def _data_lines(source: Source) -> Iterator[tuple[int, str]]:
    """The numbered lines of a TSV table, skipping blank lines and '#' comments."""
    if isinstance(source, (str, Path)):
        lines = open(source, "r", encoding="utf-8")
    else:
        data = source.read()
        lines = io.StringIO(data.decode("utf-8") if isinstance(data, bytes) else data)
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
    number, d, *ws = [int(f) for f in fields]
    try:
        weights = Weights(ws)
    except ValueError as exc:
        raise ValidationError(number, str(exc)) from None
    return FamilyRecord.build(number, d, weights)


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
    return Path(str(resources.files("fano95").joinpath("data", name)))


def load_packaged_families() -> FamilyDatabase:
    """Load the family table shipped with the package."""
    return load_families(packaged_data_path(FAMILIES_FILENAME))
