"""Numeric exclusion certificates for the remaining curve classes.

Two certificate kinds close out the curves that survive the coarse bounds:

* *Test-class certificates*: blow up the curve C, pick the nef class
  M = b·A − E, and evaluate M·B² with B = −K.  Strict negativity excludes C.
  The value collapses to a closed form in (b, A³ of the family's record,
  deg C, genus).

* *Surface certificates*: restrict to a general surface T in |m·A − C|,
  compute the adjunction different of C in T, its self-intersection on T,
  and either a single exclusion value (method "41") or a two-curve pencil
  contradiction (method "42").

Certificate validity is always a strict inequality; an exactly-zero value is
reported invalid and additionally flagged as a boundary case.  The shipped
surface-row table is verified, not trusted: each row's "fails" tags are
re-derived from the classification verdicts and any mismatch is an error.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import permutations
from typing import Iterable

from .families import (
    FAMILY_COUNT,
    FamilyDatabase,
    FamilyRecord,
    Source,
    _data_lines,
    _fields,
    packaged_data_path,
)
from .lemmas import family_verdict
from .wps import (_VANISHING_LABELS, Record, _check_integer, _check_rational, _check_vanishing,
                  _ratio_text, _self_intersection, _shown, _stratum, stratum_weights)

SURFACE_ROWS_FILENAME = "surface_rows.tsv"

#: Column layout of the surface-row TSV (tab-separated, "#" comments allowed).
SURFACE_ROW_COLUMNS = ("family", "vanishing", "fails", "method", "m")

VALID_FAIL_TAGS = frozenset({"residual", "contracted"})
#: Each ordering of each set of distinct valid fail tags, keyed to the one frozenset of it.
_FAIL_TAG_SETS = {order: frozenset(order) for n in range(len(VALID_FAIL_TAGS) + 1)
                  for order in permutations(VALID_FAIL_TAGS, n)}


class CertificateError(Exception):
    """Inputs a certificate does not apply to, or a value too long to print.  A
    certificate that fails to exclude its curve is no error: it is reported invalid."""


class RowError(CertificateError):
    """A surface-table row cannot be certified: it was applied to another
    family's record, or a quantity it derives is too long to print."""

    def __init__(self, family: int, message: str):
        super().__init__(f"family {family}: {message}")
        self.family = family


class SurfaceRowParseError(ValueError):
    """A surface-row TSV line could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


# ---------------------------------------------------------------------------
# Test-class certificates
# ---------------------------------------------------------------------------

# The blow-up numbers and the expansion each live once, in integers: numerators
# over q for deg C = p/q, and over one shared denominator for the expansion.

def _blowup_numbers(p: int, q: int, p_a: int) -> tuple[int, int, int]:
    return 0, -p, (2 - 2 * p_a) * q - p


def _expanded(b: int, a: int, a2e: int, ae2: int, e3: int) -> int:
    return b * a - (2 * b + 1) * a2e + (b + 2) * ae2 - e3


class TestClassCertificate(Record):
    """A strict-negativity certificate M·B² < 0 excluding one curve of a family,
    built from its inputs: the ``FamilyRecord`` (read by ``family``, its number,
    and ``a_cube``), the curve (a description), the test class b·A − E's int
    b >= 1, the curve's degree deg C > 0 (an int or a Fraction, stored as a
    Fraction) and its int genus p_a >= 0.  The constructor derives the closed
    form b·A³ − (b+1)·deg C − 2 + 2·p_a, ``value``, in integers over e·q for
    A³ = a/e and deg C = p/q, asserted equal to the expansion of (bA − E)(A − E)²
    on every call, and writes its text once, ``value_text``, for every view;
    CertificateError, naming the family, for a value too long to print."""

    __slots__ = ("record", "curve", "b", "deg_c", "p_a", "value", "value_text")

    family = property(lambda c: c.record.number)
    a_cube = property(lambda c: c.record.a_cube)

    def __init__(self, record: FamilyRecord, curve: str, b: int, deg_c: Fraction, p_a: int = 0):
        _check_integer("test-class multiplier", b)
        _check_rational("curve degree", deg_c)
        _check_integer("arithmetic genus", p_a)
        if b < 1:
            raise ValueError(f"test-class multiplier must be >= 1, got {_shown(b)}")
        if deg_c.numerator <= 0:
            raise ValueError(f"curve degree must be positive, got {_shown(deg_c)}")
        if p_a < 0:
            raise ValueError(f"arithmetic genus must be non-negative, got {_shown(p_a)}")
        (p, q), (a, e) = deg_c.as_integer_ratio(), record.a_cube.as_integer_ratio()
        den = e * q
        closed = b * a * q - (b + 1) * p * e + (2 * p_a - 2) * den
        expanded = _expanded(b, a * q, *(x * e for x in _blowup_numbers(p, q, p_a)))
        if closed != expanded:
            raise AssertionError(f"closed form {Fraction(closed, den)} disagrees with "
                                 f"expansion {Fraction(expanded, den)}")
        try:
            text = _ratio_text(closed, den)
        except ValueError:  # more digits than str() converts
            raise CertificateError(f"family {record.number}: test-class value for the "
                                   f"{curve} is too long to print") from None
        self._fill(record, curve, b, Fraction(p, q), p_a, Fraction(closed, den), text)

    @property
    def valid(self) -> bool:
        return self.value < 0

    @property
    def boundary(self) -> bool:
        return self.value == 0


#: The curves needing a test class in the three smallest-weight families:
#: (family, curve description, b, deg_c).  All are rational (p_a = 0).
_TEST_CLASS_CURVES: tuple[tuple[int, str, int, int], ...] = (
    (1, "twisted cubic", 2, 3),
    (2, "conic", 2, 2),
    (3, "conic", 6, 2),
    (4, "line", 2, 1),
    (5, "line", 6, 1),
    (6, "line", 4, 1),
)


def case3_test_class_certificates(db: FamilyDatabase) -> tuple[TestClassCertificate, ...]:
    """The six test-class certificates for the a1 = a2 = 1 families whose
    degree cap is >= 1, valid or not: a value that is not strictly negative
    is reported as an invalid certificate by every caller, never raised; one
    too long to print raises CertificateError."""
    return tuple(TestClassCertificate(db.get(number), curve, b, deg_c)
                 for number, curve, b, deg_c in _TEST_CLASS_CURVES)


# ---------------------------------------------------------------------------
# Surface-method building blocks
# ---------------------------------------------------------------------------

# Each formula lives once, in integers, on numerators over positive denominators
# (A³ = a/b, deg C = p/q, the different or C²_T = r/s), and returns its value the
# same way, unreduced; ``_different`` and ``_self_intersection`` live in ``wps``
# with the stratum memo.  ``SurfaceCertificate`` is their only caller.

def _exclusion_value(m, a, b, p, q, r, s) -> tuple[int, int]:
    return (m * a * q - 2 * p * b) * s + r * b * q, b * q * s


# ---------------------------------------------------------------------------
# Surface-row table
# ---------------------------------------------------------------------------

class Method(Enum):
    """Which surface argument a row uses."""

    M41 = "41"  # single exclusion value m·A³ − 2·deg_c + C²_T < 0
    M42 = "42"  # two-curve pencil contradiction


_METHODS = {m.value: m for m in Method}
_M41 = Method.M41  # a module global reads faster than the enum member

#: The integer fields of a surface row (family, vanishing, m) in ASCII digits;
#: ``int()`` alone would also take "+1", "1_0", " 1" and other digit scripts.
_ROW_INTEGERS = re.compile(r"-?[0-9]+\t-?[0-9]+(?:,-?[0-9]+)*\t[^\t]*\t[^\t]*\t-?[0-9]+")


class SurfaceRow(Record):
    """One row of the surface-method table: which curve of which family is
    excluded on a surface in |m·A − C|, and which coarse bounds it evaded.
    ``vanishing`` and ``fails`` refuse a repeat and are stored as the shared
    frozensets of ``wps._VANISHING_SETS`` and ``_FAIL_TAG_SETS``."""

    __slots__ = ("family", "vanishing", "fails", "method", "m")

    def __init__(
        self, family: int, vanishing: Iterable[int], fails: Iterable[str],
        method: Method, m: int,
    ):
        if type(family) is not int:
            _check_integer("family number", family)
        if not 1 <= family <= FAMILY_COUNT:
            raise ValueError(f"family number must lie in 1..{FAMILY_COUNT}, got {_shown(family)}")
        if type(method) is not Method:  # an Enum with members has no subclasses
            raise TypeError(f"method must be a Method, got {method!r}")
        vanishing = _check_vanishing(vanishing)
        if isinstance(fails, str):
            raise TypeError(f"fail tags must be a collection of tags, not the str {fails!r}")
        tags = tuple(fails)
        try:
            fails = _FAIL_TAG_SETS.get(tags)
        except TypeError:  # an unhashable entry, such as a list, is no tag
            fails = None
        if fails is None:
            valid = tuple(VALID_FAIL_TAGS)  # each entry that is no tag, once, found by ==
            unknown = [t for i, t in enumerate(tags) if t not in valid + tags[:i]]
            raise ValueError(f"unknown fail tags {sorted(unknown, key=repr)}" if unknown
                             else f"fail tags must be distinct, got {sorted(tags)}")
        if type(m) is not int:
            _check_integer("surface-system multiplier", m)
        if m < 1:
            raise ValueError(f"surface-system multiplier must be >= 1, got {_shown(m)}")
        self._fill(family, vanishing, fails, method, m)


def parse_surface_row(line: str, line_number: int | None = None) -> SurfaceRow:
    """Parse one TSV data line: family, vanishing indices, fail tags, method, m."""
    try:
        raw_family, raw_vanishing, raw_fails, raw_method, raw_m = _fields(
            line, SURFACE_ROW_COLUMNS, _ROW_INTEGERS)
        method = _METHODS.get(raw_method)
        if method is None:
            raise ValueError(f"method must be one of {list(_METHODS)}, got {raw_method!r}")
        return SurfaceRow(int(raw_family), tuple(map(int, raw_vanishing.split(","))),
                          raw_fails.split(",") if raw_fails else (), method, int(raw_m))
    except ValueError as exc:
        raise SurfaceRowParseError(str(exc), line_number) from exc


def load_surface_rows(source: Source) -> tuple[SurfaceRow, ...]:
    """Load surface rows from a path or an open stream of TSV text.

    Blank lines and lines starting with "#" are skipped.  Rows keep file
    order; duplicates are rejected.
    """
    rows: list[SurfaceRow] = []
    seen: set[tuple[int, frozenset[int]]] = set()
    for line_number, raw in _data_lines(source):
        row = parse_surface_row(raw, line_number)
        key = (row.family, row.vanishing)
        if key in seen:
            raise SurfaceRowParseError(
                f"duplicate row for family {row.family}, vanishing "
                f"{sorted(row.vanishing)}",
                line_number,
            )
        seen.add(key)
        rows.append(row)
    return tuple(rows)


def serialize_surface_rows(rows: Iterable[SurfaceRow]) -> str:
    """Canonical TSV serialization (data lines only, trailing newline)."""
    return "\n".join(f"{row.family}\t{','.join(map(str, sorted(row.vanishing)))}\t"
                     f"{','.join(sorted(row.fails))}\t{row.method.value}\t{row.m}"
                     for row in rows) + "\n"


def load_packaged_surface_rows() -> tuple[SurfaceRow, ...]:
    """Load the surface-row table shipped with the package."""
    return load_surface_rows(packaged_data_path(SURFACE_ROWS_FILENAME))


# ---------------------------------------------------------------------------
# Row certification
# ---------------------------------------------------------------------------

def _from_quantities(name: str) -> property:
    """A read-only accessor: quantity ``name`` as a Fraction, None if the method has none."""
    return property(lambda c: next((Fraction(t) for f, t in c.quantities if f == name), None))


class SurfaceCertificate(Record):
    """The surface certificate of one table row, built from its inputs: the
    ``SurfaceRow`` and the ``FamilyRecord`` (read by ``family``, its number,
    and ``a_cube``); RowError for a row of another family, or for a quantity
    too long to print.  The constructor evaluates the row bottom-up from the
    weights and stores each quantity and verdict once: the different's indices
    (a tuple of ints), then ``quantities``, as (JSON field name, text), of
    deg C, the different total and C²_T, then method 41's exclusion value or
    method 42's deg C′ and C′² of the companion C′ in the pencil C + C′ ~ A|_T.
    Each text is written from integers, as ``format_rational`` would print the
    value; every view reads it there, and A³'s on the record.  The accessors of
    those names (``deg_c`` ... ``c_prime_sq``) give the Fraction on demand,
    None for the other method's.

    Method 42 alone fills ``cap_check`` (the text of its degree sum
    deg C + deg C′; the accessor ``degree_sum`` gives its Fraction) and the
    bools ``forces_alpha_one`` (C′² < 0) and ``degree_contradiction`` (degree
    sum > cap).  Last come the bools ``valid`` and ``boundary``, True
    when some deciding quantity is exactly zero/equal — reported separately
    because validity demands strict inequalities.

    The curve is the weighted line P(w1, w2) of the two coordinates outside
    the row's vanishing set.  Its singular-point indices in T are taken to be
    w1 and w2 where they exceed 1 — an assumption, so any row it fails to
    certify is surfaced rather than patched (see ``verify_surface_table``).
    The chain runs in integers over positive denominators, so a verdict tests
    the sign of a numerator.  deg C, the different and C²_T come from
    ``wps._stratum``, shared by every row on the same (w1, w2, m).
    """

    __slots__ = ("row", "record", "diff_indices", "quantities", "cap_check",
                 "forces_alpha_one", "degree_contradiction", "valid", "boundary")

    deg_c, diff_total, c2t, exclusion_value, deg_c_prime, c_prime_sq = map(_from_quantities, (
        "deg_c", "diff_total", "c2t", "exclusion_value", "deg_c_prime", "c_prime_sq"))
    degree_sum = property(lambda cert: cert.cap_check and Fraction(cert.cap_check))
    family = property(lambda cert: cert.record.number)
    a_cube = property(lambda cert: cert.record.a_cube)

    def __init__(self, row: SurfaceRow, record: FamilyRecord):
        if row.family != record.number:
            raise RowError(row.family, f"row applied to family record {record.number}")
        m, (a, b) = row.m, record.a_cube.as_integer_ratio()
        w1, w2 = stratum_weights(record.weights, row.vanishing)
        q = w1 * w2  # deg C = 1/q
        try:
            diff_indices, r, s, c, t, chain = _stratum(w1, w2, m)
            if row.method is _M41:
                v, z = _exclusion_value(m, a, b, 1, q, c, t)
                exclusion = ("exclusion_value", _ratio_text(v, z))
                return self._fill(row, record, diff_indices, chain + (exclusion,),
                                  None, None, None, v < 0, v == 0)
            # Method 42: the pencil A|_T cuts out C + C', so deg C' = m*A^3 - deg C
            # and the degree sum m*A^3 beats the cap A^3 exactly when m*a > a.  C'
            # meets the same singular points, so adjunction gives C'^2 too.  A
            # companion of degree <= 0 is no curve, so the certificate is invalid.
            p2, q2 = m * a * q - b, b * q
            c2, t2 = _self_intersection(m, p2, q2, r, s)
            self._fill(
                row, record, diff_indices,
                chain + (("deg_c_prime", _ratio_text(p2, q2)),
                         ("c_prime_sq", _ratio_text(c2, t2))),
                _ratio_text(m * a, b), c2 < 0, m * a > a,
                p2 > 0 and c2 < 0 and m * a > a, p2 == 0 or c2 == 0 or m * a == a,
            )
        except ValueError:  # only _ratio_text raises: more digits than str() converts
            raise RowError(row.family, f"row {_VANISHING_LABELS[row.vanishing]} (method "
                           f"{row.method.value}): a quantity is too long to print") from None


def expected_fail_tags(f: FamilyRecord) -> frozenset[str]:
    """The coarse bounds that fail for family f: "residual" for a pencil
    exception, "contracted" when neither contracted-curve dismissal applies."""
    return family_verdict(f).fail_tags


class TableVerification(Record):
    """Outcome of verifying the whole surface-row table: the tuple of
    ``SurfaceCertificate``s in row order, and the tuple of tag mismatches,
    each (family, tags in the row file, tags re-derived from the weights)."""

    __slots__ = ("certificates", "tag_mismatches")

    @property
    def invalid(self) -> tuple[SurfaceCertificate, ...]:
        return tuple(c for c in self.certificates if not c.valid)

    @property
    def ok(self) -> bool:
        return not self.tag_mismatches and all(c.valid for c in self.certificates)

    @property
    def mismatch_lines(self) -> list[str]:
        """Each tag mismatch as a line of the text report, or of stderr in JSON format."""
        return [f"TAG MISMATCH family {n}: row file says {sorted(got)}, derived verdicts "
                f"say {sorted(want)}" for n, got, want in self.tag_mismatches]


def verify_surface_table(db: FamilyDatabase, rows: Iterable[SurfaceRow]) -> TableVerification:
    """Certify every row and cross-check its "fails" tags against the
    re-derived verdicts.  A row that fails to certify is not raised: its
    invalid certificate is collected with the rest, so callers report every
    failure at once."""
    certificates = []
    mismatches = []
    verdicts = db.verdicts
    for row in rows:
        certificates.append(SurfaceCertificate(row, db.get(row.family)))
        expected = verdicts[row.family - 1].fail_tags
        if row.fails != expected:
            mismatches.append((row.family, row.fails, expected))
    return TableVerification(tuple(certificates), tuple(mismatches))
