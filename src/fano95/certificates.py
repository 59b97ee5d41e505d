"""Numeric exclusion certificates for the remaining curve classes.

Two certificate kinds close out the curves that survive the coarse bounds:

* *Test-class certificates*: blow up the curve C, pick the nef class
  M = b·A − E, and evaluate M·B² with B = −K.  Strict negativity excludes C.
  The value collapses to a closed form in (b, A³, deg C, genus).

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
from math import gcd, lcm
from typing import Iterable

from .families import (
    FAMILY_COUNT,
    FamilyDatabase,
    FamilyRecord,
    Source,
    _data_lines,
    packaged_data_path,
)
from .lemmas import (
    BoundStatus,
    Comparison,
    binomial_fibre_degree,
    case1_verdict,
    family_verdict,
    family_verdicts,
)
from .wps import (Record, _check_integer, _check_rational, _check_vanishing, _different,
                  _quantity, _self_intersection, _stratum, format_rational, stratum_weights)

SURFACE_ROWS_FILENAME = "surface_rows.tsv"

#: Column layout of the surface-row TSV (tab-separated, "#" comments allowed).
SURFACE_ROW_COLUMNS = ("family", "vanishing", "fails", "method", "m")

VALID_FAIL_TAGS = frozenset({"residual", "contracted"})


class CertificateError(Exception):
    """A certificate was asked of inputs it does not apply to.  A certificate
    that fails to exclude its curve is not an error: it is reported invalid."""


class RowError(CertificateError):
    """A surface-table row was applied to another family's record."""

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


def _check_test_class_args(b: int = 1, deg_c: Fraction = 1, p_a: int = 0) -> None:
    """Refuse a multiplier, curve degree or genus no test class takes: with
    TypeError anything but an int b and p_a and an int or Fraction deg C, with
    ValueError b < 1, deg C <= 0 or p_a < 0.  The defaults pass."""
    _check_integer("test-class multiplier", b)
    _check_rational("curve degree", deg_c)
    _check_integer("arithmetic genus", p_a)
    if b < 1:
        raise ValueError(f"test-class multiplier must be >= 1, got {b}")
    if deg_c.numerator <= 0:
        raise ValueError(f"curve degree must be positive, got {deg_c}")
    if p_a < 0:
        raise ValueError(f"arithmetic genus must be non-negative, got {p_a}")


def rational_curve_blowup_numbers(
    deg_c: Fraction, p_a: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Intersection numbers (A²E, AE², E³) of the exceptional divisor over a
    curve of degree deg_c and arithmetic genus p_a on an index-one 3-fold."""
    _check_test_class_args(deg_c=deg_c, p_a=p_a)
    p, q = deg_c.as_integer_ratio()
    return tuple(Fraction(x, q) for x in _blowup_numbers(p, q, p_a))


def test_class_value_expanded(
    b: int, a_cube: Fraction, a2e: Fraction, ae2: Fraction, e3: Fraction
) -> Fraction:
    """M·B² by multiplying out (bA − E)(A − E)²: b·A³ − (2b+1)·A²E + (b+2)·AE² − E³."""
    _check_test_class_args(b=b)
    for what, x in (("degree cap", a_cube), ("A²E", a2e), ("AE²", ae2), ("E³", e3)):
        _check_rational(what, x)
    terms = [x.as_integer_ratio() for x in (a_cube, a2e, ae2, e3)]
    den = lcm(*(q for _, q in terms))
    return Fraction(_expanded(b, *(p * (den // q) for p, q in terms)), den)


def test_class_value(b: int, a_cube: Fraction, deg_c: Fraction, p_a: int) -> Fraction:
    """M·B² for M = b·A − E over a curve of degree deg_c and genus p_a.

    Closed form b·A³ − (b+1)·deg_c − 2 + 2·p_a; asserted equal to the full
    triple-product expansion on every call, in integers over the denominator
    e·q of A³ = a/e and deg C = p/q, so the two derivations cannot drift apart.
    """
    _check_test_class_args(b, deg_c, p_a)
    _check_rational("degree cap", a_cube)
    p, q = deg_c.as_integer_ratio()
    a, e = a_cube.as_integer_ratio()
    den = e * q
    closed = b * a * q - (b + 1) * p * e + (2 * p_a - 2) * den
    expanded = _expanded(b, a * q, *(x * e for x in _blowup_numbers(p, q, p_a)))
    if closed != expanded:
        raise AssertionError(f"closed form {Fraction(closed, den)} disagrees with "
                             f"expansion {Fraction(expanded, den)}")
    return Fraction(closed, den)


class TestClassCertificate(Record):
    """A strict-negativity certificate M·B² < 0 excluding one curve of a family:
    its number, the curve (a description), the test class b·A − E's int b, the
    Fractions A³ and deg C, the curve's genus p_a and the Fraction M·B²."""

    __slots__ = ("family", "curve", "b", "a_cube", "deg_c", "p_a", "value")

    @classmethod
    def build(
        cls, f: FamilyRecord, curve: str, b: int, deg_c: Fraction, p_a: int = 0
    ) -> "TestClassCertificate":
        """Evaluate the test class b·A − E over one curve of family f."""
        value = test_class_value(b, f.a_cube, deg_c, p_a)
        return cls(f.number, curve, b, f.a_cube, Fraction(deg_c), p_a, value)

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


def case3_test_class_certificates(
    db: FamilyDatabase,
) -> tuple[TestClassCertificate, ...]:
    """The six test-class certificates for the a1 = a2 = 1 families whose
    degree cap is >= 1, valid or not: a value that is not strictly negative
    is reported as an invalid certificate by every caller, never raised."""
    return tuple(
        TestClassCertificate.build(db.get(number), curve, b, deg_c)
        for number, curve, b, deg_c in _TEST_CLASS_CURVES
    )


# ---------------------------------------------------------------------------
# Surface-method building blocks
# ---------------------------------------------------------------------------

# Each formula lives once, in integers, on numerators over positive denominators
# (A³ = a/b, deg C = p/q, the different or C²_T = r/s), and returns its value the
# same way, unreduced; ``_self_intersection`` lives in ``wps`` with the stratum
# memo.  The public functions take int or Fraction arguments.

def _exclusion_value(m, a, b, p, q, r, s) -> tuple[int, int]:
    return (m * a * q - 2 * p * b) * s + r * b * q, b * q * s


def different_total(indices: Iterable[int]) -> Fraction:
    """Total coefficient of the adjunction different: Σ (m−1)/m over the
    singular-point indices the curve passes through."""
    return Fraction(*_different(indices))


def curve_self_intersection(m: int, deg_c: Fraction, diff_total: Fraction) -> Fraction:
    """C² on a general surface T in |m·A − C|, by adjunction:
    deg(K_C + Diff) = (K + T)·C + C²_T with K + T ~ (m−1)·A."""
    if m < 1:
        raise ValueError(f"surface-system multiplier must be >= 1, got {m}")
    return Fraction(*_self_intersection(m, deg_c.numerator, deg_c.denominator,
                                        diff_total.numerator, diff_total.denominator))


def surface_exclusion_value(
    m: int, a_cube: Fraction, deg_c: Fraction, c2t: Fraction
) -> Fraction:
    """Self-intersection of the restricted mobile system on T:
    m·A³ − 2·deg_c + C²_T.  Strict negativity excludes the curve."""
    if m < 1:
        raise ValueError(f"surface-system multiplier must be >= 1, got {m}")
    return Fraction(*_exclusion_value(m, a_cube.numerator, a_cube.denominator,
                                      deg_c.numerator, deg_c.denominator,
                                      c2t.numerator, c2t.denominator))


# ---------------------------------------------------------------------------
# Surface-row table
# ---------------------------------------------------------------------------

class Method(Enum):
    """Which surface argument a row uses."""

    M41 = "41"  # single exclusion value m·A³ − 2·deg_c + C²_T < 0
    M42 = "42"  # two-curve pencil contradiction


_METHODS = {m.value: m for m in Method}

#: The integer fields of a surface row (family, vanishing, m) in ASCII digits;
#: ``int()`` alone would also take "+1", "1_0", " 1" and other digit scripts.
_ROW_INTEGERS = re.compile(r"-?[0-9]+\t-?[0-9]+(?:,-?[0-9]+)*\t[^\t]*\t[^\t]*\t-?[0-9]+")


class SurfaceRow(Record):
    """One row of the surface-method table: which curve of which family is
    excluded on a surface in |m·A − C|, and which coarse bounds it evaded.
    ``vanishing`` and ``fails`` refuse a repeat and are stored as frozensets."""

    __slots__ = ("family", "vanishing", "fails", "method", "m")

    def __init__(
        self, family: int, vanishing: Iterable[int], fails: Iterable[str],
        method: Method, m: int,
    ):
        _check_integer("family number", family)
        if not 1 <= family <= FAMILY_COUNT:
            raise ValueError(f"family number must lie in 1..{FAMILY_COUNT}, got {family}")
        if not isinstance(method, Method):
            raise TypeError(f"method must be a Method, got {method!r}")
        vanishing = _check_vanishing(vanishing)
        tags = tuple(fails)
        fails = frozenset(tags)
        if not fails <= VALID_FAIL_TAGS:
            raise ValueError(f"unknown fail tags {sorted(fails - VALID_FAIL_TAGS)}")
        if len(tags) != len(fails):
            raise ValueError(f"fail tags must be distinct, got {sorted(tags)}")
        _check_integer("surface-system multiplier", m)
        if m < 1:
            raise ValueError(f"surface-system multiplier must be >= 1, got {m}")
        Record.__init__(self, family, vanishing, fails, method, m)


def parse_surface_row(line: str, line_number: int | None = None) -> SurfaceRow:
    """Parse one TSV data line: family, vanishing indices, fail tags, method, m."""
    line = line.rstrip("\r\n")
    fields = line.split("\t")
    if len(fields) != len(SURFACE_ROW_COLUMNS):
        raise SurfaceRowParseError(
            f"expected {len(SURFACE_ROW_COLUMNS)} tab-separated fields, got "
            f"{len(fields)}",
            line_number,
        )
    if not _ROW_INTEGERS.fullmatch(line):
        raise SurfaceRowParseError(f"non-integer field in {fields!r}", line_number)
    raw_family, raw_vanishing, raw_fails, raw_method, raw_m = fields
    method = _METHODS.get(raw_method)
    if method is None:
        raise SurfaceRowParseError(
            f"method must be one of {list(_METHODS)}, got {raw_method!r}",
            line_number,
        )
    try:
        return SurfaceRow(int(raw_family), list(map(int, raw_vanishing.split(","))),
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
    lines = []
    for row in rows:
        lines.append(
            "\t".join(
                (
                    str(row.family),
                    ",".join(str(i) for i in sorted(row.vanishing)),
                    ",".join(sorted(row.fails)),
                    row.method.value,
                    str(row.m),
                )
            )
        )
    return "\n".join(lines) + "\n"


def load_packaged_surface_rows() -> tuple[SurfaceRow, ...]:
    """Load the surface-row table shipped with the package."""
    return load_surface_rows(packaged_data_path(SURFACE_ROWS_FILENAME))


# ---------------------------------------------------------------------------
# Row certification
# ---------------------------------------------------------------------------

def _from_quantities(name: str) -> property:
    """A read-only accessor: the value of quantity ``name``, None if the method has none."""
    return property(lambda cert: next((v for f, v, _ in cert.quantities if f == name), None))


class SurfaceCertificate(Record):
    """Fully evaluated surface certificate for one table row, each quantity
    and verdict stored once by ``certify_row``: the ``SurfaceRow``, the
    Fraction A³, the different's indices (a tuple of ints), then
    ``quantities``, as (JSON field name, value, ``format_rational`` text), of
    deg C, the different total and C²_T, then method 41's exclusion value or
    method 42's deg C′ and C′² of the companion C′ in the pencil C + C′ ~ A|_T.
    Every view reads the text there, printed once; the accessors of those names
    (``deg_c`` ... ``c_prime_sq``) read the value, None for the other method's.

    Method 42 alone fills ``cap_check`` (its degree sum deg C + deg C′ as a
    Fraction, its text and A³'s text; the accessor ``degree_sum`` reads the
    Fraction) and the bools ``forces_alpha_one`` (C′² < 0) and
    ``degree_contradiction`` (degree sum > cap).  Last come the bools ``valid``
    and ``boundary``, True when some deciding quantity is exactly zero/equal —
    reported separately because validity demands strict inequalities.
    """

    __slots__ = ("row", "a_cube", "diff_indices", "quantities", "cap_check",
                 "forces_alpha_one", "degree_contradiction", "valid", "boundary")

    deg_c, diff_total, c2t, exclusion_value, deg_c_prime, c_prime_sq = map(_from_quantities, (
        "deg_c", "diff_total", "c2t", "exclusion_value", "deg_c_prime", "c_prime_sq"))
    degree_sum = property(lambda cert: cert.cap_check and cert.cap_check[0])

    @property
    def family(self) -> int:
        return self.row.family


def certify_row(f: FamilyRecord, row: SurfaceRow) -> SurfaceCertificate:
    """Evaluate one surface row bottom-up from the family's weights.

    The curve is the weighted line P(w1, w2) of the two coordinates outside
    the row's vanishing set, which ``SurfaceRow`` has validated.  Its
    singular-point indices in T are taken to be w1 and w2 where they exceed 1
    — an assumption, so any row it fails to certify is surfaced rather than
    patched (see ``verify_surface_table``).  The chain runs in integers over
    positive denominators, so a verdict tests the sign of a numerator.  deg C,
    the different and C²_T come from ``wps._stratum``, shared by every row on
    the same (w1, w2, m) whatever its family; only the quantities that need A³
    are computed here.  Each quantity is stored as (field, value, text), its
    ``format_rational`` text printed once.
    """
    if row.family != f.number:
        raise RowError(row.family, f"row applied to family record {f.number}")
    m, a_cube = row.m, f.a_cube
    a, b = a_cube.numerator, a_cube.denominator
    w1, w2 = stratum_weights(f.weights, row.vanishing)
    q = w1 * w2  # deg C = 1/q
    diff_indices, r, s, c, t, chain = _stratum(w1, w2, m)
    if row.method is Method.M41:
        v, z = _exclusion_value(m, a, b, 1, q, c, t)
        return SurfaceCertificate(
            row, a_cube, diff_indices, chain + (_quantity("exclusion_value", Fraction(v, z)),),
            None, None, None, v < 0, v == 0)
    # Method 42: the pencil A|_T cuts out C + C', so deg C' = m*A^3 - deg C and
    # the degree sum m*A^3 beats the cap A^3 exactly when m*a > a.  C' meets the
    # same singular points, so adjunction gives C'^2 too.  A companion of degree
    # <= 0 is no curve, so the certificate is invalid.
    p2, q2 = m * a * q - b, b * q
    c2, t2 = _self_intersection(m, p2, q2, r, s)
    degree_sum = Fraction(m * a, b)
    degree_contradiction = m * a > a
    return SurfaceCertificate(
        row, a_cube, diff_indices,
        chain + (_quantity("deg_c_prime", Fraction(p2, q2)),
                 _quantity("c_prime_sq", Fraction(c2, t2))),
        (degree_sum, format_rational(degree_sum), f.a_cube_text), c2 < 0, degree_contradiction,
        p2 > 0 and c2 < 0 and degree_contradiction, p2 == 0 or c2 == 0 or m * a == a,
    )


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


def verify_surface_table(db: FamilyDatabase, rows: Iterable[SurfaceRow]) -> TableVerification:
    """Certify every row and cross-check its "fails" tags against the
    re-derived verdicts.  A row that fails to certify is not raised: its
    invalid certificate is collected with the rest, so callers report every
    failure at once."""
    certificates = []
    mismatches = []
    verdicts = family_verdicts(db)
    for row in rows:
        certificates.append(certify_row(db.get(row.family), row))
        expected = verdicts[row.family - 1].fail_tags
        if row.fails != expected:
            mismatches.append((row.family, row.fails, expected))
    return TableVerification(tuple(certificates), tuple(mismatches))


# ---------------------------------------------------------------------------
# Extension checks for the Case-1 families where the residual bound fails
# ---------------------------------------------------------------------------

def extension_check(f: FamilyRecord) -> tuple[Comparison, ...]:
    """The double-projection comparisons for one Case-1 family whose residual
    bound fails (d >= a2*a4).

    The candidate curve projects twice; either the image is a curve (degree
    1/(a1*a2)) or a point of the weighted plane P(1, a1, a2), whose four
    orbits give fibres of degree 1/a3 (twice, with the binomial orbit
    degenerating to 1/(a3*h) when h = gcd(a1, a2) > 1), 1/(a1*a3), or the
    section of degree a1*A^3 — each compared against the degree cap A^3.
    A strict comparison is a certificate; each non-strict one leans on the
    geometric step its note names, which the engine cannot check.
    """
    status = case1_verdict(f)
    if status is not BoundStatus.FAILS:
        raise ValueError(
            f"family {f.number}: extension checks apply only where the "
            f"residual bound fails, status is {status.value}"
        )
    a = f.weights
    cap = f.a_cube
    h = gcd(a[1], a[2])
    binomial_label = "image point on the binomial orbit"
    if h > 1:
        binomial_label += f" (shared factor {h} drops the fibre degree)"
    return (
        Comparison(
            "image curve in the weighted plane",
            Fraction(1, a[1] * a[2]),
            cap,
            "equality forces the curve onto a stratum; excluded by the "
            "stratum-pair analysis",
        ),
        Comparison(
            "image point on the first coordinate orbit",
            Fraction(1, a[3]),
            cap,
            "fibre over the first coordinate point not excluded by degree",
        ),
        Comparison(
            binomial_label,
            binomial_fibre_degree(f),
            cap,
            "fibre over the binomial point not excluded by degree",
        ),
        Comparison(
            "image point on the second coordinate orbit",
            Fraction(1, a[1] * a[3]),
            cap,
            "candidate equals a stratum-pair curve; excluded by the "
            "stratum-pair analysis",
        ),
        Comparison(
            "two-form section through the last orbit",
            a[1] * cap,
            cap,
            "needs irreducibility of the section curve",
        ),
    )
