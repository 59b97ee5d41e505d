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
from math import gcd
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
    family_lists,
)
from .wps import Record, StratumCurve, _check_integer, _check_vanishing

SURFACE_ROWS_FILENAME = "surface_rows.tsv"

#: Column layout of the surface-row TSV (tab-separated, "#" comments allowed).
SURFACE_ROW_COLUMNS = ("family", "vanishing", "fails", "method", "m")

VALID_FAIL_TAGS = frozenset({"residual", "contracted"})


class CertificateError(Exception):
    """A certificate that was expected to be valid is not."""


class RowError(CertificateError):
    """A surface-table row failed to certify or cross-check."""

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

def rational_curve_blowup_numbers(
    deg_c: Fraction, p_a: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Intersection numbers (A²E, AE², E³) of the exceptional divisor over a
    curve of degree deg_c and arithmetic genus p_a on an index-one 3-fold."""
    deg_c = Fraction(deg_c)
    return (Fraction(0), -deg_c, -deg_c + 2 - 2 * p_a)


def test_class_value_expanded(
    b: int, a_cube: Fraction, a2e: Fraction, ae2: Fraction, e3: Fraction
) -> Fraction:
    """M·B² by multiplying out (bA − E)(A − E)²: b·A³ − (2b+1)·A²E + (b+2)·AE² − E³."""
    if b < 1:
        raise ValueError(f"test-class multiplier must be >= 1, got {b}")
    return b * Fraction(a_cube) - (2 * b + 1) * Fraction(a2e) \
        + (b + 2) * Fraction(ae2) - Fraction(e3)


def test_class_value(b: int, a_cube: Fraction, deg_c: Fraction, p_a: int) -> Fraction:
    """M·B² for M = b·A − E over a curve of degree deg_c and genus p_a.

    Closed form b·A³ − (b+1)·deg_c − 2 + 2·p_a; asserted equal to the full
    triple-product expansion on every call, so the two derivations cannot
    drift apart.
    """
    _check_integer("test-class multiplier", b)
    _check_integer("arithmetic genus", p_a)
    if b < 1:
        raise ValueError(f"test-class multiplier must be >= 1, got {b}")
    deg_c = Fraction(deg_c)
    if deg_c <= 0:
        raise ValueError(f"curve degree must be positive, got {deg_c}")
    if p_a < 0:
        raise ValueError(f"arithmetic genus must be non-negative, got {p_a}")
    a_cube = Fraction(a_cube)
    closed = b * a_cube - (b + 1) * deg_c - 2 + 2 * p_a
    expanded = test_class_value_expanded(
        b, a_cube, *rational_curve_blowup_numbers(deg_c, p_a)
    )
    if closed != expanded:
        raise AssertionError(
            f"closed form {closed} disagrees with expansion {expanded}"
        )
    return closed


class TestClassCertificate(Record):
    """A strict-negativity certificate M·B² < 0 excluding one curve: the
    test class b·A − E over the curve (a human-readable description)."""

    __slots__ = ("family", "curve", "b", "a_cube", "deg_c", "p_a", "value")

    def __init__(
        self, family: int, curve: str, b: int, a_cube: Fraction, deg_c: Fraction,
        p_a: int, value: Fraction,
    ):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_cube", a_cube)
        object.__setattr__(self, "deg_c", deg_c)
        object.__setattr__(self, "p_a", p_a)
        object.__setattr__(self, "value", value)

    @classmethod
    def build(
        cls, f: FamilyRecord, curve: str, b: int, deg_c: Fraction, p_a: int = 0
    ) -> "TestClassCertificate":
        """Evaluate the test class b·A − E over one curve of family f."""
        deg_c = Fraction(deg_c)
        return cls(
            family=f.number,
            curve=curve,
            b=b,
            a_cube=f.a_cube,
            deg_c=deg_c,
            p_a=p_a,
            value=test_class_value(b, f.a_cube, deg_c, p_a),
        )

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
    """Build the six test-class certificates for the a1 = a2 = 1 families
    whose degree cap is >= 1, and insist every value is strictly negative."""
    certs = []
    for number, curve, b, deg_c in _TEST_CLASS_CURVES:
        cert = TestClassCertificate.build(db.get(number), curve, b, deg_c)
        if not cert.valid:
            raise CertificateError(
                f"family {number} ({curve}): test-class value {cert.value} is not "
                "strictly negative"
            )
        certs.append(cert)
    return tuple(certs)


# ---------------------------------------------------------------------------
# Surface-method building blocks
# ---------------------------------------------------------------------------

def different_total(indices: Iterable[int]) -> Fraction:
    """Total coefficient of the adjunction different: Σ (m−1)/m over the
    singular-point indices the curve passes through."""
    num, den = 0, 1
    for m in indices:
        if m < 2:
            raise ValueError(f"singular-point index must be >= 2, got {m}")
        num, den = num * m + (m - 1) * den, den * m
    return Fraction(num, den)


# The two formulas below take int or Fraction arguments and evaluate on their
# numerators over the product of their denominators: one Fraction, normalised
# once, instead of a Fraction per operation.

def curve_self_intersection(m: int, deg_c: Fraction, diff_total: Fraction) -> Fraction:
    """C² on a general surface T in |m·A − C|, by adjunction:
    deg(K_C + Diff) = (K + T)·C + C²_T with K + T ~ (m−1)·A."""
    if m < 1:
        raise ValueError(f"surface-system multiplier must be >= 1, got {m}")
    p, q = deg_c.numerator, deg_c.denominator
    r, s = diff_total.numerator, diff_total.denominator
    return Fraction((r - 2 * s) * q - (m - 1) * p * s, q * s)


def surface_exclusion_value(
    m: int, a_cube: Fraction, deg_c: Fraction, c2t: Fraction
) -> Fraction:
    """Self-intersection of the restricted mobile system on T:
    m·A³ − 2·deg_c + C²_T.  Strict negativity excludes the curve."""
    if m < 1:
        raise ValueError(f"surface-system multiplier must be >= 1, got {m}")
    a, b = a_cube.numerator, a_cube.denominator
    p, q = deg_c.numerator, deg_c.denominator
    r, s = c2t.numerator, c2t.denominator
    return Fraction((m * a * q - 2 * p * b) * s + r * b * q, b * q * s)


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
    excluded on a surface in |m·A − C|, and which coarse bounds it evaded;
    ``vanishing`` and ``fails`` are stored as frozensets."""

    __slots__ = ("family", "vanishing", "fails", "method", "m")

    def __init__(
        self, family: int, vanishing: Iterable[int], fails: Iterable[str],
        method: Method, m: int,
    ):
        if not 1 <= family <= FAMILY_COUNT:
            raise ValueError(f"family number must lie in 1..{FAMILY_COUNT}, got {family}")
        vanishing = _check_vanishing(vanishing)
        fails = frozenset(fails)
        bad = fails - VALID_FAIL_TAGS
        if bad:
            raise ValueError(f"unknown fail tags {sorted(bad)}")
        _check_integer("surface-system multiplier", m)
        if m < 1:
            raise ValueError(f"surface-system multiplier must be >= 1, got {m}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "vanishing", vanishing)
        object.__setattr__(self, "fails", fails)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "m", m)


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
    family = int(raw_family)
    indices = [int(p) for p in raw_vanishing.split(",")]
    m = int(raw_m)
    vanishing = frozenset(indices)
    if len(vanishing) != len(indices):
        raise SurfaceRowParseError(
            f"vanishing field lists an index twice: {raw_vanishing!r}", line_number
        )
    fails = frozenset(p for p in raw_fails.split(",") if p)
    method = _METHODS.get(raw_method)
    if method is None:
        raise SurfaceRowParseError(
            f"method must be one of {list(_METHODS)}, got {raw_method!r}",
            line_number,
        )
    try:
        return SurfaceRow(
            family=family, vanishing=vanishing, fails=fails, method=method, m=m
        )
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

class SurfaceCertificate(Record):
    """Fully evaluated surface certificate for one table row, every quantity
    and verdict stored once by ``certify_row``.

    Method 42 pairs C with the companion C′ of the pencil C + C′ ~ A|_T.  The
    method-41 ``exclusion_value`` and the method-42 ``deg_c_prime``,
    ``c_prime_sq``, ``degree_sum`` (deg C + deg C′, against the cap),
    ``forces_alpha_one`` (C′² < 0) and ``degree_contradiction`` (degree sum
    > cap) are None for the other method.  ``quantities`` holds the evaluated
    quantities in report order, keyed by JSON field name; every view of the
    certificate (JSON, text, coverage) reads them there.  ``boundary`` is True
    when some deciding quantity is exactly zero/equal — reported separately
    because validity demands strict inequalities.
    """

    __slots__ = (
        "row", "a_cube", "deg_c", "diff_indices", "diff_total", "c2t",
        "exclusion_value", "deg_c_prime", "c_prime_sq", "degree_sum",
        "forces_alpha_one", "degree_contradiction", "quantities", "valid", "boundary",
    )

    def __init__(
        self, row: SurfaceRow, a_cube: Fraction, deg_c: Fraction,
        diff_indices: tuple[int, ...], diff_total: Fraction, c2t: Fraction,
        exclusion_value: Fraction | None, deg_c_prime: Fraction | None,
        c_prime_sq: Fraction | None, degree_sum: Fraction | None,
        forces_alpha_one: bool | None, degree_contradiction: bool | None,
        quantities: tuple[tuple[str, Fraction], ...], valid: bool, boundary: bool,
    ):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "a_cube", a_cube)
        object.__setattr__(self, "deg_c", deg_c)
        object.__setattr__(self, "diff_indices", diff_indices)
        object.__setattr__(self, "diff_total", diff_total)
        object.__setattr__(self, "c2t", c2t)
        object.__setattr__(self, "exclusion_value", exclusion_value)
        object.__setattr__(self, "deg_c_prime", deg_c_prime)
        object.__setattr__(self, "c_prime_sq", c_prime_sq)
        object.__setattr__(self, "degree_sum", degree_sum)
        object.__setattr__(self, "forces_alpha_one", forces_alpha_one)
        object.__setattr__(self, "degree_contradiction", degree_contradiction)
        object.__setattr__(self, "quantities", quantities)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "boundary", boundary)

    @property
    def family(self) -> int:
        return self.row.family


def certify_row(f: FamilyRecord, row: SurfaceRow) -> SurfaceCertificate:
    """Evaluate one surface row bottom-up from the family's weights.

    The curve is the coordinate stratum of the row's vanishing indices.  Its
    singular-point indices in T are taken to be the surviving weights
    exceeding 1 — an assumption, so any row it fails to certify is surfaced
    rather than patched (see ``verify_surface_table``).  A Fraction's sign is
    its numerator's, so the verdicts test numerators.
    """
    if row.family != f.number:
        raise RowError(
            row.family, f"row applied to family record {f.number}"
        )
    m, a_cube = row.m, f.a_cube
    curve = StratumCurve.from_vanishing(f.weights, row.vanishing)
    deg_c = curve.degree
    diff_indices = tuple(sorted(w for w in curve.surviving_weights if w > 1))
    diff = different_total(diff_indices)
    c2t = curve_self_intersection(m, deg_c, diff)
    chain = (("deg_c", deg_c), ("diff_total", diff), ("c2t", c2t))
    if row.method is Method.M41:
        value = surface_exclusion_value(m, a_cube, deg_c, c2t)
        return SurfaceCertificate(
            row, a_cube, deg_c, diff_indices, diff, c2t,
            exclusion_value=value, deg_c_prime=None, c_prime_sq=None,
            degree_sum=None, forces_alpha_one=None, degree_contradiction=None,
            quantities=chain + (("exclusion_value", value),),
            valid=value.numerator < 0, boundary=value.numerator == 0,
        )
    # Method 42: the pencil A|_T cuts out C + C', so deg C' = m*A^3 - deg C and
    # deg C + deg C' = m*A^3; C' meets the same singular points, giving its
    # self-intersection by the same adjunction formula.
    a, b = a_cube.numerator, a_cube.denominator
    p, q = deg_c.numerator, deg_c.denominator
    deg_c_prime = Fraction(m * a * q - p * b, b * q)
    if deg_c_prime.numerator <= 0:
        raise RowError(
            f.number,
            f"two-curve method needs positive companion degree, got {deg_c_prime}",
        )
    c_prime_sq = curve_self_intersection(m, deg_c_prime, diff)
    degree_sum = Fraction(m * a, b)
    forces_alpha_one = c_prime_sq.numerator < 0
    degree_contradiction = degree_sum > a_cube
    return SurfaceCertificate(
        row, a_cube, deg_c, diff_indices, diff, c2t,
        exclusion_value=None, deg_c_prime=deg_c_prime, c_prime_sq=c_prime_sq,
        degree_sum=degree_sum, forces_alpha_one=forces_alpha_one,
        degree_contradiction=degree_contradiction,
        quantities=chain + (("deg_c_prime", deg_c_prime), ("c_prime_sq", c_prime_sq)),
        valid=forces_alpha_one and degree_contradiction,
        boundary=c_prime_sq.numerator == 0 or degree_sum == a_cube,
    )


#: The fail tag of each list whose members' surface rows must carry it.
_FAIL_TAGS = {"pencil_exceptions": "residual", "contracted_unsafe": "contracted"}


def expected_fail_tags(f: FamilyRecord) -> frozenset[str]:
    """Which coarse bounds genuinely fail for this family, read off its list
    membership: "residual" for a pencil exception (the second-case curve bound
    fails), "contracted" when neither contracted-curve dismissal applies."""
    return frozenset(_FAIL_TAGS[name] for name in family_lists(f) if name in _FAIL_TAGS)


class TableVerification(Record):
    """Outcome of verifying the whole surface-row table; each tag mismatch is
    (family, tags in the row file, tags re-derived from the weights)."""

    __slots__ = ("certificates", "tag_mismatches")

    def __init__(
        self,
        certificates: tuple[SurfaceCertificate, ...],
        tag_mismatches: tuple[tuple[int, frozenset[str], frozenset[str]], ...],
    ):
        object.__setattr__(self, "certificates", certificates)
        object.__setattr__(self, "tag_mismatches", tag_mismatches)

    @property
    def invalid(self) -> tuple[SurfaceCertificate, ...]:
        return tuple(c for c in self.certificates if not c.valid)

    @property
    def ok(self) -> bool:
        return not self.tag_mismatches and all(c.valid for c in self.certificates)


def verify_surface_table(db: FamilyDatabase, rows: Iterable[SurfaceRow]) -> TableVerification:
    """Certify every row and cross-check its "fails" tags against the
    re-derived verdicts.  Never raises for invalid certificates; they are
    collected so callers can report all failures at once."""
    certificates = []
    mismatches = []
    expected_by_family: dict[int, frozenset[str]] = {}
    for row in rows:
        f = db.get(row.family)
        certificates.append(certify_row(f, row))
        if f.number not in expected_by_family:
            expected_by_family[f.number] = expected_fail_tags(f)
        expected = expected_by_family[f.number]
        if row.fails != expected:
            mismatches.append((row.family, row.fails, expected))
    return TableVerification(
        certificates=tuple(certificates),
        tag_mismatches=tuple(mismatches),
    )


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
