"""Report assembly: derived lists, JSON document, text rendering, round-trip.

The JSON document has a fixed top-level shape::

    {"families": [...], "certificates": {"test_class": [...], "surface": [...]},
     "lists": {...}, "coverage": [...]}

All four keys are always present; sections a command did not compute are
``null``.  Every rational is serialized as an exact "p/q" string (integers
included, e.g. "4/1"), array order is deterministic (family number, then row
order), and keys are emitted sorted — so identical inputs produce
byte-identical output.

The expected ("golden") membership lists live here, in the comparison step
only; everything the engine prints is re-derived from the weights and then
*compared* against these constants, never copied from them.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape
from typing import Iterable, Mapping

from .certificates import (
    CertificateError,
    Method,
    SurfaceCertificate,
    SurfaceRow,
    TableVerification,
    TestClassCertificate,
    certify_row,
)
from .coverage import FamilyCoverage
from .families import FAMILY_COUNT, FamilyDatabase, FamilyRecord
from .lemmas import LIST_NAMES, classify_case, family_verdicts
from .wps import Weights, _check_integer, format_rational, parse_rational

#: Expected membership lists, used only to cross-check the derived ones.
GOLDEN_LISTS: dict[str, tuple[int, ...]] = {
    "strong_bound": (
        40, 45, 57, 58, 60, 61, 66, 68, 69, 74, 75, 76, 78, 79, 80, 81,
        83, 84, 85, 86, 87, 90, 91, 92, 93, 94, 95,
    ),
    "weak_bound": (
        23, 32, 33, 37, 38, 39, 42, 43, 44, 48, 49, 52, 55, 56, 59, 63,
        64, 65, 72, 73, 77, 89,
    ),
    "extension_required": (18, 19, 22, 27, 28),
    "pencil_exceptions": (7, 9, 11, 12, 13, 15, 16, 17, 21, 24, 29, 34),
    "contracted_unsafe": (2, 5, 7, 8, 12, 13, 16, 18, 20, 24, 25, 26, 46),
    "shared_factor": (18, 22, 28, 43, 52, 59, 69, 73, 81),
}


def derived_lists(db: FamilyDatabase) -> dict[str, tuple[int, ...]]:
    """Recompute every membership list from the weights alone."""
    verdicts = family_verdicts(db)
    return {name: tuple([f.number for f, v in zip(db, verdicts) if name in v.lists])
            for name in LIST_NAMES}


def list_mismatches(
    derived: Mapping[str, tuple[int, ...]]
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each non-matching list: (expected but missing, derived but unexpected)."""
    out = {}
    for name, expected in GOLDEN_LISTS.items():
        got = set(derived.get(name, ()))
        want = set(expected)
        if got != want:
            out[name] = (
                tuple(sorted(want - got)),
                tuple(sorted(got - want)),
            )
    return out


# ---------------------------------------------------------------------------
# JSON sections
# ---------------------------------------------------------------------------

#: Reader-facing names of serialized fields, for text lines and mismatch reports.
_FIELD_NAMES = {
    "c2t": "self-intersection",
    "c_prime_sq": "companion self-intersection",
    "deg_c": "curve degree",
    "deg_c_prime": "companion degree",
    "diff_total": "different total",
    "exclusion_value": "exclusion value",
    "valid": "valid flag",
}


def _family_json(f: FamilyRecord) -> dict:
    return {
        "number": f.number,
        "d": f.d,
        "weights": list(f.weights),
        "degree_cap": format_rational(f.a_cube),
        "case": classify_case(f).value,
    }


def families_section(db: FamilyDatabase) -> list[dict]:
    return [_family_json(f) for f in db]


def _test_class_json(c: TestClassCertificate) -> dict:
    return {
        "family": c.family,
        "curve": c.curve,
        "b": c.b,
        "a_cube": format_rational(c.a_cube),
        "deg_c": format_rational(c.deg_c),
        "p_a": c.p_a,
        "value": format_rational(c.value),
        "valid": c.valid,
        "boundary": c.boundary,
    }


def test_class_section(certs: Iterable[TestClassCertificate]) -> list[dict]:
    return [_test_class_json(c) for c in certs]


def _surface_cert_json(cert: SurfaceCertificate) -> dict:
    row = cert.row
    base = {
        "family": row.family,
        "vanishing": sorted(row.vanishing),
        "fails": sorted(row.fails),
        "method": row.method.value,
        "m": row.m,
        "a_cube": format_rational(cert.a_cube),
        "diff_indices": list(cert.diff_indices),
        "exclusion_value": None,
        "deg_c_prime": None,
        "c_prime_sq": None,
        "forces_alpha_one": cert.forces_alpha_one,
        "degree_contradiction": cert.degree_contradiction,
        "valid": cert.valid,
        "boundary": cert.boundary,
    }
    base.update((field, format_rational(value)) for field, value in cert.quantities)
    return base


def surface_section(db: FamilyDatabase, verification: TableVerification, rows) -> list[dict]:
    """JSON entries of the surface certificates; ``db`` and ``rows`` are unused."""
    return [_surface_cert_json(cert) for cert in verification.certificates]


def lists_section(
    db: FamilyDatabase, *, derived: Mapping[str, tuple[int, ...]] | None = None
) -> dict:
    """The lists entry; a passed-in ``derived`` must be ``derived_lists(db)``,
    and when None it is derived here."""
    if derived is None:
        derived = derived_lists(db)
    mismatches = list_mismatches(derived)
    return {
        name: {
            "families": list(derived[name]),
            "expected": list(GOLDEN_LISTS[name]),
            "match": name not in mismatches,
        }
        for name in sorted(GOLDEN_LISTS)
    }


def coverage_section(coverage: Iterable[FamilyCoverage]) -> list[dict]:
    def route_json(entry):
        return {
            "route": entry.route,
            "detail": entry.detail,
            "values": [[label, value] for label, value in entry.values],
            "annotations": [
                {"kind": a.kind.value, "text": a.text} for a in entry.annotations
            ],
        }

    return [
        {
            "family": c.family,
            "case": c.case.value,
            "status": c.status,
            "gaps": list(c.gaps),
            "residual": route_json(c.residual),
            "contracted": route_json(c.contracted),
        }
        for c in coverage
    ]


def build_document(
    db: FamilyDatabase,
    *,
    lists: dict | None = None,
    test_class: list[dict] | None = None,
    surface: list[dict] | None = None,
    coverage: list[dict] | None = None,
) -> dict:
    """Assemble the fixed-shape document from whichever sections were computed."""
    return {
        "families": families_section(db),
        "certificates": {"test_class": test_class, "surface": surface},
        "lists": lists,
        "coverage": coverage,
    }


#: The JSON spelling of each constant.
_CONSTANTS = {True: "true", False: "false", None: "null"}


def to_json(document: Mapping) -> str:
    """Canonical serialization: the bytes of ``json.dumps(document,
    sort_keys=True, indent=2)`` plus one trailing newline, so identical inputs
    give identical output.

    Only the JSON model is written: ``str``, ``int``, ``bool``, ``None``,
    ``dict`` with ``str`` keys, and ``list`` or ``tuple``, matched by exact
    type.  Anything else (a float, a ``Fraction``, a set, a non-``str`` key)
    raises ``TypeError``, so no float reaches the output.
    """
    parts: list[str] = []
    _emit(document, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _emit(o, pad: str, write) -> None:
    """Write ``o`` whose line starts with ``pad``; its items go one level in."""
    kind = type(o)
    if kind is str:
        write(_escape(o))
    elif kind is int:
        write(int.__repr__(o))
    elif kind is dict:
        if not o:
            write("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(o):
            write(sep + _escape(key) + ": ")  # the escape refuses a non-str key
            _emit(o[key], inner, write)
            sep = "," + inner
        write(pad + "}")
    elif kind is list or kind is tuple:
        if not o:
            write("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in o:
            write(sep)
            _emit(item, inner, write)
            sep = "," + inner
        write(pad + "]")
    elif kind is bool or o is None:
        write(_CONSTANTS[o])
    else:
        raise TypeError(f"{kind.__name__} value {o!r} is outside the JSON model")


# ---------------------------------------------------------------------------
# Round-trip revalidation
# ---------------------------------------------------------------------------

#: What rebuilding a malformed entry, or one the engine rejects, can raise.
_REBUILD_ERRORS = (CertificateError, KeyError, TypeError, ValueError)

#: Stands in for a field that one side of a comparison lacks.
_ABSENT = "<absent>"


def _objects(problems: list[str], name: str, section) -> Iterable[dict]:
    """The entries of an array section that are objects; reports the others."""
    if not isinstance(section, list):
        if section is not None:
            problems.append(f"{name} section is not an array")
        return
    for i, entry in enumerate(section):
        if isinstance(entry, dict):
            yield entry
        else:
            problems.append(f"{name} entry {i} is not an object")


def revalidate_document(document: Mapping) -> tuple[str, ...]:
    """Rebuild every serialized entry with the engine's own code and compare.

    Each family is rebuilt from its number, degree and weights; each
    test-class certificate from its curve on its family's degree cap; each
    surface certificate from its row (family, vanishing, fails, method, m)
    through ``certify_row``.  The rebuilt record is serialized exactly as
    ``build_document`` serializes it, and every field that differs is
    reported.  Returns human-readable problem descriptions; an empty tuple
    means the document re-derives from its own inputs.  A malformed entry,
    or one the engine rejects, is reported as a problem, never raised.
    """
    if not isinstance(document, Mapping):
        return ("document is not an object",)
    problems: list[str] = []
    records: dict[int, FamilyRecord] = {}

    def recheck(label: str, entry: dict, rebuild) -> None:
        try:
            expected = rebuild(entry)
        except _REBUILD_ERRORS as exc:
            problems.append(f"{label}: does not rebuild ({type(exc).__name__}: {exc})")
            return
        if expected == entry:
            return
        for key in sorted(expected.keys() | entry.keys()):
            got, want = entry.get(key, _ABSENT), expected.get(key, _ABSENT)
            if got != want:
                problems.append(
                    f"{label}: {_FIELD_NAMES.get(key, key)} does not recompute "
                    f"(serialized {got!r}, recomputed {want!r})"
                )

    def family_of(entry: dict) -> FamilyRecord:
        number = entry["family"]
        _check_integer("family number", number)
        if number not in records:
            raise ValueError(f"no valid families entry for family {number}")
        return records[number]

    def rebuild_family(f: dict) -> dict:
        record = FamilyRecord.build(f["number"], f["d"], Weights(f["weights"]))
        records[record.number] = record
        return _family_json(record)

    def rebuild_test_class(c: dict) -> dict:
        cert = TestClassCertificate.build(
            family_of(c), c["curve"], c["b"], parse_rational(c["deg_c"]), c["p_a"]
        )
        return _test_class_json(cert)

    def rebuild_surface(s: dict) -> dict:
        row = SurfaceRow(
            family=s["family"],
            vanishing=frozenset(s["vanishing"]),
            fails=frozenset(s["fails"]),
            method=Method(s["method"]),
            m=s["m"],
        )
        return _surface_cert_json(certify_row(family_of(s), row))

    families = document.get("families")
    numbers = []
    for f in _objects(problems, "families", families):
        numbers.append(f.get("number"))
        recheck(f"family {f.get('number')}", f, rebuild_family)
    if families is not None and numbers != list(range(1, FAMILY_COUNT + 1)):
        problems.append(
            f"families section does not list numbers 1..{FAMILY_COUNT} in order"
        )

    certificates = document.get("certificates")
    if not isinstance(certificates, dict):
        if certificates is not None:
            problems.append("certificates section is not an object")
        certificates = {}
    for c in _objects(problems, "test-class", certificates.get("test_class")):
        recheck(f"test-class family {c.get('family')}", c, rebuild_test_class)
    for s in _objects(problems, "surface", certificates.get("surface")):
        recheck(
            f"surface family {s.get('family')} row {s.get('vanishing')}",
            s,
            rebuild_surface,
        )

    coverage = document.get("coverage")
    if coverage is not None:
        entries = list(_objects(problems, "coverage", coverage))
        if [c.get("family") for c in entries] != list(range(1, FAMILY_COUNT + 1)):
            problems.append(
                f"coverage section does not list families 1..{FAMILY_COUNT} in order"
            )
        for c in entries:
            try:
                _check_integer("family number", c.get("family"))
            except TypeError as exc:
                problems.append(f"coverage family {c.get('family')}: {exc}")
            if (c.get("status") == "Covered") == bool(c.get("gaps")):
                problems.append(
                    f"coverage family {c.get('family')}: status does not match gap list"
                )

    return tuple(problems)


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def render_validate(db: FamilyDatabase) -> str:
    cases = {tag: 0 for tag in ("case1", "case2", "case3")}
    for f in db:
        cases[classify_case(f).value] += 1
    return (
        f"ok: {len(db)} families validated "
        f"(case1: {cases['case1']}, case2: {cases['case2']}, "
        f"case3: {cases['case3']})\n"
    )


def render_lists(
    db: FamilyDatabase, *, derived: Mapping[str, tuple[int, ...]] | None = None
) -> tuple[str, bool]:
    """The lists as text lines; ``derived`` as in ``lists_section``."""
    if derived is None:
        derived = derived_lists(db)
    mismatches = list_mismatches(derived)
    lines = []
    for name in sorted(derived):
        members = " ".join(str(n) for n in derived[name])
        lines.append(f"{name}: {members}")
    if mismatches:
        for name, (missing, unexpected) in sorted(mismatches.items()):
            lines.append(
                f"MISMATCH {name}: missing {list(missing)}, "
                f"unexpected {list(unexpected)}"
            )
    else:
        lines.append("all lists match the expected values")
    return "\n".join(lines) + "\n", not mismatches


def render_certificates(
    tc_certs: Iterable[TestClassCertificate],
    verification: TableVerification,
) -> tuple[str, bool]:
    lines = []
    ok = verification.ok
    for c in tc_certs:
        ok = ok and c.valid
        status = "valid" if c.valid else "INVALID"
        lines.append(
            f"test-class family {c.family} ({c.curve}): multiplier {c.b}, "
            f"curve degree {format_rational(c.deg_c)}, "
            f"blowup-class value {format_rational(c.value)} [{status}]"
        )
    for cert in verification.certificates:
        row = cert.row
        flag = ("valid" if cert.valid else "INVALID") + (" boundary" if cert.boundary else "")
        values = ", ".join([f"{_FIELD_NAMES[field]} {format_rational(value)}"
                            for field, value in cert.quantities])
        if cert.degree_sum is not None:
            values += (
                f", degree sum {format_rational(cert.degree_sum)} vs cap "
                f"{format_rational(cert.a_cube)}"
            )
        lines.append(
            "surface family {} row {{{},{},{}}} method {} m={}: {} [{}]".format(
                row.family, *sorted(row.vanishing), row.method.value, row.m, values, flag
            )
        )
    for family, got, expected in verification.tag_mismatches:
        lines.append(
            f"TAG MISMATCH family {family}: row file says {sorted(got)}, "
            f"derived verdicts say {sorted(expected)}"
        )
    return "\n".join(lines) + "\n", ok


def render_coverage(coverage: Iterable[FamilyCoverage]) -> tuple[str, bool]:
    lines = []
    covered = 0
    gaps = 0
    coverage = tuple(coverage)
    for c in coverage:
        lines.append(
            f"family {c.family:>2} {c.case.value}: residual via {c.residual.route}, "
            f"contracted via {c.contracted.route} [{c.status}]"
        )
        for g in c.gaps:
            lines.append(f"  GAP: {g}")
        for a in c.annotations:
            lines.append(f"  note ({a.kind.value}): {a.text}")
        if c.status == "Covered":
            covered += 1
        else:
            gaps += 1
    lines.append(f"coverage: {covered} Covered, {gaps} Gap")
    return "\n".join(lines) + "\n", gaps == 0
