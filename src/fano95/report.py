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

import marshal
from itertools import zip_longest
from json.encoder import encode_basestring_ascii as _escape
from typing import Iterable, Mapping

from .certificates import (
    CertificateError,
    Method,
    SurfaceCertificate,
    SurfaceRow,
    TableVerification,
    TestClassCertificate,
    case3_test_class_certificates,
)
from .coverage import FamilyCoverage
from .families import FAMILY_COUNT, FamilyDatabase, FamilyRecord
from .lemmas import classify_case
from .wps import Weights, _VANISHING_LABELS, _shown, format_rational

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


def derived_lists(db: FamilyDatabase) -> Mapping[str, tuple[int, ...]]:
    """Every membership list, re-derived from the weights: ``db.lists``."""
    return db.lists


def list_mismatches(
    derived: Mapping[str, tuple[int, ...]]
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each list whose members are not exactly its expected tuple, sorted
    and each once: (expected but missing, derived but unexpected), both empty
    when only the order or a repeat differs."""
    out = {}
    for name, expected in GOLDEN_LISTS.items():
        members = tuple(derived.get(name, ()))
        if members != expected:
            got, want = set(members), set(expected)
            out[name] = (tuple(sorted(want - got)), tuple(sorted(got - want)))
    return out


# ---------------------------------------------------------------------------
# JSON sections
# ---------------------------------------------------------------------------

#: Reader-facing names of the certificate quantities, for text lines.
_FIELD_NAMES = {
    "c2t": "self-intersection",
    "c_prime_sq": "companion self-intersection",
    "deg_c": "curve degree",
    "deg_c_prime": "companion degree",
    "diff_total": "different total",
    "exclusion_value": "exclusion value",
}


# Each builder writes its keys in sorted order, as ``to_json`` does, so a clean
# section has the same marshal bytes as its rebuild (see ``_compare``).
def _family_json(f: FamilyRecord) -> dict:
    return {
        "case": classify_case(f).value,
        "d": f.d,
        "degree_cap": f.a_cube_text,
        "number": f.number,
        "weights": list(f.weights),
    }


def families_section(db: FamilyDatabase) -> list[dict]:
    return [_family_json(f) for f in db]


def _test_class_json(c: TestClassCertificate) -> dict:
    return {
        "a_cube": c.record.a_cube_text,
        "b": c.b,
        "boundary": c.boundary,
        "curve": c.curve,
        "deg_c": format_rational(c.deg_c),
        "family": c.family,
        "p_a": c.p_a,
        "valid": c.valid,
        "value": c.value_text,
    }


def test_class_section(certs: Iterable[TestClassCertificate]) -> list[dict]:
    return [_test_class_json(c) for c in certs]


def _surface_cert_json(cert: SurfaceCertificate) -> dict:
    row = cert.row
    base = {
        "a_cube": cert.record.a_cube_text,
        "boundary": cert.boundary,
        "c2t": None,
        "c_prime_sq": None,
        "deg_c": None,
        "deg_c_prime": None,
        "degree_contradiction": cert.degree_contradiction,
        "diff_indices": list(cert.diff_indices),
        "diff_total": None,
        "exclusion_value": None,
        "fails": sorted(row.fails),
        "family": row.family,
        "forces_alpha_one": cert.forces_alpha_one,
        "m": row.m,
        "method": row.method.value,
        "valid": cert.valid,
        "vanishing": sorted(row.vanishing),
    }
    base.update(cert.quantities)
    return base


def surface_section(db: FamilyDatabase, verification: TableVerification, rows) -> list[dict]:
    """JSON entries of the surface certificates; ``db`` and ``rows`` are unused."""
    return [_surface_cert_json(cert) for cert in verification.certificates]


def lists_section(db: FamilyDatabase) -> dict:
    """The lists entry: each list's members in ``derived_lists(db)`` (none when
    it lacks the list), its expected members and whether the two match."""
    derived = derived_lists(db)
    mismatches = list_mismatches(derived)
    return {
        name: {
            "expected": list(GOLDEN_LISTS[name]),
            "families": list(derived.get(name, ())),
            "match": name not in mismatches,
        }
        for name in sorted(GOLDEN_LISTS)
    }


def coverage_section(coverage: Iterable[FamilyCoverage]) -> list[dict]:
    def route_json(entry):
        return {
            "annotations": [
                {"kind": a.kind.value, "text": a.text} for a in entry.annotations
            ],
            "detail": entry.detail,
            "route": entry.route,
            "values": [[label, value] for label, value in entry.values],
        }

    return [
        {
            "case": c.case.value,
            "contracted": route_json(c.contracted),
            "family": c.family,
            "gaps": list(c.gaps),
            "residual": route_json(c.residual),
            "status": c.status,
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

#: What rebuilding a malformed entry, or one the engine refuses, can raise.
_REBUILD_ERRORS = (KeyError, TypeError, ValueError, CertificateError)

#: Stands in for a field or item that one side of a comparison lacks; a
#: problem line shows it, and each container, by its entry in ``_SHOWN``.
_ABSENT = object()
_SHOWN = {dict: "an object", list: "an array", object: "<absent>"}


def _identical(got, want) -> bool:
    """Whether ``got`` and ``want`` have equal marshal bytes, which means equal
    types, values and key order, so ``1``, ``1.0`` and ``true`` differ."""
    try:
        return marshal.dumps(got, 0) == marshal.dumps(want, 0)
    except ValueError:  # outside the marshal model, such as _ABSENT
        return False


def _repr(value) -> str:
    """``repr(value)`` for a problem line; an integer too long to print is
    stated by its size, as ``wps._shown`` does."""
    try:
        return repr(value)
    except ValueError:
        return _shown(value)


def _compare(got, want, path: str, problems: list[str]) -> None:
    """Report each leaf where ``got`` differs from ``want``, led by its JSON path.
    Types must match exactly (see ``_identical``), so only what differs is
    walked, and only its paths are built."""
    if _identical(got, want):
        return
    kind = type(want)
    if kind is dict and type(got) is dict:
        for key in {**want, **got}:
            _compare(got.get(key, _ABSENT), want.get(key, _ABSENT), f"{path}.{key}", problems)
    elif kind is list and type(got) is list:
        for i, (g, w) in enumerate(zip_longest(got, want, fillvalue=_ABSENT)):
            _compare(g, w, f"{path}[{i}]", problems)
    elif type(got) is not kind or got != want:
        shown = [_SHOWN.get(type(v)) or _repr(v) for v in (got, want)]
        problems.append(f"{path}: serialized {shown[0]}, recomputed {shown[1]}")


def _rebuilt(problems: list[str], build, path: str, *keys):
    """``build()``, or None after reporting that ``path.format(*keys)`` does
    not rebuild; the path is formatted only then."""
    try:
        return build()
    except _REBUILD_ERRORS as exc:
        problems.append(
            f"{path.format(*keys)}: does not rebuild ({type(exc).__name__}: {exc})")


def _objects(problems: list[str], path: str, section) -> list[tuple[int, dict]]:
    """(index, entry) for each object entry of an array section; reports a
    section that is neither an array nor null, and each entry not an object."""
    if not isinstance(section, list):
        if section is not None:
            problems.append(f"{path}: is not an array")
        return []
    problems.extend(f"{path}[{i}]: is not an object"
                    for i, entry in enumerate(section) if not isinstance(entry, dict))
    return [(i, entry) for i, entry in enumerate(section) if isinstance(entry, dict)]


def revalidate_document(
    document: Mapping, *, db: FamilyDatabase | None = None
) -> tuple[str, ...]:
    """Rebuild each section with the builders that wrote it and compare.

    The families entries rebuild a ``FamilyDatabase`` (with the loader's count,
    order and repeat checks), which alone gives the families section, the test
    classes and the lists; each surface entry is certified again from its row.
    Coverage is checked only for its structure, as are the test classes and
    lists when the families do not rebuild.  Returns every problem at once,
    each led by its JSON path, and raises nothing; an empty tuple means the
    document re-derives from its own inputs.

    ``db`` is a database the caller loaded, such as the one the document was
    written from.  When the families section has the same marshal bytes as
    ``families_section(db)`` (same types, values and key order), its rebuild
    would give ``db``'s records, so ``db`` is used and no entry is rebuilt;
    otherwise the entries are rebuilt as without ``db``.  Every other section
    is checked as without ``db``, so the problems are the same either way.
    """
    if not isinstance(document, Mapping):
        return ("document is not an object",)
    problems: list[str] = []
    families = document.get("families")
    if db is None or not _identical(families, families_section(db)):
        db = None
        if families is None:
            problems.append("families: is not an array")
        records = [_rebuilt(problems, lambda: FamilyRecord(
                       f["number"], f["d"], Weights(f["weights"])), "families[{}]", i)
                   for i, f in _objects(problems, "families", families)]
        if not problems:
            db = _rebuilt(problems, lambda: FamilyDatabase(records), "families")
        # number, d and weights reached the database through the loader's
        # integer checks, and the other leaves are strings, so here == is
        # already exact.
        if db is not None and families != (expected := families_section(db)):
            _compare(families, expected, "families", problems)

    certificates = document.get("certificates")
    if not isinstance(certificates, dict):
        problems.append("certificates: is not an object")
        certificates = {}
    test_class = certificates.get("test_class")
    if db is None:
        _objects(problems, "certificates.test_class", test_class)
    elif test_class is not None:
        path = "certificates.test_class"
        tc = _rebuilt(problems, lambda: case3_test_class_certificates(db), path)
        if tc is not None:
            _compare(test_class, test_class_section(tc), path, problems)
    for i, s in _objects(problems, "certificates.surface", certificates.get("surface")):
        path = f"certificates.surface[{i}]"
        row = _rebuilt(problems, lambda: SurfaceRow(
            s["family"], s["vanishing"], s["fails"], Method(s["method"]), s["m"]), path)
        if row is not None and db is not None:
            cert = _rebuilt(problems, lambda: SurfaceCertificate(row, db.get(row.family)), path)
            if cert is not None:
                _compare(s, _surface_cert_json(cert), path, problems)

    lists = document.get("lists")
    if lists is not None and not isinstance(lists, dict):
        problems.append("lists: is not an object")
    elif lists is not None and db is not None:
        _compare(lists, lists_section(db), "lists", problems)

    coverage = document.get("coverage")
    if coverage is not None:
        entries = _objects(problems, "coverage", coverage)
        if [c.get("family") for _, c in entries] != list(range(1, FAMILY_COUNT + 1)):
            problems.append(f"coverage: does not list families 1..{FAMILY_COUNT} in order")
        for i, c in entries:
            family = c.get("family")
            if type(family) is not int:
                problems.append(f"coverage[{i}].family: {family!r} is not an integer")
            if (c.get("status") == "Covered") == bool(c.get("gaps")):
                problems.append(f"coverage[{i}].status: does not match gap list")
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


def render_lists(db: FamilyDatabase) -> tuple[str, bool]:
    """The lists as text lines, read as in ``lists_section``."""
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
                + ("" if missing or unexpected else ", members out of order or repeated")
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
            f"blowup-class value {c.value_text} [{status}]"
        )
    for cert in verification.certificates:
        row = cert.row
        flag = ("valid" if cert.valid else "INVALID") + (" boundary" if cert.boundary else "")
        values = ", ".join([f"{_FIELD_NAMES[field]} {text}" for field, text in cert.quantities])
        if cert.cap_check:
            values += f", degree sum {cert.cap_check} vs cap {cert.record.a_cube_text}"
        lines.append(f"surface family {row.family} row {_VANISHING_LABELS[row.vanishing]} "
                     f"method {row.method._value_} m={row.m}: {values} [{flag}]")
    lines.extend(verification.mismatch_lines)
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
