"""Report assembly: derived lists, JSON document, text rendering, revalidation."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fano95 import cli, report
from fano95 import (
    FAMILY_COUNT,
    GOLDEN_LISTS,
    FamilyDatabase,
    FamilyRecord,
    build_coverage,
    case3_test_class_certificates,
    derived_lists,
    load_surface_rows,
    revalidate_document,
    to_json,
    verify_surface_table,
)

ROOT = Path(__file__).resolve().parent.parent


def _full_document(db, rows):
    verification = verify_surface_table(db, rows)
    return report.build_document(
        db,
        lists=report.lists_section(db),
        test_class=report.test_class_section(case3_test_class_certificates(db)),
        surface=report.surface_section(db, verification, rows),
        coverage=report.coverage_section(
            build_coverage(db, rows, verification=verification)
        ),
    )


@pytest.fixture(scope="module")
def full_document(db, rows):
    return _full_document(db, rows)


# ---------------------------------------------------------------------------
# Golden lists


def test_golden_lists_structure():
    assert sorted(GOLDEN_LISTS) == [
        "contracted_unsafe",
        "extension_required",
        "pencil_exceptions",
        "shared_factor",
        "strong_bound",
        "weak_bound",
    ]
    sizes = {name: len(v) for name, v in GOLDEN_LISTS.items()}
    assert sizes == {
        "strong_bound": 27,
        "weak_bound": 22,
        "extension_required": 5,
        "pencil_exceptions": 12,
        "contracted_unsafe": 13,
        "shared_factor": 9,
    }
    # the three residual-bound lists partition the 54 families of case 1
    case1 = (
        set(GOLDEN_LISTS["strong_bound"])
        | set(GOLDEN_LISTS["weak_bound"])
        | set(GOLDEN_LISTS["extension_required"])
    )
    assert len(case1) == 54


def test_derived_lists_match_goldens(db):
    derived = derived_lists(db)
    assert derived == {name: tuple(v) for name, v in GOLDEN_LISTS.items()}
    assert report.list_mismatches(derived) == {}


def test_the_derived_lists_cannot_be_changed_under_the_views(db):
    # derived_lists(db) is the database's own read-only mapping of tuples, so
    # no caller can change what lists_section or render_lists report.
    section, text = report.lists_section(db), report.render_lists(db)
    derived = derived_lists(db)
    assert derived is derived_lists(db)
    assert all(type(members) is tuple for members in derived.values())
    with pytest.raises(TypeError):
        derived["shared_factor"] = ()
    with pytest.raises(TypeError):
        del derived["shared_factor"]
    with pytest.raises(AttributeError):
        derived.clear()
    assert (report.lists_section(db), report.render_lists(db)) == (section, text)


@pytest.mark.parametrize(
    "members",
    [GOLDEN_LISTS["strong_bound"][::-1], (40,) + GOLDEN_LISTS["strong_bound"]],
    ids=["reversed", "repeated"],
)
def test_list_mismatches_see_order_and_repeats(db, members):
    # The same members out of order, or with one repeated, are no match.
    derived = dict(derived_lists(db), strong_bound=members)
    assert report.list_mismatches(derived) == {"strong_bound": ((), ())}


def test_list_mismatches_report_both_directions(db):
    derived = dict(derived_lists(db))
    derived["shared_factor"] = tuple(
        n for n in derived["shared_factor"] if n != 43
    ) + (44,)
    mismatches = report.list_mismatches(derived)
    missing, unexpected = mismatches["shared_factor"]
    assert missing == (43,)
    assert unexpected == (44,)


# ---------------------------------------------------------------------------
# JSON document


def test_document_always_has_all_top_level_keys(db):
    bare = report.build_document(db)
    assert sorted(bare) == ["certificates", "coverage", "families", "lists"]
    assert bare["lists"] is None and bare["coverage"] is None
    assert bare["certificates"] == {"test_class": None, "surface": None}
    assert len(bare["families"]) == 95


def test_full_document_sections(full_document):
    doc = full_document
    assert len(doc["families"]) == 95
    assert len(doc["certificates"]["test_class"]) == 6
    assert len(doc["certificates"]["surface"]) == 21
    assert len(doc["coverage"]) == 95
    assert all(doc["lists"][name]["match"] for name in doc["lists"])


def test_document_rationals_always_slash_form(full_document):
    f1 = full_document["families"][0]
    assert f1["degree_cap"] == "4/1"
    tc = full_document["certificates"]["test_class"][2]
    assert tc["value"] == "-4/1"
    surface = full_document["certificates"]["surface"]
    m41 = next(s for s in surface if s["method"] == "41")
    assert "/" in m41["exclusion_value"]
    assert m41["deg_c_prime"] is None and m41["c_prime_sq"] is None
    m42 = next(s for s in surface if s["method"] == "42")
    assert m42["exclusion_value"] is None
    assert "/" in m42["deg_c_prime"] and "/" in m42["c_prime_sq"]


def test_to_json_is_canonical_and_deterministic(full_document):
    text = to_json(full_document)
    assert text.endswith("\n")
    assert text == to_json(full_document)
    # canonical form: sorted keys, two-space indent
    reparsed = json.loads(text)
    assert to_json(reparsed) == text


def test_json_round_trip_preserves_document(full_document):
    assert json.loads(to_json(full_document)) == json.loads(to_json(full_document))


def _stdlib_json(document) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


#: Every JSON kind the emitter writes, with the strings and ints that need care.
_EDGE_DOCUMENT = {
    "text": [
        "caf\u00e9 \u2264 \U0001d4d2",
        'quote " and \\ backslash',
        "\x00\x1f\t\n\x7f",
        "lone \ud800 surrogate",
        "",
    ],
    "empty": {"object": {}, "array": [], "nested": [[], {}, [[]], {"a": {}}]},
    "tuple": (1, (2, ()), "three"),
    "ints": [0, -1, -(2**31), 2**64 + 1, -(2**100)],
    "constants": [True, False, None],
    "z\u00e9": {"\"key\"": None, "": 0, "B": 1, "a": 2},
}


@pytest.mark.parametrize("seed", [None, 3, 11], ids=["packaged", "wide-3", "wide-11"])
def test_to_json_writes_the_stdlib_bytes_for_full_documents(db, rows, wide_tables, seed):
    if seed is not None:
        rows = load_surface_rows(wide_tables[seed])
    document = _full_document(db, rows)
    assert to_json(document) == _stdlib_json(document)


def test_to_json_writes_the_stdlib_bytes_for_partial_documents(db, rows):
    verification = verify_surface_table(db, rows)
    lists_only = report.build_document(db, lists=report.lists_section(db))
    certify_only = report.build_document(
        db,
        test_class=report.test_class_section(case3_test_class_certificates(db)),
        surface=report.surface_section(db, verification, rows),
    )
    for document in (lists_only, certify_only):
        assert to_json(document) == _stdlib_json(document)


def test_to_json_writes_the_stdlib_bytes_for_edge_values():
    assert to_json(_EDGE_DOCUMENT) == _stdlib_json(_EDGE_DOCUMENT)
    assert to_json({}) == "{}\n" and to_json([]) == "[]\n"


@pytest.mark.parametrize(
    "value",
    [1.0, Fraction(1, 2), {1, 2}, frozenset(), {1: "one"}, {"a": 1, 2: "b"},
     {None: 0}, [b"bytes"], {"deep": [{"x": 0.5}]}],
    ids=["float", "fraction", "set", "frozenset", "int-key", "mixed-keys",
         "none-key", "bytes", "nested-float"],
)
def test_to_json_refuses_values_outside_the_json_model(value):
    with pytest.raises(TypeError):
        to_json(value)


# ---------------------------------------------------------------------------
# Revalidation


def test_revalidate_accepts_clean_document(full_document):
    assert revalidate_document(json.loads(to_json(full_document))) == ()


def _calls(code, call):
    """``call()`` and the number of calls of the function of ``code`` it made."""
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built.append(1)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, len(built)


def _records_built(call):
    """``call()`` and the number of ``FamilyRecord`` constructions it made."""
    return _calls(FamilyRecord.__init__.__code__, call)


def test_revalidate_reuses_the_database_of_its_families(db, full_document):
    doc = json.loads(to_json(full_document))
    assert _records_built(lambda: revalidate_document(doc, db=db)) == ((), 0)
    assert _records_built(lambda: revalidate_document(doc)) == ((), FAMILY_COUNT)


def test_revalidate_reuses_the_sections_of_the_written_document(db, full_document):
    # With its families reused and its surface rows the written ones, a
    # document rebuilds to the written test classes, lists and coverage, so
    # coverage is not built again; a changed row is a new input, and is.
    doc = json.loads(to_json(full_document))

    def coverage_built(**reuse):
        return _calls(build_coverage.__code__, lambda: revalidate_document(doc, **reuse))

    assert coverage_built(db=db, written=full_document) == ((), 0)
    assert coverage_built(db=db) == ((), 1)
    doc["certificates"]["surface"][0]["m"] += 1
    problems, built = coverage_built(db=db, written=full_document)
    assert built == 1 and problems and problems == revalidate_document(doc)


def test_revalidate_rebuilds_forged_families_despite_a_database(db, full_document):
    doc = json.loads(to_json(full_document))
    doc["families"][6]["d"] += 1
    problems = revalidate_document(doc)
    assert problems == ("families[6]: does not rebuild (ValidationError: family 7: "
                        "d = 9 but a1+a2+a3+a4 = 8 (invariant d = a1+a2+a3+a4 violated))",)
    assert _records_built(lambda: revalidate_document(doc, db=db)) == (
        problems, FAMILY_COUNT)


def test_revalidate_rebuilds_families_a_database_does_not_match(db, full_document):
    # Families 3 and 4 both have degree 6: with their weights swapped the
    # database loads, but its families section is not the document's, and
    # its test classes would not match the document's either.
    records = list(db)
    three, four = records[2], records[3]
    records[2:4] = (FamilyRecord(3, three.d, four.weights),
                    FamilyRecord(4, four.d, three.weights))
    swapped = FamilyDatabase(records)
    doc = json.loads(to_json(full_document))
    assert _records_built(lambda: revalidate_document(doc, db=swapped)) == (
        (), FAMILY_COUNT)


def test_builders_write_keys_in_sorted_order(full_document):
    # The order json.loads reads back from to_json, so a clean section has
    # the same marshal bytes as its rebuild and the revalidator skips its walk.
    doc = full_document
    entries = [*doc["families"], *doc["certificates"]["test_class"],
               *doc["certificates"]["surface"], doc["lists"], *doc["lists"].values()]
    for c in doc["coverage"]:
        entries += [c, c["residual"], c["contracted"],
                    *c["residual"]["annotations"], *c["contracted"]["annotations"]]
    assert all(list(entry) == sorted(entry) for entry in entries)


def test_revalidate_detects_tampered_test_class_value(full_document):
    doc = json.loads(to_json(full_document))
    doc["certificates"]["test_class"][2]["value"] = "4/1"
    assert revalidate_document(doc) == (
        "certificates.test_class[2].value: serialized '4/1', recomputed '-4/1'",
    )


def test_revalidate_detects_tampered_surface_chain(full_document):
    doc = json.loads(to_json(full_document))
    doc["certificates"]["surface"][0]["c2t"] = "-1/3"
    assert revalidate_document(doc) == (
        "certificates.surface[0].c2t: serialized '-1/3', recomputed '-5/3'",
    )


def test_revalidate_names_forged_curve_degree(full_document):
    doc = json.loads(to_json(full_document))
    doc["certificates"]["surface"][0]["deg_c"] = "1/7"
    assert revalidate_document(doc) == (
        "certificates.surface[0].deg_c: serialized '1/7', recomputed '1/3'",
    )


def test_revalidate_detects_flag_forgery(full_document):
    doc = json.loads(to_json(full_document))
    victim = doc["certificates"]["surface"][0]
    assert victim["method"] == "41"
    victim["valid"] = False
    assert revalidate_document(doc) == (
        "certificates.surface[0].valid: serialized False, recomputed True",
    )


def test_revalidate_detects_truncated_sections(full_document):
    doc = json.loads(to_json(full_document))
    del doc["families"][3]
    assert revalidate_document(doc) == (
        "families: does not rebuild "
        "(ValidationError: expected exactly 95 family records, got 94)",
    )
    doc = json.loads(to_json(full_document))
    del doc["coverage"][0]
    assert revalidate_document(doc) == ("coverage: does not list families 1..95 in order",)


def test_revalidate_detects_status_gap_disagreement(full_document):
    doc = json.loads(to_json(full_document))
    doc["coverage"][4]["status"] = "Gap"
    assert revalidate_document(doc) == (
        "coverage[4].status: serialized 'Gap', recomputed 'Covered'",
    )


@pytest.mark.parametrize("field, forged", [("degree_cap", "1/1"), ("case", "case1")])
def test_revalidate_rebuilds_family_entries(full_document, field, forged):
    doc = json.loads(to_json(full_document))
    recomputed = doc["families"][6][field]
    doc["families"][6][field] = forged
    assert revalidate_document(doc) == (
        f"families[6].{field}: serialized {forged!r}, recomputed {recomputed!r}",
    )


def test_revalidate_reports_malformed_entries(full_document):
    # A families entry that does not rebuild leaves no database to rebuild
    # the test classes from or certify against, but each surface row is still
    # rebuilt, and a malformed one reported.
    doc = json.loads(to_json(full_document))
    del doc["certificates"]["surface"][0]["m"]
    doc["families"][0]["weights"] = 7
    doc["certificates"]["test_class"][1] = "conic"
    assert revalidate_document(doc) == (
        "families[0]: does not rebuild (TypeError: 'int' object is not iterable)",
        "certificates.surface[0]: does not rebuild (KeyError: 'm')",
    )


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (
            ("certificates", "surface", 0, "m"),
            1.5,
            "certificates.surface[0]: does not rebuild "
            "(TypeError: surface-system multiplier must be an integer, got 1.5)",
        ),
        (
            ("certificates", "test_class", 0, "b"),
            2.5,
            "certificates.test_class[0].b: serialized 2.5, recomputed 2",
        ),
        (
            ("families", 0, "number"),
            1.0,
            "families[0]: does not rebuild "
            "(TypeError: family number must be an integer, got 1.0)",
        ),
        (
            ("certificates", "test_class", 0, "family"),
            1.0,
            "certificates.test_class[0].family: serialized 1.0, recomputed 1",
        ),
        (
            ("certificates", "surface", 0, "family"),
            7.0,
            "certificates.surface[0]: does not rebuild "
            "(TypeError: family number must be an integer, got 7.0)",
        ),
        (
            ("coverage", 0, "family"),
            True,
            "coverage[0].family: serialized True, recomputed 1",
        ),
        (
            ("families", 0, "weights", 1),
            1.0,
            "families[0]: does not rebuild "
            "(TypeError: weight must be an integer, got 1.0)",
        ),
        (
            ("families", 0, "weights", 0),
            True,
            "families[0]: does not rebuild "
            "(TypeError: weight must be an integer, got True)",
        ),
        (
            ("families", 0, "d"),
            4.0,
            "families[0]: does not rebuild "
            "(TypeError: degree must be an integer, got 4.0)",
        ),
        (
            ("certificates", "surface", 0, "vanishing"),
            [0.0, 2, 3],
            "certificates.surface[0]: does not rebuild "
            "(TypeError: vanishing index must be an integer, got 0.0)",
        ),
        (
            ("certificates", "surface", 0, "vanishing"),
            [False, 2, 3],
            "certificates.surface[0]: does not rebuild "
            "(TypeError: vanishing index must be an integer, got False)",
        ),
        (
            ("certificates", "surface", 0, "fails"),
            "residual",
            "certificates.surface[0]: does not rebuild (TypeError: fail tags must be "
            "a collection of tags, not the str 'residual')",
        ),
        (
            ("certificates", "surface", 0, "fails"),
            [["residual"]],
            "certificates.surface[0]: does not rebuild "
            "(ValueError: unknown fail tags [['residual']])",
        ),
        (("certificates",), "x", "certificates: serialized 'x', recomputed an object"),
        (("families",), 5, "families: is not an array"),
        ((), [], "document is not an object"),
    ],
    ids=["surface-m-float", "test-class-b-float", "families-number-float",
         "test-class-family-float", "surface-family-float", "coverage-family-bool",
         "families-weight-float", "families-weight-bool", "families-d-float",
         "surface-vanishing-float", "surface-vanishing-bool", "surface-fails-string",
         "surface-fails-list",
         "certificates-string",
         "families-number", "document-array"],
)
def test_revalidate_reports_wrong_json_types(full_document, path, value, problem):
    doc = json.loads(to_json(full_document))
    if path:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    else:
        doc = value
    assert problem in revalidate_document(doc)


def test_revalidate_reports_nonpositive_companion_degree(full_document):
    doc = json.loads(to_json(full_document))
    victim = doc["certificates"]["surface"][9]
    assert (victim["family"], victim["method"], victim["m"]) == (15, "42", 2)
    victim["m"] = 1  # m*A^3 - deg C = 1/3 - 1/3 = 0
    problems = revalidate_document(doc)
    # The row rebuilds as an invalid certificate; its fields no longer match.
    assert not any("does not rebuild" in p for p in problems)
    path = "certificates.surface[9]"
    assert f"{path}.deg_c_prime: serialized '1/3', recomputed '0/1'" in problems
    assert f"{path}.valid: serialized True, recomputed False" in problems


def test_revalidate_reports_a_quantity_too_long_to_print(full_document, digit_limit):
    # m parses, having as many digits as int() converts, but a quantity of the
    # certificate it rebuilds has more: the entry does not rebuild, and the
    # problem names its path, not the number.
    doc = json.loads(to_json(full_document))
    victim = doc["certificates"]["surface"][9]
    assert (victim["family"], victim["vanishing"], victim["method"]) == (15, [0, 2, 4], "42")
    victim["m"] = 10 ** (digit_limit - 1)
    assert revalidate_document(doc) == (
        "certificates.surface[9]: does not rebuild (RowError: family 15: row {0,2,4} "
        "(method 42): a quantity is too long to print)",
    )


def test_revalidate_reports_a_test_class_value_too_long_to_print(
    full_document, conic_overflow_weights
):
    # Family 3's entry rebuilds, since its A³ prints, but the value of its
    # conic's test class has one digit more: the test classes do not rebuild,
    # and the problem names the family, not the number.
    doc = json.loads(to_json(full_document))
    weights = conic_overflow_weights
    doc["families"][2].update(d=sum(weights) - 1, weights=list(weights))
    problems = revalidate_document(doc)
    assert not any(p.startswith("families[2]") and "rebuild" in p for p in problems)
    assert ("certificates.test_class: does not rebuild (CertificateError: family 3: "
            "test-class value for the conic is too long to print)") in problems


def _forge_family_22_as_23(doc):
    doc["families"][21].update(
        {key: doc["families"][22][key] for key in ("d", "weights", "degree_cap", "case")}
    )


def _forge_test_class_b(doc):
    # Family 1's twisted cubic: b*A^3 - (b+1)*deg C - 2 = 4 - 6 - 2 at b = 1.
    doc["certificates"]["test_class"][0].update(b=1, value="-4/1")


def _forge_shared_factor_without_18(doc):
    # A list whose members and match agree with each other and the expected
    # members, but not with the families.
    entry = doc["lists"]["shared_factor"]
    entry["families"].remove(18)
    entry["match"] = False


#: A gap as the coverage builder writes it.
_GAP = "residual (invalid surface certificate)"


def _forge_coverage_without_annotations(doc):
    # No family would rest on any step taken on trust.
    for c in doc["coverage"]:
        c["residual"]["annotations"] = c["contracted"]["annotations"] = []


def _forge_coverage_without_status(doc):
    # A gap list the status would contradict, with no status to compare.
    del doc["coverage"][0]["status"]
    doc["coverage"][0]["gaps"] = [_GAP]


@pytest.mark.parametrize(
    "command, forge, problem",
    [
        ("full", _forge_family_22_as_23,
         "families: does not rebuild (ValidationError: family 23: degree 14 and "
         "weights (1, 2, 3, 4, 5) repeat family 22)"),
        ("full", _forge_test_class_b,
         "certificates.test_class[0].b: serialized 1, recomputed 2"),
        ("full", lambda doc: doc["lists"]["strong_bound"].update(families=[1, 2, 3]),
         "lists.strong_bound.families[0]: serialized 1, recomputed 40"),
        ("full", lambda doc: doc["lists"]["strong_bound"].update(
            families=[40, *GOLDEN_LISTS["strong_bound"][::-1]]),
         "lists.strong_bound.families[1]: serialized 95, recomputed 45"),
        ("full", _forge_shared_factor_without_18,
         "lists.shared_factor.families[0]: serialized 22, recomputed 18"),
        ("full", lambda doc: doc["certificates"]["surface"][3].update(valid=1),
         "certificates.surface[3].valid: serialized 1, recomputed True"),
        ("lists", lambda doc: doc.update(families=None), "families: is not an array"),
        ("lists", lambda doc: doc["lists"]["weak_bound"].update(families=None),
         "lists.weak_bound.families: serialized None, recomputed an array"),
        ("full", lambda doc: doc["coverage"][0].update(status="Bogus", gaps=[_GAP]),
         "coverage[0].status: serialized 'Bogus', recomputed 'Covered'"),
        ("full", _forge_coverage_without_status, "coverage[0].status: <absent>"),
        ("full", lambda doc: doc["coverage"][0].update(status="Gap", gaps=5),
         "coverage[0].gaps: serialized 5, recomputed an array"),
        ("full", lambda doc: doc.update(extra=1), "extra: unknown key"),
        ("full", lambda doc: doc.pop("lists"), "lists: <absent>"),
        ("lists", lambda doc: doc.pop("families"), "families: <absent>"),
        ("full", lambda doc: doc["certificates"].update(extra=1),
         "certificates.extra: unknown key"),
        ("full", lambda doc: doc["certificates"].pop("surface"),
         "certificates.surface: <absent>"),
        ("full", lambda doc: doc["coverage"][0].update(extra=1),
         "coverage[0].extra: unknown key"),
        ("full", lambda doc: doc["coverage"][0].pop("residual"),
         "coverage[0].residual: <absent>"),
        ("full", lambda doc: doc["certificates"].update(surface=None),
         "coverage: serialized an array, recomputed None"),
        ("full", lambda doc: doc["certificates"].update(surface=[]),
         "coverage[6].gaps[0]: serialized <absent>, "
         "recomputed 'residual (pencil bound fails and no surface rows)'"),
        ("full", _forge_coverage_without_annotations,
         "coverage[0].residual.annotations[0]: serialized <absent>, recomputed an object"),
        ("full", lambda doc: doc["coverage"][6].update(status="Gap", gaps=[_GAP]),
         "coverage[6].status: serialized 'Gap', recomputed 'Covered'"),
    ],
    ids=["family-22-as-23", "test-class-b", "list-members", "list-order-repeat",
         "list-without-member", "surface-valid-int", "lists-families-null",
         "list-members-null", "coverage-status-bogus", "coverage-status-absent",
         "coverage-gaps-int", "document-extra-key", "lists-absent", "families-absent",
         "certificates-extra-key", "certificates-surface-absent",
         "coverage-extra-field", "coverage-route-absent", "surface-null",
         "surface-empty", "annotations-deleted", "family-7-made-up-gap"],
)
def test_revalidate_refuses_forged_documents(capsys, db, command, forge, problem):
    # Each forgery agrees with itself entry by entry: only whole sections
    # rebuilt from the families entries and the surface rows, with the
    # builders that wrote them, show it, as a differing leaf or an absent or
    # unknown key, whether or not the audit's database and its written
    # document are reused.
    assert cli.main([command, "--format", "json"]) == cli.EXIT_OK
    written = json.loads(capsys.readouterr().out)
    doc = json.loads(to_json(written))
    assert revalidate_document(doc) == ()
    forge(doc)
    problems = revalidate_document(doc)
    assert problem in problems
    assert revalidate_document(doc, db=db) == problems
    assert revalidate_document(doc, db=db, written=written) == problems


def test_no_single_leaf_forgery_of_the_full_document_revalidates_clean():
    # ci/docmutations.py forges each leaf of the packaged full document by
    # its fixed rule and revalidates it as the audit does; every forgery must
    # be refused.  One that a later change lets through is a test change.
    done = subprocess.run([sys.executable, str(ROOT / "ci" / "docmutations.py")],
                          capture_output=True, text=True, timeout=600)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "total: 0 of 3777 mutants survive"


# ---------------------------------------------------------------------------
# Text rendering


def test_render_validate_line(db):
    assert report.render_validate(db) == (
        "ok: 95 families validated (case1: 54, case2: 32, case3: 9)\n"
    )


def test_render_lists_matching(db):
    text, ok = report.render_lists(db)
    assert ok
    assert "strong_bound: 40 45 57" in text
    assert text.rstrip().endswith("all lists match the expected values")


def test_render_certificates_lines(db, rows):
    text, ok = report.render_certificates(
        case3_test_class_certificates(db), verify_surface_table(db, rows)
    )
    assert ok
    lines = text.splitlines()
    assert len([l for l in lines if l.startswith("test-class")]) == 6
    assert len([l for l in lines if l.startswith("surface")]) == 21
    assert any("blowup-class value -4/1 [valid]" in l for l in lines)
    assert any("exclusion value -4/3 [valid]" in l for l in lines)


_SURFACE_VIEWS = [
    (
        20,
        [0, 2, 3],
        "surface family 20 row {0,2,3} method 41 m=4: curve degree 1/5, "
        "different total 4/5, self-intersection -9/5, exclusion value -4/3 [valid]",
        {
            "a_cube": "13/60", "boundary": False, "c2t": "-9/5", "c_prime_sq": None,
            "deg_c": "1/5", "deg_c_prime": None, "degree_contradiction": None,
            "diff_indices": [5], "diff_total": "4/5", "exclusion_value": "-4/3",
            "fails": ["contracted"], "family": 20, "forces_alpha_one": None,
            "m": 4, "method": "41", "valid": True, "vanishing": [0, 2, 3],
        },
        [["row {0,2,3} deg", "1/5"], ["row {0,2,3} value", "-4/3"]],
    ),
    (
        29,
        [0, 2, 4],
        "surface family 29 row {0,2,4} method 42 m=2: curve degree 1/5, "
        "different total 4/5, self-intersection -7/5, companion degree 1/5, "
        "companion self-intersection -7/5, degree sum 2/5 vs cap 1/5 [valid]",
        {
            "a_cube": "1/5", "boundary": False, "c2t": "-7/5", "c_prime_sq": "-7/5",
            "deg_c": "1/5", "deg_c_prime": "1/5", "degree_contradiction": True,
            "diff_indices": [5], "diff_total": "4/5", "exclusion_value": None,
            "fails": ["residual"], "family": 29, "forces_alpha_one": True,
            "m": 2, "method": "42", "valid": True, "vanishing": [0, 2, 4],
        },
        [
            ["row {0,2,4} deg", "1/5"],
            ["row {0,2,4} companion self-intersection", "-7/5"],
            ["row {0,2,4} degree sum vs cap", "2/5 vs 1/5"],
        ],
    ),
]


@pytest.mark.parametrize(
    "family, vanishing, line, entry, values", _SURFACE_VIEWS, ids=["m41", "m42"]
)
def test_surface_certificate_views(
    db, rows, full_document, family, vanishing, line, entry, values
):
    text, _ = report.render_certificates((), verify_surface_table(db, rows))
    assert line in text.splitlines()
    surface = full_document["certificates"]["surface"]
    assert [s for s in surface if (s["family"], s["vanishing"]) == (family, vanishing)] == [entry]
    (coverage,) = [c for c in full_document["coverage"] if c["family"] == family]
    key = "row {" + ",".join(map(str, vanishing)) + "}"
    routes = (coverage["residual"], coverage["contracted"])
    assert [v for r in routes for v in r["values"] if v[0].startswith(key)] == values


def test_render_coverage_summary(db, rows):
    text, ok = report.render_coverage(build_coverage(db, rows))
    assert ok
    assert text.rstrip().endswith("coverage: 95 Covered, 0 Gap")
    assert "family 18 case1: residual via extension-checks" in text
