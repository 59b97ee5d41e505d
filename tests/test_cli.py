"""End-to-end CLI behaviour: subcommands, exit codes, data resolution, JSON."""

import argparse
import codecs
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fano95 import certificates, cli, lemmas, report, revalidate_document
from fano95.certificates import SURFACE_ROWS_FILENAME, load_surface_rows, verify_surface_table
from fano95.coverage import _surface_row_values, build_coverage
from fano95.families import (
    FAMILY_COUNT, FamilyDatabase, FamilyRecord, load_families, packaged_data_path,
)
from fano95.wps import format_rational

FAMILIES = packaged_data_path("families.tsv")
ROWS = packaged_data_path(SURFACE_ROWS_FILENAME)
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)


#: Family tables with one line replaced: family 5 as X_7 in P(1,1,1,1,4),
#: whose test class fails but whose verdict stays; family 11 as X_13 in
#: P(1,1,2,3,7), which moves it from pencil_exceptions to contracted_unsafe;
#: family 47 as X_17 in P(1,1,3,6,7), whose lists stay but whose divisibility
#: witness for tangent index 2 fails.
ALTERED_LINES = {
    "x7": ("5\t7\t1\t1\t1\t2\t3\n", "5\t7\t1\t1\t1\t1\t4\n"),
    "drift": ("11\t10\t1\t1\t2\t2\t5\n", "11\t13\t1\t1\t2\t3\t7\n"),
    "indivisible": ("47\t21\t1\t1\t5\t7\t8\n", "47\t17\t1\t1\t3\t6\t7\n"),
}


def altered_families(tmp_path, name) -> str:
    """Path of the packaged families table with line ``name`` of ALTERED_LINES replaced."""
    old, new = ALTERED_LINES[name]
    text = FAMILIES.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / f"{name}.tsv"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_packaged_table(capsys):
    code, out, err = run(capsys, "validate")
    assert code == cli.EXIT_OK
    assert out == "ok: 95 families validated (case1: 54, case2: 32, case3: 9)\n"
    assert err == ""


@pytest.mark.parametrize("command, flag, source, load", [
    ("validate", "--families", FAMILIES, load_families),
    ("certify", "--table", ROWS, load_surface_rows),
], ids=["families", "surface-rows"])
def test_table_with_a_byte_order_mark_loads_as_without_one(capsys, tmp_path, command, flag,
                                                           source, load):
    # A mark ahead of the leading comment would hide its '#' and fail line 1.
    data = source.read_bytes()
    assert data.startswith(b"#")
    marked = tmp_path / source.name
    marked.write_bytes(codecs.BOM_UTF8 + data)
    assert load(marked) == load(io.BytesIO(marked.read_bytes())) == load(source)
    assert run(capsys, command, flag, str(marked)) == (cli.EXIT_OK, run(capsys, command)[1], "")


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--families", str(tmp_path / "nope.tsv"))
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith("error:")


def test_validate_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "families.tsv"
    lines = FAMILIES.read_text().splitlines()
    lines[10] = "garbage line"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "validate", "--families", str(bad))
    assert code == cli.EXIT_INPUT_ERROR
    assert "error:" in err and "line 11" in err


def test_validate_wrong_count(capsys, tmp_path):
    bad = tmp_path / "families.tsv"
    lines = [l for l in FAMILIES.read_text().splitlines() if l and not l.startswith("#")]
    bad.write_text("\n".join(lines[:-1]) + "\n")
    code, _, err = run(capsys, "validate", "--families", str(bad))
    assert code == cli.EXIT_INPUT_ERROR
    assert "error:" in err


def test_validate_repeated_family_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "families.tsv"
    lines = FAMILIES.read_text().splitlines()
    row = lines.index("3\t6\t1\t1\t1\t1\t3")
    lines[row] = "3\t4\t1\t1\t1\t1\t1"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "validate", "--families", str(bad))
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert err == (
        f"error: families table {bad}: family 3: degree 4 and weights "
        "(1, 1, 1, 1, 1) repeat family 1\n"
    )


# ---------------------------------------------------------------------------
# lists


def test_lists_text_all_match(capsys):
    code, out, _ = run(capsys, "lists")
    assert code == cli.EXIT_OK
    assert out.rstrip().endswith("all lists match the expected values")
    assert "extension_required: 18 19 22 27 28" in out


def test_lists_json_shape(capsys):
    code, out, _ = run(capsys, "lists", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert sorted(doc) == ["certificates", "coverage", "families", "lists"]
    assert doc["coverage"] is None
    entry = doc["lists"]["extension_required"]
    assert entry["families"] == [18, 19, 22, 27, 28]
    assert entry["match"] is True


def test_lists_detect_derivation_drift(capsys, tmp_path):
    # Swap family 11's system for (1,1,2,3,7), d=13: still a valid record, but
    # it leaves the pencil-exception list and becomes contracted-unsafe, so
    # both derived lists drift from the expectations.
    bad = altered_families(tmp_path, "drift")
    code, out, _ = run(capsys, "lists", "--families", bad)
    assert code == cli.EXIT_CHECK_FAILED
    assert "MISMATCH pencil_exceptions" in out
    assert "MISMATCH contracted_unsafe" in out
    code, out, _ = run(capsys, "lists", "--families", bad, "--format", "json")
    assert code == cli.EXIT_CHECK_FAILED
    lists = json.loads(out)["lists"]
    assert [name for name, entry in lists.items() if not entry["match"]] == [
        "contracted_unsafe", "pencil_exceptions",
    ]


def test_lists_match_flag_compares_order_and_repeats(capsys, monkeypatch):
    # A list matches only when its members are the expected tuple exactly:
    # the same families reversed, or with one repeated, are a mismatch.
    derive = report.derived_lists

    def reordered(db):
        lists = dict(derive(db))
        lists["shared_factor"] = lists["shared_factor"][::-1]
        lists["weak_bound"] = lists["weak_bound"] + lists["weak_bound"][:1]
        return lists

    monkeypatch.setattr(report, "derived_lists", reordered)
    code, out, _ = run(capsys, "lists", "--format", "json")
    assert code == cli.EXIT_CHECK_FAILED
    lists = json.loads(out)["lists"]
    assert [name for name, entry in lists.items() if not entry["match"]] == [
        "shared_factor", "weak_bound",
    ]
    code, out, _ = run(capsys, "lists")
    assert code == cli.EXIT_CHECK_FAILED
    assert ("MISMATCH shared_factor: missing [], unexpected [], "
            "members out of order or repeated") in out.splitlines()


# ---------------------------------------------------------------------------
# certify


def test_certify_text_output(capsys):
    code, out, _ = run(capsys, "certify")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("test-class")) == 6
    assert sum(1 for l in lines if l.startswith("surface")) == 21
    assert all("[valid]" in l for l in lines if l.startswith(("test-class", "surface")))


def test_certify_json_revalidates(capsys):
    code, out, _ = run(capsys, "certify", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert len(doc["certificates"]["surface"]) == 21
    assert revalidate_document(doc) == ()


def test_certify_rejects_malformed_table(capsys, tmp_path):
    bad = tmp_path / "rows.tsv"
    bad.write_text("7\t0,2,3\tresidual\t43\t2\n")
    code, _, err = run(capsys, "certify", "--table", str(bad))
    assert code == cli.EXIT_INPUT_ERROR
    assert "error:" in err


@pytest.mark.parametrize(
    "flag, source, line, lenient",
    [
        ("--families", FAMILIES, "20\t13\t1\t1\t3\t4\t5", "2_0\t1_3\t+1\t 1\t\u0663\t4\t5"),
        ("--table", ROWS, "20\t0,2,3\tcontracted\t41\t4",
         "2_0\t0,+2,\u0663\tcontracted\t41\t 4"),
    ],
    ids=["families", "table"],
)
def test_full_rejects_lenient_integers_with_line_number(
    capsys, tmp_path, flag, source, line, lenient
):
    lines = source.read_text().splitlines()
    number = lines.index(line) + 1
    lines[number - 1] = lenient
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "full", flag, str(bad))
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith("error: ")
    assert f": line {number}: non-integer field in " in err


def test_certify_reports_failing_row(capsys, tmp_path):
    bad = tmp_path / "rows.tsv"
    # the boundary row evaluates to exactly zero, which is not an exclusion
    bad.write_text(ROWS.read_text() + "1\t0,1,2\t\t41\t1\n")
    code, out, _ = run(capsys, "certify", "--table", str(bad))
    assert code == cli.EXIT_CHECK_FAILED
    assert "[INVALID" in out or "invalid" in out


def test_certify_reports_tag_mismatch(capsys, tmp_path):
    bad = tmp_path / "rows.tsv"
    bad.write_text(
        ROWS.read_text().replace(
            "7\t0,2,3\tcontracted,residual\t41\t2", "7\t0,2,3\tresidual\t41\t2"
        )
    )
    code, out, _ = run(capsys, "certify", "--table", str(bad))
    assert code == cli.EXIT_CHECK_FAILED
    assert "TAG MISMATCH" in out


def test_certify_rejects_repeated_vanishing_index(capsys, tmp_path):
    bad = tmp_path / "rows.tsv"
    bad.write_text("20\t2,3,3,4\t\t41\t2\n")
    code, out, err = run(capsys, "certify", "--table", str(bad))
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err == (
        f"error: surface-row table {bad}: line 1: vanishing set must be 3 "
        "distinct indices in 0..4, got [2, 3, 3, 4]\n"
    )


@pytest.mark.parametrize(
    "fails, message",
    [
        ("residual,", "unknown fail tags ['']"),
        ("residual,residual", "fail tags must be distinct, got ['residual', 'residual']"),
    ],
    ids=["empty", "repeated"],
)
def test_certify_rejects_stray_fail_tag(capsys, tmp_path, fails, message):
    # Read as a set less the empty tag, either field would load as {residual}.
    bad = tmp_path / "rows.tsv"
    bad.write_text(f"15\t0,1,2\t{fails}\t41\t2\n")
    code, out, err = run(capsys, "certify", "--table", str(bad))
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert err == f"error: surface-row table {bad}: line 1: {message}\n"


@pytest.mark.parametrize(
    "argv, table",
    [
        (["validate", "--families"], "families table"),
        (["certify", "--table"], "surface-row table"),
    ],
    ids=["validate", "certify"],
)
def test_table_that_is_not_utf8_is_an_input_error(capsys, tmp_path, argv, table):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"\xff\xfe\x00bad\n")
    code, out, err = run(capsys, *argv, str(bad))
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith(f"error: {table} {bad}: ")
    assert "Traceback" not in err


def assert_failure_is_reported(capsys, argv, fmt, family, invalid, gap):
    """A certificate that fails exits 1 with nothing on stderr and the full
    report on stdout: its ``invalid`` text line, or ``"valid": false`` in a
    JSON document that revalidates, and for ``full`` the coverage with the
    ``gap`` of ``family``."""
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    full = argv[0] == "full"
    if fmt == "text":
        lines = out.splitlines()
        assert invalid in lines
        assert len([l for l in lines if l.startswith("test-class family")]) == 6
        if full:
            assert lines[0] == "ok: 95 families validated (case1: 54, case2: 32, case3: 9)"
            assert f"  GAP: {gap}" in lines
            assert lines[-1].startswith("coverage: ")
        return
    doc = json.loads(out)
    assert revalidate_document(doc) == ()
    certs = doc["certificates"]["test_class"] + doc["certificates"]["surface"]
    assert [c["family"] for c in certs if c["valid"] is False] == [family]
    assert len(doc["certificates"]["test_class"]) == 6
    if full:
        [entry] = [c for c in doc["coverage"] if c["family"] == family]
        assert entry["status"] == "Gap" and gap in entry["gaps"]
        assert doc["lists"] is not None
    else:
        assert doc["coverage"] is None


@pytest.mark.parametrize("command", ["certify", "full"])
def test_nonpositive_companion_degree_is_a_certificate_failure(capsys, tmp_path, command):
    # deg C' = A^3 - deg C = 13/60 - 1 < 0: no companion curve, so the row is
    # invalid and reported with the rest, never raised.  The row carries
    # family 20's derived fail tag, so the certificate is the only failure.
    bad = tmp_path / "rows.tsv"
    bad.write_text("20\t2,3,4\tcontracted\t42\t1\n")
    for fmt in ("text", "json"):
        assert_failure_is_reported(
            capsys, [command, "--table", str(bad)], fmt, 20,
            "surface family 20 row {2,3,4} method 42 m=1: curve degree 1/1, "
            "different total 0/1, self-intersection -2/1, companion degree -47/60, "
            "companion self-intersection -2/1, degree sum 13/60 vs cap 13/60 "
            "[INVALID boundary]",
            "contracted (no surface row through the last coordinate point)",
        )


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["certify", "full"])
def test_nonnegative_test_class_value_is_a_certificate_failure(
    capsys, tmp_path, command, fmt
):
    # Family 5 as X_7 in P(1,1,1,1,4), a record no other family repeats: the
    # line's test class 6*A - E has value 6*7/4 - 7*1 - 2 = 3/2, which excludes
    # nothing.
    bad = altered_families(tmp_path, "x7")
    assert_failure_is_reported(
        capsys, [command, "--families", bad], fmt, 5,
        "test-class family 5 (line): multiplier 6, curve degree 1/1, "
        "blowup-class value 3/2 [INVALID]",
        "residual (test-class value not negative)",
    )


# ---------------------------------------------------------------------------
# full


def test_full_text_summary(capsys):
    code, out, _ = run(capsys, "full")
    assert code == cli.EXIT_OK
    assert "coverage: 95 Covered, 0 Gap" in out


def test_full_json_document_revalidates(capsys):
    code, out, _ = run(capsys, "full", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert len(doc["families"]) == 95
    assert len(doc["coverage"]) == 95
    assert revalidate_document(doc) == ()


def test_full_json_byte_deterministic(capsys):
    _, first, _ = run(capsys, "full", "--format", "json")
    _, second, _ = run(capsys, "full", "--format", "json")
    assert first.encode() == second.encode()


def test_full_json_reports_a_round_trip_failure(capsys, monkeypatch):
    # An encoder that misprints family 1's test-class value: the document is
    # still printed whole, and the problem revalidation finds goes to stderr.
    encode = report.to_json
    monkeypatch.setattr(report, "to_json", lambda document: encode(document).replace(
        '"value": "-3/1"', '"value": "-4/1"', 1))
    code, out, err = run(capsys, "full", "--format", "json")
    assert (code, len(out.encode())) == (cli.EXIT_CHECK_FAILED, 158_632)
    assert json.loads(out)["certificates"]["test_class"][0]["value"] == "-4/1"
    assert err == ("round-trip failure: certificates.test_class[0].value: "
                   "serialized '-4/1', recomputed '-3/1'\n")


#: SHA-256 of the stdout of ``full`` on the packaged tables.  A change that
#: alters the output on purpose updates these digests and says so.
FULL_OUTPUT_SHA256 = {
    "json": "543201ddcd546e09d4440027b526d171927f8a14887c8f4e6e84c20b44f1f7ad",
    "text": "a876c50b02c1cf85d44cbec72d37480a75a14eea86a623491779e156a03276fd",
}


@pytest.mark.parametrize("fmt", sorted(FULL_OUTPUT_SHA256))
def test_full_output_bytes_are_pinned(capsys, fmt):
    code, out, err = run(capsys, "full", "--format", fmt)
    assert (code, err) == (cli.EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_OUTPUT_SHA256[fmt]


#: Exit code and stdout SHA-256 of the other commands.  "T" and "T3" stand
#: for the seed-11 and seed-3 ``perfbench/widetable.py`` tables, whose
#: method-42 rows, INVALID rows and gaps reach every surface view; two seeds,
#: so the pins do not rest on one draw.  No seeded table has a tag mismatch,
#: so no pinned command writes to stderr.  "T1" is the seed-1
#: table, whose ``full`` text is the exact output the wide-text benchmark times.
OUTPUT_SHA256 = {
    "certify": (0, "1f07e25638f4f3c8e18849af7db5d1b18335918c8df16041b59a5359068b58f3"),
    "certify --format json": (
        0, "cdb81f31c263273f0e6c7457697028306ed55234fa1b8531f4ede0b502335bf6"
    ),
    "lists": (0, "6d1dd7a8bcf1db01809ac38b4dd84b2b5bbb90f44e3c120e42dd1addc29e1338"),
    "lists --format json": (
        0, "a4dcbc1d36eac870a60ebd7f734b62da90eda891e7b76f321df2eff5f2229bfe"
    ),
    "validate": (0, "70e861dcd7a17b0470400447801e0f1e7101129da6250641fdc0399f76a9ff28"),
    "full --table T": (
        1, "574e4c1fe6af33daf58edcd450e53ce5eeff37f8c92556e3afd07a0e1e235332"
    ),
    "full --table T --format json": (
        1, "2bee361b52b23a7d12adfe4ea06a898f723cb1d4f9a71cc6a6b539f2b3d45de9"
    ),
    "full --table T3": (
        1, "44fb66a83c961b5282b51d302250227f2d6be720f82ba213c6916a99e6551ea1"
    ),
    "full --table T3 --format json": (
        1, "9d5b498b9c24567de8e6f7635eb5fcddaac34f342f60ab2377d6e9973bd55d6e"
    ),
    "full --table T1": (
        1, "f048d2a3f61c05596347a2bc75d776b31c7f08cb06062f05ce49b918291d1a27"
    ),
}

#: The wide-table seed each placeholder in OUTPUT_SHA256 stands for.
_WIDE_PLACEHOLDERS = {"T": 11, "T3": 3, "T1": 1}


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_output_bytes_are_pinned(capsys, wide_tables, command):
    argv = [
        wide_tables[_WIDE_PLACEHOLDERS[a]] if a in _WIDE_PLACEHOLDERS else a
        for a in command.split()
    ]
    code, out, err = run(capsys, *argv)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_SHA256[command]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, seed",
    [("full", None), ("full", 11), ("certify", None), ("certify", 11)],
    ids=["packaged", "wide-11", "certify-packaged", "certify-wide-11"],
)
def test_full_certifies_each_row_once(
    capsys, monkeypatch, wide_tables, command, seed, fmt
):
    # Each command certifies each row once; full's cases keep their bare seed ids.
    # The patch counts only certificates built through the certificates module:
    # the revalidator rebuilds surface entries through report's own imported
    # SurfaceCertificate, which it leaves alone, so only the audit's certification
    # counts.
    table = ROWS if seed is None else wide_tables[seed]
    calls = []
    certify = certificates.SurfaceCertificate

    def counted(row, record):
        calls.append(row)
        return certify(row, record)

    monkeypatch.setattr(certificates, "SurfaceCertificate", counted)
    code, _, err = run(capsys, command, "--table", str(table), "--format", fmt)
    assert (code, err) == (
        cli.EXIT_OK if seed is None else cli.EXIT_CHECK_FAILED,
        "",
    )
    assert len(calls) == len(load_surface_rows(table))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, seed",
    [("full", None), ("full", 11), ("lists", None)],
    ids=["packaged", "wide-11", "lists"],
)
def test_full_derives_the_lists_once(
    capsys, monkeypatch, wide_tables, command, seed, fmt
):
    # Each command derives the lists once, on first read of its database's
    # lists; every view, and in JSON the round trip's lists section, reads
    # them from there.  full's cases keep their bare seed ids.
    table = ROWS if seed is None else wide_tables[seed]
    flags = ["--table", str(table)] if command == "full" else []
    derived = []
    derive = FamilyDatabase.lists.func

    def counted(db):
        derived.append(db)
        return derive(db)

    monkeypatch.setattr(FamilyDatabase.lists, "func", counted)
    code, _, err = run(capsys, command, *flags, "--format", fmt)
    assert (code, err) == (
        cli.EXIT_OK if seed is None else cli.EXIT_CHECK_FAILED,
        "",
    )
    assert len(derived) == 1


def _callers_during_full(capsys, table, fmt, watched):
    """The exit code of ``full`` on ``table`` in ``fmt``, and the (function,
    module) names of the caller of each call of the code ``watched`` in it."""
    callers = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is watched:
            caller = frame.f_back
            callers.append((caller.f_code.co_name, caller.f_globals["__name__"]))

    sys.setprofile(profile)
    try:
        code = cli.main(["full", "--table", str(table), "--format", fmt])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    return code, callers


@pytest.mark.parametrize("seed", [None, 11], ids=["packaged", "wide-11"])
def test_full_decides_each_family_once(capsys, wide_tables, seed):
    # Text then JSON on one table: each audit loads its own database, so each
    # builds its 95 verdicts once, on first read, and every section, the JSON
    # round trip's lists included, reads them.
    table = ROWS if seed is None else wide_tables[seed]
    for fmt in ("text", "json"):
        code, callers = _callers_during_full(capsys, table, fmt,
                                             lemmas.family_verdict.__code__)
        assert code == (cli.EXIT_OK if seed is None else cli.EXIT_CHECK_FAILED)
        assert callers == [("verdicts", "fano95.families")] * 95


@pytest.mark.parametrize("seed", [None, 11], ids=["packaged", "wide-11"])
def test_full_builds_each_comparison_in_lemmas(capsys, wide_tables, seed):
    # The Case-1 comparisons are built with the verdicts, once per audit: five
    # for each extension family and one for each shared-factor family.
    table = ROWS if seed is None else wide_tables[seed]
    lists = report.GOLDEN_LISTS
    expected = 5 * len(lists["extension_required"]) + len(lists["shared_factor"])
    for fmt in ("text", "json"):
        code, callers = _callers_during_full(capsys, table, fmt,
                                             lemmas.Comparison.__init__.__code__)
        assert code == (cli.EXIT_OK if seed is None else cli.EXIT_CHECK_FAILED)
        assert {module for _, module in callers} == {"fano95.lemmas"}
        assert len(callers) == expected


def test_views_print_no_surface_rational_again(capsys, wide_tables):
    # Every surface-certificate rational is printed once, where it is stored:
    # the text view, coverage and the JSON builders read the texts of the
    # quantities, of method 42's degree sum and of the family's A³, and each
    # test class's value text.  Only the test classes' deg C is formatted in a
    # view, one rational for each of the six.  The JSON builders also run once
    # more in revalidation.  A call is charged to the nearest enclosing named
    # function, so a comprehension or generator inside a view counts as the
    # view on every Python version.
    views = {report.render_certificates.__code__, _surface_row_values.__code__,
             report._surface_cert_json.__code__, report._test_class_json.__code__}
    target = format_rational.__code__
    entered, calls = set(), []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in views:
            entered.add(frame.f_code.co_name)
        elif frame.f_code is target:
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            if caller.f_code in views:
                calls.append(caller.f_code.co_name)

    sys.setprofile(profile)
    try:
        codes = [cli.main(["full", "--table", wide_tables[11], *fmt])
                 for fmt in ([], ["--format", "json"])]
    finally:
        sys.setprofile(None)
    out = capsys.readouterr().out
    assert codes == [cli.EXIT_CHECK_FAILED] * 2 and "vs cap" in out
    assert entered == {"render_certificates", "_surface_row_values",
                       "_surface_cert_json", "_test_class_json"}
    tests = len(certificates._TEST_CLASS_CURVES)
    assert calls == ["render_certificates"] * tests + ["_test_class_json"] * (2 * tests)


def test_a_cube_is_formatted_only_by_its_record(capsys, wide_tables):
    # A³'s text is printed once, by the FamilyRecord constructor, and every
    # view of the degree cap (the families, certificates and coverage, text
    # and JSON, revalidation included) reads a_cube_text.  Tracked by
    # identity: the Fraction a record formats is the a_cube it stores.
    init, target = FamilyRecord.__init__.__code__, format_rational.__code__
    caps, others = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is target:
            (caps if frame.f_back.f_code is init else others).append(frame.f_locals["q"])

    sys.setprofile(profile)
    try:
        codes = [cli.main(["full", *table, *fmt])
                 for table in ([], ["--table", wide_tables[11]])
                 for fmt in ([], ["--format", "json"])]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [cli.EXIT_OK] * 2 + [cli.EXIT_CHECK_FAILED] * 2
    # One load per audit; a clean round trip reuses the audit's database.
    assert len(caps) == 4 * FAMILY_COUNT
    formatted = {id(q) for q in caps}
    assert [q for q in others if id(q) in formatted] == []


@pytest.mark.parametrize("command", ["certify", "full"])
def test_json_writes_each_tag_mismatch_to_stderr(capsys, tmp_path, command):
    # Family 20's row {0,2,3} loses its contracted tag.  Every certificate
    # stays valid, so only the mismatch fails the audit: the JSON document
    # cannot show it, and stderr carries the text view's line.
    good_row, bad_row = "20\t0,2,3\tcontracted\t41\t4\n", "20\t0,2,3\t\t41\t4\n"
    text = ROWS.read_text()
    assert text.count(good_row) == 1
    bad = tmp_path / "rows.tsv"
    bad.write_text(text.replace(good_row, bad_row))
    line = "TAG MISMATCH family 20: row file says [], derived verdicts say ['contracted']"
    code, out, err = run(capsys, command, "--table", str(bad), "--format", "json")
    assert (code, err) == (cli.EXIT_CHECK_FAILED, line + "\n")
    # stdout is the packaged document with the row's tags emptied.
    _, packaged, _ = run(capsys, command, "--format", "json")
    expected = json.loads(packaged)
    [entry] = [s for s in expected["certificates"]["surface"]
               if (s["family"], s["vanishing"]) == (20, [0, 2, 3])]
    entry["fails"] = []
    assert out == report.to_json(expected)
    code, out, err = run(capsys, command, "--table", str(bad))
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    assert line in out.splitlines()


@pytest.mark.parametrize("flag", ["--families", "--table"])
def test_an_oversized_integer_is_an_input_error(capsys, tmp_path, flag):
    # 5,000 digits: more than int() converts where the digit limit is on, and
    # a family number outside 1..95 where it is off.  Either way the line is
    # refused as input (exit 2), never raised as a traceback.
    source = FAMILIES if flag == "--families" else ROWS
    lines = source.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("20\t"))
    lines[index] = "9" * 5000 + lines[index][2:]
    bad = tmp_path / "table.tsv"
    bad.write_text("".join(lines))
    code, out, err = run(capsys, "certify", flag, str(bad))
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    what = "families table" if flag == "--families" else "surface-row table"
    assert err.startswith(f"error: {what} {bad}: ") and "Traceback" not in err
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        assert err.startswith(f"error: {what} {bad}: line {index + 1}: Exceeds the limit")


def test_an_a_cube_too_long_to_print_is_an_input_error(capsys, tmp_path, digit_limit):
    # Every field of family 20's line parses, but A³'s denominator
    # n(n+1)(n+2)(n+3) has more digits than str() converts: the family is
    # refused by number (exit 2), and A³ is not printed.
    n = 10 ** (digit_limit // 4 + 1)
    lines = FAMILIES.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("20\t"))
    lines[index] = "\t".join(map(str, (20, 4 * n + 6, 1, n, n + 1, n + 2, n + 3))) + "\n"
    bad = tmp_path / "families.tsv"
    bad.write_text("".join(lines))
    assert run(capsys, "validate", "--families", str(bad)) == (
        cli.EXIT_INPUT_ERROR, "",
        f"error: families table {bad}: family 20: A³ = d/(a1*a2*a3*a4) is too long to print\n",
    )


@pytest.mark.parametrize("command", ["certify", "full"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_test_class_value_too_long_to_print_is_an_input_error(
    capsys, tmp_path, conic_overflow_weights, command, fmt
):
    # Family 3's A³ prints, so the table validates, but the value of its
    # conic's test class has one digit more: the family is refused by table
    # and number in one error line (exit 2), and the value is not printed.
    weights = conic_overflow_weights
    lines = FAMILIES.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("3\t"))
    lines[index] = "\t".join(map(str, (3, sum(weights) - 1, *weights))) + "\n"
    bad = tmp_path / "families.tsv"
    bad.write_text("".join(lines))
    assert run(capsys, "validate", "--families", str(bad))[0] == cli.EXIT_OK
    assert run(capsys, command, "--families", str(bad), "--format", fmt) == (
        cli.EXIT_INPUT_ERROR, "",
        f"error: families table {bad}: family 3: test-class value for the conic "
        "is too long to print\n",
    )


@pytest.mark.parametrize("command", ["certify", "full"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_certificate_quantity_too_long_to_print_is_an_input_error(
    capsys, tmp_path, digit_limit, command, fmt
):
    # m parses, having as many digits as int() converts, but family 20's
    # C²_T = -(m+5)/5 has one more: the row is refused by table, family and
    # stratum in one error line (exit 2), and neither m nor C²_T is printed.
    lines = ROWS.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("20\t"))
    assert lines[index] == "20\t0,2,3\tcontracted\t41\t4\n"
    lines[index] = "20\t0,2,3\tcontracted\t41\t" + "9" * digit_limit + "\n"
    bad = tmp_path / "rows.tsv"
    bad.write_text("".join(lines))
    assert run(capsys, command, "--table", str(bad), "--format", fmt) == (
        cli.EXIT_INPUT_ERROR, "",
        f"error: surface-row table {bad}: family 20: row {{0,2,3}} (method 41): "
        "a quantity is too long to print\n",
    )


@pytest.mark.parametrize("table", sorted(ALTERED_LINES))
def test_an_audit_reads_only_its_own_verdicts(capsys, tmp_path, rows, table):
    # The verdicts are kept on the database they were decided for; an audit
    # of the packaged table first must leave nothing the next audit reads.
    run(capsys, "full", "--format", "json")
    db = load_families(altered_families(tmp_path, table))
    verification = verify_surface_table(db, rows)
    coverage = build_coverage(db, rows, verification=verification)
    derived = report.derived_lists(db)
    fresh = [lemmas.family_verdict(f) for f in db]
    assert derived == {
        name: tuple(f.number for f, v in zip(db, fresh) if name in v.lists)
        for name in lemmas.LIST_NAMES
    }
    assert verification.tag_mismatches == tuple(
        (row.family, row.fails, fresh[row.family - 1].fail_tags)
        for row in rows if row.fails != fresh[row.family - 1].fail_tags
    )
    assert [c.case for c in coverage] == [v.case for v in fresh]
    assert build_coverage(db, rows, verification=verification) == coverage


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_full_fails_on_a_list_mismatch_alone(capsys, monkeypatch, fmt):
    # Only the derived lists drift: certificates and coverage still pass.
    derive = report.derived_lists

    def drifted(db):
        lists = dict(derive(db))
        lists["shared_factor"] = lists["shared_factor"][1:]
        return lists

    monkeypatch.setattr(report, "derived_lists", drifted)
    code, out, err = run(capsys, "full", "--format", fmt)
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    if fmt == "json":
        assert json.loads(out)["lists"]["shared_factor"]["match"] is False
    else:
        assert "MISMATCH shared_factor: missing [18]" in out


@pytest.mark.parametrize("seed", [None, 11], ids=["packaged", "wide-11"])
def test_full_is_the_other_commands_then_coverage(capsys, wide_tables, seed):
    table = [] if seed is None else ["--table", wide_tables[seed]]
    argvs = {"validate": [], "lists": [], "certify": table, "full": table}
    text = {command: run(capsys, command, *argv)[1] for command, argv in argvs.items()}
    head = text["validate"] + text["lists"] + text["certify"]
    assert text["full"].startswith(head)
    assert text["full"][len(head):].splitlines()[-1].startswith("coverage: ")
    docs = {
        command: json.loads(run(capsys, command, *argv, "--format", "json")[1])
        for command, argv in argvs.items()
        if command != "validate"
    }
    full = docs["full"]
    assert full["families"] == docs["lists"]["families"] == docs["certify"]["families"]
    assert full["lists"] == docs["lists"]["lists"]
    assert full["certificates"] == docs["certify"]["certificates"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failing_divisibility_witness_is_a_contracted_gap(capsys, tmp_path, fmt):
    # a4 = 7 does not divide d = 17 and 17 < a1*a2*a3 = 18, so the product
    # bound covers the contracted classes; but for the tangent index 2
    # (3 + 2*7 = 17) the reduced weight 6 divides neither 10 nor 17.  The
    # failure is the route's gap, never raised, and nothing else fails.
    bad = altered_families(tmp_path, "indivisible")
    gap = ("contracted (divisibility certificate fails: family 47: reduced weight 6 "
           "(index 3) divides neither d - a4 = 10 nor d = 17)")
    code, out, err = run(capsys, "full", "--families", bad, "--format", fmt)
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    if fmt == "text":
        lines = out.splitlines()
        at = lines.index("family 47 case2: residual via pencil-bound, "
                         "contracted via contracted-degree-bound [Gap]")
        assert lines[at + 1] == f"  GAP: {gap}"
        assert lines[-1] == "coverage: 94 Covered, 1 Gap"
        return
    doc = json.loads(out)
    assert revalidate_document(doc) == ()
    assert [(c["family"], c["status"], c["gaps"]) for c in doc["coverage"]
            if c["status"] != "Covered"] == [(47, "Gap", [gap])]


def test_a_case3_family_without_a_test_class_is_a_residual_gap(capsys, tmp_path):
    # Families 6 and 8 trade degree and weights: family 8 is then X_8 in
    # P(1,1,1,2,4), whose cap A^3 = 1 no integer filter clears, and no test
    # class is written for it.  Its residual route is a gap, never raised.
    text = FAMILIES.read_text(encoding="utf-8")
    six, eight = "6\t8\t1\t1\t1\t2\t4\n", "8\t9\t1\t1\t1\t3\t4\n"
    assert text.count(six) == text.count(eight) == 1
    swapped = tmp_path / "swapped.tsv"
    swapped.write_text(text.replace(six, "6" + eight[1:]).replace(eight, "8" + six[1:]),
                       encoding="utf-8")
    code, out, err = run(capsys, "full", "--families", str(swapped))
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    lines = out.splitlines()
    at = lines.index("family  8 case3: residual via test-class, "
                     "contracted via no-contracted-curves [Gap]")
    assert lines[at + 1] == "  GAP: residual (degree cap >= 1 and no test-class certificate)"
    assert lines[-1] == "coverage: 94 Covered, 1 Gap"


def test_full_reports_coverage_gap(capsys, tmp_path):
    reduced = tmp_path / "rows.tsv"
    reduced.write_text(
        "".join(
            l + "\n"
            for l in ROWS.read_text().splitlines()
            if not l.startswith("16\t")
        )
    )
    code, out, _ = run(capsys, "full", "--table", str(reduced))
    assert code == cli.EXIT_CHECK_FAILED
    assert "GAP" in out
    assert "94 Covered, 1 Gap" in out


# ---------------------------------------------------------------------------
# data-path resolution


def test_env_dir_supplies_both_tables(capsys, monkeypatch, tmp_path):
    shutil.copy(FAMILIES, tmp_path / "families.tsv")
    shutil.copy(ROWS, tmp_path / SURFACE_ROWS_FILENAME)
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
    code, out, _ = run(capsys, "full")
    assert code == cli.EXIT_OK


def test_env_dir_is_authoritative_when_set(capsys, monkeypatch, tmp_path):
    # An empty data dir must not silently fall back to the packaged tables.
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
    code, _, err = run(capsys, "validate")
    assert code == cli.EXIT_INPUT_ERROR
    assert "error:" in err


def test_explicit_flag_beats_env_dir(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))  # empty dir
    code, out, _ = run(capsys, "validate", "--families", str(FAMILIES))
    assert code == cli.EXIT_OK
    assert out.startswith("ok: 95 families")


@pytest.mark.parametrize(
    "argv, table, flag",
    [
        (["validate", "--families", ""], "families table", "--families"),
        (["certify", "--table", ""], "surface-row table", "--table"),
        (["full", "--families", "", "--format", "json"], "families table", "--families"),
        (["full", "--table", "", "--format", "json"], "surface-row table", "--table"),
    ],
    ids=["validate", "certify", "full-families", "full-table"],
)
def test_empty_path_flag_is_an_input_error(capsys, argv, table, flag):
    # An explicit flag wins even when empty: no fallback to the packaged tables.
    # Path("") is the current directory, so the error names the empty flag.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert err == f"error: {table} flag {flag} is empty: it names no file\n"


@pytest.mark.parametrize("command", ["validate", "full --format json"])
def test_empty_env_dir_counts_as_unset(capsys, monkeypatch, command):
    _, expected, _ = run(capsys, *command.split())
    monkeypatch.setenv(cli.DATA_DIR_ENV, "")
    assert run(capsys, *command.split()) == (cli.EXIT_OK, expected, "")


def test_env_dir_with_tampered_data_still_checks(capsys, monkeypatch, tmp_path):
    shutil.copy(ROWS, tmp_path / SURFACE_ROWS_FILENAME)
    (tmp_path / "families.tsv").write_text(
        FAMILIES.read_text().replace("11\t10\t1\t1\t2\t2\t5", "11\t13\t1\t1\t2\t3\t7")
    )
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
    code, out, _ = run(capsys, "lists")
    assert code == cli.EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument errors


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert (exc.value.code, *capsys.readouterr()) == (
        2, "",
        "usage: audit [-h] {validate,lists,certify,full} ...\n"
        "audit: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'validate', 'lists', 'certify', 'full')\n",
    )


@pytest.mark.parametrize(
    "argv",
    [["validate", "--format", "json"], ["validate", "--table", "X"], ["lists", "--table", "X"]],
    ids=["validate-format", "validate-table", "lists-table"],
)
def test_flag_the_command_does_not_take_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


_FAMILIES_HELP = (
    "  --families PATH       family table TSV (default: $AUDIT_DATA_DIR or packaged\n"
    "                        data)\n"
)
_TABLE_HELP = (
    "  --table PATH          surface-row TSV (default: $AUDIT_DATA_DIR or packaged\n"
    "                        data)\n"
)
_FORMAT_HELP = "  --format {text,json}  output format (default: text)\n"
_OPTIONS = "\noptions:\n  -h, --help            show this help message and exit\n"

#: ``audit [command] --help`` with COLUMNS=80, as the same on Python 3.10–3.13.
HELP = {
    "": (
        "usage: audit [-h] {validate,lists,certify,full} ...\n"
        "\n"
        "Re-derive and certify every numeric step of the curve-exclusion case analysis\n"
        "over the 95 hypersurface families.\n"
        "\n"
        "positional arguments:\n"
        "  {validate,lists,certify,full}\n"
        "    validate            load the family table and check invariants\n"
        "    lists               derive the membership lists and compare\n"
        "    certify             evaluate every exclusion certificate\n"
        "    full                validate, derive lists, certify, and audit coverage\n"
        + _OPTIONS
    ),
    "validate": (
        "usage: audit validate [-h] [--families PATH]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --families PATH  family table TSV (default: $AUDIT_DATA_DIR or packaged\n"
        "                   data)\n"
    ),
    "lists": (
        "usage: audit lists [-h] [--families PATH] [--format {text,json}]\n"
        + _OPTIONS + _FAMILIES_HELP + _FORMAT_HELP
    ),
    "certify": (
        "usage: audit certify [-h] [--families PATH] [--table PATH]\n"
        "                     [--format {text,json}]\n"
        + _OPTIONS + _FAMILIES_HELP + _TABLE_HELP + _FORMAT_HELP
    ),
    "full": (
        "usage: audit full [-h] [--families PATH] [--table PATH] [--format {text,json}]\n"
        + _OPTIONS + _FAMILIES_HELP + _TABLE_HELP + _FORMAT_HELP
    ),
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    assert (exc.value.code, *capsys.readouterr()) == (0, HELP[command], "")


def test_main_builds_no_parser(capsys, monkeypatch):
    # The parser is built once, at import; each call only parses with it.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "validate")[0] == cli.EXIT_OK
    assert run(capsys, "lists", "--format", "json")[0] == cli.EXIT_OK
    assert built == []


@pytest.mark.parametrize(
    "before, exit_code",
    [(["full", "--table", "T"], 1), (["full", "--format", "json"], 0),
     (["full", "--format", "xml"], 2)],
    ids=["wide-table", "json", "usage-error"],
)
def test_a_call_leaves_no_state_for_the_next(capsys, wide_tables, before, exit_code):
    # The shared parser keeps no flag of one call as a default of the next.
    argv = [wide_tables[11] if a == "T" else a for a in before]
    try:
        assert cli.main(argv) == exit_code
    except SystemExit as exc:  # the usage error
        assert exc.code == exit_code
    capsys.readouterr()
    code, out, err = run(capsys, "full")
    assert (code, err) == (cli.EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_OUTPUT_SHA256["text"]


@pytest.mark.parametrize("command", ["certify", "full"])
def test_certificate_commands_take_every_flag(capsys, command):
    code, out, err = run(
        capsys, command, "--families", str(FAMILIES), "--table", str(ROWS),
        "--format", "json",
    )
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["certificates"]["surface"]


# ---------------------------------------------------------------------------
# python -m


def _module_env() -> dict:
    """This environment, with the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", *argv], env=_module_env(), capture_output=True, text=True,
        timeout=120,
    )


def test_python_m_cli_runs_the_command(capsys):
    _, expected, _ = run(capsys, "full", "--format", "json")
    result = run_module("fano95.cli", "full", "--format", "json")
    assert result.returncode == cli.EXIT_OK, result.stderr
    assert result.stdout == expected
    assert result.stderr == ""


def test_python_m_package_runs_the_command():
    result = run_module("fano95", "validate")
    assert result.returncode == cli.EXIT_OK, result.stderr
    assert result.stdout.startswith("ok: 95 families validated")
    assert result.stderr == ""


def test_a_closed_pipe_exits_with_the_sigpipe_status():
    # The JSON document is larger than a pipe holds, so closing the read end
    # after ten bytes breaks the pipe mid-write: the audit exits 128 + SIGPIPE
    # (13) with no traceback.  With PYTHONUNBUFFERED set, the broken write
    # raises nothing and the audit exits 0, so the child runs buffered.
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen([sys.executable, "-m", "fano95", "full", "--format", "json"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(10) == b'{\n  "certi'
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert (code, err) == (128 + 13, b"")
