"""Loading, validating, and serializing the 95-family database."""

import io
from fractions import Fraction

import pytest

from fano95 import (
    FAMILY_COUNT,
    FamilyNotFoundError,
    FamilyTableError,
    ParseError,
    ValidationError,
    Weights,
    load_families,
    serialize_families,
)
from fano95.families import packaged_data_path, parse_family_line


def test_packaged_table_has_95_records(db):
    assert len(db) == FAMILY_COUNT == 95
    assert [f.number for f in db.records] == list(range(1, 96))


def test_every_record_satisfies_degree_sum(db):
    for f in db.records:
        assert f.d == sum(f.weights.tail), f.number


def test_every_record_caches_degree_cap(db):
    for f in db.records:
        assert f.a_cube == Fraction(f.d, f.weights.tail_product)


def test_get_family_returns_unique_record(db):
    f = db.get(20)
    assert f.d == 13
    assert tuple(f.weights) == (1, 1, 3, 4, 5)
    f29 = db.get(29)
    assert f29.d == 16
    assert tuple(f29.weights) == (1, 1, 2, 5, 8)


def test_get_family_outside_range_raises(db):
    for n in (0, 96, -3):
        with pytest.raises(FamilyNotFoundError):
            db.get(n)


def test_database_is_iterable_in_order(db):
    numbers = [f.number for f in db]
    assert numbers == sorted(numbers)


# ---------------------------------------------------------------------------
# Line parsing


def test_parse_family_line_builds_record():
    f = parse_family_line(3, "3\t6\t1\t1\t1\t1\t3")
    assert f.number == 3
    assert f.d == 6
    assert f.weights == Weights((1, 1, 1, 1, 3))
    assert f.a_cube == Fraction(2)


def test_parse_family_line_wrong_field_count():
    with pytest.raises(ParseError) as exc:
        parse_family_line(7, "3\t6\t1\t1\t1")
    assert exc.value.line_number == 7
    assert "line 7" in str(exc.value)


def test_parse_family_line_non_integer_field():
    with pytest.raises(ParseError):
        parse_family_line(1, "3\tsix\t1\t1\t1\t1\t3")


@pytest.mark.parametrize(
    "column, text",
    [(0, "2_0"), (1, "+6"), (2, " 1"), (3, "1 "), (6, "\u0663"), (6, "3.0"), (6, "")],
    ids=["underscore", "plus", "leading-space", "trailing-space", "arabic-digit",
         "decimal", "empty"],
)
def test_parse_family_line_accepts_only_ascii_integers(column, text):
    # int() would read each of these as an integer; the table never holds them.
    fields = ["3", "6", "1", "1", "1", "1", "3"]
    fields[column] = text
    with pytest.raises(ParseError, match="^line 4: non-integer field in "):
        parse_family_line(4, "\t".join(fields))


def test_parse_family_line_negative_reaches_validation():
    with pytest.raises(ValidationError, match="family number must lie in 1..95"):
        parse_family_line(1, "-3\t6\t1\t1\t1\t1\t3")
    with pytest.raises(ValidationError, match="weights must be positive"):
        parse_family_line(1, "3\t6\t1\t1\t1\t-1\t3")


def test_parse_family_line_degree_sum_violation_names_family():
    with pytest.raises(ValidationError) as exc:
        parse_family_line(1, "3\t7\t1\t1\t1\t1\t3")
    assert exc.value.family == 3
    assert "d = a1+a2+a3+a4" in str(exc.value)


def test_parse_family_line_bad_weights_named():
    # descending weights
    with pytest.raises(ValidationError):
        parse_family_line(1, "1\t10\t1\t3\t2\t1\t4")
    # leading weight not 1
    with pytest.raises(ValidationError):
        parse_family_line(1, "1\t10\t2\t1\t2\t3\t4")
    # family number out of range
    with pytest.raises(ValidationError):
        parse_family_line(1, "96\t4\t1\t1\t1\t1\t1")


# ---------------------------------------------------------------------------
# Stream loading


def _packaged_text() -> str:
    return packaged_data_path("families.tsv").read_text()


def test_load_accepts_byte_and_text_streams():
    text = _packaged_text()
    from_text = load_families(io.StringIO(text))
    from_bytes = load_families(io.BytesIO(text.encode()))
    assert from_text.records == from_bytes.records


def test_load_accepts_crlf_streams():
    crlf = _packaged_text().replace("\n", "\r\n")
    expected = load_families(io.StringIO(_packaged_text())).records
    assert load_families(io.StringIO(crlf)).records == expected
    assert load_families(io.BytesIO(crlf.encode())).records == expected


def test_load_skips_comments_and_blank_lines():
    text = "# header\n\n" + "\n".join(
        serialize_families(load_families(io.StringIO(_packaged_text()))).splitlines()
    )
    assert len(load_families(io.StringIO(text))) == 95


def test_load_rejects_wrong_record_count():
    lines = [l for l in _packaged_text().splitlines() if l and not l.startswith("#")]
    with pytest.raises(FamilyTableError, match="95"):
        load_families(io.StringIO("\n".join(lines[:-1])))


def test_load_rejects_duplicate_family_number():
    lines = [l for l in _packaged_text().splitlines() if l and not l.startswith("#")]
    lines[1] = lines[0]
    with pytest.raises(FamilyTableError):
        load_families(io.StringIO("\n".join(lines)))


def test_load_rejects_out_of_order_numbers():
    lines = [l for l in _packaged_text().splitlines() if l and not l.startswith("#")]
    lines[0], lines[1] = lines[1], lines[0]
    with pytest.raises(FamilyTableError):
        load_families(io.StringIO("\n".join(lines)))


def test_parse_error_carries_line_number_from_stream():
    lines = [l for l in _packaged_text().splitlines()]
    lines[5] = "broken line"
    with pytest.raises(ParseError) as exc:
        load_families(io.StringIO("\n".join(lines)))
    assert exc.value.line_number == 6


def test_serialize_load_round_trip(db):
    text = serialize_families(db)
    again = load_families(io.StringIO(text))
    assert again.records == db.records
    assert serialize_families(again) == text


def test_serialize_matches_packaged_data_lines(db):
    data_lines = [
        l for l in _packaged_text().splitlines() if l and not l.startswith("#")
    ]
    assert serialize_families(db).splitlines() == data_lines
