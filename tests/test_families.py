"""Loading, validating, and serializing the 95-family database."""

import copy
import io
import pickle
from fractions import Fraction

import pytest

from fano95 import (
    FAMILY_COUNT,
    FamilyDatabase,
    FamilyNotFoundError,
    FamilyRecord,
    FamilyTableError,
    ParseError,
    ValidationError,
    Weights,
    load_families,
    load_packaged_families,
    serialize_families,
)
from fano95.families import packaged_data_path, parse_family_line


def test_packaged_table_has_95_records(db):
    assert len(db) == FAMILY_COUNT == 95
    assert [f.number for f in db] == list(range(1, 96))


def test_every_record_satisfies_degree_sum(db):
    for f in db:
        assert f.d == sum(f.weights[1:]), f.number


def test_every_record_caches_degree_cap(db):
    for f in db:
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


@pytest.mark.parametrize("number, error", [(True, TypeError), (1.0, TypeError),
                                           (0, FamilyNotFoundError),
                                           (96, FamilyNotFoundError)])
def test_get_refuses_a_non_integer_or_out_of_range_number(db, number, error):
    with pytest.raises(error):
        db.get(number)


def test_database_is_iterable_in_order(db):
    numbers = [f.number for f in db]
    assert numbers == sorted(numbers)


def test_two_loads_of_the_packaged_table_compare_equal(db):
    again = load_packaged_families()
    assert isinstance(again, tuple) and again is not db
    assert again == db and hash(again) == hash(db)


def test_a_copied_or_pickled_database_is_rebuilt_through_its_checks(db):
    # Each twin is a new database with the same records; none carries the
    # verdicts or lists derived on the original.
    db.lists
    assert {"verdicts", "lists"} <= set(vars(db))
    for twin in (copy.copy(db), copy.deepcopy(db), pickle.loads(pickle.dumps(db))):
        assert type(twin) is FamilyDatabase and twin is not db
        assert twin == db and vars(twin) == {}
        assert twin.lists == db.lists

    class Forged:  # pickles as a database of the records in reverse order
        def __reduce__(self):
            return FamilyDatabase, (tuple(db)[::-1],)

    with pytest.raises(ValidationError, match="must be exactly 1..95 in ascending order"):
        pickle.loads(pickle.dumps(Forged()))


#: Family 20's weights, for records built by hand.
W20 = Weights((1, 1, 3, 4, 5))


def test_family_record_derives_its_degree_cap(db):
    # The constructor is the one way to a record: it derives A³ and its text,
    # and so do copy and pickle, which pass it only the number, d and weights.
    f = FamilyRecord(20, 13, W20)
    assert f == db.get(20)
    assert (f.a_cube, f.a_cube_text) == (Fraction(13, 60), "13/60")
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)),
                 FamilyRecord(number=20, d=13, weights=W20)):
        assert twin == f and twin.a_cube_text == "13/60"


@pytest.mark.parametrize("args, error, message", [
    ((0, 13, W20), ValidationError, "family 0: family number must lie in 1..95"),
    ((96, 13, W20), ValidationError, "family 96: family number must lie in 1..95"),
    ((20, 99, W20), ValidationError, "d = 99 but a1\\+a2\\+a3\\+a4 = 13"),
    ((True, 13, W20), TypeError, "family number must be an integer"),
    ((20, 13.0, W20), TypeError, "degree must be an integer"),
    ((20, 13, (1, 1, 3, 4, 5)), TypeError, "weights must be Weights"),
], ids=["number-0", "number-96", "degree-sum", "bool-number", "float-degree",
        "tuple-weights"])
def test_family_record_refuses_an_inconsistent_record(args, error, message):
    with pytest.raises(error, match=message):
        FamilyRecord(*args)


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
    assert from_text == from_bytes


def test_load_drops_a_byte_order_mark_from_a_text_stream(db):
    # A file opened with encoding="utf-8" keeps its mark; one leading mark is
    # dropped, as from bytes and paths, and a second is data.
    text = serialize_families(db)
    assert load_families(io.StringIO("\ufeff" + text)) == db
    for twice in ("\ufeff\ufeff" + text, ("\ufeff\ufeff" + text).encode()):
        stream = io.StringIO(twice) if isinstance(twice, str) else io.BytesIO(twice)
        with pytest.raises(ParseError, match=r"^line 1: non-integer field in \['\\ufeff1'"):
            load_families(stream)


def test_load_accepts_crlf_streams():
    crlf = _packaged_text().replace("\n", "\r\n")
    expected = load_families(io.StringIO(_packaged_text()))
    assert load_families(io.StringIO(crlf)) == expected
    assert load_families(io.BytesIO(crlf.encode())) == expected


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


def test_load_rejects_repeated_degree_and_weights():
    # Family 3's line carrying family 1's degree and weights passes every
    # per-record check; the database refuses the repeat and names both.
    lines = [l for l in _packaged_text().splitlines() if l and not l.startswith("#")]
    lines[2] = "3\t4\t1\t1\t1\t1\t1"
    with pytest.raises(ValidationError) as exc:
        load_families(io.StringIO("\n".join(lines)))
    assert exc.value.family == 3
    assert str(exc.value) == (
        "family 3: degree 4 and weights (1, 1, 1, 1, 1) repeat family 1"
    )


def test_load_reports_count_and_numbering_before_repeats():
    lines = [l for l in _packaged_text().splitlines() if l and not l.startswith("#")]
    lines[2] = lines[0]  # a repeated record that also breaks the numbering
    with pytest.raises(ValidationError, match="family numbers must be exactly 1..95"):
        load_families(io.StringIO("\n".join(lines)))
    with pytest.raises(ValidationError, match="expected exactly 95 family records, got 96"):
        load_families(io.StringIO("\n".join(lines + [lines[0]])))


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
    assert again == db
    assert serialize_families(again) == text


def test_serialize_matches_packaged_data_lines(db):
    data_lines = [
        l for l in _packaged_text().splitlines() if l and not l.startswith("#")
    ]
    assert serialize_families(db).splitlines() == data_lines
