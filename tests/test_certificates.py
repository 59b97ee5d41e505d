"""Exclusion certificates: blow-up test classes, surface-method rows, extensions."""

import copy
import io
import pickle
from fractions import Fraction
from itertools import combinations, product

import pytest

from fano95 import certificates as C
from fano95 import wps
from fano95 import (
    Method,
    RowError,
    StratumCurve,
    SurfaceCertificate,
    SurfaceRow,
    SurfaceRowParseError,
    Weights,
    case3_test_class_certificates,
    derived_lists,
    expected_fail_tags,
    family_verdict,
    format_rational,
    load_families,
    load_surface_rows,
    serialize_surface_rows,
    verify_surface_table,
)
from fano95.families import FamilyRecord, packaged_data_path

# TestClassCertificate is reached through the module (C.TestClassCertificate):
# importing a name that starts with "Test" would make pytest collect it.


# ---------------------------------------------------------------------------
# Blow-up test class
#
# The oracles below are the README's formulas in Fraction arithmetic, not the
# engine's integer helpers: M·B² for M = b·A − E and B = A − E is multiplied
# out term by term from A³, A²E = 0, AE² = −deg C and E³ = 2 − 2p_a − deg C.


def _triple_product(x, y, z, numbers):
    """x·y·z for classes given as (coefficient of A, coefficient of E), from the
    intersection numbers (A³, A²E, AE², E³), multiplied out term by term."""
    return sum(x[i] * y[j] * z[k] * numbers[i + j + k] for i, j, k in product((0, 1), repeat=3))


def _blowup_value(b, a_cube, deg_c, p_a):
    numbers = (a_cube, 0, -deg_c, 2 - 2 * p_a - deg_c)
    return _triple_product((b, -1), (1, -1), (1, -1), numbers)


def test_blowup_intersection_numbers_for_rational_curve():
    # (A²E, AE², E³) as numerators over q, for deg C = p/q.
    assert C._blowup_numbers(3, 1, 0) == (0, -3, -1)
    assert C._blowup_numbers(2, 1, 1) == (0, -2, -2)
    for p, q, p_a in product(range(1, 8), range(1, 8), range(4)):
        deg = Fraction(p, q)
        got = [Fraction(x, q) for x in C._blowup_numbers(p, q, p_a)]
        assert got == [0, -deg, 2 - 2 * p_a - deg], (p, q, p_a)


def test_expansion_multiplies_out_the_triple_product():
    # b·A³ − (2b+1)·A²E + (b+2)·AE² − E³ is (bA − E)(A − E)² for any numbers.
    for b, *numbers in product(range(1, 6), (-3, 0, 7), (-2, 0, 5), (-4, 1), (-1, 0, 3)):
        expected = _triple_product((b, -1), (1, -1), (1, -1), numbers)
        assert C._expanded(b, *numbers) == expected, (b, numbers)


@pytest.mark.parametrize(
    "b, a_cube, deg_c, expected",
    [
        (2, Fraction(4), Fraction(3), Fraction(-3)),
        (2, Fraction(5, 2), Fraction(2), Fraction(-3)),
        (6, Fraction(2), Fraction(2), Fraction(-4)),
        (2, Fraction(3, 2), Fraction(1), Fraction(-2)),
        (6, Fraction(7, 6), Fraction(1), Fraction(-2)),
        (4, Fraction(1), Fraction(1), Fraction(-3)),
    ],
)
def test_test_class_value_known_curves(db, b, a_cube, deg_c, expected):
    # Each A³ is the degree cap of one of families 1..6, in order.
    f = next(f for f in db if f.a_cube == a_cube)
    cert = C.TestClassCertificate(f, "curve", b, deg_c)
    assert f.number <= 6 and cert.value == expected
    assert cert.value_text == format_rational(expected)


def test_test_class_value_closed_form_matches_expansion():
    # X_7 in P(1,1,1,2,3) has A³ = 7/6; a curve of degree 4/3 and genus 2.
    f = FamilyRecord(1, 7, Weights((1, 1, 1, 2, 3)))
    b, deg_c, p_a = 5, Fraction(4, 3), 2
    cert = C.TestClassCertificate(f, "curve", b, deg_c, p_a)
    assert cert.value == _blowup_value(b, Fraction(7, 6), deg_c, p_a) == Fraction(-1, 6)
    assert cert.value_text == "-1/6"


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, Fraction(1), 0), "multiplier must be >= 1, got 0"),
        ((2, Fraction(0), 0), "degree must be positive, got 0"),
        ((2, Fraction(1), -1), "must be non-negative, got -1"),
        ((2, Fraction(1, 3), -1), "must be non-negative, got -1"),
        ((2, Fraction(-1, 3), 0), "degree must be positive, got -1/3"),
    ],
    ids=["value-b", "value-degree", "value-genus", "blowup-genus", "blowup-degree"],
)
def test_test_class_value_validates_inputs(db, args, message):
    with pytest.raises(ValueError, match=message):
        C.TestClassCertificate(db.get(1), "curve", *args)


@pytest.mark.parametrize("bad", ["1/2", 0.1, True], ids=["str", "float", "bool"])
def test_test_class_value_refuses_non_rationals(db, bad):
    # Fraction("1/2") and Fraction(0.1) would parse or convert inexactly, so
    # deg C takes an int or a Fraction only, like b and p_a take an int.
    f = db.get(1)
    with pytest.raises(TypeError, match="curve degree must be an int or a Fraction"):
        C.TestClassCertificate(f, "curve", 2, bad)
    assert C.TestClassCertificate(f, "curve", 2, 3).deg_c == Fraction(3)
    for b in (bad, 2.0):
        with pytest.raises(TypeError, match="test-class multiplier must be an integer"):
            C.TestClassCertificate(f, "curve", b, 3)
    with pytest.raises(TypeError, match="arithmetic genus must be an integer"):
        C.TestClassCertificate(f, "curve", 2, 3, bad)


def test_test_class_certificate_derives_its_value(db):
    # The value is derived from the family record, and again by copy and
    # pickle, which pass the constructor only its inputs.
    f = db.get(1)
    cert = C.TestClassCertificate(f, "twisted cubic", 2, 3)
    assert (cert.record, cert.family, cert.a_cube) == (f, 1, Fraction(4))
    assert (cert.value, cert.value_text, cert.valid) == (2 * 4 - 3 * 3 - 2, "-3/1", True)
    for twin in (copy.copy(cert), copy.deepcopy(cert), pickle.loads(pickle.dumps(cert)),
                 C.TestClassCertificate(f, "twisted cubic", 2, Fraction(3), 0)):
        assert twin == cert and twin.value == Fraction(-3)


def test_test_class_value_matches_fraction_oracle(db):
    # Every packaged A^3, b in 1..8, deg C in {1/q : q <= 12} and {1, 2, 3},
    # p_a in 0..3: each certificate against the closed form and the multiplied-
    # out triple product written in Fraction arithmetic, its text against the
    # Fraction's, and its verdicts against its sign.
    degrees = sorted({Fraction(1, q) for q in range(1, 13)} | {Fraction(n) for n in (1, 2, 3)})
    signs = {-1: 0, 0: 0, 1: 0}
    for f, b, deg_c, p_a in product(db, range(1, 9), degrees, range(4)):
        expected = b * f.a_cube - (b + 1) * deg_c - 2 + 2 * p_a
        case = (f.number, b, deg_c, p_a)
        assert _blowup_value(b, f.a_cube, deg_c, p_a) == expected, case
        cert = C.TestClassCertificate(f, "curve", b, deg_c, p_a)
        assert type(cert.value) is Fraction and cert.value == expected, case
        assert cert.value_text == f"{expected.numerator}/{expected.denominator}", case
        assert (cert.valid, cert.boundary) == (expected < 0, expected == 0), case
        signs[(expected > 0) - (expected < 0)] += 1
    assert signs == {-1: 23115, 0: 120, 1: 19325}


def test_six_packaged_test_class_certificates(db):
    certs = case3_test_class_certificates(db)
    assert [(c.family, c.curve, c.b) for c in certs] == [
        (1, "twisted cubic", 2),
        (2, "conic", 2),
        (3, "conic", 6),
        (4, "line", 2),
        (5, "line", 6),
        (6, "line", 4),
    ]
    assert [c.value for c in certs] == [-3, -3, -4, -2, -2, -3]
    assert all(c.valid and not c.boundary for c in certs)
    assert all(c.p_a == 0 for c in certs)


def test_test_class_certificates_report_a_nonnegative_value(db):
    # Replace family 5's record with X_7 in P(1,1,1,1,4), which repeats no
    # other family: the line's certificate value becomes 6*7/4 - 7 - 2 = +3/2.
    # All six certificates are still returned; family 5's is invalid, not raised.
    text = packaged_data_path("families.tsv").read_text()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    lines[4] = "5\t7\t1\t1\t1\t1\t4"
    certs = case3_test_class_certificates(load_families(io.StringIO("\n".join(lines))))
    assert [c.family for c in certs] == [1, 2, 3, 4, 5, 6]
    [bad] = [c for c in certs if not c.valid]
    assert (bad.family, bad.curve, bad.value, bad.boundary) == (5, "line", Fraction(3, 2), False)


# ---------------------------------------------------------------------------
# Adjunction bookkeeping


# The surface formulas, each an integer helper on numerators over positive
# denominators, against the README's formulas in Fraction arithmetic:
# diff = Σ(w−1)/w, C²_T = diff − 2 − (m−1)·deg C, m·A³ − 2·deg C + C²_T.

def test_different_total_values():
    assert Fraction(*wps._different([])) == 0
    assert Fraction(*wps._different([5])) == Fraction(4, 5)
    assert Fraction(*wps._different([2, 3])) == Fraction(1, 2) + Fraction(2, 3)
    for indices in ([4, 6, 9], [2, 2, 2], [40], [3, 7, 11, 13]):
        assert Fraction(*wps._different(iter(indices))) == sum(
            (Fraction(w - 1, w) for w in indices), Fraction(0)), indices
    with pytest.raises(ValueError):
        wps._different([1])
    with pytest.raises(ValueError):
        wps._different([0, 3])


def test_curve_self_intersection_examples():
    # Genus-0 adjunction with no orbifold corrections: C^2 = -2 + 0 - 0*deg.
    assert Fraction(*wps._self_intersection(1, 1, 5, 0, 1)) == -2
    # Worked chain: m=4, deg 1/5, corrections 4/5.
    assert Fraction(*wps._self_intersection(4, 1, 5, 4, 5)) == Fraction(-9, 5)


#: int and Fraction values, mixed freely in the formulas below.
_MIXED_VALUES = (0, 1, -3, Fraction(1, 5), Fraction(-7, 6), Fraction(4), Fraction(13, 60))


@pytest.mark.parametrize("m", [1, 2, 7])
def test_formula_helpers_match_fraction_formulas(m):
    # Each helper takes each value as numerator and positive denominator.
    for x, y, z in product(map(Fraction, _MIXED_VALUES), repeat=3):
        c2t = Fraction(*wps._self_intersection(m, *x.as_integer_ratio(), *y.as_integer_ratio()))
        assert c2t == y - 2 - (m - 1) * x, (x, y)
        value = C._exclusion_value(m, *x.as_integer_ratio(), *y.as_integer_ratio(),
                                   *z.as_integer_ratio())
        assert Fraction(*value) == m * x - 2 * y + z, (x, y, z)


def test_surface_exclusion_value_examples():
    assert Fraction(*C._exclusion_value(4, 13, 60, 1, 5, -9, 5)) == Fraction(-4, 3)
    # Exact zero at the boundary: m*cap - 2*deg + c2t = 0.
    assert Fraction(*C._exclusion_value(1, 4, 1, 1, 1, -2, 1)) == 0


def test_two_curve_certificate_flags(db):
    # With m = 1 the pencil gives deg C + deg C' = A^3 exactly, and the
    # degree comparison is strict: equality is a boundary, not a certificate.
    for family, deg_c, deg_c_prime in ((1, 1, 3), (2, Fraction(1, 2), 2)):
        f = db.get(family)
        cert = SurfaceCertificate(C.parse_surface_row(f"{family}\t0,1,2\t\t42\t1"), f)
        assert (cert.deg_c, cert.deg_c_prime) == (deg_c, deg_c_prime)
        assert cert.degree_sum == cert.a_cube == f.a_cube
        assert cert.forces_alpha_one is True       # companion self-intersection < 0
        assert cert.degree_contradiction is False  # deg C + deg C' is not > A^3
        assert cert.valid is False
        assert cert.boundary is True

        good = SurfaceCertificate(C.parse_surface_row(f"{family}\t0,1,2\t\t42\t2"), f)
        assert good.degree_contradiction is True and good.valid is True
        assert good.boundary is False


# ---------------------------------------------------------------------------
# Surface-row table parsing


def test_parse_surface_row_fields():
    row = C.parse_surface_row("7\t0,2,3\tcontracted,residual\t41\t2")
    assert row == SurfaceRow(
        family=7,
        vanishing=frozenset({0, 2, 3}),
        fails=frozenset({"contracted", "residual"}),
        method=Method.M41,
        m=2,
    )


@pytest.mark.parametrize(
    "line",
    [
        "7\t0,2,3\tresidual\t41",          # missing column
        "0\t0,2,3\tresidual\t41\t2",       # family out of range
        "7\t0,2\tresidual\t41\t2",         # two vanishing indices
        "7\t0,2,5\tresidual\t41\t2",       # index out of range
        "7\t0,2,2\tresidual\t41\t2",       # repeated index
        "7\t0,2,3\tbogus\t41\t2",          # unknown tag
        "7\t0,2,3\tresidual\t43\t2",       # unknown method
        "7\t0,2,3\tresidual\t41\t0",       # nonpositive multiplicity
        "7\t0,2,3\tresidual\t41\ttwo",     # non-integer multiplicity
        "7\t0,2,3\tresidual,\t41\t2",      # trailing empty tag
        "7\t0,2,3\t,residual\t41\t2",      # leading empty tag
        "7\t0,2,3\tresidual,,contracted\t41\t2",  # empty tag between two
        "7\t0,2,3\t,\t41\t2",              # two empty tags
        "7\t0,2,3\tresidual,residual\t41\t2",  # repeated tag
    ],
)
def test_parse_surface_row_rejects_malformed(line):
    with pytest.raises(SurfaceRowParseError):
        C.parse_surface_row(line)


@pytest.mark.parametrize(
    "line",
    [
        "2_0\t2,3,4\t\t41\t2",
        "+20\t2,3,4\t\t41\t2",
        "20\t\u0662,3,4\t\t41\t2",
        "20\t2, 3,4\t\t41\t2",
        "20\t2,3,4,\t\t41\t2",
        "20\t2,3,4\t\t41\t 2",
        "20\t2,3,4\t\t41\t2 ",
    ],
    ids=["underscore", "plus", "arabic-digit", "space-in-list", "empty-index",
         "leading-space", "trailing-space"],
)
def test_parse_surface_row_accepts_only_ascii_integers(line):
    # int() would read each of these fields (but the empty index) as an integer.
    with pytest.raises(SurfaceRowParseError, match="^line 3: non-integer field in "):
        C.parse_surface_row(line, 3)


@pytest.mark.parametrize(
    "line, message",
    [
        ("-20\t2,3,4\t\t41\t2", "family number must lie in 1..95, got -20"),
        ("20\t-2,3,4\t\t41\t2", "vanishing set must be 3 distinct indices in 0..4"),
        ("20\t2,3,4\t\t41\t-2", "surface-system multiplier must be >= 1, got -2"),
    ],
)
def test_parse_surface_row_negative_reaches_validation(line, message):
    with pytest.raises(SurfaceRowParseError, match=f"^line 3: {message}"):
        C.parse_surface_row(line, 3)


def test_parse_surface_row_rejects_repeated_vanishing_index():
    # Read as a set, "2,3,3,4" would silently become the stratum {2, 3, 4};
    # the shared vanishing rule counts the entries as given.
    with pytest.raises(SurfaceRowParseError) as excinfo:
        C.parse_surface_row("20\t2,3,3,4\t\t41\t2", 1)
    assert str(excinfo.value) == (
        "line 1: vanishing set must be 3 distinct indices in 0..4, got [2, 3, 3, 4]"
    )


def test_surface_row_refuses_a_float_family_and_a_string_method():
    # Unchecked, this row would take the method-42 branch (its method is not
    # Method.M41) for a stratum that certifies as method 41.
    common = dict(vanishing=(2, 3, 4), fails=["contracted"], m=3)
    with pytest.raises(TypeError, match=r"^family number must be an integer, got 20\.0$"):
        SurfaceRow(family=20.0, method="41", **common)
    with pytest.raises(TypeError, match=r"^family number must be an integer, got 20\.0$"):
        SurfaceRow(family=20.0, method=Method.M41, **common)
    with pytest.raises(TypeError, match=r"^method must be a Method, got '41'$"):
        SurfaceRow(family=20, method="41", **common)


def test_parse_surface_row_error_carries_line_number():
    with pytest.raises(SurfaceRowParseError, match="line 12"):
        C.parse_surface_row("7\t0,2,3\tresidual\t43\t2", 12)


def test_fail_tags_accept_exactly_distinct_valid_tags():
    # Written from the README's rule, not from the lookup table: the tags must
    # be distinct members of {"residual", "contracted"}, in any order.
    common = dict(family=20, vanishing=(2, 3, 4), method=Method.M41, m=3)
    pool = ("residual", "contracted", "x", "")
    for tags in (t for n in range(4) for t in product(pool, repeat=n)):
        for given in (tags, list(tags), iter(tags)):
            if len(set(tags)) == len(tags) and set(tags) <= {"residual", "contracted"}:
                fails = SurfaceRow(fails=given, **common).fails
                assert type(fails) is frozenset and fails == frozenset(tags), tags
                continue
            unknown = sorted(set(tags) - {"residual", "contracted"})
            message = (f"unknown fail tags {unknown}" if unknown
                       else f"fail tags must be distinct, got {sorted(tags)}")
            with pytest.raises(ValueError) as caught:
                SurfaceRow(fails=given, **common)
            assert str(caught.value) == message


@pytest.mark.parametrize("fails, error, message", [
    ("residual", TypeError,
     "fail tags must be a collection of tags, not the str 'residual'"),
    ("", TypeError, "fail tags must be a collection of tags, not the str ''"),
    (["x", 1], ValueError, "unknown fail tags ['x', 1]"),
    ([2, "residual", None], ValueError, "unknown fail tags [2, None]"),
    (["residual", ["x"], ["x"], 1, True], ValueError, "unknown fail tags [1, ['x']]"),
], ids=["str", "empty-str", "str-and-int", "int-and-none", "unhashable"])
def test_fail_tag_errors_name_the_fail_tags(fails, error, message):
    # A str would be read one character at a time, and a message that sorts
    # tags of mixed types would raise its own TypeError from the sort, as a
    # lookup of an unhashable entry would; each entry that is no tag is named
    # once.
    with pytest.raises(error) as caught:
        SurfaceRow(20, (2, 3, 4), fails, Method.M41, 3)
    assert str(caught.value) == message


def test_load_packaged_rows(rows):
    assert len(rows) == 21
    assert len({r.family for r in rows}) == 17
    assert sum(1 for r in rows if r.method is Method.M42) == 3
    assert {r.family for r in rows if r.method is Method.M42} == {15, 29, 34}


def test_load_rows_rejects_duplicate_stratum():
    text = "7\t0,2,3\tresidual\t41\t2\n7\t0,2,3\tresidual\t41\t3\n"
    with pytest.raises(SurfaceRowParseError, match="duplicate"):
        load_surface_rows(io.StringIO(text))


def test_serialize_rows_round_trip(rows):
    text = serialize_surface_rows(rows)
    again = load_surface_rows(io.StringIO(text))
    assert again == rows
    assert serialize_surface_rows(again) == text


def test_load_rows_drops_a_byte_order_mark_from_a_text_stream(rows):
    text = serialize_surface_rows(rows)
    assert load_surface_rows(io.StringIO("\ufeff" + text)) == rows


def test_load_rows_accepts_crlf_streams(rows):
    crlf = serialize_surface_rows(rows).replace("\n", "\r\n")
    assert load_surface_rows(io.StringIO(crlf)) == rows
    assert load_surface_rows(io.BytesIO(crlf.encode())) == rows


def test_serialize_rows_matches_packaged_data(rows):
    raw = packaged_data_path(C.SURFACE_ROWS_FILENAME).read_text()
    data_lines = [l for l in raw.splitlines() if l and not l.startswith("#")]
    assert serialize_surface_rows(rows).splitlines() == data_lines


# ---------------------------------------------------------------------------
# Row certification


def test_certify_row_worked_chain(db):
    row = C.parse_surface_row("20\t0,2,3\tcontracted\t41\t4")
    cert = SurfaceCertificate(row, db.get(20))
    assert cert.deg_c == Fraction(1, 5)
    assert cert.diff_indices == (5,)
    assert cert.diff_total == Fraction(4, 5)
    assert cert.c2t == Fraction(-9, 5)
    assert cert.exclusion_value == Fraction(-4, 3)
    assert cert.valid and not cert.boundary
    assert cert.deg_c_prime is None and cert.c_prime_sq is None
    assert cert.forces_alpha_one is None and cert.degree_contradiction is None


def test_certify_row_two_curve_chain(db):
    row = C.parse_surface_row("29\t0,2,4\tresidual\t42\t2")
    cert = SurfaceCertificate(row, db.get(29))
    assert cert.deg_c == Fraction(1, 5)
    assert cert.c2t == Fraction(-7, 5)
    assert cert.exclusion_value is None
    assert cert.deg_c_prime == Fraction(1, 5)  # 2 * cap - deg = 2/5 - 1/5
    assert cert.c_prime_sq == Fraction(-7, 5)
    assert cert.forces_alpha_one and cert.degree_contradiction
    assert cert.valid


def test_certify_row_boundary_value_is_invalid(db):
    row = C.parse_surface_row("1\t0,1,2\t\t41\t1")
    cert = SurfaceCertificate(row, db.get(1))
    assert cert.exclusion_value == 0
    assert cert.valid is False
    assert cert.boundary is True


def test_certify_row_positive_value_is_invalid(db):
    row = C.parse_surface_row("1\t0,1,2\t\t41\t3")
    cert = SurfaceCertificate(row, db.get(1))
    assert cert.exclusion_value == 6
    assert cert.valid is False and cert.boundary is False


def test_certify_row_rejects_wrong_family_record(db):
    row = C.parse_surface_row("1\t0,1,2\t\t41\t1")
    with pytest.raises(RowError, match="applied to family record 2"):
        SurfaceCertificate(row, db.get(2))


@pytest.mark.parametrize(
    "line, deg_c_prime, boundary",
    [
        ("8\t2,3,4\t\t42\t1", Fraction(-1, 4), True),   # degree sum = cap too
        ("12\t2,3,4\t\t42\t2", Fraction(-1, 6), False),
        ("9\t2,3,4\t\t42\t2", Fraction(0), True),       # only deg C' is zero
    ],
    ids=["negative-m1", "negative", "zero"],
)
def test_certify_row_nonpositive_companion_degree_is_invalid(db, line, deg_c_prime, boundary):
    # Families 9 and 12 at m = 2 have C'^2 < 0 and a degree sum above the cap:
    # only deg C' <= 0 keeps these certificates from being valid.
    row = C.parse_surface_row(line)
    cert = SurfaceCertificate(row, db.get(row.family))
    assert cert.deg_c_prime == deg_c_prime
    assert (cert.valid, cert.boundary) == (False, boundary)
    if row.m == 2:
        assert cert.forces_alpha_one and cert.degree_contradiction


def _oracle(f, vanishing, method, m):
    """Every stored field of a surface certificate, from the paper's formulas
    in plain Fraction arithmetic (None where the method does not define it)."""
    w1, w2 = (f.weights[i] for i in range(5) if i not in vanishing)
    cap = Fraction(f.d, f.weights.tail_product)
    deg = Fraction(1, w1 * w2)
    diff = sum((Fraction(w - 1, w) for w in (w1, w2) if w > 1), Fraction(0))
    c2t = Fraction(-2) + diff - (m - 1) * deg
    fields = dict.fromkeys(
        ("exclusion_value", "deg_c_prime", "c_prime_sq", "degree_sum",
         "forces_alpha_one", "degree_contradiction")
    )
    fields.update(a_cube=cap, deg_c=deg, diff_total=diff, c2t=c2t,
                  diff_indices=tuple(sorted(w for w in (w1, w2) if w > 1)))

    def entry(field, value):
        return field, f"{value.numerator}/{value.denominator}"

    chain = (entry("deg_c", deg), entry("diff_total", diff), entry("c2t", c2t))
    if method is Method.M41:
        value = m * cap - 2 * deg + c2t
        fields.update(exclusion_value=value, valid=value < 0, boundary=value == 0,
                      quantities=chain + (entry("exclusion_value", value),))
        return fields
    deg_prime = m * cap - deg
    sq_prime = Fraction(-2) + diff - (m - 1) * deg_prime
    total = deg + deg_prime
    fields.update(
        deg_c_prime=deg_prime, c_prime_sq=sq_prime, degree_sum=total,
        forces_alpha_one=sq_prime < 0, degree_contradiction=total > cap,
        valid=deg_prime > 0 and sq_prime < 0 and total > cap,
        boundary=deg_prime == 0 or sq_prime == 0 or total == cap,
        quantities=chain + (entry("deg_c_prime", deg_prime), entry("c_prime_sq", sq_prime)),
    )
    return fields


def _assert_prints(text, value, where):
    """``text`` is ``value`` in lowest terms over a positive denominator, as
    ``format_rational`` prints it."""
    assert type(text) is str and Fraction(text) == value, where
    assert text == format_rational(Fraction(text)), where


def test_certify_row_matches_fraction_oracle_everywhere(db):
    # Every (family, stratum) pair, m in 1..8, both methods; a method-42 row
    # whose companion degree m*A^3 - deg C is not positive is invalid.
    certified = nonpositive = 0
    for f, vanishing, method, m in product(
        db, map(frozenset, combinations(range(5), 3)), Method, range(1, 9)
    ):
        row = SurfaceRow(family=f.number, vanishing=vanishing, fails=frozenset(),
                         method=method, m=m)
        expected = _oracle(f, vanishing, method, m)
        cert = SurfaceCertificate(row, f)
        got = {name: getattr(cert, name) for name in expected}
        assert got == expected, (f.number, sorted(vanishing), method, m)
        for name, text in cert.quantities:
            _assert_prints(text, expected[name], (f.number, name))
        if cert.cap_check is not None:
            _assert_prints(cert.cap_check, expected["degree_sum"], f.number)
        assert cert.degree_sum is None or type(cert.degree_sum) is Fraction
        for name in ("forces_alpha_one", "degree_contradiction", "valid", "boundary"):
            value = getattr(cert, name)
            assert value is None or type(value) is bool, (f.number, name)
        certified += 1
        nonpositive += method is Method.M42 and cert.deg_c_prime <= 0
    assert certified == 95 * 10 * 2 * 8
    assert nonpositive == 2031


def test_certify_row_agrees_with_stratum_curve(db):
    # A certificate reads the stratum's weights without building a StratumCurve;
    # both must derive the same curve from the weights.
    for f, vanishing in product(db, combinations(range(5), 3)):
        curve = StratumCurve.from_vanishing(f.weights, vanishing)
        for method in Method:
            cert = SurfaceCertificate(SurfaceRow(f.number, vanishing, (), method, 2), f)
            assert cert.deg_c == curve.degree, (f.number, vanishing)
            assert cert.diff_indices == tuple(
                sorted(w for w in curve.surviving_weights if w > 1)
            ), (f.number, vanishing)


def test_stratum_chain_is_shared_across_rows(db, wide_tables):
    # deg C, the different and C²_T depend only on the stratum weights (w1, w2)
    # and the multiplier m: derived once per key, they certify every row exactly
    # as a fresh derivation does, and rows of different families share them.
    table = load_surface_rows(wide_tables[11])
    cold = []
    for row in table:
        wps._stratum.cache_clear()
        cold.append(SurfaceCertificate(row, db.get(row.family)))
    wps._stratum.cache_clear()
    warm = [SurfaceCertificate(row, db.get(row.family)) for row in table]
    assert warm == cold
    by_key = {}
    for cert in warm:
        w1, w2 = wps.stratum_weights(db.get(cert.family).weights, cert.row.vanishing)
        by_key.setdefault((w1, w2, cert.row.m), []).append(cert)
    assert wps._stratum.cache_info().currsize == len(by_key)
    shared = [certs for certs in by_key.values() if len({c.family for c in certs}) > 1]
    assert shared
    for certs in shared:
        first = next(c for c in certs if c.family != certs[-1].family)
        for mine, theirs in zip(certs[-1].quantities[:3], first.quantities[:3]):
            assert mine is theirs, (first.family, certs[-1].family, mine[0])
    for cert in warm:
        curve = StratumCurve.from_vanishing(db.get(cert.family).weights, cert.row.vanishing)
        assert curve.degree == cert.deg_c, (cert.family, sorted(cert.row.vanishing))


def test_expected_fail_tags_derived_from_verdicts(db):
    assert expected_fail_tags(db.get(7)) == frozenset({"residual", "contracted"})
    assert expected_fail_tags(db.get(9)) == frozenset({"residual"})
    assert expected_fail_tags(db.get(20)) == frozenset({"contracted"})
    assert expected_fail_tags(db.get(40)) == frozenset()


def test_verify_packaged_table_is_clean(db, rows):
    verification = verify_surface_table(db, rows)
    assert verification.ok
    assert verification.invalid == ()
    assert verification.tag_mismatches == ()
    assert len(verification.certificates) == 21
    values = {
        (c.family, tuple(sorted(c.row.vanishing)), c.row.m): c
        for c in verification.certificates
    }
    assert values[(7, (0, 2, 3), 2)].exclusion_value == Fraction(-1)
    assert values[(18, (1, 2, 3), 4)].exclusion_value == Fraction(-7, 5)
    assert values[(21, (0, 2, 4), 7)].exclusion_value is not None


#: The quantities each method evaluates, in report order.
_METHOD_QUANTITIES = {
    Method.M41: ("deg_c", "diff_total", "c2t", "exclusion_value"),
    Method.M42: ("deg_c", "diff_total", "c2t", "deg_c_prime", "c_prime_sq"),
}


def test_certificate_accessors_read_the_stored_quantities(db, wide_tables):
    # Each quantity is stored once, as its text in ``quantities``: no slot holds
    # it again, its accessor returns the Fraction of the stored text, and the
    # accessor of the other method's quantity is None.  The degree sum is read
    # from cap_check's text the same way.
    names = set().union(*_METHOD_QUANTITIES.values())
    slots = set(C.SurfaceCertificate.__slots__)
    assert len(slots) == 9 and not (names | {"degree_sum"}) & slots
    methods = set()
    for cert in verify_surface_table(db, load_surface_rows(wide_tables[11])).certificates:
        method = cert.row.method
        methods.add(method)
        stored = dict(cert.quantities)
        assert tuple(stored) == _METHOD_QUANTITIES[method], cert.row
        assert not slots & set(stored)
        for name in names:
            value = getattr(cert, name)
            if name in stored:
                assert type(value) is Fraction and value == Fraction(stored[name]), name
            else:
                assert value is None, (cert.row, name)
        f = db.get(cert.family)
        assert cert.record is f and cert.a_cube is f.a_cube
        assert f.a_cube_text == format_rational(f.a_cube)
        if method is Method.M41:
            assert cert.cap_check is cert.degree_sum is None
        else:
            total = cert.row.m * f.a_cube
            assert cert.cap_check == format_rational(total)
            assert type(cert.degree_sum) is Fraction and cert.degree_sum == total
        for name in names | {"degree_sum"}:
            with pytest.raises(AttributeError):
                setattr(cert, name, None)
    assert methods == set(Method)


def test_family_record_carries_its_degree_cap_text(db):
    # A³ is printed once per family, when the record is built, from a_cube
    # itself; no caller can pass another text in, so no view can print it.
    for f in db:
        assert f.a_cube_text == format_rational(f.a_cube)
    f = db.get(20)
    assert FamilyRecord(20, 13, f.weights) == f
    assert copy.copy(f) == pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(TypeError, match="unexpected keyword argument 'a_cube_text'"):
        FamilyRecord(20, 13, f.weights, a_cube_text="1/2")


@pytest.mark.parametrize("seed", [None, 3, 11], ids=["packaged", "wide-3", "wide-11"])
def test_certificate_quantities_are_exact(db, rows, wide_tables, seed):
    # Each quantity is stored as the text every view prints, written once from
    # integers: the oracle's value in lowest terms over a positive denominator.
    table = rows if seed is None else load_surface_rows(wide_tables[seed])
    for cert in verify_surface_table(db, table).certificates:
        assert type(cert.a_cube) is Fraction
        row = cert.row
        expected = _oracle(cert.record, row.vanishing, row.method, row.m)
        for field, text in cert.quantities:
            _assert_prints(text, expected[field], (cert.family, field, text))
        if cert.cap_check is not None:
            _assert_prints(cert.cap_check, expected["degree_sum"], cert.family)


def test_verify_surface_table_builds_no_fraction(db, wide_tables, monkeypatch):
    # Certifying a row writes each quantity's text from integers: with the
    # rows loaded and the database's verdicts decided first, certifying the
    # table constructs no Fraction at all.
    table = load_surface_rows(wide_tables[3])
    db.verdicts
    built = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    verification = verify_surface_table(db, table)
    monkeypatch.undo()
    assert built == []
    assert len(verification.certificates) == len(table)


def test_loaded_rows_share_their_vanishing_and_fail_tag_sets(wide_tables):
    # A row is validated by looking its fields up in tables of their few valid
    # values, so rows with equal sets hold the same object, not a set each.
    table = load_surface_rows(wide_tables[3])
    for field in ("vanishing", "fails"):
        shared = {}
        for row in table:
            value = getattr(row, field)
            assert shared.setdefault(value, value) is value, (field, row)
        assert len(shared) < len(table) // 10


def test_verify_table_reports_tag_mismatch(db, rows):
    tampered = list(rows)
    victim = tampered[0]
    tampered[0] = SurfaceRow(
        family=victim.family,
        vanishing=victim.vanishing,
        fails=frozenset({"residual"}),  # drops the contracted tag for family 7
        method=victim.method,
        m=victim.m,
    )
    verification = verify_surface_table(db, tampered)
    assert not verification.ok
    assert len(verification.tag_mismatches) == 1
    assert verification.tag_mismatches[0][0] == victim.family


def test_verify_table_reports_invalid_row(db, rows):
    extra = C.parse_surface_row("1\t0,1,2\t\t41\t1")
    verification = verify_surface_table(db, list(rows) + [extra])
    assert not verification.ok
    assert len(verification.invalid) == 1
    assert verification.invalid[0].family == 1
    assert verification.invalid[0].boundary


# ---------------------------------------------------------------------------
# Extension checks for the failing-bound families


def test_extension_checks_cover_derived_set(db):
    derived = derived_lists(db)["extension_required"]
    assert derived == (18, 19, 22, 27, 28)
    for number in derived:
        comparisons = family_verdict(db.get(number)).extension_checks
        assert len(comparisons) == 5
        # every non-strict entry must name its fallback assumption
        for entry in comparisons:
            if not entry.contradiction:
                assert entry.note


def test_extension_check_family_18_values(db):
    comparisons = family_verdict(db.get(18)).extension_checks
    assert [e.relation for e in comparisons] == [">", ">", "<", "<", ">"]
    assert [e.lhs for e in comparisons] == [
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(2, 5),
    ]
    assert sum(not e.contradiction for e in comparisons) == 2


def test_extension_check_family_19_has_two_equalities(db):
    comparisons = family_verdict(db.get(19)).extension_checks
    assert [e.relation for e in comparisons] == ["=", ">", ">", "=", ">"]
