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
    SurfaceRow,
    SurfaceRowParseError,
    case3_test_class_certificates,
    certify_row,
    curve_self_intersection,
    derived_lists,
    different_total,
    expected_fail_tags,
    extension_check,
    format_rational,
    load_families,
    load_surface_rows,
    serialize_surface_rows,
    surface_exclusion_value,
    verify_surface_table,
)
from fano95.families import FamilyRecord, packaged_data_path

# The closed-form and expanded evaluators are referenced through the module
# (C.test_class_value, C.test_class_value_expanded): importing names that
# start with "test_" would make pytest try to collect them.


# ---------------------------------------------------------------------------
# Blow-up test class


def test_blowup_intersection_numbers_for_rational_curve():
    a2e, ae2, e3 = C.rational_curve_blowup_numbers(Fraction(3), 0)
    assert (a2e, ae2, e3) == (0, -3, -1)
    a2e, ae2, e3 = C.rational_curve_blowup_numbers(Fraction(2), 1)
    assert (a2e, ae2, e3) == (0, -2, -2)


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
def test_test_class_value_known_curves(b, a_cube, deg_c, expected):
    assert C.test_class_value(b, a_cube, deg_c, 0) == expected


def test_test_class_value_closed_form_matches_expansion():
    b, a_cube, deg_c, p_a = 5, Fraction(7, 3), Fraction(4, 3), 2
    a2e, ae2, e3 = C.rational_curve_blowup_numbers(deg_c, p_a)
    assert C.test_class_value(b, a_cube, deg_c, p_a) == C.test_class_value_expanded(
        b, a_cube, a2e, ae2, e3
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: C.test_class_value(0, Fraction(1), Fraction(1), 0), "multiplier must be >= 1"),
        (lambda: C.test_class_value(2, Fraction(1), Fraction(0), 0), "degree must be positive"),
        (lambda: C.test_class_value(2, Fraction(1), Fraction(1), -1), "must be non-negative"),
        (lambda: C.test_class_value_expanded(0, Fraction(2), 0, 0, 0),
         "multiplier must be >= 1"),
        (lambda: C.rational_curve_blowup_numbers(Fraction(1, 3), -1), "must be non-negative"),
        (lambda: C.rational_curve_blowup_numbers(Fraction(-1, 3), 0),
         "degree must be positive"),
    ],
    ids=["value-b", "value-degree", "value-genus", "expanded-b", "blowup-genus",
         "blowup-degree"],
)
def test_test_class_value_validates_inputs(call, message):
    # The expansion and the blow-up numbers refuse what test_class_value refuses.
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("bad", ["1/2", 0.1, True], ids=["str", "float", "bool"])
def test_test_class_value_refuses_non_rationals(db, bad):
    # Fraction("1/2") and Fraction(0.1) would parse or convert inexactly, so
    # A^3 and deg C take an int or a Fraction only, like b and p_a take an int.
    f = db.get(1)
    for a_cube, deg_c in ((bad, Fraction(1)), (Fraction(4), bad)):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            C.test_class_value(2, a_cube, deg_c, 0)
    with pytest.raises(TypeError, match="curve degree must be an int or a Fraction"):
        C.TestClassCertificate.build(f, "curve", 2, bad)
    assert C.TestClassCertificate.build(f, "curve", 2, 3).deg_c == Fraction(3)
    # The expansion and its blow-up numbers refuse the same inputs.
    for i in range(4):
        numbers = [Fraction(2), 0, 0, 0]
        numbers[i] = bad
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            C.test_class_value_expanded(2, *numbers)
    with pytest.raises(TypeError, match="curve degree must be an int or a Fraction"):
        C.rational_curve_blowup_numbers(bad, 0)
    assert C.rational_curve_blowup_numbers(1, 0) == (0, -1, 1)
    # The multiplier and the genus take an int only, in every entry point.
    for b in (bad, 2.0):
        with pytest.raises(TypeError, match="test-class multiplier must be an integer"):
            C.test_class_value_expanded(b, Fraction(2), 0, 0, 0)
    with pytest.raises(TypeError, match="arithmetic genus must be an integer"):
        C.rational_curve_blowup_numbers(1, bad)


def test_test_class_value_matches_fraction_oracle(db):
    # Every packaged A^3, b in 1..8, deg C in {1/q : q <= 12} and {1, 2, 3},
    # p_a in 0..3: the integer evaluation against the closed form written out
    # in Fraction arithmetic, and each certificate's verdicts against its sign.
    degrees = sorted({Fraction(1, q) for q in range(1, 13)} | {Fraction(n) for n in (1, 2, 3)})
    signs = {-1: 0, 0: 0, 1: 0}
    for f, b, deg_c, p_a in product(db, range(1, 9), degrees, range(4)):
        expected = b * f.a_cube - (b + 1) * deg_c - 2 + 2 * p_a
        case = (f.number, b, deg_c, p_a)
        value = C.test_class_value(b, f.a_cube, deg_c, p_a)
        assert type(value) is Fraction and value == expected, case
        cert = C.TestClassCertificate.build(f, "curve", b, deg_c, p_a)
        assert type(cert.value) is Fraction and cert.value == expected, case
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


def test_different_total_values():
    assert different_total([]) == 0
    assert different_total([5]) == Fraction(4, 5)
    assert different_total([2, 3]) == Fraction(1, 2) + Fraction(2, 3)
    assert different_total(iter([4, 6, 9])) == Fraction(3, 4) + Fraction(5, 6) + Fraction(8, 9)
    assert all(type(different_total(i)) is Fraction for i in ([], [2], [3, 3]))
    with pytest.raises(ValueError):
        different_total([1])
    with pytest.raises(ValueError):
        different_total([0, 3])


def test_curve_self_intersection_examples():
    # Genus-0 adjunction with no orbifold corrections: C^2 = -2 + 0 - 0*deg.
    assert curve_self_intersection(1, Fraction(1, 5), Fraction(0)) == -2
    # Worked chain: m=4, deg 1/5, corrections 4/5.
    assert curve_self_intersection(4, Fraction(1, 5), Fraction(4, 5)) == Fraction(-9, 5)


#: int and Fraction arguments, mixed freely in the helpers below.
_MIXED_ARGUMENTS = (0, 1, -3, Fraction(1, 5), Fraction(-7, 6), Fraction(4), Fraction(13, 60))


@pytest.mark.parametrize("m", [1, 2, 7])
def test_formula_helpers_take_int_and_fraction_arguments(m):
    for x, y, z in product(_MIXED_ARGUMENTS, repeat=3):
        x_, y_, z_ = Fraction(x), Fraction(y), Fraction(z)
        c2t = curve_self_intersection(m, x, y)
        assert type(c2t) is Fraction and c2t == -2 + y_ - (m - 1) * x_
        value = surface_exclusion_value(m, x, y, z)
        assert type(value) is Fraction and value == m * x_ - 2 * y_ + z_


def test_formula_helpers_reject_nonpositive_multiplier():
    with pytest.raises(ValueError, match="multiplier must be >= 1, got 0"):
        curve_self_intersection(0, Fraction(1, 5), 0)
    with pytest.raises(ValueError, match="multiplier must be >= 1, got -1"):
        surface_exclusion_value(-1, 1, Fraction(1, 5), -2)


def test_surface_exclusion_value_examples():
    assert surface_exclusion_value(
        4, Fraction(13, 60), Fraction(1, 5), Fraction(-9, 5)
    ) == Fraction(-4, 3)
    # Exact zero at the boundary: m*cap - 2*deg + c2t = 0.
    assert surface_exclusion_value(1, Fraction(4), Fraction(1), Fraction(-2)) == 0


def test_two_curve_certificate_flags(db):
    # With m = 1 the pencil gives deg C + deg C' = A^3 exactly, and the
    # degree comparison is strict: equality is a boundary, not a certificate.
    for family, deg_c, deg_c_prime in ((1, 1, 3), (2, Fraction(1, 2), 2)):
        f = db.get(family)
        cert = certify_row(f, C.parse_surface_row(f"{family}\t0,1,2\t\t42\t1"))
        assert (cert.deg_c, cert.deg_c_prime) == (deg_c, deg_c_prime)
        assert cert.degree_sum == cert.a_cube == f.a_cube
        assert cert.forces_alpha_one is True       # companion self-intersection < 0
        assert cert.degree_contradiction is False  # deg C + deg C' is not > A^3
        assert cert.valid is False
        assert cert.boundary is True

        good = certify_row(f, C.parse_surface_row(f"{family}\t0,1,2\t\t42\t2"))
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
    cert = certify_row(db.get(20), row)
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
    cert = certify_row(db.get(29), row)
    assert cert.deg_c == Fraction(1, 5)
    assert cert.c2t == Fraction(-7, 5)
    assert cert.exclusion_value is None
    assert cert.deg_c_prime == Fraction(1, 5)  # 2 * cap - deg = 2/5 - 1/5
    assert cert.c_prime_sq == Fraction(-7, 5)
    assert cert.forces_alpha_one and cert.degree_contradiction
    assert cert.valid


def test_certify_row_boundary_value_is_invalid(db):
    row = C.parse_surface_row("1\t0,1,2\t\t41\t1")
    cert = certify_row(db.get(1), row)
    assert cert.exclusion_value == 0
    assert cert.valid is False
    assert cert.boundary is True


def test_certify_row_positive_value_is_invalid(db):
    row = C.parse_surface_row("1\t0,1,2\t\t41\t3")
    cert = certify_row(db.get(1), row)
    assert cert.exclusion_value == 6
    assert cert.valid is False and cert.boundary is False


def test_certify_row_rejects_wrong_family_record(db):
    row = C.parse_surface_row("1\t0,1,2\t\t41\t1")
    with pytest.raises(RowError, match="applied to family record 2"):
        certify_row(db.get(2), row)


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
    cert = certify_row(db.get(row.family), row)
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
        return field, value, f"{value.numerator}/{value.denominator}"

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
        cert = certify_row(f, row)
        got = {name: getattr(cert, name) for name in expected}
        assert got == expected, (f.number, sorted(vanishing), method, m)
        for name, value, text in cert.quantities:
            assert type(value) is Fraction, (f.number, name)
            assert text == format_rational(value), (f.number, name)
        assert cert.degree_sum is None or type(cert.degree_sum) is Fraction
        for name in ("forces_alpha_one", "degree_contradiction", "valid", "boundary"):
            value = getattr(cert, name)
            assert value is None or type(value) is bool, (f.number, name)
        certified += 1
        nonpositive += method is Method.M42 and cert.deg_c_prime <= 0
    assert certified == 95 * 10 * 2 * 8
    assert nonpositive == 2031


def test_certify_row_agrees_with_stratum_curve(db):
    # certify_row reads the stratum's weights without building a StratumCurve;
    # both must derive the same curve from the weights.
    for f, vanishing in product(db, combinations(range(5), 3)):
        curve = StratumCurve.from_vanishing(f.weights, vanishing)
        for method in Method:
            cert = certify_row(f, SurfaceRow(f.number, vanishing, (), method, 2))
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
        cold.append(certify_row(db.get(row.family), row))
    wps._stratum.cache_clear()
    warm = [certify_row(db.get(row.family), row) for row in table]
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
    # Each quantity is stored once, in ``quantities``: no slot holds it again,
    # its accessor returns the stored value itself, and the accessor of the
    # other method's quantity is None.  The degree sum is read from cap_check.
    names = set().union(*_METHOD_QUANTITIES.values())
    slots = set(C.SurfaceCertificate.__slots__)
    assert len(slots) == 9 and not (names | {"degree_sum"}) & slots
    methods = set()
    for cert in verify_surface_table(db, load_surface_rows(wide_tables[11])).certificates:
        method = cert.row.method
        methods.add(method)
        stored = {field: value for field, value, _ in cert.quantities}
        assert tuple(stored) == _METHOD_QUANTITIES[method], cert.row
        assert not slots & set(stored)
        for name in names:
            assert getattr(cert, name) is stored.get(name), (cert.row, name)
        f = db.get(cert.family)
        if method is Method.M41:
            assert cert.cap_check is cert.degree_sum is None
        else:
            total = cert.row.m * f.a_cube
            assert cert.cap_check == (total, format_rational(total), format_rational(f.a_cube))
            assert cert.degree_sum is cert.cap_check[0]
        for name in names | {"degree_sum"}:
            with pytest.raises(AttributeError):
                setattr(cert, name, None)
    assert methods == set(Method)


def test_family_record_carries_its_degree_cap_text(db):
    # A³ is printed once per family, when the record is built, from a_cube
    # itself: a text that is not a_cube's is refused, so no view can print it.
    for f in db:
        assert f.a_cube_text == format_rational(f.a_cube)
    f = db.get(20)
    assert FamilyRecord(20, 13, f.weights, f.a_cube) == f
    assert FamilyRecord(20, 13, f.weights, f.a_cube, "13/60") == f
    assert copy.copy(f) == pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(ValueError, match="a_cube_text must be '13/60'"):
        FamilyRecord(20, 13, f.weights, Fraction(13, 60), "1/2")
    with pytest.raises(ValueError):
        FamilyRecord(number=20, d=13, weights=f.weights, a_cube=f.a_cube, a_cube_text="13/61")


@pytest.mark.parametrize("seed", [None, 3, 11], ids=["packaged", "wide-3", "wide-11"])
def test_certificate_quantities_are_exact(db, rows, wide_tables, seed):
    # Each quantity carries the text every view prints, written once.
    table = rows if seed is None else load_surface_rows(wide_tables[seed])
    for cert in verify_surface_table(db, table).certificates:
        assert type(cert.a_cube) is Fraction
        for field, value, text in cert.quantities:
            assert type(value) is Fraction, (cert.family, field, value)
            assert text == format_rational(value), (cert.family, field, text)


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
        comparisons = extension_check(db.get(number))
        assert len(comparisons) == 5
        # every non-strict entry must name its fallback assumption
        for entry in comparisons:
            if not entry.contradiction:
                assert entry.note


def test_extension_check_family_18_values(db):
    comparisons = extension_check(db.get(18))
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
    comparisons = extension_check(db.get(19))
    assert [e.relation for e in comparisons] == ["=", ">", ">", "=", ">"]


def test_extension_check_rejects_non_failing_family(db):
    with pytest.raises(ValueError, match="status is strong_a"):
        extension_check(db.get(40))
