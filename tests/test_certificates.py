"""Exclusion certificates: blow-up test classes, surface-method rows, extensions."""

import io
from fractions import Fraction
from itertools import combinations, product

import pytest

from fano95 import certificates as C
from fano95 import (
    CertificateError,
    Method,
    RowError,
    SurfaceRow,
    SurfaceRowParseError,
    case3_test_class_certificates,
    certify_row,
    curve_self_intersection,
    derived_lists,
    different_total,
    expected_fail_tags,
    extension_check,
    load_families,
    load_surface_rows,
    serialize_surface_rows,
    surface_exclusion_value,
    verify_surface_table,
)
from fano95.families import packaged_data_path

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


def test_test_class_value_validates_inputs():
    with pytest.raises(ValueError):
        C.test_class_value(0, Fraction(1), Fraction(1), 0)
    with pytest.raises(ValueError):
        C.test_class_value(2, Fraction(1), Fraction(0), 0)
    with pytest.raises(ValueError):
        C.test_class_value(2, Fraction(1), Fraction(1), -1)


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


def test_test_class_certificates_raise_when_not_negative(db):
    # Replace family 3's record with the degree-4 quartic system: the conic
    # certificate value becomes 6*4 - 14 - 2 = +8, which must abort loudly.
    text = packaged_data_path("families.tsv").read_text()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    lines[2] = "3\t4\t1\t1\t1\t1\t1"
    tampered = load_families(io.StringIO("\n".join(lines)))
    with pytest.raises(CertificateError, match="family 3"):
        case3_test_class_certificates(tampered)


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
    # Read as a set, "2,3,3,4" would silently become the stratum {2, 3, 4}.
    with pytest.raises(SurfaceRowParseError) as excinfo:
        C.parse_surface_row("20\t2,3,3,4\t\t41\t2", 1)
    assert str(excinfo.value) == (
        "line 1: vanishing field lists an index twice: '2,3,3,4'"
    )


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


def test_certify_row_rejects_nonpositive_companion_degree(db):
    row = C.parse_surface_row("8\t2,3,4\t\t42\t1")
    with pytest.raises(RowError, match="companion degree"):
        certify_row(db.get(8), row)


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
    chain = (("deg_c", deg), ("diff_total", diff), ("c2t", c2t))
    if method is Method.M41:
        value = m * cap - 2 * deg + c2t
        fields.update(exclusion_value=value, valid=value < 0, boundary=value == 0,
                      quantities=chain + (("exclusion_value", value),))
        return fields
    deg_prime = m * cap - deg
    sq_prime = Fraction(-2) + diff - (m - 1) * deg_prime
    total = deg + deg_prime
    fields.update(
        deg_c_prime=deg_prime, c_prime_sq=sq_prime, degree_sum=total,
        forces_alpha_one=sq_prime < 0, degree_contradiction=total > cap,
        valid=sq_prime < 0 and total > cap, boundary=sq_prime == 0 or total == cap,
        quantities=chain + (("deg_c_prime", deg_prime), ("c_prime_sq", sq_prime)),
    )
    return fields


def test_certify_row_matches_fraction_oracle_everywhere(db):
    # Every (family, stratum) pair, m in 1..8, both methods; method 42 needs a
    # positive companion degree m*A^3 - deg C and must refuse the rest.
    certified = 0
    for f, vanishing, method, m in product(
        db, map(frozenset, combinations(range(5), 3)), Method, range(1, 9)
    ):
        row = SurfaceRow(family=f.number, vanishing=vanishing, fails=frozenset(),
                         method=method, m=m)
        expected = _oracle(f, vanishing, method, m)
        if method is Method.M42 and expected["deg_c_prime"] <= 0:
            with pytest.raises(RowError, match="companion degree"):
                certify_row(f, row)
            continue
        cert = certify_row(f, row)
        got = {name: getattr(cert, name) for name in expected}
        assert got == expected, (f.number, sorted(vanishing), method, m)
        for name, value in (*cert.quantities, ("degree_sum", cert.degree_sum)):
            assert value is None or type(value) is Fraction, (f.number, name)
        for name in ("forces_alpha_one", "degree_contradiction", "valid", "boundary"):
            value = getattr(cert, name)
            assert value is None or type(value) is bool, (f.number, name)
        certified += 1
    assert certified == 13169


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
        (c.family, tuple(sorted(c.curve.vanishing)), c.row.m): c
        for c in verification.certificates
    }
    assert values[(7, (0, 2, 3), 2)].exclusion_value == Fraction(-1)
    assert values[(18, (1, 2, 3), 4)].exclusion_value == Fraction(-7, 5)
    assert values[(21, (0, 2, 4), 7)].exclusion_value is not None


@pytest.mark.parametrize("seed", [None, 11], ids=["packaged", "wide-11"])
def test_certificate_quantities_are_exact(db, rows, wide_tables, seed):
    table = rows if seed is None else load_surface_rows(wide_tables[seed])
    for cert in verify_surface_table(db, table).certificates:
        assert type(cert.a_cube) is Fraction
        for field, value in cert.quantities:
            assert type(value) is Fraction, (cert.family, field, value)


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
