"""Weighted-projective-space primitives: weights, stratum curves, degrees."""

from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from fano95 import wps
from fano95 import (
    FamilyNotFoundError,
    FamilyRecord,
    Method,
    StratumCurve,
    SurfaceRow,
    ValidationError,
    Weights,
    anticanonical_cube,
    coordinate_point_on_hypersurface,
    format_rational,
)


# ---------------------------------------------------------------------------
# Weights


def test_weights_accepts_valid_tuple():
    w = Weights((1, 2, 3, 4, 9))
    assert w == (1, 2, 3, 4, 9) and isinstance(w, tuple)
    assert len(w) == 5
    assert w[0] == 1 and w[4] == 9
    assert tuple(w) == (1, 2, 3, 4, 9)
    assert w[1:] == (2, 3, 4, 9)
    assert w.tail_product == 2 * 3 * 4 * 9


def refusal(exc_type, weights) -> str:
    """The message of the exception of exactly ``exc_type`` that Weights raises."""
    with pytest.raises(exc_type) as info:
        Weights(weights)
    assert type(info.value) is exc_type
    return str(info.value)


def test_weights_requires_five_entries():
    assert refusal(ValueError, (1, 2, 3, 4)) == "need exactly five weights, got 4: (1, 2, 3, 4)"


def test_weights_requires_leading_one():
    assert refusal(ValueError, (2, 2, 3, 4, 9)) == "first weight must be 1, got 2"


def test_weights_requires_ascending_order():
    assert refusal(ValueError, (1, 3, 2, 4, 9)) == "weights must be ascending: (1, 3, 2, 4, 9)"


def test_weights_allows_repeats():
    w = Weights((1, 1, 1, 1, 1))
    assert w.tail_product == 1


def test_weights_requires_positive_entries():
    assert refusal(ValueError, (1, 0, 2, 3, 4)) == (
        "weights must be positive integers: (1, 0, 2, 3, 4)"
    )


@pytest.mark.parametrize("bad", [2.9, True], ids=["float", "bool"])
def test_weights_rejects_non_integer_entries(bad):
    # 2.9 used to be truncated to 2 and True read as 1
    assert refusal(TypeError, (1, bad, 3, 5, 7)) == f"weight must be an integer, got {bad!r}"


def test_weights_rejects_three_way_common_factor():
    # (2, 4, 6) share the factor 2, so this system is not well-formed.
    assert refusal(ValueError, (1, 2, 4, 6, 11)) == (
        "weights (1, 2, 4, 6, 11) are not well-formed: (2, 4, 6) share the common factor 2"
    )


@pytest.mark.parametrize(
    "weights, exc_type, message",
    [
        ((1, 0, "2"), TypeError, "weight must be an integer, got '2'"),
        ((0, 1, 2), ValueError, "need exactly five weights, got 3: (0, 1, 2)"),
        ((0, 1, 2, 3, 4), ValueError, "weights must be positive integers: (0, 1, 2, 3, 4)"),
        ((2, 1, 1, 1, 1), ValueError, "first weight must be 1, got 2"),
        ((1, 4, 2, 6, 11), ValueError, "weights must be ascending: (1, 4, 2, 6, 11)"),
        ((1, 6, 10, 15, 30), ValueError,
         "weights (1, 6, 10, 15, 30) are not well-formed: (6, 10, 30) share the common factor 2"),
    ],
    ids=["type", "length", "positive", "leading", "ascending", "first-triple"],
)
def test_weights_refusals_keep_their_order(weights, exc_type, message):
    # Each input breaks a later rule too, so only the order of the checks
    # decides which is reported; among the triples the first one is named.
    assert refusal(exc_type, weights) == message


def test_weights_accepts_pairwise_common_factors():
    # Any two weights may share a factor as long as no three do.
    Weights((1, 2, 2, 3, 5))
    Weights((1, 5, 6, 22, 33))


def test_weights_is_hashable_and_frozen():
    w = Weights((1, 1, 2, 3, 5))
    assert hash(w) == hash(Weights((1, 1, 2, 3, 5)))
    with pytest.raises(AttributeError):
        w.a = (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Anticanonical degree


@pytest.mark.parametrize(
    "d, weights, expected",
    [
        (4, (1, 1, 1, 1, 1), Fraction(4)),
        (6, (1, 1, 1, 1, 3), Fraction(2)),
        (13, (1, 1, 3, 4, 5), Fraction(13, 60)),
        (66, (1, 5, 6, 22, 33), Fraction(1, 330)),
    ],
)
def test_anticanonical_cube_values(d, weights, expected):
    assert anticanonical_cube(d, Weights(weights)) == expected


def test_anticanonical_cube_is_homogeneous_in_degree():
    w = Weights((1, 2, 3, 4, 9))
    base = anticanonical_cube(18, w)
    assert anticanonical_cube(36, w) == 2 * base
    assert anticanonical_cube(54, w) == 3 * base


def test_anticanonical_cube_rejects_nonpositive_degree():
    w = Weights((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        anticanonical_cube(0, w)
    with pytest.raises(ValueError):
        anticanonical_cube(-4, w)


# ---------------------------------------------------------------------------
# Stratum curves


def test_stratum_curve_from_vanishing():
    w = Weights((1, 1, 3, 4, 5))
    c = StratumCurve.from_vanishing(w, (0, 2, 3))
    assert c.vanishing == frozenset({0, 2, 3})
    assert c.surviving_weights == (1, 5)
    assert c.degree == Fraction(1, 5)


def test_stratum_curve_surviving_weights_ascending():
    w = Weights((1, 2, 2, 3, 5))
    c = StratumCurve.from_vanishing(w, (4, 0, 2))
    assert c.surviving_weights == (2, 3)
    assert c.degree == Fraction(1, 6)


def test_stratum_degree_takes_the_weights_in_either_order():
    # The constructor does not sort surviving_weights; the degree must not care.
    assert StratumCurve((0, 2, 3), (5, 1)).degree == Fraction(1, 5)
    assert StratumCurve((0, 2, 3), (5, 2)).degree == Fraction(1, 10)


@pytest.mark.parametrize(
    "weights, error",
    [((0, 5), ValueError), ((-2, 5), ValueError), ((2.0, 5), TypeError),
     ((2, 3, 5), ValueError)],
    ids=["zero", "negative", "float", "three"],
)
def test_stratum_curve_refuses_bad_surviving_weights(weights, error):
    # Two integer weights >= 1, else deg C = 1/(w1*w2) is no curve degree.
    with pytest.raises(error):
        StratumCurve((0, 2, 3), weights)


def test_stratum_curve_requires_three_distinct_indices():
    w = Weights((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        StratumCurve.from_vanishing(w, (0, 1))
    with pytest.raises(ValueError):
        StratumCurve.from_vanishing(w, (0, 1, 1))
    with pytest.raises(ValueError):
        StratumCurve.from_vanishing(w, (0, 1, 5))


@pytest.mark.parametrize(
    "vanishing", [{0.0, 2, 3}, {False, 2, 3}], ids=["index-float", "index-bool"]
)
def test_stratum_curve_rejects_non_integers(vanishing):
    # A float weight never reaches a stratum: Weights refuses it.
    with pytest.raises(TypeError, match="must be an integer"):
        StratumCurve.from_vanishing(Weights((1, 1, 3, 4, 5)), vanishing)


@pytest.mark.parametrize(
    "vanishing, shown",
    [
        ((0, 1), [0, 1]),
        ((0, 1, 1), [0, 1, 1]),
        ((2, 3, 3, 4), [2, 3, 3, 4]),
        ((0, 2, 2, 3), [0, 2, 2, 3]),
        ((0, 1, 5), [0, 1, 5]),
        ((-1, 2, 3), [-1, 2, 3]),
    ],
    ids=["count", "repeated", "repeated-of-four", "repeated-of-four-from-0",
         "out-of-range", "negative"],
)
def test_surface_row_and_stratum_share_the_vanishing_rule(vanishing, shown):
    # The entries are counted as given: a repeat is refused even when the
    # distinct indices would make a valid set.
    message = f"vanishing set must be 3 distinct indices in 0..4, got {shown}"
    with pytest.raises(ValueError) as row_error:
        SurfaceRow(
            family=20, vanishing=vanishing, fails=frozenset(), method=Method.M41, m=1
        )
    with pytest.raises(ValueError) as curve_error:
        StratumCurve(vanishing, (1, 5))
    with pytest.raises(ValueError) as stratum_error:
        StratumCurve.from_vanishing(Weights((1, 1, 3, 4, 5)), vanishing)
    assert str(row_error.value) == str(curve_error.value) == message
    assert str(stratum_error.value) == message


def test_vanishing_and_fails_are_stored_as_frozensets():
    common = dict(family=20, method=Method.M41, m=3)
    from_tuple = SurfaceRow(vanishing=(2, 3, 4), fails=["contracted"], **common)
    from_sets = SurfaceRow(
        vanishing=frozenset({2, 3, 4}), fails=frozenset({"contracted"}), **common
    )
    assert from_tuple == from_sets and hash(from_tuple) == hash(from_sets)
    assert type(from_tuple.vanishing) is type(from_tuple.fails) is frozenset
    curve = StratumCurve((0, 2, 3), (1, 5))
    assert curve == StratumCurve(frozenset({0, 2, 3}), (1, 5))
    assert hash(curve) == hash(StratumCurve(frozenset({0, 2, 3}), (1, 5)))
    assert type(curve.vanishing) is frozenset
    message = "vanishing set must be 3 distinct indices in 0..4, got [0, 1, 1]"
    with pytest.raises(ValueError) as row_error:
        SurfaceRow(vanishing=(0, 1, 1), fails=(), **common)
    with pytest.raises(ValueError) as curve_error:
        StratumCurve((0, 1, 1), (3, 4))
    assert str(row_error.value) == str(curve_error.value) == message


def _vanishing_candidates():
    """Every tuple over -1..5 of length 0..4."""
    values = range(-1, 6)
    return [()] + [t for n in range(1, 5) for t in product(values, repeat=n)]


def test_check_vanishing_accepts_exactly_the_readme_rule():
    # Written from the README's rule, not from the lookup table: exactly
    # three distinct integer indices in 0..4, counted as given.
    for entries in _vanishing_candidates():
        for given in (entries, list(entries), iter(entries), set(entries)):
            counted = tuple(given) if isinstance(given, set) else entries
            if len(counted) == 3 == len(set(counted)) and set(counted) <= set(range(5)):
                got = wps._check_vanishing(given)
                assert type(got) is frozenset and got == frozenset(entries), entries
            else:
                with pytest.raises(ValueError) as caught:
                    wps._check_vanishing(given)
                assert str(caught.value) == (
                    f"vanishing set must be 3 distinct indices in 0..4, got {sorted(counted)}")


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1", None, Fraction(1)],
                         ids=repr)
def test_check_vanishing_refuses_a_non_integer_index_anywhere(bad):
    # True and 1.0 hash like 1, so they must be refused before any lookup.
    for entries in ((0, 1, 2), (2, 3, 4), (0, 2)):
        for position in range(len(entries)):
            given = list(entries)
            given[position] = bad
            for form in (given, tuple(given), iter(given)):
                with pytest.raises(TypeError) as caught:
                    wps._check_vanishing(form)
                assert str(caught.value) == f"vanishing index must be an integer, got {bad!r}"


def test_stratum_degree_at_most_one_with_equality_iff_unit_weights():
    unit = StratumCurve.from_vanishing(Weights((1, 1, 1, 3, 4)), (2, 3, 4))
    assert unit.degree == 1
    mixed = StratumCurve.from_vanishing(Weights((1, 1, 1, 3, 4)), (0, 1, 2))
    assert mixed.degree == Fraction(1, 12)
    assert mixed.degree < 1


# ---------------------------------------------------------------------------
# Coordinate points


def test_coordinate_point_membership():
    w = Weights((1, 1, 3, 4, 5))
    # d = 13: the last three weights do not divide 13, so those points lie on
    # a general hypersurface; the weight-1 coordinates never do.
    assert coordinate_point_on_hypersurface(13, w, 4) is True
    assert coordinate_point_on_hypersurface(13, w, 3) is True
    assert coordinate_point_on_hypersurface(13, w, 0) is False
    w3 = Weights((1, 1, 1, 1, 3))
    assert coordinate_point_on_hypersurface(6, w3, 4) is False


def test_coordinate_point_index_zero_always_false():
    for d, weights in [(4, (1, 1, 1, 1, 1)), (66, (1, 5, 6, 22, 33))]:
        assert coordinate_point_on_hypersurface(d, Weights(weights), 0) is False


def test_coordinate_point_rejects_bad_index():
    w = Weights((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        coordinate_point_on_hypersurface(4, w, 5)
    with pytest.raises(ValueError):
        coordinate_point_on_hypersurface(4, w, -1)


@pytest.mark.parametrize("index", [True, 2.0, "1"], ids=["bool", "float", "str"])
def test_coordinate_point_refuses_a_non_integer_index(index):
    # True would answer for coordinate 1, and a float would fail inside tuple indexing.
    w = Weights((1, 1, 3, 4, 5))
    with pytest.raises(TypeError, match=f"coordinate index must be an integer, got {index!r}"):
        coordinate_point_on_hypersurface(13, w, index)


# ---------------------------------------------------------------------------
# Rational formatting


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(4), "4/1"),
        (Fraction(-1), "-1/1"),
        (Fraction(13, 60), "13/60"),
        (Fraction(-9, 5), "-9/5"),
        (0, "0/1"),
    ],
)
def test_format_rational_always_carries_denominator(value, text):
    assert format_rational(value) == text


def test_format_rational_keeps_large_terms_exact():
    n, d = 3**100 + 2, 2**80 * 5**3  # coprime
    assert format_rational(Fraction(n, d)) == f"{n}/{d}"
    assert format_rational(Fraction(-n, d)) == f"-{n}/{d}"
    assert format_rational(-(10**40)) == "-1" + "0" * 40 + "/1"


@pytest.mark.parametrize(
    "num, den, text",
    [
        (0, 1, "0/1"),
        (0, 7, "0/1"),
        (4, 1, "4/1"),
        (12, 3, "4/1"),
        (-9, 5, "-9/5"),
        (-18, 10, "-9/5"),
        (26, 120, "13/60"),
        (3**100 + 2, 2**80 * 5**3, f"{3**100 + 2}/{2**80 * 5**3}"),
    ],
    ids=["zero", "zero-unreduced", "whole", "whole-unreduced", "negative",
         "negative-unreduced", "unreduced", "large"],
)
def test_ratio_text_writes_what_format_rational_writes(num, den, text):
    # A certificate quantity's text is written from its integers, with no
    # Fraction built: lowest terms, the sign on the numerator, "n/1" for n.
    assert wps._ratio_text(num, den) == text == format_rational(Fraction(num, den))


def test_ratio_text_refuses_a_value_too_long_to_print(digit_limit):
    # The same ValueError as format_rational's, which SurfaceCertificate maps
    # to a RowError naming the row.
    big = 10**digit_limit + 1
    for num, den in ((big, 1), (1, big), (-big, 3)):
        with pytest.raises(ValueError):
            format_rational(Fraction(num, den))
        with pytest.raises(ValueError):
            wps._ratio_text(num, den)


@pytest.mark.parametrize(
    "value", [0.5, Decimal("0.5"), "1/2", True], ids=["float", "decimal", "str", "bool"]
)
def test_format_rational_refuses_non_rationals(value):
    # "%d" would print a float or a Decimal truncated; only exact rationals pass.
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        format_rational(value)


# ---------------------------------------------------------------------------
# Error messages echoing an integer too long to print

BIG = 10**5000  # over the default 4,300 digits str() will print
W20 = Weights((1, 1, 3, 4, 5))


@pytest.mark.parametrize("build, error, message", [
    (lambda db: FamilyRecord(BIG, 13, W20), ValidationError,
     "family <an integer of 16610 bits>: family number must lie in 1..95"),
    (lambda db: FamilyRecord(20, BIG, W20), ValidationError,
     "family 20: d = <an integer of 16610 bits> but a1\\+a2\\+a3\\+a4 = 13"),
    (lambda db: db.get(BIG), FamilyNotFoundError,
     "no family numbered <an integer of 16610 bits>; valid numbers are 1..95"),
    (lambda db: SurfaceRow(BIG, (0, 1, 2), (), Method.M41, 1), ValueError,
     "family number must lie in 1..95, got <an integer of 16610 bits>"),
    (lambda db: SurfaceRow(20, (0, 1, BIG), (), Method.M41, 1), ValueError,
     "vanishing set must be 3 distinct indices in 0..4, got <a list holding an integer"),
    (lambda db: SurfaceRow(20, (0, 1, 2), (), Method.M41, -BIG), ValueError,
     "surface-system multiplier must be >= 1, got <a negative integer of 16610 bits>"),
    (lambda db: Weights((1, -BIG, 3, 4, 5)), ValueError,
     "weights must be positive integers: <a tuple holding an integer"),
], ids=["record-number", "record-degree", "database-get", "row-family", "row-vanishing",
        "row-multiplier", "weights"])
def test_error_naming_the_check_survives_an_integer_too_long_to_print(db, build, error,
                                                                        message):
    # str() refuses an int over sys.get_int_max_str_digits() digits with its own
    # ValueError, which must not replace the error that names the failed check.
    with pytest.raises(error, match="^" + message) as caught:
        build(db)
    assert "Exceeds the limit" not in str(caught.value)
