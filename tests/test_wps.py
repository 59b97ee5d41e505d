"""Weighted-projective-space primitives: weights, stratum curves, degrees."""

from fractions import Fraction

import pytest

from fano95 import (
    Method,
    StratumCurve,
    SurfaceRow,
    Weights,
    anticanonical_cube,
    coordinate_point_on_hypersurface,
    format_rational,
    parse_rational,
)


# ---------------------------------------------------------------------------
# Weights


def test_weights_accepts_valid_tuple():
    w = Weights((1, 2, 3, 4, 9))
    assert w == (1, 2, 3, 4, 9) and isinstance(w, tuple)
    assert len(w) == 5
    assert w[0] == 1 and w[4] == 9
    assert tuple(w) == (1, 2, 3, 4, 9)
    assert w.tail == (2, 3, 4, 9)
    assert w.tail_product == 2 * 3 * 4 * 9


def test_weights_requires_five_entries():
    with pytest.raises(ValueError):
        Weights((1, 2, 3, 4))


def test_weights_requires_leading_one():
    with pytest.raises(ValueError):
        Weights((2, 2, 3, 4, 9))


def test_weights_requires_ascending_order():
    with pytest.raises(ValueError):
        Weights((1, 3, 2, 4, 9))


def test_weights_allows_repeats():
    w = Weights((1, 1, 1, 1, 1))
    assert w.tail_product == 1


def test_weights_requires_positive_entries():
    with pytest.raises(ValueError):
        Weights((1, 0, 2, 3, 4))


@pytest.mark.parametrize("bad", [2.9, True], ids=["float", "bool"])
def test_weights_rejects_non_integer_entries(bad):
    # 2.9 used to be truncated to 2 and True read as 1
    with pytest.raises(TypeError, match="weight must be an integer"):
        Weights((1, bad, 3, 5, 7))


def test_weights_rejects_three_way_common_factor():
    # (2, 4, 6) share the factor 2, so this system is not well-formed.
    with pytest.raises(ValueError):
        Weights((1, 2, 4, 6, 11))


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
        ((0, 1, 1), [0, 1]),
        ((0, 1, 5), [0, 1, 5]),
        ((-1, 2, 3), [-1, 2, 3]),
    ],
    ids=["count", "repeated", "out-of-range", "negative"],
)
def test_surface_row_and_stratum_share_the_vanishing_rule(vanishing, shown):
    message = f"vanishing set must be 3 distinct indices in 0..4, got {shown}"
    with pytest.raises(ValueError) as row_error:
        SurfaceRow(
            family=20, vanishing=vanishing, fails=frozenset(), method=Method.M41, m=1
        )
    with pytest.raises(ValueError) as curve_error:
        StratumCurve.from_vanishing(Weights((1, 1, 3, 4, 5)), vanishing)
    assert str(row_error.value) == str(curve_error.value) == message


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
    message = "vanishing set must be 3 distinct indices in 0..4, got [0, 1]"
    with pytest.raises(ValueError) as row_error:
        SurfaceRow(vanishing=(0, 1, 1), fails=(), **common)
    with pytest.raises(ValueError) as curve_error:
        StratumCurve((0, 1, 1), (3, 4))
    assert str(row_error.value) == str(curve_error.value) == message


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


def test_parse_rational_round_trip():
    for q in (Fraction(4), Fraction(-7, 5), Fraction(0), Fraction(123, 456)):
        assert parse_rational(format_rational(q)) == q


def test_parse_rational_rejects_garbage():
    for bad in ("", "x", "1/0", "1.5"):
        with pytest.raises(ValueError):
            parse_rational(bad)
