"""Case classification, bound verdicts, list membership, and contracted-curve
certificates."""

from fractions import Fraction
from math import gcd

import pytest

from fano95 import (
    BoundStatus,
    CaseTag,
    ContractedReason,
    DivisibilityViolation,
    GOLDEN_LISTS,
    SharedFactorPreconditionError,
    classify_case,
    contracted_divisibility_certificate,
    derived_lists,
    coordinate_point_on_hypersurface,
    expected_fail_tags,
    extension_check,
    family_verdict,
    shared_factor_check,
    tangent_indices,
)
from fano95.lemmas import family_verdicts

CASE3_FAMILIES = (1, 2, 3, 4, 5, 6, 8, 10, 14)


# ---------------------------------------------------------------------------
# Case partition


def test_classify_case_covers_all_families(db):
    parts = {tag: [] for tag in CaseTag}
    for f in db:
        parts[classify_case(f)].append(f.number)
    assert len(parts[CaseTag.CASE1]) == 54
    assert len(parts[CaseTag.CASE2]) == 32
    assert tuple(parts[CaseTag.CASE3]) == CASE3_FAMILIES
    combined = sorted(parts[CaseTag.CASE1] + parts[CaseTag.CASE2] + parts[CaseTag.CASE3])
    assert combined == list(range(1, 96))


@pytest.mark.parametrize(
    "number, tag",
    [(1, CaseTag.CASE3), (7, CaseTag.CASE2), (18, CaseTag.CASE1), (95, CaseTag.CASE1)],
)
def test_classify_case_examples(db, number, tag):
    assert classify_case(db.get(number)) is tag


# ---------------------------------------------------------------------------
# Case-1 residual bound


@pytest.mark.parametrize(
    "number, status",
    [
        (40, BoundStatus.STRONG_A),  # d=19 < a1*a4=21
        (95, BoundStatus.STRONG_A),  # d=66 < a1*a4=165
        (23, BoundStatus.WEAK_B),    # 10 <= 14 < 15
        (89, BoundStatus.WEAK_B),    # 42 <= 42 < 105... a1*a4=42, a2*a4=105
        (18, BoundStatus.FAILS),     # d=12 >= a2*a4=10
        (28, BoundStatus.FAILS),     # d=15 >= a2*a4=15
    ],
)
def test_case1_verdict_examples(db, number, status):
    assert family_verdict(db.get(number)).residual is status


# ---------------------------------------------------------------------------
# Shared-factor check


def test_shared_factor_values(db):
    def h(n):
        return gcd(*db.get(n).weights[1:3])

    c18 = shared_factor_check(db.get(18))
    assert (h(18), c18.lhs, c18.rhs) == (2, Fraction(1, 6), Fraction(1, 5))
    assert c18.contradiction is False and c18.relation == "<"

    c43 = shared_factor_check(db.get(43))
    assert (h(43), c43.lhs, c43.rhs) == (2, Fraction(1, 10), Fraction(1, 18))
    assert c43.contradiction is True

    for n in (22, 28):
        c = shared_factor_check(db.get(n))
        assert c.relation == "=" and c.contradiction is False


def test_shared_factor_strict_on_remaining_families(db):
    for n in (52, 59, 69, 73, 81):
        c = shared_factor_check(db.get(n))
        assert c.contradiction is True and c.relation == ">"


def test_shared_factor_requires_common_divisor(db):
    with pytest.raises(SharedFactorPreconditionError):
        shared_factor_check(db.get(40))  # weights 3,4: coprime


# ---------------------------------------------------------------------------
# Case-2 and Case-3 bounds


def test_case2_verdict_and_exceptions(db):
    assert family_verdict(db.get(20)).residual is True   # d=13 < a2*a4=15
    assert family_verdict(db.get(7)).residual is False   # d=8 >= a2*a4=6


def test_case3_integer_filter(db):
    expected = {1: False, 2: False, 3: False, 4: False, 5: False, 6: False,
                8: True, 10: True, 14: True}
    for n, holds in expected.items():
        assert family_verdict(db.get(n)).residual is holds, n


# ---------------------------------------------------------------------------
# Contracted curves


def test_contracted_verdict_reasons(db):
    f3 = db.get(3)  # d=6 divisible by a4=3
    assert family_verdict(f3).contracted is ContractedReason.NO_CONTRACTED_CURVES
    assert coordinate_point_on_hypersurface(f3.d, f3.weights, 4) is False

    f47 = db.get(47)  # point on X but d=21 < a1*a2*a3 = 1*5*7
    assert coordinate_point_on_hypersurface(f47.d, f47.weights, 4) is True
    assert family_verdict(f47).contracted is ContractedReason.DEGREE_BOUND

    assert family_verdict(db.get(2)).contracted is None


def test_tangent_indices_examples(db):
    assert tangent_indices(db.get(2)) == (0, 1, 2, 3)   # all weights 1
    assert tangent_indices(db.get(18)) == (1, 2)        # weight-2 coordinates
    assert tangent_indices(db.get(20)) == (2,)          # 3 + 2*5 = 13
    assert tangent_indices(db.get(46)) == (0, 1)


def test_unsafe_families_admit_a_tangent_index(db):
    # The contracting equation shape x_j*x4^2 + ... requires some a_j = d - 2*a4.
    for n in derived_lists(db)["contracted_unsafe"]:
        assert tangent_indices(db.get(n)), n


def test_divisibility_certificates_hold_for_all_unsafe_tangents(db):
    for n in derived_lists(db)["contracted_unsafe"]:
        f = db.get(n)
        for j in tangent_indices(f):
            witnesses = contracted_divisibility_certificate(f, j)
            reduced = [f.weights[i] for i in range(4) if i != j and f.weights[i] > 1]
            assert [w for w, _ in witnesses] == reduced, (n, j)
            d_minus_a4 = f.d - f.weights[4]
            for w, divisor in witnesses:
                # d - a4 is the witness whenever the weight divides it
                assert divisor == (d_minus_a4 if d_minus_a4 % w == 0 else f.d), (n, j)
                assert divisor % w == 0, (n, j)


def test_divisibility_certificate_witness_values(db):
    # family 20, d = 13, a4 = 5: the one reduced weight 4 divides 8 = 13 - 5
    assert contracted_divisibility_certificate(db.get(20), 2) == ((4, 8),)


def test_divisibility_certificate_rejects_bad_tangent_index(db):
    f = db.get(20)
    with pytest.raises(ValueError, match="not a valid tangent index"):
        contracted_divisibility_certificate(f, 0)  # 1 + 10 != 13
    with pytest.raises(ValueError):
        contracted_divisibility_certificate(f, 4)


@pytest.mark.parametrize("index", [True, 2.0, "1"], ids=["bool", "float", "str"])
def test_divisibility_certificate_refuses_a_non_integer_index(db, index):
    # True would answer for index 1, and a float would fail inside tuple indexing.
    with pytest.raises(TypeError, match=f"tangent index must be an integer, got {index!r}"):
        contracted_divisibility_certificate(db.get(2), index)


def test_divisibility_violation_raised_loudly():
    from fano95 import FamilyRecord, Weights

    f = FamilyRecord(number=13, d=11, weights=Weights((1, 1, 2, 3, 5)))
    # j=0: 1 + 10 = 11 = d; reduced weights 2 and 3 both divide d - a4 = 6.
    assert contracted_divisibility_certificate(f, 0) == ((2, 6), (3, 6))
    # Synthetic system outside the real table: weights (1,1,3,5,8), d=17,
    # j=0 is tangent (1 + 16 = 17) but 5 divides neither d - a4 = 9 nor d = 17.
    bad = FamilyRecord(number=24, d=17, weights=Weights((1, 1, 3, 5, 8)))
    with pytest.raises(DivisibilityViolation, match="weight 5"):
        contracted_divisibility_certificate(bad, 0)


# ---------------------------------------------------------------------------
# List membership


@pytest.mark.parametrize(
    "number, lists",
    [
        (1, set()),
        (7, {"pencil_exceptions", "contracted_unsafe"}),
        (18, {"extension_required", "contracted_unsafe", "shared_factor"}),
        (43, {"weak_bound", "shared_factor"}),
    ],
)
def test_family_lists_examples(db, number, lists):
    assert family_verdict(db.get(number)).lists == frozenset(lists)


def test_family_verdict_fields_are_the_public_verdicts(db):
    # The reference is written from the weights with README's coarse bounds.
    verdicts = family_verdicts(db)
    assert len(verdicts) == 95 and family_verdicts(db) is verdicts
    for f, v in zip(db, verdicts):
        _, a1, a2, a3, a4 = f.weights
        d = f.d
        if a1 > 1:
            case = CaseTag.CASE1
            residual = (BoundStatus.STRONG_A if d < a1 * a4 else
                        BoundStatus.WEAK_B if d < a2 * a4 else BoundStatus.FAILS)
        elif a2 > 1:
            case, residual = CaseTag.CASE2, d < a2 * a4
        else:
            case, residual = CaseTag.CASE3, Fraction(d, a1 * a2 * a3 * a4) < 1
        if d % a4 == 0:
            contracted = ContractedReason.NO_CONTRACTED_CURVES
        elif d < a1 * a2 * a3:
            contracted = ContractedReason.DEGREE_BOUND
        else:
            contracted = None
        assert v == family_verdict(f)
        assert v.case is case is classify_case(f), f.number
        assert v.residual is residual, f.number
        assert v.contracted is contracted, f.number
        assert v.lists == {name for name, members in GOLDEN_LISTS.items()
                           if f.number in members}
        assert v.fail_tags == expected_fail_tags(f)


def test_fail_tags_and_extension_set_follow_the_derived_lists(db):
    derived = derived_lists(db)
    for f in db:
        expected = set()
        if f.number in derived["pencil_exceptions"]:
            expected.add("residual")
        if f.number in derived["contracted_unsafe"]:
            expected.add("contracted")
        assert expected_fail_tags(f) == expected, f.number
    extended = []
    for f in db:
        try:
            extension_check(f)
        except ValueError:
            continue
        extended.append(f.number)
    assert tuple(extended) == derived["extension_required"]
