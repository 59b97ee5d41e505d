"""Case classification, bound verdicts, list membership, and contracted-curve
certificates."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest

from fano95 import (
    BoundStatus,
    CaseTag,
    ContractedReason,
    FamilyRecord,
    GOLDEN_LISTS,
    Weights,
    classify_case,
    derived_lists,
    expected_fail_tags,
    family_verdict,
)

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
# Shared-factor comparison


def test_shared_factor_values(db):
    def h(n):
        return gcd(*db.get(n).weights[1:3])

    c18 = family_verdict(db.get(18)).shared_factor
    assert (h(18), c18.lhs, c18.rhs) == (2, Fraction(1, 6), Fraction(1, 5))
    assert c18.contradiction is False and c18.relation == "<"

    c43 = family_verdict(db.get(43)).shared_factor
    assert (h(43), c43.lhs, c43.rhs) == (2, Fraction(1, 10), Fraction(1, 18))
    assert c43.contradiction is True

    for n in (22, 28):
        c = family_verdict(db.get(n)).shared_factor
        assert c.relation == "=" and c.contradiction is False


def test_shared_factor_strict_on_remaining_families(db):
    for n in (52, 59, 69, 73, 81):
        c = family_verdict(db.get(n)).shared_factor
        assert c.contradiction is True and c.relation == ">"


def test_shared_factor_always_excludes_under_a_residual_bound():
    # Under the strong or weak bound d < a2*a4, and h = gcd(a1, a2) <= a1, so
    # d*h < a1*a2*a4: the fibre degree 1/(a3*h) exceeds A^3 = d/(a1*a2*a3*a4).
    # Every well-formed weight system with a4 <= 20 is checked, none sampled.
    well_formed = checked = 0
    for tail in combinations_with_replacement(range(1, 21), 4):
        if any(gcd(*triple) > 1 for triple in combinations(tail, 3)):
            continue
        well_formed += 1
        f = FamilyRecord(1, sum(tail), Weights((1, *tail)))
        verdict = family_verdict(f)
        if gcd(tail[0], tail[1]) > 1 and verdict.residual in (BoundStatus.STRONG_A,
                                                              BoundStatus.WEAK_B):
            assert verdict.shared_factor.contradiction, f.weights
            checked += 1
    assert (well_formed, checked) == (5018, 1005)


def test_verdict_comparisons_are_set_exactly_for_their_lists(db):
    # The shared-factor comparison exists exactly for the shared-factor list,
    # the double-projection ones exactly for the extension list, and every
    # comparison is against the family's cap A³.
    for f in db:
        v = family_verdict(f)
        shared = f.number in GOLDEN_LISTS["shared_factor"]
        extended = f.number in GOLDEN_LISTS["extension_required"]
        assert (v.shared_factor is not None) is shared, f.number
        assert len(v.extension_checks) == (5 if extended else 0), f.number
        comparisons = v.extension_checks + ((v.shared_factor,) if shared else ())
        assert all(c.rhs == f.a_cube for c in comparisons), f.number


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


def tangent_indices_of(f):
    """The tangent indices on the verdict of family f, in order."""
    return tuple(j for j, _ in family_verdict(f).tangents)


def test_contracted_verdict_reasons(db):
    v3 = family_verdict(db.get(3))  # d=6 divisible by a4=3
    assert v3.contracted is ContractedReason.NO_CONTRACTED_CURVES
    assert v3.tangents == ()

    v47 = family_verdict(db.get(47))  # point on X but d=21 < a1*a2*a3 = 1*5*7
    assert v47.contracted is ContractedReason.DEGREE_BOUND
    assert v47.tangents == ((2, ((3, 7, 21),)),)  # 5 + 2*8 = 21; 7 divides d only

    assert family_verdict(db.get(2)).contracted is None


def test_tangent_indices_examples(db):
    assert tangent_indices_of(db.get(2)) == (0, 1, 2, 3)  # all weights 1
    assert tangent_indices_of(db.get(18)) == (1, 2)       # weight-2 coordinates
    assert tangent_indices_of(db.get(20)) == (2,)         # 3 + 2*5 = 13
    assert tangent_indices_of(db.get(46)) == (0, 1)


def test_unsafe_families_admit_a_tangent_index(db):
    # The contracting equation shape x_j*x4^2 + ... requires some a_j = d - 2*a4.
    for n in derived_lists(db)["contracted_unsafe"]:
        assert tangent_indices_of(db.get(n)), n


def test_divisibility_certificates_hold_for_all_unsafe_tangents(db):
    for n in derived_lists(db)["contracted_unsafe"]:
        f = db.get(n)
        for j, witnesses in family_verdict(f).tangents:
            reduced = [(i, f.weights[i]) for i in range(4) if i != j and f.weights[i] > 1]
            assert [(i, w) for i, w, _ in witnesses] == reduced, (n, j)
            d_minus_a4 = f.d - f.weights[4]
            for _, w, divisor in witnesses:
                # d - a4 is the witness whenever the weight divides it
                assert divisor == (d_minus_a4 if d_minus_a4 % w == 0 else f.d), (n, j)
                assert divisor % w == 0, (n, j)


def test_divisibility_certificate_witness_values(db):
    # family 20, d = 13, a4 = 5: the one reduced weight 4 divides 8 = 13 - 5
    assert family_verdict(db.get(20)).tangents == ((2, ((3, 4, 8),)),)


def test_tangents_are_listed_exactly_where_the_last_point_lies_on_x(db):
    reasons = []
    for f in db:
        verdict, a = family_verdict(f), f.weights
        on_x = f.d % a[4] != 0
        expected = [j for j in range(4) if a[j] + 2 * a[4] == f.d] if on_x else []
        assert [j for j, _ in verdict.tangents] == expected, f.number
        assert bool(verdict.tangents) is on_x, f.number
        if verdict.contracted is ContractedReason.DEGREE_BOUND:
            assert len(verdict.tangents) == 1, f.number
        for j, witnesses in verdict.tangents:
            for i, w, divisor in witnesses:
                assert w == a[i] > 1 and i not in (j, 4), (f.number, j)
                assert divisor in (f.d - a[4], f.d) and divisor % w == 0, (f.number, j)
        if on_x:
            reasons.append(verdict.contracted)
    # 35 families have a4 ∤ d: 22 under the product bound, 13 contracted-unsafe.
    assert len(reasons) == 35
    assert reasons.count(ContractedReason.DEGREE_BOUND) == 22
    assert reasons.count(None) == 13


def test_divisibility_violation_is_recorded():
    f = FamilyRecord(number=13, d=11, weights=Weights((1, 1, 2, 3, 5)))
    # j=0, 1: 1 + 10 = 11 = d; reduced weights 2 and 3 both divide d - a4 = 6.
    assert family_verdict(f).tangents == ((0, ((2, 2, 6), (3, 3, 6))),
                                          (1, ((2, 2, 6), (3, 3, 6))))
    # Synthetic system outside the real table: weights (1,1,3,5,8), d=17,
    # j=0 is tangent (1 + 16 = 17) but 5 divides neither d - a4 = 9 nor d = 17:
    # it is recorded with no divisor, and ends the witnesses.
    bad = FamilyRecord(number=24, d=17, weights=Weights((1, 1, 3, 5, 8)))
    assert family_verdict(bad).tangents[0] == (0, ((2, 3, 9), (3, 5, None)))


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
    verdicts = db.verdicts
    assert len(verdicts) == 95 and db.verdicts is verdicts
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
    extended = tuple(f.number for f in db if family_verdict(f).extension_checks)
    assert extended == derived["extension_required"]
