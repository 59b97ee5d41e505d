"""Hypothesis classification for the coarse curve-exclusion bounds.

The families split into three cases by their smallest nontrivial weights:

* Case 1: a1 > 1,
* Case 2: a1 = 1 and a2 > 1,
* Case 3: a1 = a2 = 1.

For a curve C on a general hypersurface X, projection away from the largest-
weight coordinate either contracts C to a point or maps it to a curve; we call
the non-contracted classes *residual*.  Each case has a coarse inequality
under which every low-degree residual curve is excluded outright, and a
separate product bound handles the contracted classes.  This module evaluates
those inequalities exactly, decides each family's list membership from the
weights alone (never from stored lists), and emits the divisibility
certificates used when the projection genuinely contracts curves.

Each verdict returns only the fact it decides; the weights and degree it
compares stay on the family record the caller already holds:

* ``case1_verdict``: a ``BoundStatus``; ``case2_verdict`` and
  ``case3_integer_filter``: a bool;
* ``contracted_verdict``: a ``ContractedReason``, or None when neither
  dismissal applies;
* ``contracted_divisibility_certificate``: (weight, divisor) witness pairs;
* ``shared_factor_check``: a ``Comparison`` (``certificates.extension_check``
  returns a tuple of them).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd

from .families import FamilyRecord
from .wps import Record, coordinate_point_on_hypersurface


class CaseTag(Enum):
    """Partition of the families by their two smallest nontrivial weights."""

    CASE1 = "case1"  # a1 > 1
    CASE2 = "case2"  # a1 = 1 < a2
    CASE3 = "case3"  # a1 = a2 = 1


class BoundStatus(Enum):
    """Strength of the Case-1 residual-curve bound for one family."""

    STRONG_A = "strong_a"  # d < a1*a4: no generality assumptions needed
    WEAK_B = "weak_b"      # a1*a4 <= d < a2*a4: needs an irreducibility assumption
    FAILS = "fails"        # d >= a2*a4: handled by the extension checks


class ContractedReason(Enum):
    """Why a family's contracted-curve classes are already safe."""

    NO_CONTRACTED_CURVES = "no_contracted_curves"  # last coordinate point off X
    DEGREE_BOUND = "degree_bound"                  # d < a1*a2*a3


class WrongCaseError(ValueError):
    """Operation applied to a family outside its case precondition."""


class SharedFactorPreconditionError(ValueError):
    """Shared-factor check applied where gcd(a1, a2) = 1."""


class DivisibilityViolation(ArithmeticError):
    """A reduced weight divides neither d - a4 nor d (unreachable on valid data)."""


def classify_case(f: FamilyRecord) -> CaseTag:
    """The case tag of a family, read off its weights."""
    a = f.weights
    if a[1] > 1:
        return CaseTag.CASE1
    if a[2] > 1:
        return CaseTag.CASE2
    return CaseTag.CASE3


class Comparison(Record):
    """One evaluated inequality lhs vs rhs, with the exclusion reading lhs > rhs."""

    __slots__ = ("label", "lhs", "rhs", "note")

    def __init__(self, label: str, lhs: Fraction, rhs: Fraction, note: str | None = None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "note", note)

    @property
    def relation(self) -> str:
        if self.lhs > self.rhs:
            return ">"
        if self.lhs == self.rhs:
            return "="
        return "<"

    @property
    def contradiction(self) -> bool:
        """True when the comparison alone excludes the candidate curve."""
        return self.lhs > self.rhs


def _require_case(f: FamilyRecord, tag: CaseTag, op: str) -> None:
    actual = classify_case(f)
    if actual is not tag:
        raise WrongCaseError(
            f"{op}: family {f.number} is {actual.value}, requires {tag.value}"
        )


def case1_verdict(f: FamilyRecord) -> BoundStatus:
    """Classify a Case-1 family by the residual-curve inequalities
    d < a1*a4 and d < a2*a4."""
    _require_case(f, CaseTag.CASE1, "case1_verdict")
    a = f.weights
    if f.d < a[1] * a[4]:
        return BoundStatus.STRONG_A
    if f.d < a[2] * a[4]:
        return BoundStatus.WEAK_B
    return BoundStatus.FAILS


def binomial_fibre_degree(f: FamilyRecord) -> Fraction:
    """Degree 1/(a3*h), h = gcd(a1, a2), of the fibre over the binomial orbit
    of the weighted plane P(1, a1, a2)."""
    a = f.weights
    return Fraction(1, a[3] * gcd(a[1], a[2]))


def shared_factor_check(f: FamilyRecord) -> Comparison:
    """When a1 and a2 share a factor h > 1 the binomial image point becomes a
    curve of degree 1/(a3*h); the argument applies exactly when that degree
    exceeds the cap (a contradiction).  Requires gcd(a1, a2) > 1."""
    if gcd(f.weights[1], f.weights[2]) == 1:
        raise SharedFactorPreconditionError(
            f"family {f.number}: gcd(a1, a2) = 1, shared-factor check does not apply"
        )
    return Comparison(
        "shared-factor image degree vs cap", binomial_fibre_degree(f), f.a_cube
    )


def case2_verdict(f: FamilyRecord) -> bool:
    """Case-2 residual bound: every low-degree residual curve lies in the base
    pencil exactly when d < a2*a4."""
    _require_case(f, CaseTag.CASE2, "case2_verdict")
    a = f.weights
    return f.d < a[2] * a[4]


def case3_integer_filter(f: FamilyRecord) -> bool:
    """Case-3 filter: non-stratum curves have integer degree, so a cap below 1
    excludes them all.  True iff the degree cap is < 1."""
    _require_case(f, CaseTag.CASE3, "case3_integer_filter")
    return f.a_cube < 1


def contracted_verdict(f: FamilyRecord) -> ContractedReason | None:
    """Why contracted curves are impossible or excluded by the product bound,
    or None when neither dismissal applies (the family is unsafe).

    When the last coordinate point is off X the projection has finite fibres
    and contracts nothing; that alone settles the family, without inspecting
    the product bound.
    """
    a = f.weights
    if not coordinate_point_on_hypersurface(f.d, a, 4):
        return ContractedReason.NO_CONTRACTED_CURVES
    if f.d < a[1] * a[2] * a[3]:
        return ContractedReason.DEGREE_BOUND
    return None


def tangent_indices(f: FamilyRecord) -> tuple[int, ...]:
    """Indices j with a_j + 2*a4 = d: the possible tangent coordinates when the
    defining equation has the curve-contracting shape x_j*x4^2 + a*x4 + b."""
    a = f.weights
    return tuple(j for j in range(4) if a[j] + 2 * a[4] == f.d)


def contracted_divisibility_certificate(
    f: FamilyRecord, j: int
) -> tuple[tuple[int, int], ...]:
    """Certify that the base points of the contracting pencil for tangent
    index j avoid the singular points of the residual weighted plane.

    Given the tangent relation a_j + 2*a4 = d, each reduced weight a > 1 (the
    weights away from j and 4) must divide d - a4 or d.  Returns one
    (weight, divisor) witness pair per reduced weight, the divisor being
    d - a4 when the weight divides it and d otherwise.

    Raises ValueError if a_j + 2*a4 != d, and DivisibilityViolation if some
    reduced weight divides neither d - a4 nor d (impossible for valid data —
    kept as a loud failure rather than an assumption).
    """
    a = f.weights
    if not 0 <= j <= 3:
        raise ValueError(f"tangent index must lie in 0..3, got {j}")
    if a[j] + 2 * a[4] != f.d:
        raise ValueError(
            f"family {f.number}: a_{j} + 2*a4 = {a[j] + 2 * a[4]} != d = {f.d}; "
            "not a valid tangent index"
        )
    witnesses = []
    for i in range(4):
        w = a[i]
        if i == j or w == 1:
            continue
        divisor = next((n for n in (f.d - a[4], f.d) if n % w == 0), None)
        if divisor is None:
            raise DivisibilityViolation(
                f"family {f.number}: reduced weight {w} (index {i}) divides neither "
                f"d - a4 = {f.d - a[4]} nor d = {f.d}"
            )
        witnesses.append((w, divisor))
    return tuple(witnesses)



# ---------------------------------------------------------------------------
# List membership.  Every derived list, the surface rows' fail tags and the
# extension set read this one rule; the golden expectations live only in
# tests and in the report's comparison step.
# ---------------------------------------------------------------------------

#: The derived membership lists, in report order; the first three hold the
#: Case-1 families by bound status, in the order of ``BoundStatus``.
LIST_NAMES = ("strong_bound", "weak_bound", "extension_required",
              "pencil_exceptions", "contracted_unsafe", "shared_factor")
_STATUS_LIST = dict(zip(BoundStatus, LIST_NAMES))


def family_lists(f: FamilyRecord) -> frozenset[str]:
    """Names of the derived lists family f belongs to, decided from its weights."""
    names = set()
    case = classify_case(f)
    if case is CaseTag.CASE1:
        names.add(_STATUS_LIST[case1_verdict(f)])
    elif case is CaseTag.CASE2 and not case2_verdict(f):
        names.add("pencil_exceptions")
    if contracted_verdict(f) is None:
        names.add("contracted_unsafe")
    if gcd(f.weights[1], f.weights[2]) > 1:
        names.add("shared_factor")
    return frozenset(names)
