"""Hypothesis classification for the coarse curve-exclusion bounds.

The families split into three cases by their smallest nontrivial weights:

* Case 1: a1 > 1,
* Case 2: a1 = 1 and a2 > 1,
* Case 3: a1 = a2 = 1.

For a curve C on a general hypersurface X, projection away from the largest-
weight coordinate either contracts C to a point or maps it to a curve; we call
the non-contracted classes *residual*.  Each case has a coarse inequality
under which every low-degree residual curve is excluded outright, and a
separate product bound handles the contracted classes.  ``family_verdict``
evaluates those inequalities exactly, once per family, from its weights alone,
never from stored lists, into one ``FamilyVerdict``: the case, the residual
verdict, the contracted-curve reason and the derived lists and fail tags.

Around it sit the checks for the families those bounds leave open:

* ``shared_factor_check``: a ``Comparison`` of the binomial fibre degree
  against the cap, where gcd(a1, a2) > 1;
* ``extension_check``: the tuple of double-projection ``Comparison``s for a
  Case-1 family whose residual bound fails;
* ``contracted_divisibility_certificate``: (weight, divisor) witness pairs
  for a tangent index of a family that can contract curves.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .families import FamilyDatabase, FamilyRecord
from .wps import Record, _check_integer, _shown, coordinate_point_on_hypersurface


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
    """One evaluated inequality lhs vs rhs, with the exclusion reading lhs > rhs,
    and the note naming what a non-strict one leans on, or None."""

    __slots__ = ("label", "lhs", "rhs", "note")

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
        "shared-factor image degree vs cap", binomial_fibre_degree(f), f.a_cube, None
    )


def extension_check(f: FamilyRecord) -> tuple[Comparison, ...]:
    """The double-projection comparisons for one Case-1 family whose residual
    bound fails (d >= a2*a4); ValueError for any other family.

    The candidate curve projects twice; either the image is a curve (degree
    1/(a1*a2)) or a point of the weighted plane P(1, a1, a2), whose four
    orbits give fibres of degree 1/a3 (twice, with the binomial orbit
    degenerating to 1/(a3*h) when h = gcd(a1, a2) > 1), 1/(a1*a3), or the
    section of degree a1*A^3 — each compared against the degree cap A^3.
    A strict comparison is a certificate; each non-strict one leans on the
    geometric step its note names, which the engine cannot check.
    """
    verdict = family_verdict(f)
    if verdict.residual is not BoundStatus.FAILS:
        found = (f"status is {verdict.residual.value}" if verdict.case is CaseTag.CASE1
                 else f"the family is {verdict.case.value}")
        raise ValueError(
            f"family {f.number}: extension checks apply only where the "
            f"Case-1 residual bound fails, {found}"
        )
    a = f.weights
    cap = f.a_cube
    h = gcd(a[1], a[2])
    binomial_label = "image point on the binomial orbit"
    if h > 1:
        binomial_label += f" (shared factor {h} drops the fibre degree)"
    return (
        Comparison(
            "image curve in the weighted plane",
            Fraction(1, a[1] * a[2]),
            cap,
            "equality forces the curve onto a stratum; excluded by the "
            "stratum-pair analysis",
        ),
        Comparison(
            "image point on the first coordinate orbit",
            Fraction(1, a[3]),
            cap,
            "fibre over the first coordinate point not excluded by degree",
        ),
        Comparison(
            binomial_label,
            binomial_fibre_degree(f),
            cap,
            "fibre over the binomial point not excluded by degree",
        ),
        Comparison(
            "image point on the second coordinate orbit",
            Fraction(1, a[1] * a[3]),
            cap,
            "candidate equals a stratum-pair curve; excluded by the "
            "stratum-pair analysis",
        ),
        Comparison(
            "two-form section through the last orbit",
            a[1] * cap,
            cap,
            "needs irreducibility of the section curve",
        ),
    )


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

    Raises TypeError if j is not an int (a bool included), ValueError if j
    lies outside 0..3 or a_j + 2*a4 != d, and DivisibilityViolation if some
    reduced weight divides neither d - a4 nor d (impossible for valid data —
    kept as a loud failure rather than an assumption).
    """
    a = f.weights
    if type(j) is not int:
        _check_integer("tangent index", j)
    if not 0 <= j <= 3:
        raise ValueError(f"tangent index must lie in 0..3, got {_shown(j)}")
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
# The per-family verdict.  Every derived list, the surface rows' fail tags and
# both coverage routes read this one record; the golden expectations live only
# in tests and in the report's comparison step.
# ---------------------------------------------------------------------------

#: The derived membership lists, in report order; the first three hold the
#: Case-1 families by bound status, in the order of ``BoundStatus``.
LIST_NAMES = ("strong_bound", "weak_bound", "extension_required",
              "pencil_exceptions", "contracted_unsafe", "shared_factor")
_STATUS_LIST = dict(zip(BoundStatus, LIST_NAMES))

#: The fail tag of each list whose members' surface rows must carry it.
_FAIL_TAGS = {"pencil_exceptions": "residual", "contracted_unsafe": "contracted"}


class FamilyVerdict(Record):
    """What the weights decide about one family: its ``CaseTag``, the residual
    verdict (a ``BoundStatus`` in Case 1, else a bool), its ``ContractedReason``
    or None, and the frozensets of its derived lists and its rows' fail tags."""

    __slots__ = ("case", "residual", "contracted", "lists", "fail_tags")


def family_verdict(f: FamilyRecord) -> FamilyVerdict:
    """Decide family f from its weights a0..a4 and degree d, in one pass.

    The residual verdict is the case's coarse bound:

    * Case 1: a ``BoundStatus``, STRONG_A when d < a1*a4 (no generality
      assumption needed), WEAK_B when only d < a2*a4 holds (it needs an
      irreducibility assumption), and FAILS otherwise (the family is left to
      ``extension_check``);
    * Case 2: True when d < a2*a4, so every low-degree residual curve lies in
      the base pencil; a family where it is False is a pencil exception;
    * Case 3: True when A^3 < 1: non-stratum curves have integer degree, so a
      cap below 1 excludes them all.

    The contracted-curve reason: the last coordinate point lies on X exactly
    when a4 does not divide d.  When a4 | d the projection contracts nothing
    (NO_CONTRACTED_CURVES); when a4 ∤ d but d < a1*a2*a3 the product bound
    excludes the contracted curves (DEGREE_BOUND); otherwise it is None and
    the family is contracted-unsafe.  A shared factor gcd(a1, a2) > 1 puts
    the family on the shared-factor list.
    """
    a, d = f.weights, f.d
    case = classify_case(f)
    if case is CaseTag.CASE1:
        residual = (BoundStatus.STRONG_A if d < a[1] * a[4] else
                    BoundStatus.WEAK_B if d < a[2] * a[4] else BoundStatus.FAILS)
        names = {_STATUS_LIST[residual]}
    elif case is CaseTag.CASE2:
        residual = d < a[2] * a[4]
        names = set() if residual else {"pencil_exceptions"}
    else:
        residual, names = f.a_cube < 1, set()
    if not coordinate_point_on_hypersurface(d, a, 4):
        contracted = ContractedReason.NO_CONTRACTED_CURVES
    elif d < a[1] * a[2] * a[3]:
        contracted = ContractedReason.DEGREE_BOUND
    else:
        contracted = None
        names.add("contracted_unsafe")
    if gcd(a[1], a[2]) > 1:
        names.add("shared_factor")
    tags = frozenset([_FAIL_TAGS[name] for name in names if name in _FAIL_TAGS])
    return FamilyVerdict(case, residual, contracted, frozenset(names), tags)


@lru_cache(maxsize=1)
def family_verdicts(db: FamilyDatabase) -> tuple[FamilyVerdict, ...]:
    """Each family's verdict, in order, cached on the identity of the immutable
    ``db``: the sections of one audit share them, another audit builds its own."""
    return tuple(map(family_verdict, db))
