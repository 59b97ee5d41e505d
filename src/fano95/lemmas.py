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
verdict, the contracted-curve reason, the derived lists and fail tags, the
Case-1 comparisons against the cap A³ for the families the bounds leave open
(the binomial fibre degree 1/(a3*h) where h = gcd(a1, a2) > 1, and the five
double-projection comparisons where the residual bound fails), and, where
the projection can contract curves, each tangent index with its
divisibility witnesses.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from .wps import Record, Weights

if TYPE_CHECKING:
    from .families import FamilyRecord


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


def _extension_checks(a: Weights, h: int, binomial: Fraction,
                      cap: Fraction) -> tuple[Comparison, ...]:
    """The double-projection comparisons for one Case-1 family whose residual
    bound fails (d >= a2*a4), from its weights a, h = gcd(a1, a2), the
    binomial fibre degree 1/(a3*h) and the cap.

    The candidate curve projects twice; either the image is a curve (degree
    1/(a1*a2)) or a point of the weighted plane P(1, a1, a2), whose four
    orbits give fibres of degree 1/a3 (twice, with the binomial orbit
    degenerating to 1/(a3*h) when h = gcd(a1, a2) > 1), 1/(a1*a3), or the
    section of degree a1*A^3 — each compared against the degree cap A^3.
    A strict comparison is a certificate; each non-strict one leans on the
    geometric step its note names, which the engine cannot check.
    """
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
            binomial,
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


def _tangents(a: Weights,
              d: int) -> tuple[tuple[int, tuple[tuple[int, int, int | None], ...]], ...]:
    """The tangent indices of a family whose last coordinate point lies on X,
    each with the divisibility witnesses that the base points of its
    contracting pencil avoid the singular points of the residual plane.

    A tangent index j has a_j + 2*a4 = d: the defining equation can take the
    curve-contracting shape x_j*x4^2 + a*x4 + b.  Each reduced weight w > 1 at
    an index i away from j and 4 must divide d - a4 or d; its witness is
    (i, w, divisor), the divisor being d - a4 when w divides it and d
    otherwise.  A weight dividing neither (which never happens for the 95
    packaged families, though a loadable table can reach it) is recorded with
    the divisor None, and ends the witnesses of its index.
    """
    tangents = []
    for j in (j for j in range(4) if a[j] + 2 * a[4] == d):
        witnesses = []
        for i in range(4):
            if i != j and a[i] > 1:
                divisor = next((n for n in (d - a[4], d) if n % a[i] == 0), None)
                witnesses.append((i, a[i], divisor))
                if divisor is None:
                    break
        tangents.append((j, tuple(witnesses)))
    return tuple(tangents)


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
    or None, the frozensets of its derived lists and its rows' fail tags, the
    shared-factor ``Comparison`` (where gcd(a1, a2) > 1) or None, the tuple
    of double-projection ``Comparison``s (where the residual is FAILS) or (),
    and, where the last coordinate point lies on X (a4 ∤ d), its tangents:
    one (j, witnesses) pair per tangent index j in ascending order, each
    witness an (i, w, divisor) triple and a failing one's divisor None; else ()."""

    __slots__ = ("case", "residual", "contracted", "lists", "fail_tags",
                 "shared_factor", "extension_checks", "tangents")


def family_verdict(f: FamilyRecord) -> FamilyVerdict:
    """Decide family f from its weights a0..a4 and degree d, in one pass.

    The residual verdict is the case's coarse bound:

    * Case 1: a ``BoundStatus``, STRONG_A when d < a1*a4 (no generality
      assumption needed), WEAK_B when only d < a2*a4 holds (it needs an
      irreducibility assumption), and FAILS otherwise (the family is left to
      the five double-projection comparisons of ``extension_checks``);
    * Case 2: True when d < a2*a4, so every low-degree residual curve lies in
      the base pencil; a family where it is False is a pencil exception;
    * Case 3: True when A^3 < 1: off every two-form section, the three
      weight-one coordinates map a curve C onto a plane curve, so
      A·C >= 1 > A^3, and lying in a two-form section is the permitted
      conclusion.

    The contracted-curve reason: the last coordinate point lies on X exactly
    when a4 does not divide d.  When a4 | d the projection contracts nothing
    (NO_CONTRACTED_CURVES); when a4 ∤ d but d < a1*a2*a3 the product bound
    excludes the contracted curves (DEGREE_BOUND); otherwise it is None and
    the family is contracted-unsafe.  Wherever the point lies on X,
    ``tangents`` holds each tangent index with its divisibility witnesses,
    a weight that fails recorded, never raised.  A shared factor h = gcd(a1, a2) > 1
    puts the family on the shared-factor list, and ``shared_factor`` compares
    its binomial fibre degree 1/(a3*h) with the cap: the argument applies
    exactly when that degree exceeds the cap.
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
    if d % a[4] == 0:  # a pure power of x4 has degree d: the point misses X
        contracted, tangents = ContractedReason.NO_CONTRACTED_CURVES, ()
    else:
        contracted = ContractedReason.DEGREE_BOUND if d < a[1] * a[2] * a[3] else None
        if contracted is None:
            names.add("contracted_unsafe")
        tangents = _tangents(a, d)
    h, shared, extensions = gcd(a[1], a[2]), None, ()
    if h > 1 or residual is BoundStatus.FAILS:
        binomial = Fraction(1, a[3] * h)  # the fibre degree over the binomial orbit
        if h > 1:
            names.add("shared_factor")
            shared = Comparison("shared-factor image degree vs cap", binomial, f.a_cube, None)
        if residual is BoundStatus.FAILS:
            extensions = _extension_checks(a, h, binomial, f.a_cube)
    tags = frozenset([_FAIL_TAGS[name] for name in names if name in _FAIL_TAGS])
    return FamilyVerdict(case, residual, contracted, frozenset(names), tags,
                         shared, extensions, tangents)
