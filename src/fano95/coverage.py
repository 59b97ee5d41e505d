"""Per-family coverage audit: every curve class gets a verified route.

For each of the 95 families the audit names one route covering its
*residual* curve classes (those mapping to curves under the projection away
from the largest-weight coordinate) and one covering its *contracted*
classes, pulling in the relevant verdicts and certificates.  Steps the
numeric engine cannot check — irreducibility for general members, the
classification of candidates down to listed strata, the singular-index rule
for surface rows, and the asserted containment for three small families —
are surfaced as typed annotations, never silently assumed.

A family is Covered only when both routes exist and every certificate they
lean on is valid; anything else is an explicit Gap naming the curve class.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Literal

from .certificates import (
    SurfaceCertificate,
    SurfaceRow,
    TableVerification,
    TestClassCertificate,
    case3_test_class_certificates,
    verify_surface_table,
)
from .families import FamilyDatabase, FamilyRecord
from .lemmas import BoundStatus, CaseTag, ContractedReason, FamilyVerdict
from .wps import Record, _VANISHING_LABELS, format_rational


class AnnotationKind(Enum):
    """Typed tag for a step taken on trust rather than by computation."""

    CONTAINMENT_OUT_OF_SCOPE = "containment-out-of-scope"
    GENERALITY = "generality"
    INDEX_RULE = "index-rule"


class Annotation(Record):
    """One step taken on trust: its ``AnnotationKind`` and its text."""

    __slots__ = ("kind", "text")


class RouteEntry(Record):
    """One route for one curve class of one family, with the gaps it leaves:
    the names of curve classes left without a route."""

    __slots__ = ("route", "detail", "values", "annotations", "gaps")

    def __init__(
        self, route: str, detail: str, values: tuple[tuple[str, str], ...] = (),
        annotations: tuple[Annotation, ...] = (), gaps: tuple[str, ...] = (),
    ):
        self._fill(route, detail, values, annotations, gaps)


Status = Literal["Covered", "Gap"]


class FamilyCoverage(Record):
    """Coverage verdict for a single family: its number, its ``CaseTag``, and
    the ``RouteEntry`` of its residual and of its contracted curve classes."""

    __slots__ = ("family", "case", "residual", "contracted")

    @property
    def gaps(self) -> tuple[str, ...]:
        return self.residual.gaps + self.contracted.gaps

    @property
    def status(self) -> Status:
        return "Gap" if self.gaps else "Covered"

    @property
    def annotations(self) -> tuple[Annotation, ...]:
        return self.residual.annotations + self.contracted.annotations


_CLASSIFICATION_NOTE = Annotation(
    AnnotationKind.GENERALITY,
    "reduction of the remaining candidates to the listed coordinate strata "
    "is a coordinate-change argument on general members, not re-derived here",
)

_INDEX_RULE_NOTE = Annotation(
    AnnotationKind.INDEX_RULE,
    "the singular-point index of the curve on the chosen surface is assumed "
    "to equal the surviving stratum weight; rows failing under this "
    "assumption are reported as invalid, never repaired",
)

_WEAK_BOUND_NOTE = Annotation(
    AnnotationKind.GENERALITY,
    "the two-form section curve is irreducible on a general member "
    "(Bertini); its class is then excluded by the section degree",
)

_DEGREE_BOUND_NOTE = Annotation(
    AnnotationKind.GENERALITY,
    "on a general member the two contracting coefficient forms share no "
    "factor, so the contracted locus is a finite cone certified to avoid "
    "the residual singular points",
)

_CONTAINMENT_NOTE = Annotation(
    AnnotationKind.CONTAINMENT_OUT_OF_SCOPE,
    "the contracted curves lie inside a codimension-two intersection of two "
    "degree-one forms — the allowed containment conclusion — by a direct "
    "geometric check that is out of the numeric engine's scope",
)


#: Coverage labels of the certificate quantities a surface-row route shows.
_ROW_VALUE_LABELS = {
    "deg_c": "deg",
    "exclusion_value": "value",
    "c_prime_sq": "companion self-intersection",
}


def _surface_row_values(certs: Iterable[SurfaceCertificate]) -> tuple[tuple[str, str], ...]:
    values = []
    for cert in certs:
        key = f"row {_VANISHING_LABELS[cert.row.vanishing]}"
        values.extend(
            (f"{key} {_ROW_VALUE_LABELS[field]}", text)
            for field, text in cert.quantities
            if field in _ROW_VALUE_LABELS
        )
        if cert.cap_check:
            values.append((f"{key} degree sum vs cap",
                           f"{cert.cap_check} vs {cert.record.a_cube_text}"))
    return tuple(values)


def _surface_rows_route(
    kind: str, certs: tuple[SurfaceCertificate, ...], missing: str, detail: str
) -> RouteEntry:
    """The surface-rows route of the ``kind`` ("residual" or "contracted")
    curve classes: a gap names ``missing`` when no row applies, another any
    invalid certificate."""
    gaps = []
    if not certs:
        gaps.append(f"{kind} ({missing})")
    if any(not c.valid for c in certs):
        gaps.append(f"{kind} (invalid surface certificate)")
    return RouteEntry("surface-rows", detail, _surface_row_values(certs),
                      (_CLASSIFICATION_NOTE, _INDEX_RULE_NOTE), tuple(gaps))


def _residual_route(
    f: FamilyRecord,
    verdict: FamilyVerdict,
    certs: tuple[SurfaceCertificate, ...],
    test_class_by_family: dict[int, TestClassCertificate],
) -> RouteEntry:
    """Route for the residual (non-contracted) curve classes."""
    a = f.weights

    if verdict.case is CaseTag.CASE1:
        values = [
            ("d", str(f.d)),
            ("a1*a4", str(a[1] * a[4])),
            ("a2*a4", str(a[2] * a[4])),
            ("degree cap", f.a_cube_text),
        ]
        if verdict.residual is BoundStatus.FAILS:
            comparisons = verdict.extension_checks  # each rhs is the cap, whose text f holds
            values.extend((e.label, f"{format_rational(e.lhs)} {e.relation} {f.a_cube_text}")
                          for e in comparisons)
            return RouteEntry(
                route="extension-checks",
                detail="residual bound fails outright; every double-projection "
                "image is compared against the degree cap, with the "
                "non-strict comparisons closed by recorded assumptions",
                values=tuple(values),
                annotations=tuple(Annotation(AnnotationKind.GENERALITY, e.note)
                                  for e in comparisons if not e.contradiction),
            )
        # d < a2*a4 here and h = gcd(a1, a2) <= a1, so d*h < a1*a2*a4 and the
        # shared-factor degree 1/(a3*h) always exceeds the cap d/(a1*a2*a3*a4).
        chk = verdict.shared_factor  # its rhs is the cap too
        if chk is not None:
            values.append((chk.label, f"{format_rational(chk.lhs)} vs {f.a_cube_text}"))
        if verdict.residual is BoundStatus.STRONG_A:
            return RouteEntry(
                route="strong-bound",
                detail="d < a1*a4, so every residual curve class exceeds the "
                "degree cap with no extra assumptions",
                values=tuple(values),
            )
        return RouteEntry(
            route="weak-bound",
            detail="a1*a4 <= d < a2*a4: residual classes exceed the cap "
            "except the two-form section class, closed by irreducibility",
            values=tuple(values),
            annotations=(_WEAK_BOUND_NOTE,),
        )

    if verdict.case is CaseTag.CASE2:
        if verdict.residual:
            return RouteEntry(
                route="pencil-bound",
                detail="d < a2*a4: every residual class outside the base "
                "pencil exceeds the cap; classes inside it satisfy the "
                "allowed containment conclusion",
                values=(
                    ("d", str(f.d)),
                    ("a2*a4", str(a[2] * a[4])),
                    ("degree cap", f.a_cube_text),
                ),
            )
        return _surface_rows_route(
            "residual", certs, "pencil bound fails and no surface rows",
            "pencil bound fails; the candidate strata are excluded "
            "row by row on surfaces through them",
        )

    # Case 3.
    if verdict.residual:
        return RouteEntry(
            route="integer-filter",
            detail="degree cap below 1: the three weight-one coordinates map a curve off every "
            "two-form section onto a plane curve, so its degree is at least 1 and exceeds "
            "the cap; a curve inside a two-form section is the permitted conclusion",
            values=(("degree cap", f.a_cube_text),),
        )
    cert = test_class_by_family.get(f.number)
    if cert is None:
        return RouteEntry(
            route="test-class",
            detail="no certificate available",
            gaps=("residual (degree cap >= 1 and no test-class certificate)",),
        )
    return RouteEntry(
        route="test-class",
        detail=f"candidates outside two-form sections reduce to a "
        f"{cert.curve}; its blowup class value is "
        f"{'' if cert.valid else 'not '}strictly negative",
        values=(
            ("curve", cert.curve),
            ("multiplier", str(cert.b)),
            ("curve degree", format_rational(cert.deg_c)),
            ("value", cert.value_text),
        ),
        annotations=(_CLASSIFICATION_NOTE,),
        gaps=() if cert.valid else ("residual (test-class value not negative)",),
    )


def _contracted_route(
    f: FamilyRecord,
    verdict: FamilyVerdict,
    certs: tuple[SurfaceCertificate, ...],
) -> RouteEntry:
    """Route for the curve classes contracted by the projection away from
    the largest-weight coordinate.  Under the product bound the route shows
    each tangent index's divisibility witnesses from ``verdict.tangents``,
    and a failing witness is its gap."""
    reason = verdict.contracted
    a = f.weights

    if reason is ContractedReason.NO_CONTRACTED_CURVES:
        return RouteEntry(
            route="no-contracted-curves",
            detail="the largest weight divides d, so the last coordinate "
            "point misses a general member and the projection contracts "
            "no curves",
            values=(("d", str(f.d)), ("a4", str(a[4]))),
        )

    if reason is ContractedReason.DEGREE_BOUND:
        gaps = []
        values = [
            ("d", str(f.d)),
            ("a1*a2*a3", str(a[1] * a[2] * a[3])),
            ("degree cap", f.a_cube_text),
        ]
        for j, witnesses in verdict.tangents:
            for i, w, divisor in witnesses:
                if divisor is None:
                    gaps.append(
                        f"contracted (divisibility certificate fails: family {f.number}: "
                        f"reduced weight {w} (index {i}) divides neither "
                        f"d - a4 = {f.d - a[4]} nor d = {f.d})"
                    )
                    break
            else:  # d < a1*a2*a3 leaves each tangent a reduced weight above 1
                witness = ", ".join(
                    f"{w} | {divisor}" for _, w, divisor in witnesses
                )
                values.append((f"tangent index {j} divisibility", witness))
        return RouteEntry(
            route="contracted-degree-bound",
            detail="d < a1*a2*a3: a contracted curve would pass through "
            "only the last coordinate point, giving degree above the cap; "
            "the divisibility certificates pin its singular support",
            values=tuple(values),
            annotations=(_DEGREE_BOUND_NOTE,),
            gaps=tuple(gaps),
        )

    if verdict.case is CaseTag.CASE3:
        return RouteEntry(
            route="containment-assertion",
            detail="contracted classes are asserted to lie inside a "
            "two-form section (permitted conclusion); not machine-checked",
            annotations=(_CONTAINMENT_NOTE,),
        )

    return _surface_rows_route(
        "contracted", tuple(c for c in certs if 4 not in c.row.vanishing),
        "no surface row through the last coordinate point",
        "contracted candidates reduce to strata through the last "
        "coordinate point, excluded on surfaces through them",
    )


def build_coverage(
    db: FamilyDatabase,
    rows: Iterable[SurfaceRow],
    *,
    verification: TableVerification | None = None,
) -> tuple[FamilyCoverage, ...]:
    """Assemble the full 95-family coverage report from the shipped inputs.
    A passed-in ``verification`` must be ``verify_surface_table(db, rows)``
    of the same ``db`` and ``rows``; when None it is built here."""
    if verification is None:
        verification = verify_surface_table(db, rows)
    by_family: dict[int, list[SurfaceCertificate]] = {}
    for cert in verification.certificates:
        by_family.setdefault(cert.family, []).append(cert)
    test_class_by_family = {
        c.family: c for c in case3_test_class_certificates(db)
    }

    out = []
    for f, verdict in zip(db, db.verdicts):
        certs = tuple(by_family.get(f.number, ()))
        out.append(FamilyCoverage(
            f.number, verdict.case,
            _residual_route(f, verdict, certs, test_class_by_family),
            _contracted_route(f, verdict, certs),
        ))
    return tuple(out)
