"""fano95: exact verification of the curve-exclusion case analysis over the
95 families of quasismooth Fano 3-fold weighted hypersurfaces.

The package re-derives, in exact rational arithmetic, every degree bound,
membership list, divisibility certificate, and exclusion value in the case
analysis, and audits that the 95 families are each covered by a verified
route.  See the ``audit`` console script for the command-line surface.
"""

from .certificates import (
    CertificateError,
    Method,
    RowError,
    SurfaceCertificate,
    SurfaceRow,
    SurfaceRowParseError,
    TableVerification,
    TestClassCertificate,
    case3_test_class_certificates,
    certify_row,
    curve_self_intersection,
    different_total,
    expected_fail_tags,
    extension_check,
    load_packaged_surface_rows,
    load_surface_rows,
    serialize_surface_rows,
    surface_exclusion_value,
    test_class_value,
    test_class_value_expanded,
    verify_surface_table,
)
from .coverage import (
    Annotation,
    AnnotationKind,
    FamilyCoverage,
    RouteEntry,
    build_coverage,
    containment_annotated_families,
)
from .families import (
    FAMILY_COUNT,
    FamilyDatabase,
    FamilyNotFoundError,
    FamilyRecord,
    FamilyTableError,
    ParseError,
    ValidationError,
    load_families,
    load_packaged_families,
    serialize_families,
)
from .lemmas import (
    BoundStatus,
    CaseTag,
    Comparison,
    ContractedReason,
    DivisibilityViolation,
    SharedFactorPreconditionError,
    WrongCaseError,
    binomial_fibre_degree,
    case1_verdict,
    case2_verdict,
    case3_integer_filter,
    classify_case,
    contracted_divisibility_certificate,
    contracted_verdict,
    family_lists,
    shared_factor_check,
    tangent_indices,
)
from .report import GOLDEN_LISTS, build_document, derived_lists, revalidate_document, to_json
from .wps import (
    StratumCurve,
    Weights,
    anticanonical_cube,
    coordinate_point_on_hypersurface,
    format_rational,
    parse_rational,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # wps
    "Weights", "StratumCurve", "anticanonical_cube",
    "coordinate_point_on_hypersurface",
    "format_rational", "parse_rational",
    # families
    "FAMILY_COUNT", "FamilyRecord", "FamilyDatabase", "FamilyTableError",
    "ParseError", "ValidationError", "FamilyNotFoundError",
    "load_families", "load_packaged_families", "serialize_families",
    # lemmas
    "CaseTag", "BoundStatus", "ContractedReason", "WrongCaseError",
    "SharedFactorPreconditionError", "DivisibilityViolation",
    "Comparison", "classify_case", "case1_verdict", "binomial_fibre_degree",
    "shared_factor_check", "case2_verdict", "case3_integer_filter",
    "contracted_verdict", "tangent_indices",
    "contracted_divisibility_certificate", "family_lists",
    # certificates
    "CertificateError", "RowError", "SurfaceRowParseError", "Method",
    "TestClassCertificate", "SurfaceRow",
    "SurfaceCertificate", "TableVerification",
    "test_class_value", "test_class_value_expanded",
    "case3_test_class_certificates", "different_total",
    "curve_self_intersection", "surface_exclusion_value",
    "certify_row", "expected_fail_tags",
    "verify_surface_table", "load_surface_rows", "serialize_surface_rows",
    "load_packaged_surface_rows", "extension_check",
    # coverage
    "AnnotationKind", "Annotation", "RouteEntry", "FamilyCoverage",
    "build_coverage", "containment_annotated_families",
    # report
    "GOLDEN_LISTS", "derived_lists", "build_document", "to_json",
    "revalidate_document",
]
