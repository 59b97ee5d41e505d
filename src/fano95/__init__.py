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
    expected_fail_tags,
    load_packaged_surface_rows,
    load_surface_rows,
    serialize_surface_rows,
    verify_surface_table,
)
from .coverage import (
    Annotation,
    AnnotationKind,
    FamilyCoverage,
    RouteEntry,
    build_coverage,
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
    FamilyVerdict,
    SharedFactorPreconditionError,
    binomial_fibre_degree,
    classify_case,
    contracted_divisibility_certificate,
    extension_check,
    family_verdict,
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
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # wps
    "Weights", "StratumCurve", "anticanonical_cube",
    "coordinate_point_on_hypersurface",
    "format_rational",
    # families
    "FAMILY_COUNT", "FamilyRecord", "FamilyDatabase", "FamilyTableError",
    "ParseError", "ValidationError", "FamilyNotFoundError",
    "load_families", "load_packaged_families", "serialize_families",
    # lemmas
    "CaseTag", "BoundStatus", "ContractedReason",
    "SharedFactorPreconditionError", "DivisibilityViolation",
    "Comparison", "classify_case", "binomial_fibre_degree",
    "shared_factor_check", "extension_check", "tangent_indices",
    "contracted_divisibility_certificate", "FamilyVerdict", "family_verdict",
    # certificates
    "CertificateError", "RowError", "SurfaceRowParseError", "Method",
    "TestClassCertificate", "SurfaceRow",
    "SurfaceCertificate", "TableVerification",
    "case3_test_class_certificates", "expected_fail_tags",
    "verify_surface_table", "load_surface_rows", "serialize_surface_rows",
    "load_packaged_surface_rows",
    # coverage
    "AnnotationKind", "Annotation", "RouteEntry", "FamilyCoverage",
    "build_coverage",
    # report
    "GOLDEN_LISTS", "derived_lists", "build_document", "to_json",
    "revalidate_document",
]
