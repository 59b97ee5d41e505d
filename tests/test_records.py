"""The record contract: every record the audit builds is an immutable slotted
value with dataclass-style equality, hashing and repr."""

import copy
import pickle

import pytest

from fano95 import (
    StratumCurve,
    build_coverage,
    case3_test_class_certificates,
    extension_check,
    verify_surface_table,
)
from fano95.wps import Record

RECORD_CLASSES = (
    "StratumCurve", "FamilyRecord", "Comparison", "TestClassCertificate",
    "SurfaceRow", "SurfaceCertificate", "TableVerification",
    "Annotation", "RouteEntry", "FamilyCoverage",
)


@pytest.fixture(scope="module")
def audit_records(db, rows):
    """Two unequal instances of each record class, from the packaged audit."""
    verification = verify_surface_table(db, rows)
    coverage = build_coverage(db, rows, verification=verification)
    annotated = [c for c in coverage if c.annotations]
    return {
        "StratumCurve": [
            StratumCurve.from_vanishing(db.get(r.family).weights, r.vanishing)
            for r in rows[:2]
        ],
        "FamilyRecord": [db.get(20), db.get(21)],
        "Comparison": list(extension_check(db.get(18))[:2]),
        "TestClassCertificate": list(case3_test_class_certificates(db)[:2]),
        "SurfaceRow": list(rows[:2]),
        "SurfaceCertificate": list(verification.certificates[:2]),
        "TableVerification": [verification, verify_surface_table(db, rows[:1])],
        "Annotation": [annotated[0].annotations[0], annotated[-1].annotations[-1]],
        "RouteEntry": [coverage[0].residual, coverage[-1].residual],
        "FamilyCoverage": [coverage[0], coverage[-1]],
    }


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_record_contract(audit_records, name):
    record, other = audit_records[name]
    cls = type(record)
    assert cls.__name__ == name and type(other) is cls
    fields = {field: getattr(record, field) for field in cls.__slots__}

    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")

    twin = cls(**fields)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert record != other
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    assert record != tuple(fields.values())
    assert tuple(fields.values()) != record
    sibling = type(f"Other{name}", (Record,), {"__slots__": cls.__slots__,
                                                "__init__": cls.__init__})
    assert sibling(**fields)._fields() == twin._fields()
    assert record != sibling(**fields) and sibling(**fields) != record

    shown = repr(record)
    assert shown.startswith(f"{name}(")
    for field, value in fields.items():
        assert f"{field}={value!r}" in shown
