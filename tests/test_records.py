"""The record contract: every record the audit builds is an immutable slotted
value with dataclass-style equality, hashing and repr, built from its inputs."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import fano95
from fano95 import (
    StratumCurve,
    build_coverage,
    case3_test_class_certificates,
    family_verdict,
    verify_surface_table,
    wps,
)
from fano95.wps import Record

RECORD_CLASSES = (
    "StratumCurve", "FamilyRecord", "Comparison", "TestClassCertificate",
    "SurfaceRow", "SurfaceCertificate", "TableVerification",
    "Annotation", "RouteEntry", "FamilyCoverage", "FamilyVerdict",
)


def test_every_record_class_is_under_the_contract():
    # A new record class in the package must join RECORD_CLASSES, and so the
    # contract test below.  Importing every module (__main__ too) runs no command.
    for module in pkgutil.iter_modules(fano95.__path__):
        importlib.import_module(f"fano95.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.partition(".")[0] == "fano95":
                found.add(cls.__name__)
    assert found == set(RECORD_CLASSES)


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
        "Comparison": list(family_verdict(db.get(18)).extension_checks[:2]),
        "TestClassCertificate": list(case3_test_class_certificates(db)[:2]),
        "SurfaceRow": list(rows[:2]),
        "SurfaceCertificate": list(verification.certificates[:2]),
        "TableVerification": [verification, verify_surface_table(db, rows[:1])],
        "Annotation": [annotated[0].annotations[0], annotated[-1].annotations[-1]],
        "RouteEntry": [coverage[0].residual, coverage[-1].residual],
        "FamilyCoverage": [coverage[0], coverage[-1]],
        "FamilyVerdict": [family_verdict(db.get(7)), family_verdict(db.get(18))],
    }


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_record_contract(audit_records, name):
    record, other = audit_records[name]
    cls = type(record)
    assert cls.__name__ == name and type(other) is cls
    fields = {field: getattr(record, field) for field in cls.__slots__}
    # The constructor takes the leading slots, its inputs, and derives the rest.
    params = tuple(inspect.signature(cls).parameters)
    assert params == cls.__slots__[:len(params)] == cls._inputs
    inputs = [fields[field] for field in params]

    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")

    twin = cls(*inputs)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert record != other
    for rebuilt in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                    cls(**dict(zip(params, inputs)))):
        assert rebuilt is not record and rebuilt == record
    assert record.__reduce__() == (cls, tuple(inputs))

    assert record != tuple(fields.values())
    assert tuple(fields.values()) != record
    sibling = type(f"Other{name}", (Record,), {"__slots__": cls.__slots__,
                                                "__init__": cls.__init__})
    assert sibling(*inputs)._fields() == twin._fields()
    assert record != sibling(*inputs) and sibling(*inputs) != record

    shown = repr(record)
    assert shown.startswith(f"{name}(")
    for field, value in fields.items():
        assert f"{field}={value!r}" in shown


@pytest.mark.parametrize("name, inputs, derived", [
    ("FamilyRecord", ("number", "d", "weights"), "a_cube"),
    ("TestClassCertificate", ("record", "curve", "b", "deg_c", "p_a"), "value"),
    ("SurfaceCertificate", ("row", "record"), "valid"),
], ids=["FamilyRecord", "TestClassCertificate", "SurfaceCertificate"])
def test_a_derived_field_is_not_a_constructor_argument(audit_records, name, inputs, derived):
    record = audit_records[name][0]
    cls = type(record)
    assert cls._inputs == inputs
    args = [getattr(record, field) for field in inputs]
    with pytest.raises(TypeError, match=f"^{name}.__init__\\(\\) got an unexpected keyword "
                                        f"argument '{derived}'"):
        cls(*args, **{derived: getattr(record, derived)})


class Pair(Record):
    __slots__ = ("first", "second")


@pytest.mark.parametrize("args, named", [
    ((1, 2), {}),
    ((), {"first": 1, "second": 2}),
    ((), {"second": 2, "first": 1}),
    ((1,), {"second": 2}),
], ids=["positional", "named", "named-reordered", "mixed"])
def test_record_is_built_from_its_slots_positionally_or_by_name(args, named):
    assert Pair(*args, **named)._fields() == (1, 2)


@pytest.mark.parametrize("args, named", [
    ((1,), {}),
    ((1, 2, 3), {}),
    ((), {"first": 1}),
    ((), {"second": 2}),
    ((1, 2), {"third": 3}),
    ((1,), {"second": 2, "third": 3}),
    ((1,), {"first": 1, "second": 2}),
], ids=["too-few", "too-many", "missing", "missing-first", "unknown",
        "unknown-with-rest", "repeated"])
def test_record_constructor_refuses_a_miscounted_call(args, named):
    with pytest.raises(TypeError, match=r"^Pair\.__init__\(\) "):
        Pair(*args, **named)


def test_record_initializer_is_compiled_per_class():
    assert Pair.__init__ is Pair._fill
    assert (Pair.__init__.__qualname__, Pair.__init__.__module__) == ("Pair.__init__", __name__)
    assert StratumCurve._fill is not Pair._fill
    assert StratumCurve._fill.__qualname__ == "StratumCurve.__init__"
    bare = eval("type('Bare', (Record,), {'__slots__': ('x',)})", {"Record": Record})
    assert bare(1).x == 1 and bare.__init__.__module__ is None  # no module to name


def test_record_initializer_of_a_known_arity_compiles_nothing(monkeypatch):
    # Each class renames the code compiled once for its number of slots.
    def refuse(*args):
        raise AssertionError("compiled an initializer again")

    monkeypatch.setattr(wps, "exec", refuse, raising=False)
    swapped = type("Swapped", (Record,), {"__slots__": ("second", "first")})
    assert swapped(1, 2)._fields() == (1, 2) and swapped(first=2, second=1).first == 2
    assert swapped.__init__.__code__.co_varnames == ("self", "second", "first", "_setters")
    assert swapped.__init__.__code__.co_code == Pair.__init__.__code__.co_code


@pytest.mark.parametrize("name", ["self", "_setters", "_fill", "_inputs"])
def test_record_refuses_a_slot_its_initializer_cannot_take(name):
    with pytest.raises(TypeError, match=f"Clash cannot have a slot named '{name}'"):
        type("Clash", (Record,), {"__slots__": ("first", name)})


@pytest.mark.parametrize("init", [
    lambda self: None,
    lambda self, first: None,
    lambda self, first, second=2: None,
], ids=["no-inputs", "first", "both-with-default"])
def test_record_accepts_an_initializer_of_its_leading_slots(init):
    cls = type("Good", (Record,), {"__slots__": ("first", "second"), "__init__": init})
    assert cls._inputs == tuple(inspect.signature(init).parameters)[1:]
