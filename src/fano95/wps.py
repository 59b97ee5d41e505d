"""Exact arithmetic and elementary numerical geometry of weighted projective 4-space.

Every degree and intersection number in this package is exact, a ``Fraction``
or a certificate quantity's lowest-terms "p/q" text; no floating point, so
equality of certificate values is bit-exact.  Conventions: a hypersurface of
degree d lives in P(1, a1, a2, a3, a4) with the five coordinates indexed 0..4
in ascending weight order, and its anticanonical degree is d/(a1*a2*a3*a4).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd
from types import FunctionType
from typing import Iterable


def _check_integer(what: str, value) -> None:
    """Reject a non-integer, a bool included: a float would make values inexact."""
    if type(value) is int:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")


def _shown(value) -> str:
    """``str(value)`` for an error message; an integer too long to print is stated by size."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} holding an integer too long to print>"


def _check_rational(what: str, value) -> None:
    """Reject all but an int or a Fraction: Fraction() would round a float, parse a str."""
    if value.__class__ is not Fraction and value.__class__ is not int:
        raise TypeError(f"{what} must be an int or a Fraction, got {value!r}")


#: The two surviving coordinates, ascending, of each valid vanishing set.
_SURVIVING = {frozenset(range(5)) - {i, j}: (i, j) for i, j in combinations(range(5), 2)}

#: Each ordering of each valid vanishing set, keyed to the one frozenset of it.
_VANISHING_SETS = {order: v for v in _SURVIVING for order in permutations(v)}

#: The "{i,j,k}" label every view prints for each valid vanishing set.
_VANISHING_LABELS = {v: "{%d,%d,%d}" % tuple(sorted(v)) for v in _SURVIVING}


def _check_vanishing(vanishing) -> frozenset[int]:
    """The shared frozenset of ``_VANISHING_SETS`` for the vanishing set; refuses any
    entries but three distinct integer indices in 0..4, counted as given (no repeat)."""
    entries = tuple(vanishing)
    for i in entries:
        if type(i) is not int:  # True and 1.0 hash like 1: refused before the lookup
            _check_integer("vanishing index", i)
    vanishing = _VANISHING_SETS.get(entries)
    if vanishing is None:
        raise ValueError("vanishing set must be 3 distinct indices in 0..4, got "
                         f"{_shown(sorted(entries))}")
    return vanishing


def stratum_weights(weights: Weights, vanishing: frozenset[int]) -> tuple[int, int]:
    """The weights (w1, w2), ascending, off a vanishing set that passed
    ``_check_vanishing``: the stratum P(w1, w2) has degree 1/(w1*w2)."""
    i, j = _SURVIVING[vanishing]
    return weights[i], weights[j]


def _different(indices: Iterable[int]) -> tuple[int, int]:
    """The adjunction different Σ (m−1)/m over the indices m, as an unreduced r/s."""
    num, den = 0, 1
    for m in indices:
        if m < 2:
            raise ValueError(f"singular-point index must be >= 2, got {_shown(m)}")
        num, den = num * m + (m - 1) * den, den * m
    return num, den


def _self_intersection(m, p, q, r, s) -> tuple[int, int]:
    """C²_T = r/s − 2 − (m−1)·p/q of a curve of degree p/q and different r/s on
    a general surface T in |m·A − C|, by adjunction, as an unreduced c/t."""
    return (r - 2 * s) * q - (m - 1) * p * s, q * s


def _ratio_text(num: int, den: int) -> str:
    """The "p/q" text of num/den, den > 0, in lowest terms with the sign on p
    ("4/1", "0/1"), built from the integers; ValueError if too long to print."""
    g = gcd(num, den)
    return "%d/%d" % (num // g, den // g)


@lru_cache(maxsize=1024, typed=True)
def _stratum(w1: int, w2: int, m: int) -> tuple:
    """The family-free part of every certificate on the curve P(w1, w2) on a
    surface in |m·A − C|: its singular-point indices (the weights > 1), their
    different r/s, C²_T = c/t, and deg C = 1/(w1*w2), r/s and c/t as (field,
    text) quantities, Fraction on demand.  All immutable, so callers share them."""
    diff_indices = tuple([w for w in (w1, w2) if w > 1])
    r, s = _different(diff_indices)
    c, t = _self_intersection(m, 1, w1 * w2, r, s)
    chain = (("deg_c", _ratio_text(1, w1 * w2)), ("diff_total", _ratio_text(r, s)),
             ("c2t", _ratio_text(c, t)))
    return diff_indices, r, s, c, t, chain


@lru_cache(maxsize=None)
def _fill_template(arity: int):
    """The code of ``def __init__(self, _0, ..., _<arity-1>)``, which stores
    each argument through ``self._setters``: compiled once per arity, since
    compiling is what a class creation costs, and renamed for each record."""
    params = ", ".join(f"_{i}" for i in range(arity))
    stores = "".join(f"\n    _setters[{i}](self, _{i})" for i in range(arity))
    namespace = {}
    exec(f"def __init__(self, {params}):\n    _setters = self._setters{stores}", namespace)
    return namespace["__init__"].__code__


class Record:
    """Base of the package's immutable records: a subclass declares its fields
    once, in ``__slots__``, and gets ``_fill``, ``def __init__(self, <slots>)``
    made once for the class, which stores each argument in its slot.  A
    class without its own ``__init__`` is built through it; any other takes
    the record's inputs, its leading slots in order (else the class is refused
    when created), and ends with ``self._fill(...)``.  A miscounted call, or a
    derived field passed in, is Python's own TypeError naming the class.
    Records of one class are equal, and hash alike, when their fields are;
    copy and pickle pass the inputs back to ``__init__``, which derives the rest."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__slots__
        for name in slots:
            if name in ("self", "_setters", "_fill", "_inputs"):
                raise TypeError(f"{cls.__qualname__} cannot have a slot named {name!r}: "
                                "Record uses that name")
        cls._setters = tuple([getattr(cls, name).__set__ for name in slots])
        code = _fill_template(len(slots)).replace(co_varnames=("self", *slots, "_setters"))
        # The globals give the function its __module__.
        cls._fill = fill = FunctionType(code, {"__name__": vars(cls).get("__module__")})
        fill.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = fill
        code = cls.__init__.__code__  # flags 0x0C: *args or **kwargs
        cls._inputs = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
        if code.co_flags & 0x0C or cls._inputs != slots[:code.co_argcount - 1]:
            raise TypeError(f"{cls.__qualname__}.__init__ takes {cls._inputs}, which are not "
                            f"the leading slots of {slots}, in order")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._inputs])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")


class Weights(tuple):
    """The five coordinate weights (1, a1, a2, a3, a4) of the ambient space,
    as a validated, immutable tuple.

    The first weight is always 1 and the tuple is ascending.  Well-formedness
    additionally requires every three of (a1, a2, a3, a4) to be coprime, which
    keeps the singular locus met by a general hypersurface zero-dimensional.
    """

    __slots__ = ()

    def __new__(cls, a: Iterable[int]) -> "Weights":
        a = tuple(a)
        for x in a:
            if type(x) is not int:
                _check_integer("weight", x)
        if len(a) != 5:
            raise ValueError(f"need exactly five weights, got {len(a)}: {_shown(a)}")
        if min(a) < 1:
            raise ValueError(f"weights must be positive integers: {_shown(a)}")
        a0, a1, a2, a3, a4 = a
        if a0 != 1:
            raise ValueError(f"first weight must be 1, got {_shown(a0)}")
        if not a0 <= a1 <= a2 <= a3 <= a4:
            raise ValueError(f"weights must be ascending: {_shown(a)}")
        # In the order of combinations(a[1:], 3): the first failing triple is reported.
        for triple in ((a1, a2, a3), (a1, a2, a4), (a1, a3, a4), (a2, a3, a4)):
            g = gcd(*triple)
            if g != 1:
                raise ValueError(
                    f"weights {_shown(a)} are not well-formed: "
                    f"{_shown(triple)} share the common factor {_shown(g)}"
                )
        return tuple.__new__(cls, a)

    @property
    def tail_product(self) -> int:
        """The product a1*a2*a3*a4 appearing in the anticanonical degree."""
        return self[1] * self[2] * self[3] * self[4]


class StratumCurve(Record):
    """A coordinate-stratum curve: three coordinates set to zero.

    The two surviving coordinates span a weighted line P(w1, w2), so the
    curve has degree 1/(w1*w2) against the degree-1 polarization.  The
    vanishing set is stored as a frozenset, the two positive weights as a
    tuple in the order given (``from_vanishing`` reads them off ``Weights``).
    """

    __slots__ = ("vanishing", "surviving_weights")

    def __init__(self, vanishing: Iterable[int], surviving_weights: tuple[int, int]):
        vanishing = _check_vanishing(vanishing)
        weights = tuple(surviving_weights)
        for w in weights:
            _check_integer("stratum weight", w)
        if len(weights) != 2 or min(weights) < 1:
            raise ValueError(f"need two stratum weights >= 1, got {_shown(weights)}")
        self._fill(vanishing, weights)

    @classmethod
    def from_vanishing(cls, weights: Weights, vanishing) -> "StratumCurve":
        """Build the stratum curve of ``weights`` with the given vanishing indices."""
        v = _check_vanishing(vanishing)
        return cls(v, stratum_weights(weights, v))

    @property
    def degree(self) -> Fraction:
        """deg C = 1/(w1*w2), as every certificate on the stratum has it."""
        return Fraction(_stratum(*self.surviving_weights, 1)[-1][0][1])  # the deg_c text


def anticanonical_cube(d: int, weights: Weights) -> Fraction:
    """Anticanonical degree d/(a1*a2*a3*a4) of a degree-d hypersurface.

    Homogeneous of degree 1 in d, so scaling d scales the result.  TypeError
    for a degree that is not an int.
    """
    if type(d) is not int:
        _check_integer("degree", d)
    if d < 1:
        raise ValueError(f"degree must be positive, got {_shown(d)}")
    return Fraction(d, weights.tail_product)


def format_rational(q: Fraction | int) -> str:
    """Canonical "p/q" rendering used in all text and JSON output.

    Integers keep an explicit denominator ("4/1") so the format is uniform
    and parses back without a special case.  Anything but an ``int`` or a
    ``Fraction`` (a bool, float, ``Decimal`` or str) raises ``TypeError``.
    """
    _check_rational("rational", q)
    return _ratio_text(*q.as_integer_ratio())
