"""Exact arithmetic and elementary numerical geometry of weighted projective 4-space.

Every degree and intersection number in this package is an exact
``fractions.Fraction``; nothing anywhere touches floating point, so equality
of certificate values is bit-exact.  Conventions: a hypersurface of degree d
lives in P(1, a1, a2, a3, a4) with the five coordinates indexed 0..4 in
ascending weight order, and its anticanonical degree is d/(a1*a2*a3*a4).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable


def _check_integer(what: str, value) -> None:
    """Reject a non-integer, a bool included: a float would make values inexact."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")


_COORDINATES = frozenset(range(5))


def _check_vanishing(vanishing) -> frozenset[int]:
    """The vanishing set as a frozenset; rejects any set but three distinct
    integer indices in 0..4."""
    vanishing = frozenset(vanishing)
    for i in vanishing:
        _check_integer("vanishing index", i)
    if len(vanishing) != 3 or not vanishing <= _COORDINATES:
        raise ValueError(
            f"vanishing set must be 3 distinct indices in 0..4, got {sorted(vanishing)}"
        )
    return vanishing


class Record:
    """Base of the package's immutable records: a subclass names its fields in
    ``__slots__`` and stores them in its own ``__init__``.  Records of one
    class are equal, and hash alike, when their fields are; copy and pickle
    rebuild them through the constructor."""

    __slots__ = ()

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
        return type(self), self._fields()

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
            _check_integer("weight", x)
        if len(a) != 5:
            raise ValueError(f"need exactly five weights, got {len(a)}: {a}")
        if any(x < 1 for x in a):
            raise ValueError(f"weights must be positive integers: {a}")
        if a[0] != 1:
            raise ValueError(f"first weight must be 1, got {a[0]}")
        if list(a) != sorted(a):
            raise ValueError(f"weights must be ascending: {a}")
        for triple in combinations(a[1:], 3):
            g = gcd(gcd(triple[0], triple[1]), triple[2])
            if g != 1:
                raise ValueError(
                    f"weights {a} are not well-formed: "
                    f"{triple} share the common factor {g}"
                )
        return super().__new__(cls, a)

    @property
    def tail(self) -> tuple[int, int, int, int]:
        """The nontrivial weights (a1, a2, a3, a4)."""
        return self[1:]

    @property
    def tail_product(self) -> int:
        """The product a1*a2*a3*a4 appearing in the anticanonical degree."""
        return self[1] * self[2] * self[3] * self[4]


class StratumCurve(Record):
    """A coordinate-stratum curve: three coordinates set to zero.

    The two surviving coordinates span a weighted line P(w1, w2), so the
    curve has degree 1/(w1*w2) against the degree-1 polarization.  Only the
    vanishing set is checked, and stored as a frozenset: ``from_vanishing``
    reads the surviving weights off an already validated ``Weights``.
    """

    __slots__ = ("vanishing", "surviving_weights")

    def __init__(self, vanishing: Iterable[int], surviving_weights: tuple[int, int]):
        object.__setattr__(self, "vanishing", _check_vanishing(vanishing))
        object.__setattr__(self, "surviving_weights", surviving_weights)

    @classmethod
    def from_vanishing(cls, weights: Weights, vanishing) -> "StratumCurve":
        """Build the stratum curve of ``weights`` with the given vanishing indices."""
        v = frozenset(vanishing)
        return cls(v, tuple([w for i, w in enumerate(weights) if i not in v]))

    @property
    def degree(self) -> Fraction:
        """deg C = 1/(w1*w2)."""
        w1, w2 = self.surviving_weights
        return Fraction(1, w1 * w2)


def anticanonical_cube(d: int, weights: Weights) -> Fraction:
    """Anticanonical degree d/(a1*a2*a3*a4) of a degree-d hypersurface.

    Homogeneous of degree 1 in d, so scaling d scales the result.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    return Fraction(d, weights.tail_product)


def format_rational(q: Fraction | int) -> str:
    """Canonical "p/q" rendering used in all text and JSON output.

    Integers keep an explicit denominator ("4/1") so the format is uniform
    and parses back without a special case.
    """
    return f"{q.numerator}/{q.denominator}"


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; accepts only "p" or "p/q" forms."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in rational literal {text!r}") from exc


def coordinate_point_on_hypersurface(d: int, weights: Weights, i: int) -> bool:
    """Whether the i-th coordinate point lies on a general degree-d hypersurface.

    The point is avoided exactly when a pure power of the i-th coordinate has
    degree d, i.e. when its weight divides d; for i = 0 the weight is 1 and
    the answer is always False.
    """
    if not 0 <= i <= 4:
        raise ValueError(f"coordinate index must lie in 0..4, got {i}")
    return d % weights[i] != 0
