"""Exact arithmetic and elementary numerical geometry of weighted projective 4-space.

Every degree and intersection number in this package is an exact
``fractions.Fraction``; nothing anywhere touches floating point, so equality
of certificate values is bit-exact.  Conventions: a hypersurface of degree d
lives in P(1, a1, a2, a3, a4) with the five coordinates indexed 0..4 in
ascending weight order, and its anticanonical degree is d/(a1*a2*a3*a4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

#: Exact rational scalar.  ``Fraction`` already guarantees the contract this
#: package needs: lowest terms, positive denominator, exact arithmetic and
#: total ordering over arbitrary-precision integers.
Rational = Fraction


def _check_integer(what: str, value) -> None:
    """Reject a non-integer, a bool included: a float would make values inexact."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Weights:
    """The five coordinate weights (1, a1, a2, a3, a4) of the ambient space.

    The first weight is always 1 and the tuple is ascending.  Well-formedness
    additionally requires every three of (a1, a2, a3, a4) to be coprime, which
    keeps the singular locus met by a general hypersurface zero-dimensional.
    """

    a: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        a = tuple(self.a)
        for x in a:
            _check_integer("weight", x)
        object.__setattr__(self, "a", a)
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

    def __getitem__(self, i: int) -> int:
        return self.a[i]

    def __iter__(self):
        return iter(self.a)

    def __len__(self) -> int:
        return 5

    @property
    def tail(self) -> tuple[int, int, int, int]:
        """The nontrivial weights (a1, a2, a3, a4)."""
        return self.a[1:]

    @property
    def tail_product(self) -> int:
        """The product a1*a2*a3*a4 appearing in the anticanonical degree."""
        a = self.a
        return a[1] * a[2] * a[3] * a[4]


@dataclass(frozen=True)
class StratumCurve:
    """A coordinate-stratum curve: three coordinates set to zero.

    The two surviving coordinates span a weighted line P(w1, w2), so the
    curve has degree 1/(w1*w2) against the degree-1 polarization.
    """

    vanishing: frozenset[int]
    surviving_weights: tuple[int, int]

    def __post_init__(self) -> None:
        vanishing = frozenset(self.vanishing)
        surviving = tuple(self.surviving_weights)
        for i in vanishing:
            _check_integer("vanishing index", i)
        for w in surviving:
            _check_integer("surviving weight", w)
        object.__setattr__(self, "vanishing", vanishing)
        object.__setattr__(self, "surviving_weights", surviving)
        if len(vanishing) != 3:
            raise ValueError(f"need exactly three vanishing indices, got {sorted(vanishing)}")
        if not vanishing <= set(range(5)):
            raise ValueError(f"vanishing indices must lie in 0..4: {sorted(vanishing)}")
        if len(surviving) != 2 or any(w < 1 for w in surviving):
            raise ValueError(f"surviving weights must be two positive integers: {surviving}")

    @classmethod
    def from_vanishing(cls, weights: Weights, vanishing) -> "StratumCurve":
        """Build the stratum curve of ``weights`` with the given vanishing indices."""
        v = frozenset(vanishing)
        surviving = tuple(weights[i] for i in sorted(set(range(5)) - v))
        return cls(vanishing=v, surviving_weights=surviving)  # type: ignore[arg-type]

    @property
    def degree(self) -> Rational:
        """deg C = 1/(w1*w2)."""
        w1, w2 = self.surviving_weights
        return Fraction(1, w1 * w2)


def anticanonical_cube(d: int, weights: Weights) -> Rational:
    """Anticanonical degree d/(a1*a2*a3*a4) of a degree-d hypersurface.

    Homogeneous of degree 1 in d, so scaling d scales the result.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    return Fraction(d, weights.tail_product)


def format_rational(q: Rational | int) -> str:
    """Canonical "p/q" rendering used in all text and JSON output.

    Integers keep an explicit denominator ("4/1") so the format is uniform
    and parses back without a special case.
    """
    return f"{q.numerator}/{q.denominator}"


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Rational:
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
