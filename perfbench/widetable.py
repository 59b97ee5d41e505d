"""Seeded surface-row table for the ``wide-text`` workload.

The table holds every (family, coordinate stratum) pair exactly once:
95 families x 10 strata = 950 rows, about 45 times the packaged 21.  The seed
picks the row order, each row's method and its multiplier ``m``.

Each row's ``fails`` tags are computed here from the weights by the rule that
``fano95.certificates.expected_fail_tags`` documents, without calling it, so
the engine's own tag cross-check still checks something:

* ``residual``: the family is in the second case (a1 = 1 < a2) and its
  residual bound fails (d >= a2*a4);
* ``contracted``: the last coordinate point lies on X (a4 does not divide d)
  and the product bound fails (d >= a1*a2*a3).

A method-42 row needs a positive companion degree, m*A^3 > deg C, which is the
precondition ``certify_row`` states.  A (method, m) draw that breaks it is
rejected and drawn again, and the rejections are counted, so the generated
mix stays visible.  Rows breaking the precondition crash the engine today;
they belong to the tests of that fix, not to a benchmark workload.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

#: The ten coordinate strata: every set of three vanishing coordinates.
STRATA = tuple(combinations(range(5), 3))

#: Multipliers a row may draw; the packaged table uses 2..7.
M_CHOICES = tuple(range(1, 9))

METHODS = ("41", "42")


def fail_tags(d: int, a: tuple[int, ...]) -> tuple[str, ...]:
    """The coarse bounds that fail for weights ``a`` = (1, a1, a2, a3, a4)."""
    tags = []
    if a[1] == 1 < a[2] and d >= a[2] * a[4]:
        tags.append("residual")
    if d % a[4] != 0 and d >= a[1] * a[2] * a[3]:
        tags.append("contracted")
    return tuple(sorted(tags))


def generate(families, seed: int) -> tuple[str, dict]:
    """TSV text of the wide table for ``seed``, and the generator's counts.

    ``families`` yields records with ``number``, ``d`` and ``weights``.
    """
    rng = random.Random(seed)
    keys = [(f, stratum) for f in families for stratum in STRATA]
    rng.shuffle(keys)
    stats = {"rows": len(keys), "method_41": 0, "method_42": 0, "rejected_draws": 0}
    lines = [f"# wide-text surface rows, seed {seed}\n"]
    for f, vanishing in keys:
        a = tuple(f.weights)
        a_cube = Fraction(f.d, a[1] * a[2] * a[3] * a[4])
        w1, w2 = (a[i] for i in range(5) if i not in vanishing)
        deg_c = Fraction(1, w1 * w2)
        while True:
            method = rng.choice(METHODS)
            m = rng.choice(M_CHOICES)
            if method == "41" or m * a_cube > deg_c:
                break
            stats["rejected_draws"] += 1
        stats[f"method_{method}"] += 1
        lines.append(
            f"{f.number}\t{','.join(map(str, vanishing))}\t"
            f"{','.join(fail_tags(f.d, a))}\t{method}\t{m}\n"
        )
    return "".join(lines), stats
