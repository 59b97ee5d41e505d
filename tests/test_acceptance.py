"""Acceptance gate: one test per criterion, each emitting one pass/fail line.

Every check is exact rational arithmetic — zero tolerance throughout.  Run
with ``pytest -v tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import random
from fractions import Fraction
from math import gcd

from fano95 import certificates as C
from fano95 import wps
from fano95 import (
    GOLDEN_LISTS,
    AnnotationKind,
    CaseTag,
    build_coverage,
    case3_test_class_certificates,
    cli,
    derived_lists,
    shared_factor_check,
    verify_surface_table,
)


def test_acceptance_1_derived_lists_match_goldens_exactly(db):
    """All six derived family lists equal the expected sets, member for member."""
    derived = derived_lists(db)
    expected = {name: tuple(v) for name, v in GOLDEN_LISTS.items()}
    assert derived == expected


def test_acceptance_2_worked_examples_are_exact(db, rows):
    """Spot values recompute exactly: the degree-6 conic certificate, the
    family-20 adjunction chain, the family-29 two-curve pair, and the three
    shared-factor comparisons."""
    # degree-6 conic blow-up class value
    conic = next(c for c in case3_test_class_certificates(db) if c.family == 3)
    assert conic.value == Fraction(-4)

    # family-20 chain: orbifold corrections, self-intersection, exclusion value
    certs = {
        (c.family, tuple(sorted(c.row.vanishing))): c
        for c in verify_surface_table(db, rows).certificates
    }
    chain = certs[(20, (0, 2, 3))]
    assert chain.diff_total == Fraction(4, 5)
    assert chain.c2t == Fraction(-9, 5)
    assert chain.exclusion_value == Fraction(-4, 3)

    # family-29 two-curve pair: equal self-intersections, both conditions hold
    pair = certs[(29, (0, 2, 4))]
    assert pair.c2t == Fraction(-7, 5)
    assert pair.c_prime_sq == Fraction(-7, 5)
    assert pair.forces_alpha_one is True
    assert pair.degree_contradiction is True

    # shared-factor comparisons: strict for family 43, equalities for 22 and 28
    c43 = shared_factor_check(db.get(43))
    assert (c43.lhs, c43.rhs) == (Fraction(1, 10), Fraction(1, 18))
    assert c43.contradiction is True
    for n in (22, 28):
        assert shared_factor_check(db.get(n)).relation == "="


def test_acceptance_3_certificates_complete(db, rows):
    """All six blow-up certificates are strictly negative and all 21 surface
    rows certify valid; any failing row is listed in the assertion message."""
    tc = case3_test_class_certificates(db)
    assert len(tc) == 6
    assert all(c.value < 0 for c in tc), [(c.family, c.value) for c in tc]

    verification = verify_surface_table(db, rows)
    assert len(verification.certificates) == 21
    failing = [
        (c.family, sorted(c.row.vanishing), str(c.exclusion_value))
        for c in verification.invalid
    ]
    assert verification.invalid == (), f"invalid rows: {failing}"
    assert verification.tag_mismatches == (), (
        f"tag mismatches: {verification.tag_mismatches}"
    )


def test_acceptance_4_database_integrity(db):
    """All 95 records satisfy the degree sum, ascending weights, and the
    any-three-gcd-1 condition; the nine transcription anchors hold."""
    assert len(db) == 95
    for f in db:
        w = tuple(f.weights)
        assert w[0] == 1
        assert f.d == sum(w[1:]), f.number
        assert all(w[i] <= w[i + 1] for i in range(4)), f.number
        tail = w[1:]
        for skip in range(4):
            triple = [t for k, t in enumerate(tail) if k != skip]
            assert gcd(gcd(triple[0], triple[1]), triple[2]) == 1, f.number

    anchors = {
        1: ((1, 1, 1, 1, 1), 4, None),
        4: (None, None, Fraction(3, 2)),
        5: (None, None, Fraction(7, 6)),
        6: (None, None, Fraction(1)),
        8: ((1, 1, 1, 3, 4), 9, Fraction(3, 4)),
        19: ((1, 2, 3, 3, 4), 12, Fraction(1, 6)),
        25: ((1, 1, 3, 4, 7), 15, None),
        36: ((1, 1, 4, 6, 7), 18, None),
        43: ((1, 2, 4, 5, 9), 20, Fraction(1, 18)),
    }
    for number, (weights, d, cap) in anchors.items():
        f = db.get(number)
        if weights is not None:
            assert tuple(f.weights) == weights, number
        if d is not None:
            assert f.d == d, number
        if cap is not None:
            assert f.a_cube == cap, number


def test_acceptance_5_coverage_audit(db, rows):
    """Every family reports Covered; the out-of-scope containment annotation
    appears exactly on families 2, 5, and 8 and nowhere else."""
    coverage = build_coverage(db, rows)
    assert [c.family for c in coverage] == list(range(1, 96))
    gaps = [(c.family, c.gaps) for c in coverage if c.status != "Covered"]
    assert gaps == [], f"uncovered families: {gaps}"

    annotated = tuple(c.family for c in coverage if any(
        a.kind is AnnotationKind.CONTAINMENT_OUT_OF_SCOPE for a in c.annotations))
    assert annotated == (2, 5, 8)
    for c in coverage:
        if c.family in (2, 5, 8):
            continue
        kinds = {a.kind for a in c.annotations}
        assert AnnotationKind.CONTAINMENT_OUT_OF_SCOPE not in kinds, c.family
        if c.case is CaseTag.CASE3:
            assert c.contracted.route != "containment-assertion", c.family


def test_acceptance_6_property_suites(db, capsys):
    """Randomized property checks (seeded): rational arithmetic laws and the
    closed-vs-expanded agreement at 1000 cases each, orbifold-correction
    additivity, exclusion-value monotonicity, and byte-identical JSON."""
    rng = random.Random(0x5EED)

    def rational():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    # rational arithmetic laws: 1000 randomized triples
    for _ in range(1000):
        a, b, c = rational(), rational(), rational()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        if c != 0:
            assert (a / c) * c == a
        # normalization is idempotent and canonical
        assert Fraction(a.numerator, a.denominator) == a
        assert gcd(a.numerator, a.denominator) in (0, 1)

    # closed form versus expanded intersection products: 1000 randomized cases
    # over the packaged records, each certificate against the closed form and
    # the product (bA − E)(A − E)² multiplied out with A²E = 0, AE² = −deg C
    # and E³ = 2 − 2p_a − deg C, both in Fraction arithmetic
    for _ in range(1000):
        f = rng.choice(db.records)
        bb = rng.randint(1, 12)
        deg = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        p_a = rng.randint(0, 6)
        a2e, ae2, e3 = 0, -deg, 2 - 2 * p_a - deg
        expanded = (bb * f.a_cube - 2 * bb * a2e + bb * ae2
                    - a2e + 2 * ae2 - e3)  # bA·(A² − 2AE + E²) − E·(A² − 2AE + E²)
        cert = C.TestClassCertificate(f, "curve", bb, deg, p_a)
        assert cert.value == bb * f.a_cube - (bb + 1) * deg - 2 + 2 * p_a == expanded

    def different(indices):
        return Fraction(*wps._different(indices))

    # orbifold-correction additivity, bounded above by the index count
    for _ in range(200):
        xs = [rng.randint(2, 40) for _ in range(rng.randint(0, 6))]
        ys = [rng.randint(2, 40) for _ in range(rng.randint(0, 6))]
        assert different(xs + ys) == different(xs) + different(ys)
        assert different(xs) < len(xs) or not xs

    def exclusion_value(m, cap, deg, c2t):
        return Fraction(*C._exclusion_value(m, *cap.as_integer_ratio(),
                                            *deg.as_integer_ratio(), *c2t.as_integer_ratio()))

    # exclusion value: strictly increasing in m*cap, strictly decreasing in deg
    for _ in range(200):
        m = rng.randint(1, 9)
        cap_lo = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        cap_hi = cap_lo + Fraction(rng.randint(1, 50), rng.randint(1, 50))
        deg_lo = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        deg_hi = deg_lo + Fraction(rng.randint(1, 50), rng.randint(1, 50))
        c2t = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
        assert exclusion_value(m, cap_hi, deg_lo, c2t) > exclusion_value(m, cap_lo, deg_lo, c2t)
        assert exclusion_value(m, cap_lo, deg_hi, c2t) < exclusion_value(m, cap_lo, deg_lo, c2t)

    # byte-identical JSON across repeated full runs
    assert cli.main(["full", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["full", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    assert json.loads(first) == json.loads(second)
