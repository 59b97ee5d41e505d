"""Per-family coverage audit: every family needs a residual and a contracted route."""

import io
from collections import Counter

import pytest

from fano95 import (
    AnnotationKind,
    CaseTag,
    build_coverage,
    load_surface_rows,
    serialize_surface_rows,
    verify_surface_table,
)


@pytest.fixture(scope="module")
def coverage(db, rows):
    return build_coverage(db, rows)


def _entry(coverage, number):
    return next(c for c in coverage if c.family == number)


@pytest.mark.parametrize("seed", [None, 11], ids=["packaged", "wide-11"])
def test_coverage_reuses_passed_certificates(db, rows, wide_tables, seed):
    table = rows if seed is None else load_surface_rows(wide_tables[seed])
    reused = build_coverage(
        db, table, verification=verify_surface_table(db, table)
    )
    assert reused == build_coverage(db, table)


def test_coverage_lists_every_family_once(coverage):
    assert [c.family for c in coverage] == list(range(1, 96))


def test_all_families_covered(coverage):
    assert all(c.status == "Covered" for c in coverage)
    assert all(c.gaps == () for c in coverage)


def test_route_distribution(coverage):
    dist = Counter((c.case.value, c.residual.route, c.contracted.route) for c in coverage)
    assert dist == {
        ("case1", "strong-bound", "no-contracted-curves"): 18,
        ("case1", "strong-bound", "contracted-degree-bound"): 9,
        ("case1", "weak-bound", "no-contracted-curves"): 13,
        ("case1", "weak-bound", "contracted-degree-bound"): 9,
        ("case1", "extension-checks", "no-contracted-curves"): 4,
        ("case1", "extension-checks", "surface-rows"): 1,
        ("case2", "pencil-bound", "no-contracted-curves"): 12,
        ("case2", "pencil-bound", "contracted-degree-bound"): 4,
        ("case2", "pencil-bound", "surface-rows"): 4,
        ("case2", "surface-rows", "no-contracted-curves"): 7,
        ("case2", "surface-rows", "surface-rows"): 5,
        ("case3", "test-class", "no-contracted-curves"): 4,
        ("case3", "test-class", "containment-assertion"): 2,
        ("case3", "integer-filter", "no-contracted-curves"): 2,
        ("case3", "integer-filter", "containment-assertion"): 1,
    }


@pytest.mark.parametrize(
    "number, residual, contracted",
    [
        (75, "strong-bound", "no-contracted-curves"),
        (20, "pencil-bound", "surface-rows"),
        (18, "extension-checks", "surface-rows"),
        (16, "surface-rows", "surface-rows"),
        (8, "integer-filter", "containment-assertion"),
        (2, "test-class", "containment-assertion"),
    ],
)
def test_route_examples(coverage, number, residual, contracted):
    entry = _entry(coverage, number)
    assert entry.residual.route == residual
    assert entry.contracted.route == contracted


def test_containment_annotations_exactly_families_2_5_8(coverage):
    for c in coverage:
        kinds = [a.kind for a in c.annotations]
        if c.family in (2, 5, 8):
            assert AnnotationKind.CONTAINMENT_OUT_OF_SCOPE in kinds
        else:
            assert AnnotationKind.CONTAINMENT_OUT_OF_SCOPE not in kinds


def test_surface_row_routes_carry_index_rule_note(coverage):
    for c in coverage:
        kinds = {a.kind for a in c.annotations}
        uses_rows = "surface-rows" in (c.residual.route, c.contracted.route)
        assert (AnnotationKind.INDEX_RULE in kinds) == uses_rows, c.family


def test_weak_bound_routes_state_their_assumption(coverage):
    for c in coverage:
        if c.residual.route == "weak-bound":
            assert any(
                a.kind is AnnotationKind.GENERALITY for a in c.residual.annotations
            ), c.family


def test_route_values_are_formatted_rationals(coverage):
    entry = _entry(coverage, 20)
    values = dict(entry.contracted.values)
    assert values["row {0,2,3} deg"] == "1/5"
    assert values["row {0,2,3} value"] == "-4/3"


def test_case_tags_match_weights(coverage, db):
    from fano95 import classify_case

    for c in coverage:
        assert c.case is classify_case(db.get(c.family))


def test_extension_route_lists_assumption_annotations(coverage):
    entry = _entry(coverage, 18)
    gen = [a for a in entry.annotations if a.kind is AnnotationKind.GENERALITY]
    # two non-strict extension comparisons plus the stratum-reduction note
    assert len(gen) >= 3


# ---------------------------------------------------------------------------
# Gap detection


def _rows_without_family(rows, number):
    text = serialize_surface_rows([r for r in rows if r.family != number])
    return load_surface_rows(io.StringIO(text)) if text.strip() else ()


def test_missing_rows_open_gaps_for_surface_family(db, rows):
    reduced = [r for r in rows if r.family != 16]
    coverage = build_coverage(db, reduced)
    entry = _entry(coverage, 16)
    assert entry.status == "Gap"
    assert entry.gaps  # both failing classes lose their route
    assert any("residual" in g for g in entry.gaps)
    assert any("contracted" in g for g in entry.gaps)
    # every other family is unaffected
    assert all(c.status == "Covered" for c in coverage if c.family != 16)


def test_missing_contracted_row_opens_single_gap(db, rows):
    reduced = [r for r in rows if r.family != 20]
    coverage = build_coverage(db, reduced)
    entry = _entry(coverage, 20)
    assert entry.status == "Gap"
    assert entry.residual.route == "pencil-bound"  # still covered
    assert any("contracted" in g for g in entry.gaps)


def test_invalid_replacement_row_opens_contracted_gap(db, rows):
    # Swap family 20's row for the {0,1,2} stratum with the same multiplier:
    # the certificate comes out positive (+1/6), so the contracted class is
    # reported as uncovered rather than silently accepted.
    from fano95 import certificates as C

    swapped = [r for r in rows if r.family != 20]
    swapped.append(C.parse_surface_row("20\t0,1,2\tcontracted\t41\t4"))
    coverage = build_coverage(db, swapped)
    entry = _entry(coverage, 20)
    assert any("invalid surface certificate" in g for g in entry.gaps)


def test_row_inside_last_hyperplane_cannot_cover_contracted(db, rows):
    # A stratum with the last coordinate among its vanishing indices misses
    # the last coordinate point entirely, so it cannot witness the contracted
    # classes even when its own certificate is valid.
    from fano95 import certificates as C

    swapped = [r for r in rows if r.family != 20]
    swapped.append(C.parse_surface_row("20\t1,2,4\tcontracted\t41\t2"))
    coverage = build_coverage(db, swapped)
    entry = _entry(coverage, 20)
    assert any("no surface row through the last coordinate point" in g for g in entry.gaps)
    assert not any("invalid" in g for g in entry.gaps)
