"""Demo 2 — case analysis and derived family lists.

The families split by their smallest nontrivial weights into three cases,
and each case has a coarse degree bound that excludes most low-degree curve
classes outright.  This demo evaluates those bounds exactly and re-derives
every special-family list from the weights alone.

Run:  python3 demos/02_case_analysis.py
"""

from collections import Counter
from math import gcd

from fano95 import (
    CaseTag,
    GOLDEN_LISTS,
    derived_lists,
    family_verdict,
    load_packaged_families,
)

db = load_packaged_families()
# One verdict per family: its case, the case's residual verdict (a BoundStatus
# in Case 1, else a bool), the reason its contracted curves are safe and its
# Case-1 comparisons against the degree cap, and its tangent indices with
# their divisibility witnesses where the projection can contract curves.
verdicts = {f.number: family_verdict(f) for f in db}

parts = {tag: [] for tag in CaseTag}
for f in db:
    parts[verdicts[f.number].case].append(f.number)
print("case partition (by the two smallest nontrivial weights):")
for tag, numbers in parts.items():
    print(f"  {tag.value}: {len(numbers)} families")

print("\nCase 1 (a1 > 1): compare d against a1*a4 and a2*a4.")
for n in (40, 23, 18):
    f = db.get(n)
    a = f.weights
    print(f"  family {n:2d}: d = {f.d:2d}, a1*a4 = {a[1] * a[4]:3d}, "
          f"a2*a4 = {a[2] * a[4]:3d}  ->  {verdicts[n].residual.value}")
case1 = parts[CaseTag.CASE1]
counts = Counter(verdicts[n].residual.value for n in case1)
print(f"  verdict counts over all {len(case1)} Case-1 families: {dict(counts)}")

print("\nWhen a1 and a2 share a factor h > 1 the image-point argument changes:")
print("the fibre degree drops to 1/(a3*h) and the bound applies only if that")
print("still exceeds the degree cap — equality is not enough:")
for n in (43, 22, 18):
    f = db.get(n)
    c = verdicts[n].shared_factor
    verdict = "applies" if c.contradiction else (
        "exact equality" if c.relation == "=" else "fails")
    print(f"  family {n:2d}: h = {gcd(f.weights[1], f.weights[2])}, "
          f"1/(a3*h) = {c.lhs} vs A^3 = {c.rhs}  ->  {verdict}")

print("\nCase 2 (a1 = 1 < a2): the residual bound is d < a2*a4.")
exceptions = [n for n in parts[CaseTag.CASE2] if not verdicts[n].residual]
print(f"  exceptions (bound fails): {exceptions}")

print("\nCase 3 (a1 = a2 = 1): non-stratum curves have integer degree, so a")
print("degree cap below 1 excludes them all:")
for n in parts[CaseTag.CASE3]:
    f = db.get(n)
    mark = "cap < 1, integral filter settles it" if verdicts[n].residual \
        else "cap >= 1, needs the blow-up certificates"
    print(f"  family {n:2d}: A^3 = {f.a_cube}  ({mark})")

print("\nContracted classes: projecting away from the largest-weight coordinate")
print("can contract curves only when the last coordinate point lies on X and")
print("the product bound d < a1*a2*a3 fails:")
unsafe = [n for n, v in verdicts.items() if v.contracted is None]
print(f"  families needing a separate contracted argument: {unsafe}")

f20 = db.get(20)
j, witnesses = verdicts[20].tangents[0]
print(f"\n  e.g. family 20, tangent index {j}: each reduced weight divides")
print(f"  d - a4 = {f20.d - f20.weights[4]} or d = {f20.d}: "
      + ", ".join(f"{w} | {divisor}" for _, w, divisor in witnesses))

derived = derived_lists(db)
agree = derived == {k: tuple(v) for k, v in GOLDEN_LISTS.items()}
print("\nall six lists re-derived from the weights match the expected sets:",
      agree)
