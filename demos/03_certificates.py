"""Demo 3 — exclusion certificates.

Three kinds of certificate finish off the curve classes that survive the
coarse bounds: blow-up test classes (Case 3), surface-method rows (adjunction
on a surface through the curve), and extension checks for the five Case-1
families whose residual bound fails.

Run:  python3 demos/03_certificates.py
"""

from fano95 import (
    Method,
    SurfaceCertificate,
    case3_test_class_certificates,
    derived_lists,
    family_verdict,
    load_packaged_families,
    load_packaged_surface_rows,
    verify_surface_table,
)

db = load_packaged_families()
rows = load_packaged_surface_rows()

print("Blow-up test classes: blowing up the candidate curve and intersecting")
print("a nef class against the anticanonical square gives")
print("  b*A^3 - (b+1)*deg(C) - 2 + 2*p_a,")
print("strictly negative exactly when the curve is excluded:\n")
for c in case3_test_class_certificates(db):
    print(f"  family {c.family}: {c.curve:13s} multiplier b = {c.b},"
          f"  value = {c.value}  ({'excluded' if c.valid else 'NOT excluded'})")

print("\nSurface-method rows: on a surface T in |m*A| through the stratum")
print("curve C, adjunction with orbifold corrections gives C^2 on T, then")
print("  m*A^3 - 2*deg(C) + C^2 < 0  excludes C.  Family 20's row:\n")
row20 = next(r for r in rows if r.family == 20)
cert = SurfaceCertificate(row20, db.get(20))
print(f"  stratum {set(sorted(row20.vanishing))}, m = {row20.m}")
print(f"  curve degree        {cert.deg_c}")
print(f"  orbifold corrections {cert.diff_total} (from weights {cert.diff_indices})")
print(f"  self-intersection   {cert.c2t}")
print(f"  exclusion value     {cert.exclusion_value}  -> valid = {cert.valid}")

print("\nThe two-curve variant pairs C with the companion curve C' cut out on")
print("the same surface; both self-intersections negative plus a degree-sum")
print("contradiction excludes both.  Family 29's row:\n")
row29 = next(r for r in rows if r.family == 29 and r.method is Method.M42)
cert29 = SurfaceCertificate(row29, db.get(29))
print(f"  deg C = {cert29.deg_c}, C^2 = {cert29.c2t}")
print(f"  deg C' = {cert29.deg_c_prime}, C'^2 = {cert29.c_prime_sq}")
print(f"  degree sum {cert29.degree_sum} > cap {cert29.a_cube}: "
      f"{cert29.degree_contradiction}")
print(f"  valid = {cert29.valid}")

verification = verify_surface_table(db, rows)
print(f"\nfull table: {len(verification.certificates)} rows,"
      f" invalid = {len(verification.invalid)},"
      f" tag mismatches = {len(verification.tag_mismatches)},"
      f" ok = {verification.ok}")

print("\nExtension checks (Case-1 families where the residual bound fails):")
print("project twice and compare every possible image against the cap; strict")
print("inequalities are certificates, non-strict entries name the geometric")
print("assumption they lean on:\n")
for n in derived_lists(db)["extension_required"]:
    comparisons = family_verdict(db.get(n)).extension_checks
    strict = sum(e.contradiction for e in comparisons)
    print(f"  family {n}: {strict} strict, "
          f"{len(comparisons) - strict} assumption-backed")
for e in family_verdict(db.get(18)).extension_checks:
    print(f"    18: {e.label:55s} {e.lhs} {e.relation} {e.rhs}")
