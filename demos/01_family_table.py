"""Demo 1 — the 95-family table.

Loads the packaged table of anticanonically embedded Fano threefold weighted
hypersurfaces X_d in P(1, a1, a2, a3, a4), shows how records are validated,
and computes the basic numerical invariants every later check builds on.

Run:  python3 demos/01_family_table.py
"""

import io

from fano95 import (
    StratumCurve,
    ValidationError,
    anticanonical_cube,
    load_families,
    load_packaged_families,
    serialize_families,
)

db = load_packaged_families()
print(f"loaded {len(db)} families\n")

print("A record carries the family number, the hypersurface degree d, the")
print("five weights (always starting with 1), and the cached degree cap")
print("A^3 = d / (a1*a2*a3*a4) — the anticanonical degree of the threefold:\n")
for number in (1, 20, 29, 75, 95):
    f = db.get(number)
    print(
        f"  family {f.number:2d}: X_{f.d} in P{tuple(f.weights)},"
        f"  A^3 = {f.a_cube}"
    )

print("\nEvery weight system is validated on load: ascending order, leading 1,")
print("d equal to the weight sum, and no common factor among any three of the")
print("last four weights (well-formedness).  A corrupted line fails loudly:\n")
try:
    load_families(io.StringIO("3\t7\t1\t1\t1\t1\t3"))
except ValidationError as exc:
    print(f"  {exc}\n")

f20 = db.get(20)
print("Curves cut out by three vanishing coordinates ('stratum curves') have")
print("degree 1/(w1*w2) for the two surviving weights.  On family 20:")
for vanishing in [(0, 2, 3), (0, 1, 2)]:
    c = StratumCurve.from_vanishing(f20.weights, vanishing)
    print(f"  vanishing {set(vanishing)} -> surviving weights "
          f"{c.surviving_weights}, degree {c.degree}")

print("\nCoordinate points lie on a general member exactly when their weight")
print("does not divide d; for family 20 (d = 13):")
for i in range(5):
    on_x = f20.d % f20.weights[i] != 0
    print(f"  P_{i} (weight {f20.weights[i]}): {'on X' if on_x else 'off X'}")

print("\nThe degree-cap scaling law (A^3 is linear in d at fixed weights):")
w = f20.weights
print(f"  A^3(13) = {anticanonical_cube(13, w)},  A^3(26) = {anticanonical_cube(26, w)}")

round_trip = load_families(io.StringIO(serialize_families(db)))
print(f"\nserialize -> load round-trip preserves all records: "
      f"{round_trip == db}")
