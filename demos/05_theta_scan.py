"""Scan the cosine slice of the witness family over the coupling phase.

Every scanned point is double-checked against the closed-form spectra; a
row whose eigensolver output drifts from the algebra would carry the
verdict "oracle-mismatch" instead of a conclusion.
"""

import math

from spa_witness.scan import analyze_point, build_grid, parse_grid_axis, run_scan

points = build_grid(
    [parse_grid_axis(f"theta=0.01:{math.pi / 2 - 0.01}:25")],
    {},
    cos_family=True,
)
rows = run_scan(points)

print(f"{'theta':>8s} {'lam0(W)':>12s} {'lam0(W^PT)':>12s} {'gap':>12s}  verdict")
for row in rows:
    print(
        f"{row['theta']:8.4f} {row['lambda0_W']:12.6f} "
        f"{row['lambda0_WGamma']:12.6f} {row['gap']:12.6f}  {row['verdict']}"
    )

violating = [r for r in rows if r["condition_holds"]]
largest = max(rows, key=lambda r: r["gap"])
print(f"\n{len(violating)} of {len(rows)} points violate the separability conjecture")
print(f"largest gap {largest['gap']:.6f} at theta = {largest['theta']:.4f}")

reference = analyze_point(
    build_grid([], {"theta": math.pi / 12}, cos_family=True)[0]
)
print(
    f"reference theta = pi/12: gap {reference['gap']:.6f}, "
    f"verdict {reference['verdict']}"
)
