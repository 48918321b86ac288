"""Scan the cosine slice of the witness family over the coupling phase.

Every scanned point reports the closed-form spectra, proved against its
built matrix by a Weyl bound; a row whose bound is too large to back its
verdict would carry "certificate-failed" instead of a conclusion.
"""

import math

from spa_witness.hakye import reference_violation_params
from spa_witness.scan import analyze_point, build_grid, parse_grid_axis, run_scan

grid = build_grid(
    [parse_grid_axis(f"theta=0.01:{math.pi / 2 - 0.01}:25")],
    {},
    cos_family=True,
)
scan = run_scan(grid)  # one column array per report column

print(f"{'theta':>8s} {'lam0(W)':>12s} {'lam0(W^PT)':>12s} {'gap':>12s}  verdict")
for theta, lam0, lam0_pt, gap, verdict in zip(
    scan["theta"], scan["lambda0_W"], scan["lambda0_WGamma"], scan["gap"], scan["verdict"]
):
    print(f"{theta:8.4f} {lam0:12.6f} {lam0_pt:12.6f} {gap:12.6f}  {verdict}")

largest = scan["gap"].argmax()
print(
    f"\n{scan['condition_holds'].sum()} of {len(scan['gap'])} points violate "
    "the separability conjecture"
)
print(f"largest gap {scan['gap'][largest]:.6f} at theta = {scan['theta'][largest]:.4f}")

reference = analyze_point(reference_violation_params(math.pi / 12))
print(
    f"reference theta = pi/12: gap {reference['gap']:.6f}, "
    f"verdict {reference['verdict']}"
)
