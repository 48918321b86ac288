"""Scatter how a witness hyperplane cuts through state space.

Writes geometry rows (witness value, PT minimum, purity, side) for the
reference witness to demos/geometry.csv and prints a short summary.  If
matplotlib is importable a scatter plot is saved next to the CSV; the CSV
alone is the product, the figure is a convenience.
"""

from pathlib import Path

from spa_witness import hakye_witness, reference_violation_params
from spa_witness.geometry import GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, geometry_rows
from spa_witness.scan import write_rows_csv

out_dir = Path(__file__).resolve().parent
csv_path = out_dir / "geometry.csv"

witness = hakye_witness(reference_violation_params())
table = geometry_rows(witness, samples=150, seed=0)  # one column array per report column

with open(csv_path, "w", encoding="utf-8", newline="") as fh:
    write_rows_csv(table, GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, fh, reproducible=True)
print(f"wrote {len(table['source'])} rows to {csv_path}")

groups = {source: table["source"] == source for source in dict.fromkeys(table["source"])}
for source, rows in groups.items():
    values = table["witness_value"][rows]
    negative = (table["classification"][rows] == "negative-side").sum()
    print(
        f"{source:20s} n={rows.sum():3d}  witness value "
        f"[{values.min():+.4f}, {values.max():+.4f}]  negative-side: {negative}"
    )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    colors = {
        "ground-projector": "tab:red",
        "random-density": "tab:blue",
        "separable-ensemble": "tab:green",
    }
    for source, rows in groups.items():
        ax.scatter(
            table["min_pt_eigenvalue"][rows],
            table["witness_value"][rows],
            s=12,
            alpha=0.7,
            label=source,
            color=colors[source],
        )
    ax.axhline(0.0, color="black", linewidth=0.8)
    ax.set_xlabel("min eigenvalue of the partial transpose")
    ax.set_ylabel("witness value tr(W rho)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig_path = out_dir / "geometry.png"
    fig.savefig(fig_path, dpi=150)
    print(f"figure saved to {fig_path}")
