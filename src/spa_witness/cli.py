"""Command line: analyze, hakye, cmax, geometry.

Exit codes: 0 clean, 1 bad input or validation failure (an InputError,
OSError or ValueError), 2 numerical failure (a NumericalError or a numpy
linear-algebra or floating-point error), 3 a violation of the
SPA-separability conjecture was flagged (the eigenvalue-gap condition
fired), so scripts can branch on the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .errors import InputError, InvalidGrid, NumericalError
from .fileio import load_operator_file, save_operator
from .geometry import GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, geometry_rows
from .hakye import HaKyeParams, hakye_witness
from .scan import (
    ASSERTION_LINE,
    DEFAULT_CONDITION_TOL,
    GRID_KEYS,
    LABEL_LINE,
    SCAN_COLUMNS,
    SCAN_SCHEMA,
    build_grid,
    parse_grid_axis,
    run_scan,
    scan_report_json,
    timestamp,
    write_rows_csv,
)
from .spa import spa_violation_from_gap
from .states import DensityOperator
from .witness import c_sigma_max

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_VIOLATION = 3


def _report_stream(path: str | None):
    """The file at path, opened for writing, or stdout left open."""
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _report(args: argparse.Namespace, kind: str, **fields) -> dict:
    """Report header (schema, kind, timestamp unless reproducible), then fields."""
    report: dict = {"schema_version": 1, "kind": kind}
    if not args.reproducible:
        report["generated"] = timestamp()
    return report | fields


def _emit(args: argparse.Namespace, report: dict, pairs: list[tuple[str, object]]) -> None:
    """The JSON report, or aligned text pairs led by the report's timestamp."""
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
        return
    if "generated" in report:
        pairs.insert(0, ("generated", report["generated"]))
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        sys.stdout.write(f"{key.ljust(width)}  {value}\n")


def _fmt_side(side: dict) -> str:
    return (
        f"shift={side['shift']!r}  min_pt_eig_raw={side['min_pt_eigenvalue_raw']!r}  "
        f"status={side['ppt_status']}  conclusive_separability="
        f"{'true' if side['conclusive_separability'] else 'false'}"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    op, metadata = load_operator_file(args.witness)
    verdict = spa_violation_from_gap(
        op, tol=args.tol, asserted_onew=args.assert_onew
    )
    lam0, lam0_pt = verdict.lambda0, verdict.lambda0_pt
    sides = {
        name: {
            "shift": side.shift,
            "min_pt_eigenvalue_raw": side.min_pt_eigenvalue_raw,
            "ppt_status": side.status.value,
            "conclusive_separability": side.conclusive_separability,
        }
        for name, side in zip(("direct", "partial_transpose"), verdict.spa_sides)
    }
    report = _report(
        args,
        kind="witness-analysis",
        input=str(args.witness),
        dims={"dA": op.dims.dA, "dB": op.dims.dB},
        lambda0_W=lam0,
        lambda0_WGamma=lam0_pt,
        gap=verdict.gap,
        tol=args.tol,
        condition_holds=verdict.condition_holds,
        spa=sides,
        npt_side=verdict.npt_side,
        conclusion=verdict.conclusion.value,
        assertion_note=verdict.assertion_note,
    )
    if metadata.get("label"):
        report["label"] = metadata["label"]
    _emit(args, report, [
        ("input", report["input"]),
        ("dims", f"{op.dims.dA}x{op.dims.dB}"),
        ("lambda0_W", lam0),
        ("lambda0_WGamma", lam0_pt),
        ("gap", verdict.gap),
        ("condition_holds", verdict.condition_holds),
        ("spa[direct]", _fmt_side(sides["direct"])),
        ("spa[partial-transpose]", _fmt_side(sides["partial_transpose"])),
        ("npt_side", verdict.npt_side or "none"),
        ("conclusion", verdict.conclusion.value),
        ("note", verdict.assertion_note),
    ])
    return EXIT_VIOLATION if verdict.condition_holds else EXIT_OK


def _hakye_points(args: argparse.Namespace) -> list[HaKyeParams]:
    fixed = {k: getattr(args, k) for k in GRID_KEYS if getattr(args, k) is not None}
    axes = [parse_grid_axis(spec) for spec in args.scan or []]
    if not axes and not args.cos_family:
        missing = [k for k in GRID_KEYS if k not in fixed]
        if missing:
            raise InvalidGrid(
                f"single-point analysis needs --{', --'.join(missing)} "
                "(or use --scan / --cos-family)"
            )
    return build_grid(axes, fixed, cos_family=args.cos_family)


def _cmd_hakye(args: argparse.Namespace) -> int:
    points = _hakye_points(args)
    if args.save_operator:
        if len(points) != 1:
            raise InvalidGrid("--save-operator requires a single grid point")
        p = points[0]
        save_operator(
            hakye_witness(p),
            args.save_operator,
            metadata={
                "label": f"hakye a={p.a!r} b={p.b!r} c={p.c!r} theta={p.theta!r}"
            },
        )
    rows = run_scan(points, condition_tol=args.tol, asserted_onew=True)
    notes = (ASSERTION_LINE, LABEL_LINE)
    with _report_stream(args.out) as fh:
        if args.format == "json":
            doc = scan_report_json(rows, reproducible=args.reproducible, notes=notes)
            fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        else:
            write_rows_csv(
                rows, SCAN_COLUMNS, SCAN_SCHEMA, fh,
                reproducible=args.reproducible, notes=notes,
            )
    if any(row["verdict"] == "oracle-mismatch" for row in rows):
        print(
            "numerical failure: eigensolver disagrees with closed-form oracles",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    if any(row["condition_holds"] for row in rows):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_cmax(args: argparse.Namespace) -> int:
    op, _ = load_operator_file(args.sigma)
    rho = DensityOperator(op)
    estimate = c_sigma_max(
        rho,
        restarts=args.restarts,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
    )
    mu = [[z.real, z.imag] for z in estimate.argmin.mu_a.tolist()]
    nu = [[z.real, z.imag] for z in estimate.argmin.nu_b.tolist()]
    report = _report(
        args,
        kind="cmax-estimate",
        input=str(args.sigma),
        value=estimate.value,
        argmin={"mu_a": mu, "nu_b": nu},
        restarts=estimate.restarts,
        iterations=estimate.iterations,
        converged=estimate.converged,
    )
    _emit(args, report, [
        ("input", report["input"]),
        ("value", estimate.value),
        ("argmin.mu_a", json.dumps(mu)),
        ("argmin.nu_b", json.dumps(nu)),
        ("restarts", estimate.restarts),
        ("iterations", estimate.iterations),
        ("converged", estimate.converged),
    ])
    return EXIT_OK if estimate.converged else EXIT_NUMERIC


def _cmd_geometry(args: argparse.Namespace) -> int:
    op, _ = load_operator_file(args.witness)
    rows = geometry_rows(op, samples=args.samples, seed=args.seed)
    with _report_stream(args.out) as fh:
        write_rows_csv(
            rows, GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, fh,
            reproducible=args.reproducible,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spa-witness",
        description=(
            "Entanglement witnesses in separable-state form, their structural "
            "physical approximations, and PPT checks of those approximations."
        ),
        epilog=(
            "exit codes: 0 clean, 1 bad input, 2 numerical failure, "
            "3 violation flagged; SPA_WITNESS_THREADS caps scan workers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        help="eigenvalue-gap condition and SPA PPT verdicts for a witness file",
    )
    analyze.add_argument("witness", help="operator file (JSON) holding the witness")
    analyze.add_argument("--tol", type=float, default=1e-8, help="gap tolerance")
    analyze.add_argument(
        "--assert-onew",
        action="store_true",
        help="caller vouches the witness is optimal nondecomposable",
    )
    analyze.add_argument("--json", action="store_true", help="machine-readable report")
    analyze.set_defaults(handler=_cmd_analyze)

    hakye = sub.add_parser(
        "hakye", help="analyze or scan the Ha-Kye witness family"
    )
    hakye.add_argument("--a", type=float, default=None)
    hakye.add_argument("--b", type=float, default=None)
    hakye.add_argument("--c", type=float, default=None)
    hakye.add_argument("--theta", type=float, default=None)
    hakye.add_argument(
        "--scan",
        action="append",
        metavar="key=start:stop:N",
        help="scan a parameter over an inclusive linspace; repeatable",
    )
    hakye.add_argument(
        "--cos-family",
        action="store_true",
        help="derive a=(4/3)cos(theta), b=(2/3)cos(theta), c=0 per point",
    )
    hakye.add_argument(
        "--tol", type=float, default=DEFAULT_CONDITION_TOL, help="gap tolerance"
    )
    hakye.add_argument("--format", choices=("csv", "json"), default="csv")
    hakye.add_argument("--out", default=None, help="write the report to this path")
    hakye.add_argument(
        "--save-operator",
        default=None,
        metavar="PATH",
        help="also save the witness matrix as an operator file (single point)",
    )
    hakye.set_defaults(handler=_cmd_hakye)

    cmax = sub.add_parser(
        "cmax", help="see-saw estimate of the product-state infimum of a density"
    )
    cmax.add_argument("sigma", help="operator file (JSON) holding the density")
    cmax.add_argument("--restarts", type=int, default=32)
    cmax.add_argument("--max-iter", type=int, default=500)
    cmax.add_argument("--tol", type=float, default=1e-12)
    cmax.add_argument("--seed", type=int, default=0)
    cmax.add_argument("--json", action="store_true", help="machine-readable report")
    cmax.set_defaults(handler=_cmd_cmax)

    geometry = sub.add_parser(
        "geometry", help="witness-value scatter rows for random and separable states"
    )
    geometry.add_argument("witness", help="operator file (JSON) holding the witness")
    geometry.add_argument("--samples", type=int, default=100)
    geometry.add_argument("--seed", type=int, default=0)
    geometry.add_argument("--out", default=None, help="write CSV to this path")
    geometry.set_defaults(handler=_cmd_geometry)

    for command in (analyze, hakye, cmax, geometry):
        command.add_argument(
            "--reproducible", action="store_true", help="omit the timestamp header"
        )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
