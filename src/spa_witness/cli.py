"""Command line: analyze, hakye, cmax, geometry.

Exit codes: 0 clean, 1 bad input or validation failure (an argparse usage
error, an InputError, OSError or ValueError, or a MemoryError such as a grid
too large to allocate), 2 numerical failure (a NumericalError, or a cmax
estimate that did not converge within --max-iter sweeps), 3 a violation
of the SPA-separability conjecture was flagged (the eigenvalue-gap
condition fired), so scripts can branch on the result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .errors import InputError, InvalidParams, NumericalError
from .fileio import load_operator_file, save_operator
from .geometry import GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, GEOMETRY_SEED, geometry_rows
from .hakye import HaKyeParams, hakye_witness
from .scan import (
    ASSERTION_LINE,
    CERTIFICATE_FAILED,
    DEFAULT_CONDITION_TOL,
    GRID_KEYS,
    LABEL_LINE,
    SCAN_COLUMNS,
    SCAN_SCHEMA,
    build_grid,
    cell_text,
    json_text,
    parse_grid_axis,
    report_header,
    run_scan,
    write_rows_csv,
    write_scan_json,
)
from .spa import DEFAULT_COMPARE_TOL, spa_violation_from_gap
from .states import DensityOperator
from .witness import SEESAW_MAX_ITER, SEESAW_RESTARTS, SEESAW_SEED, SEESAW_TOL, c_sigma_max

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_VIOLATION = 3


def _report_stream(path: str | None):
    """The file at path, opened for writing, or stdout left open."""
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _emit(args: argparse.Namespace, report: dict, pairs: list[tuple[str, object]]) -> None:
    """The JSON report, or aligned text pairs led by the report's timestamp."""
    if args.json:
        sys.stdout.write(json_text(report) + "\n")
        return
    if "generated" in report:
        pairs.insert(0, ("generated", report["generated"]))
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        sys.stdout.write(f"{key.ljust(width)}  {cell_text(value)}\n")


def _fmt_side(side: dict) -> str:
    return (
        f"shift={cell_text(side['shift'])}  "
        f"min_pt_eig_raw={cell_text(side['min_pt_eigenvalue_raw'])}  "
        f"status={side['ppt_status']}  "
        f"conclusive_separability={cell_text(side['conclusive_separability'])}"
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
    report = report_header("witness-analysis", args.reproducible, ()) | {
        "input": str(args.witness),
        "dims": {"dA": op.dims.dA, "dB": op.dims.dB},
        "lambda0_W": lam0,
        "lambda0_WGamma": lam0_pt,
        "gap": verdict.gap,
        "tol": args.tol,
        "condition_holds": verdict.condition_holds,
        "spa": sides,
        "npt_side": verdict.npt_side,
        "conclusion": verdict.conclusion.value,
        "assertion_note": verdict.assertion_note,
    }
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


def _cmd_hakye(args: argparse.Namespace) -> int:
    fixed = {k: getattr(args, k) for k in GRID_KEYS if getattr(args, k) is not None}
    axes = [parse_grid_axis(spec) for spec in args.scan or []]
    grid = build_grid(axes, fixed, cos_family=args.cos_family)
    if args.save_operator and grid.shape[1] != 1:
        raise InvalidParams("--save-operator requires a single grid point")
    # the operator is saved only once the scan has accepted its inputs
    table = run_scan(grid, args.tol)
    if args.save_operator:
        p = HaKyeParams(*grid[:, 0].tolist())
        label = f"hakye a={p.a!r} b={p.b!r} c={p.c!r} theta={p.theta!r}"
        save_operator(hakye_witness(p), args.save_operator, metadata={"label": label})
    notes = (ASSERTION_LINE, LABEL_LINE)
    with _report_stream(args.out) as fh:
        if args.format == "json":
            write_scan_json(table, fh, reproducible=args.reproducible, notes=notes)
        else:
            write_rows_csv(
                table, SCAN_COLUMNS, SCAN_SCHEMA, fh,
                reproducible=args.reproducible, notes=notes,
            )
    failed = int((table["verdict"] == CERTIFICATE_FAILED).sum())
    if failed:
        print(
            f"numerical failure: closed-form spectra not certified at {failed} of "
            f"{len(table['verdict'])} points",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    if table["condition_holds"].any():
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
    report = report_header("cmax-estimate", args.reproducible, ()) | {
        "input": str(args.sigma),
        "value": estimate.value,
        "argmin": {"mu_a": mu, "nu_b": nu},
        "restarts": estimate.restarts,
        "iterations": estimate.iterations,
        "converged": estimate.converged,
    }
    _emit(args, report, [
        ("input", report["input"]),
        ("value", estimate.value),
        ("argmin.mu_a", json.dumps(mu)),
        ("argmin.nu_b", json.dumps(nu)),
        ("restarts", estimate.restarts),
        ("iterations", estimate.iterations),
        ("converged", estimate.converged),
    ])
    if not estimate.converged:
        print(
            f"numerical failure: see-saw did not converge in --max-iter {args.max_iter} sweeps",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_geometry(args: argparse.Namespace) -> int:
    op, _ = load_operator_file(args.witness)
    table = geometry_rows(op, samples=args.samples, seed=args.seed)
    with _report_stream(args.out) as fh:
        write_rows_csv(
            table, GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, fh,
            reproducible=args.reproducible,
        )
    return EXIT_OK


class _UsageError(Exception):
    """An argparse usage error, carrying argparse's usage and error lines."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code of a numerical failure here
    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache  # built once per process; main() may run many times
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spa-witness",
        description=(
            "Entanglement witnesses in separable-state form, their structural "
            "physical approximations, and PPT checks of those approximations."
        ),
        epilog=(
            "exit codes: 0 clean, 1 bad input, 2 numerical failure, "
            "3 violation flagged"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        help="eigenvalue-gap condition and SPA PPT verdicts for a witness file",
    )
    analyze.add_argument("witness", help="operator file (JSON) holding the witness")
    analyze.add_argument("--tol", type=float, default=DEFAULT_COMPARE_TOL, help="gap tolerance")
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
    for key in GRID_KEYS:
        hakye.add_argument(f"--{key}", type=float, default=None)
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
    cmax.add_argument("--restarts", type=int, default=SEESAW_RESTARTS)
    cmax.add_argument("--max-iter", type=int, default=SEESAW_MAX_ITER)
    cmax.add_argument("--tol", type=float, default=SEESAW_TOL)
    cmax.add_argument("--seed", type=int, default=SEESAW_SEED)
    cmax.add_argument("--json", action="store_true", help="machine-readable report")
    cmax.set_defaults(handler=_cmd_cmax)

    geometry = sub.add_parser(
        "geometry", help="witness-value scatter rows for random and separable states"
    )
    geometry.add_argument("witness", help="operator file (JSON) holding the witness")
    geometry.add_argument("--samples", type=int, default=100)
    geometry.add_argument("--seed", type=int, default=GEOMETRY_SEED)
    geometry.add_argument("--out", default=None, help="write CSV to this path")
    geometry.set_defaults(handler=_cmd_geometry)

    for command in (analyze, hakye, cmax, geometry):
        command.add_argument(
            "--reproducible", action="store_true", help="omit the timestamp header"
        )

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return EXIT_INPUT
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # a grid too large to allocate, say; numpy names the array
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT

