"""In-memory span tracing of the package's layers, from outside the package.

``Tracer.install()`` wraps the public functions each layer's metrics need,
in every ``spa_witness`` module namespace that holds them, the two
validating ``__post_init__`` methods on their classes, and numpy's
``eigh``/``eigvalsh`` as the kernel layer.  A wrapper records a span only
while an op is open (``begin_op``/``end_op``), so the benchmark's own checks
are never counted.  Each span keeps its name, start, end, parent span and op
id in flat arrays; ``metrics()`` derives self times (a span's duration minus
the time its children cover) and per-op counts from them, and ``save()``
writes them out.  ``uninstall()`` restores every wrapped name.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "cli", "fileio", "hakye", "scan", "operators", "spa",
    "witness", "states", "geometry", "linalg",
)

# (span name, owner module, owner class or None, attribute)
TARGETS = (
    ("cli.main", "spa_witness.cli", None, "main"),
    ("fileio.load", "spa_witness.fileio", None, "load_operator_file"),
    ("hakye.witness", "spa_witness.hakye", None, "hakye_witness"),
    ("hakye.oracle", "spa_witness.hakye", None, "hakye_spectrum_closed_form"),
    ("hakye.oracle", "spa_witness.hakye", None, "hakye_pt_spectrum_closed_form"),
    ("scan.analyze_point", "spa_witness.scan", None, "analyze_point"),
    ("scan.report", "spa_witness.scan", None, "write_rows_csv"),
    ("scan.report", "spa_witness.scan", None, "scan_report_json"),
    ("operators.validate", "spa_witness.operators", "HermitianOperator", "__post_init__"),
    ("operators.eig_hermitian", "spa_witness.operators", None, "eig_hermitian"),
    ("operators.partial_transpose", "spa_witness.operators", None, "partial_transpose"),
    ("spa.violation_from_gap", "spa_witness.spa", None, "spa_violation_from_gap"),
    ("spa.spa", "spa_witness.spa", None, "spa"),
    ("spa.ppt_check", "spa_witness.spa", None, "ppt_check"),
    ("spa.pt_min_eigenvalue", "spa_witness.spa", None, "pt_min_eigenvalue"),
    ("spa.hyperplane_classify", "spa_witness.spa", None, "hyperplane_classify"),
    ("witness.c_sigma_max", "spa_witness.witness", None, "c_sigma_max"),
    ("states.density_validate", "spa_witness.states", "DensityOperator", "__post_init__"),
    ("states.sampling", "spa_witness.states", None, "random_density"),
    ("states.sampling", "spa_witness.states", None, "random_separable_ensemble"),
    ("states.sampling", "spa_witness.states", None, "ensemble_density"),
    ("geometry.rows", "spa_witness.geometry", None, "geometry_rows"),
    ("linalg.eigh", "numpy.linalg", None, "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", None, "eigvalsh"),
)

# Per-layer metrics and their units, in report order; BENCHMARK.json lists
# the same names.  Self times are in ms per op, counts per op.
SELF_MS = (
    "operators.eig_hermitian", "operators.validate", "operators.partial_transpose",
    "hakye.witness", "hakye.oracle", "scan.analyze_point", "scan.report",
    "spa.violation_from_gap", "spa.pt_min_eigenvalue", "witness.c_sigma_max",
    "states.density_validate", "states.sampling", "geometry.rows", "fileio.load",
)
CALLS = (
    "operators.eig_hermitian", "operators.validate", "operators.partial_transpose",
    "spa.spa", "spa.ppt_check", "spa.hyperplane_classify", "states.density_validate",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{name}.calls_per_op": "count" for name in CALLS}
    units.update({f"{name}.self_ms_per_op": "ms" for name in SELF_MS})
    units.update(
        {
            "linalg.eigh_per_op": "count",
            "linalg.eigvalsh_per_op": "count",
            "linalg.solves_per_op": "count",
            "linalg.self_ms_per_op": "ms",
            "linalg.share": "ratio",
            "cli.self_ms_per_op": "ms",
            "scan.report_bytes_per_op": "bytes",
            "fileio.bytes_read_per_op": "bytes",
            "witness.seesaw.sweeps_per_op": "count",
            "witness.seesaw.useful_sweep_ratio": "ratio",
            "trace.items_per_s_ratio": "ratio",
        }
    )
    units.update({f"{layer}.errors_per_run": "count" for layer in LAYERS})
    return units


class Tracer:
    """Span recorder; create one per process, install it, then open ops."""

    def __init__(self) -> None:
        from spa_witness.errors import SpaWitnessError

        self._counted_errors = (SpaWitnessError, np.linalg.LinAlgError)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_output_bytes: list[int] = []

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self._depth.append(0)
        return self._ids[span]

    # --- recording -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self, output_bytes: int) -> None:
        self._op = -1
        self.op_output_bytes.append(output_bytes)

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(sid)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[sid] += 1
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, sid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[sid] -= 1

    def _wrap(self, fn, span: str):
        sid = self._name_id(span)
        layer = span.split(".")[0]
        cmax_sid = self._name_id("witness.c_sigma_max")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            except tracer._counted_errors as exc:
                tracer._count_error(layer, exc)
                raise
            finally:
                tracer._close(idx, sid)
            if span == "linalg.eigh" and tracer._depth[cmax_sid]:
                tracer.counters["seesaw_eigh"] += 1
            elif span == "witness.c_sigma_max":
                tracer.counters["winning_iterations"] += result.iterations
            elif span == "fileio.load":
                tracer.counters["bytes_read"] += os.path.getsize(args[0])
            return result

        return wrapper

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # An error passing out of nested spans of one layer counts once.
        seen = getattr(exc, "_bench_layers", set())
        if layer not in seen:
            self.errors[layer] += 1
            seen.add(layer)
            exc._bench_layers = seen

    # --- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every target name wherever a spa_witness module imported it."""
        namespaces = [
            module for name, module in sys.modules.items()
            if name == "spa_witness" or name.startswith("spa_witness.")
        ]
        for span, module_name, cls_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(module, cls_name)
                self._replace(owner, attr, self._wrap(owner.__dict__[attr], span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span)
            for namespace in {id(m): m for m in namespaces + [module]}.values():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._replace(namespace, key, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span: duration, and duration minus the time its children cover."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration, duration - children

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics normalised by the number of traced ops."""
        a = self.arrays()
        duration, self_time = self.self_times()
        n_names = len(self.names)
        calls = np.bincount(a["name"], minlength=n_names)
        self_total = np.bincount(a["name"], weights=self_time, minlength=n_names)

        def count(span: str) -> int:
            return int(calls[self._ids[span]]) if span in self._ids else 0

        def self_ms(span: str) -> float:
            return float(self_total[self._ids[span]]) * 1e3 if span in self._ids else 0.0

        op_wall = float(duration[a["name"] == self._ids["cli.main"]].sum())
        linalg_ms = self_ms("linalg.eigh") + self_ms("linalg.eigvalsh")
        sweeps = self.counters["seesaw_eigh"] / 2.0
        report_ops = set(a["op"][a["name"] == self._ids["scan.report"]].tolist())
        out = {f"{name}.calls_per_op": count(name) / ops for name in CALLS}
        out.update({f"{name}.self_ms_per_op": self_ms(name) / ops for name in SELF_MS})
        out.update(
            {
                "linalg.eigh_per_op": count("linalg.eigh") / ops,
                "linalg.eigvalsh_per_op": count("linalg.eigvalsh") / ops,
                "linalg.solves_per_op": (count("linalg.eigh") + count("linalg.eigvalsh")) / ops,
                "linalg.self_ms_per_op": linalg_ms / ops,
                "linalg.share": linalg_ms / (op_wall * 1e3) if op_wall else 0.0,
                "cli.self_ms_per_op": self_ms("cli.main") / ops,
                "scan.report_bytes_per_op": sum(self.op_output_bytes[i] for i in report_ops) / ops,
                "fileio.bytes_read_per_op": self.counters["bytes_read"] / ops,
                "witness.seesaw.sweeps_per_op": sweeps / ops,
                "witness.seesaw.useful_sweep_ratio": (
                    self.counters["winning_iterations"] / sweeps if sweeps else 0.0
                ),
            }
        )
        out.update({f"{layer}.errors_per_run": float(self.errors[layer]) for layer in LAYERS})
        return out

    def kernel_counts(self, op_labels: list[str]) -> dict[str, dict[str, int]]:
        """eigh and eigvalsh calls of each op, keyed by the op's label."""
        a = self.arrays()
        out: dict[str, dict[str, int]] = {}
        for kernel in ("eigh", "eigvalsh"):
            span = f"linalg.{kernel}"
            if span not in self._ids:
                continue
            per_op = np.bincount(a["op"][a["name"] == self._ids[span]], minlength=len(op_labels))
            for label, n in zip(op_labels, per_op.tolist()):
                out.setdefault(label, {"eigh": 0, "eigvalsh": 0})[kernel] = n
        return out
