"""One fresh workload process; run.py starts it and reads its last stdout line.

Set-up time runs from the first line of this file through the import of
``spa_witness.cli`` to the end of the first (cold) op.  Then, by mode:

- ``setup``: stop after the cold op;
- ``timed``: repeat whole passes of ops until ``--seconds`` have elapsed;
- ``traced``: a timed half untraced, then a timed half with the tracer
  installed, for per-layer metrics and the tracing overhead.

Every op is one in-process ``spa_witness.cli.main(argv)`` call with stdout
and stderr captured; only that call is timed.  Its output is then checked.
An op fails when it raises, exits with an unexpected code, or fails its
check; failures are counted and the first detail kept, never aborting.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_op(main, argv: list[str]) -> tuple[float, object, str, str]:
    """Call the CLI once: (wall seconds, exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = f"raised {exc!r}"
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs and checks ops; keeps op times, items and failures."""

    def __init__(self, cli, manifest: dict, root: Path) -> None:
        import checks
        import inputs

        self._check = checks.check
        self.cli = cli
        self.ops = manifest["ops"]
        self.inputs = manifest["inputs"]
        self.matrices = {
            i: inputs.read_operator(root / entry["file"])
            for i, entry in enumerate(self.inputs)
        }
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def record(self, op: dict, rc, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if isinstance(rc, str):
            detail = f"{op['label']}: {rc}"
        else:
            detail = self._check(op, self.inputs, self.matrices, stdout, rc)
        if detail is not None:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{' '.join(op['argv'])}: {detail}; stderr: {stderr.strip()[:200]}"

    def timed(self, seconds: float, tracer=None) -> dict:
        """Whole passes until `seconds` elapse; returns the op times."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            for op in self.ops:
                if tracer is not None:
                    tracer.begin_op(len(times))
                dt, rc, stdout, stderr = run_op(self.cli.main, op["argv"])
                if tracer is not None:
                    tracer.end_op(len(stdout.encode()))
                times.append(dt)
                self.record(op, rc, stdout, stderr)
            if time.perf_counter() >= deadline:
                return {"op_seconds": times}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("spa_witness.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"spa_witness.cli imported from {cli.__file__}, not from {src}")
    cold = run_op(cli.main, manifest["ops"][0]["argv"])
    setup_s = time.perf_counter() - T0

    runner = Runner(cli, manifest, args.root)
    runner.record(manifest["ops"][0], *cold[1:])
    result = {"setup_s": setup_s}
    if args.mode == "timed":
        result.update(runner.timed(args.seconds))
    elif args.mode == "traced":
        from tracer import Tracer

        result["untraced"] = runner.timed(args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            result.update(runner.timed(args.seconds / 2.0, tracer))
        finally:
            tracer.uninstall()
        ops = len(result["op_seconds"])
        result["per_layer"] = tracer.metrics(ops)
        labels = [op["label"] for op in manifest["ops"]]
        result["kernel_counts"] = tracer.kernel_counts(labels)
        if args.spans is not None:
            tracer.save(args.spans)
    result.update(
        {
            "attempted": runner.attempted,
            "failed": runner.failed,
            "first_failure": runner.first_failure,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
