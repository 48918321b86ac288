"""The function-body lines of the package that no benchmark op and no demo runs.

Builds each benchmark workload's inputs with ``bench/inputs.build`` for
seeds 1-3 and runs every op as one in-process ``spa_witness.cli.main`` call
of the checkout's own ``src/`` (the benchmark worker's ``run_op``), as
``tools/report_digest.py`` does; then runs each script of ``demos/``
in-process.  A ``sys.settrace`` tracer records the lines executed in the
package's frames.  Prints, per ``src/spa_witness`` module, every line of a
function body that holds code and never ran:

    python3 tools/traffic_lines.py                 # this checkout
    python3 tools/traffic_lines.py --root ../base  # another checkout

A line listed here is reached by tests at most: an error path, or code
that no report needs.  Inputs and copies of the demos (with the files they
write) go under the checkout's ignored ``bench/out/traffic/``; nothing else
is written.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import runpy
import shutil
import sys
from pathlib import Path

SEEDS = (1, 2, 3)


def body_lines(path: Path) -> set[int]:
    """The lines holding code of each function body in the module at path,
    less each function's first line (its def, or where a lambda or a
    comprehension starts, which the enclosing body also holds)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            lines |= {line for *_, line in code.co_lines()} - {None, code.co_firstlineno}
    return lines


def traced_lines(root: Path) -> set[tuple[str, int]]:
    """(file, line) of every line run in the package by the benchmark ops
    for SEEDS and by the demos, run in root."""
    package = str(root / "src" / "spa_witness")
    out = root / "bench" / "out" / "traffic"
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    sys.settrace(calls)
    try:
        import inputs
        from worker import run_op

        from spa_witness import cli

        if not Path(cli.__file__).resolve().is_relative_to(package):
            raise SystemExit(f"spa_witness.cli imported from {cli.__file__}, not from {package}")
        for workload in inputs.WORKLOADS:
            for seed in SEEDS:
                manifest = inputs.build(workload, seed, out / f"{workload}-{seed}")
                for op in manifest["ops"]:
                    run_op(cli.main, op["argv"])
        # a copy of each demo, so the files a demo writes next to itself land in out
        (out / "demos").mkdir(parents=True, exist_ok=True)
        for demo in sorted((root / "demos").glob("*.py")):
            script = shutil.copy(demo, out / "demos" / demo.name)
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.settrace(None)
    return executed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/, bench/ and demos/ to use (default: this one)",
    )
    root = parser.parse_args().root.resolve()
    executed = traced_lines(root)
    for path in sorted((root / "src" / "spa_witness").glob("*.py")):
        unreached = sorted(body_lines(path) - {line for f, line in executed if f == str(path)})
        text = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(root / 'src')}: {len(unreached)} unreached lines")
        for line in unreached:
            print(f"  {line:>4}  {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
