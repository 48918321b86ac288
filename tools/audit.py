"""One audit pass over a checkout: its report digests, then its unreached lines.

Runs every benchmark op of seeds 1-3 (inputs from ``bench/inputs.build``) as
one in-process ``spa_witness.cli.main`` call of the checkout's own ``src/``
(the benchmark worker's ``run_op``), then a copy of each script of
``demos/``, under a ``sys.settrace`` tracer of the package's frames.  Prints
one SHA-256 per workload over each op's argv, exit code, stdout and stderr;
one ``demos`` SHA-256 over each demo's stdout (the copies' directory read as
``<demos>``) and the CSV files the demos write; then, per module, every line
of a function body that holds code and never ran.  Checkouts with
byte-identical reports print the same digests, so checking a change is
diffing this output against its parent's:

    python3 tools/audit.py                 # this checkout
    python3 tools/audit.py --root ../base  # another checkout
    python3 tools/audit.py | head -n 5     # the digests only; exits 0

Inputs and demo copies go under the checkout's ignored ``bench/out/digest/``,
at the same relative paths in every checkout, since reports name their input
files; nothing else is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
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


def _record(digest, *fields) -> None:
    digest.update((json.dumps(fields) + "\n").encode())


def audit(root: Path) -> tuple[list[str], set[tuple[str, int]]]:
    """The digest lines, and the (file, line) of every line run in the
    package, from the benchmark ops for SEEDS and the demos, run in root."""
    package = str(root / "src" / "spa_witness")
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    os.chdir(root)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    digests = []
    sys.settrace(calls)
    try:
        import inputs
        from worker import run_op

        from spa_witness import cli

        if not Path(cli.__file__).resolve().is_relative_to(package):
            raise SystemExit(f"spa_witness.cli imported from {cli.__file__}, not from {package}")
        for workload in inputs.WORKLOADS:
            digest, count = hashlib.sha256(), 0
            for seed in SEEDS:
                directory = Path("bench", "out", "digest", f"{workload}-{seed}")
                for op in inputs.build(workload, seed, directory)["ops"]:
                    _, rc, stdout, stderr = run_op(cli.main, op["argv"])
                    _record(digest, op["argv"], rc, stdout, stderr)
                    count += 1
            digests.append(f"{workload:<9} {count:>4} ops  {digest.hexdigest()}")
        # a copy of each demo, so the files a demo writes next to itself land in copies
        copies = root / "bench" / "out" / "digest" / "demos"
        shutil.rmtree(copies, ignore_errors=True)
        copies.mkdir(parents=True)
        digest, demos = hashlib.sha256(), sorted((root / "demos").glob("*.py"))
        for demo in demos:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                runpy.run_path(shutil.copy(demo, copies), run_name="__main__")
            _record(digest, demo.name, stdout.getvalue().replace(str(copies), "<demos>"))
        for csv in sorted(copies.glob("*.csv")):
            _record(digest, csv.name, csv.read_bytes().decode("utf-8"))
        digests.append(f"{'demos':<9} {len(demos):>4} runs {digest.hexdigest()}")
    finally:
        sys.settrace(None)
    return digests, executed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/, bench/ and demos/ to use (default: this one)",
    )
    root = parser.parse_args().root.resolve()
    digests, executed = audit(root)
    try:
        print(*digests, sep="\n")
        for path in sorted((root / "src" / "spa_witness").glob("*.py")):
            unreached = sorted(body_lines(path) - {line for f, line in executed if f == str(path)})
            text = path.read_text(encoding="utf-8").splitlines()
            print(f"{path.relative_to(root / 'src')}: {len(unreached)} unreached lines")
            for line in unreached:
                print(f"  {line:>4}  {text[line - 1].strip()}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head -n 5`, say) and has all it
        # wanted; what is still buffered goes to devnull at exit, not to a
        # second BrokenPipeError
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
