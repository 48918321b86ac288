"""One SHA-256 per benchmark workload over every report its ops print.

Builds each workload's inputs with ``bench/inputs.build`` for seeds 1-3,
runs every op of each pass as one in-process ``spa_witness.cli.main``
call of the checkout's own ``src/`` (the benchmark worker's ``run_op``), and
hashes each op's argv, exit code, stdout and stderr in order.  Two checkouts
whose reports are byte-identical print the same lines, so comparing a
change with its parent is running this in both and diffing the output:

    python3 tools/report_digest.py                 # this checkout
    python3 tools/report_digest.py --root ../base  # another checkout

Inputs are written under the checkout's ignored ``bench/out/digest/``, at
the same relative paths in every checkout, since reports name their input
files; nothing else is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

SEEDS = (1, 2, 3)


def workload_digests(root: Path) -> list[tuple[str, int, str]]:
    """(workload, op count, SHA-256) per benchmark workload, run in root."""
    os.chdir(root)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import inputs
    from worker import run_op

    from spa_witness import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"spa_witness.cli imported from {cli.__file__}, not from {root / 'src'}")
    out = []
    for workload in inputs.WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for seed in SEEDS:
            directory = Path("bench", "out", "digest", f"{workload}-{seed}")
            for op in inputs.build(workload, seed, directory)["ops"]:
                _, rc, stdout, stderr = run_op(cli.main, op["argv"])
                digest.update((json.dumps([op["argv"], rc, stdout, stderr]) + "\n").encode())
                count += 1
        out.append((workload, count, digest.hexdigest()))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ and bench/ to use (default: this one)",
    )
    args = parser.parse_args()
    for workload, count, hexdigest in workload_digests(args.root.resolve()):
        print(f"{workload:<9} {count:>4} ops  {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
