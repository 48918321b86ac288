"""The demos run to completion against the current package."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = (
    "01_reference_violation.py",
    "02_seesaw_infimum.py",
    "03_spa_basics.py",
    "04_witness_geometry.py",
    "05_theta_scan.py",
)
FLAGS = ("-X", "dev", "-W", "error::RuntimeWarning", "-W", "error::ResourceWarning")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    # a copy runs in tmp_path, so files a demo writes next to itself land there;
    # under the warning flags of the CI tier-1 step, a RuntimeWarning from numpy
    # (an overflow, say) or a ResourceWarning (an unclosed file) fails the demo
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, *FLAGS, str(script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
