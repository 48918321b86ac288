"""tools/audit.py's line accounting, on a small module written for the test."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "audit.py"

MODULE = '''\
import math

X = [i for i in range(3)]


def outer(a):
    b = a + 1

    def inner(c):
        return c * 2
    f = (lambda d:
         d + 1)
    return [inner(e) for e in range(b)], f


class K:
    y = 2

    def method(self):
        return self.y
'''


def test_body_lines_are_the_function_bodies(tmp_path):
    spec = importlib.util.spec_from_file_location("audit", TOOL)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    path = tmp_path / "synthetic.py"
    path.write_text(MODULE, encoding="utf-8")
    # module lines (1, 3: the module-level comprehension, 6, 16), the class
    # body (17, 19) and each def line of its own are left out; a nested def
    # (9) and the line where the lambda (11) and the comprehension (13) start
    # are lines of the body that holds them
    assert audit.body_lines(path) == {7, 9, 10, 11, 12, 13, 20}
