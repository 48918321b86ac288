"""tools/audit.py's line accounting, on a small module written for the test,
and its exit when the reader of its output goes away."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

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


def load_audit():
    spec = importlib.util.spec_from_file_location("audit", TOOL)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit


def test_body_lines_are_the_function_bodies(tmp_path):
    audit = load_audit()
    path = tmp_path / "synthetic.py"
    path.write_text(MODULE, encoding="utf-8")
    # module lines (1, 3: the module-level comprehension, 6, 16), the class
    # body (17, 19) and each def line of its own are left out; a nested def
    # (9) and the line where the lambda (11) and the comprehension (13) start
    # are lines of the body that holds them
    assert audit.body_lines(path) == {7, 9, 10, 11, 12, 13, 20}


class ClosedPipe:
    """A stdout whose reader has closed the pipe: each write raises
    BrokenPipeError, or, buffered, only the flush does; fileno is a file
    of the test's own."""

    def __init__(self, fd: int, buffered: bool):
        self.fd, self.buffered, self.written = fd, buffered, []

    def write(self, text: str) -> int:
        if not self.buffered:
            raise BrokenPipeError(32, "Broken pipe")
        self.written.append(text)
        return len(text)

    def flush(self) -> None:
        if self.buffered:
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "final-flush"])
def test_closed_stdout_exits_zero(tmp_path, monkeypatch, capsys, buffered):
    audit = load_audit()
    package = tmp_path / "src" / "spa_witness"
    package.mkdir(parents=True)
    (package / "synthetic.py").write_text(MODULE, encoding="utf-8")
    monkeypatch.setattr(audit, "audit", lambda root: (["scan        1 ops  0123"], set()))
    monkeypatch.setattr(sys, "argv", ["audit.py", "--root", str(tmp_path)])
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        stdout = ClosedPipe(fd, buffered)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert audit.main() == 0
        # what is still buffered goes to devnull at exit, not to the pipe
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    if buffered:
        assert "".join(stdout.written).startswith("scan        1 ops  0123\nspa_witness/")
