"""Every package name the benchmark tracer wraps still exists.

``bench/tracer.py`` looks its TARGETS up with ``getattr`` only when a traced
run installs it, so a renamed or deleted function would otherwise surface
only as an AttributeError from ``bench/run.py --trace 1``.  The tracer source
is read and executed here without importing or installing it, so nothing is
wrapped and nothing is written under ``bench/``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets() -> tuple[tuple[str, str, str | None, str], ...]:
    namespace: dict = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = tracer_targets()


def test_targets_are_listed():
    assert len(TARGETS) > 0


@pytest.mark.parametrize(
    "span, module_name, cls_name, attr",
    TARGETS,
    ids=[".".join(filter(None, target[1:])) for target in TARGETS],
)
def test_target_resolves(span, module_name, cls_name, attr):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
        # Tracer.install wraps the class's own attribute, not an inherited one
        assert attr in vars(owner), f"{span}: {cls_name} defines no {attr}"
    assert callable(getattr(owner, attr, None)), f"{span}: {module_name} has no {attr}"
