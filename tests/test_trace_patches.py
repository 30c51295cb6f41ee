"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps module
bindings of the package by name; every one it names must exist."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "target,attr", [(p[0], p[1]) for p in tracing.PATCHES], ids=lambda v: v
)
def test_patched_binding_resolves(target, attr):
    assert callable(getattr(tracing._resolve(target), attr))
