"""The benchmark's traced run wraps functions of the package by name
(`perfbench/harness.py`, `points()`); a binding that no longer resolves
would read 0 in every per-layer metric built on it. This guard fails
instead. The harness is imported without writing bytecode next to it."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        points = importlib.import_module("harness").points(None)
    finally:  # the benchmark's modules leave with its path
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]
    assert points
    missing = [name for owner, attr, name, _ in points if not callable(owner.__dict__.get(attr))]
    assert missing == []
