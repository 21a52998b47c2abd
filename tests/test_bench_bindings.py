"""The benchmark uses the package by name, and a name that no longer
resolves would break it after the fact. The traced run wraps functions of
the package (`perfbench/harness.py`, `points()`); a binding that is gone
would read 0 in every per-layer metric built on it. The harness and its
tests also read module attributes such as `de.init_params`; a renamed one
would fail every benchmark run. These guards fail instead. The harness is
imported without writing bytecode next to it, and its sources are read
with `ast`, not imported."""

import ast
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


def _resolve(module: str, name: str):
    """`name` from `module`: a submodule or an attribute; None if neither."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _package_reads(path: Path) -> dict[str, bool]:
    """`alias.attr` -> whether it resolves, for each name a `from rsvlm...
    import` in the file takes and each attribute read off a name that such
    an import binds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, reads = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rsvlm":
            for alias in node.names:
                name = alias.asname or alias.name
                bound[name] = _resolve(node.module, alias.name)
                reads[f"{node.module}.{alias.name}"] = bound[name] is not None
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            owner = bound[node.value.id]
            reads[f"{node.value.id}.{node.attr}"] = owner is not None and hasattr(owner, node.attr)
    return reads


def test_every_package_name_the_benchmark_reads_resolves():
    reads = {}
    for path in (PERFBENCH / "harness.py", PERFBENCH / "tests" / "test_perfbench.py"):
        reads.update({f"{path.name}: {name}": ok for name, ok in _package_reads(path).items()})
    assert {"harness.py: de.init_params", "harness.py: vlm.sample_loss",
            "test_perfbench.py: training.instruction_sample"} <= reads.keys()
    assert [name for name, ok in reads.items() if not ok] == []
