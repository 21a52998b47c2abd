"""The benchmark uses the package by name, and a name that no longer
resolves would break it after the fact. The traced run wraps functions of
the package (`perfbench/harness.py`, `points()`); a binding that is gone
would read 0 in every per-layer metric built on it. The harness and its
tests also read module attributes such as `de.init_params`; a renamed one
would fail every benchmark run. These guards fail instead. The harness is
imported without writing bytecode next to it, and its sources are read
with `ast`, not imported.

The converse guard: every module-level function and class of the package
is used by the package or the benchmark, so no code is kept only for the
tests."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

from rsvlm import autodiff as ad
from rsvlm.model import ModelConfig, init_model, sample_loss_graph
from synthetic import caption_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = PERFBENCH.parent / "src" / "rsvlm"
# Reference implementations that only the tests call, each kept for its reason.
TEST_ONLY = {
    "numerics.finite_diff_gradient": "the central-difference oracle of every backward pass; it checks "
                                     "every coordinate, where check_gradients samples them",
    "numerics.compare_gradients": "compares an analytic gradient with that oracle's, elementwise",
    "autodiff.sum_all": "the scalar reduction that turns an op's output into a loss in every gradient test",
}


def _perfbench_module(monkeypatch, name: str):
    """The benchmark's module `name`, imported without writing bytecode."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        return importlib.import_module(name)
    finally:  # the benchmark's modules leave with its path
        for mod_name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[mod_name]


def test_every_traced_binding_resolves(monkeypatch):
    points = _perfbench_module(monkeypatch, "harness").points(None)
    assert points
    missing = [name for owner, attr, name, _ in points if not callable(owner.__dict__.get(attr))]
    assert missing == []


def test_traced_node_count_survives_backward(monkeypatch):
    # the traced run counts a step's nodes through `_parents` after
    # `backward` returns: the backward drops interior gradients, not edges
    graph_nodes = _perfbench_module(monkeypatch, "tracing").graph_nodes
    cfg = ModelConfig()
    loss = sample_loss_graph(init_model(cfg, seed=16), caption_corpus(17, cfg, n=4))
    before = graph_nodes(loss)
    ad.backward(loss)
    assert graph_nodes(loss) == before > 200


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


def _names(node) -> Counter:
    """Identifiers `node` names: names, attributes, imported names, and each
    identifier-like word of a string constant (perfbench binds some
    functions through `getattr` with a string)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return found


def test_every_package_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(PACKAGE.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a use inside the definition itself does not count
                if used[node.name] - _names(node)[node.name] <= 0:
                    unused.append(f"{path.stem}.{node.name}")
    assert sorted(unused) == sorted(TEST_ONLY)
