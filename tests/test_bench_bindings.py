"""The benchmark uses the package by name, and a name that no longer
resolves would break it after the fact. The traced run wraps functions of
the package (`perfbench/harness.py`, `points()`); a binding that is gone
would read 0 in every per-layer metric built on it. The harness and its
tests also read module attributes such as `de.init_params`; a renamed one
would fail every benchmark run. These guards fail instead. The harness is
imported without writing bytecode next to it, and its sources are read
with `ast`, not imported.

The converse guard: every module-level function and class of the package,
and every method and property of those classes, is used by the package or
the benchmark, so no code is kept only for the tests; the tests' oracles
live in `tests/oracles.py`."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

from rsvlm import autodiff as ad
from rsvlm import training
from rsvlm.model import ModelConfig, init_model, sample_loss_graph
from synthetic import caption_corpus, instruction_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = PERFBENCH.parent / "src" / "rsvlm"


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


def test_traced_training_bindings_see_every_step(monkeypatch):
    # the traced run rebinds these two as below; a step loop holding its own
    # reference would bypass the wrappers, and the per-step forward and
    # AdamW metrics would read 0 without an error
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(training, "sample_loss_graph", counting("forward", training.sample_loss_graph))
    monkeypatch.setattr(training.AdamW, "step", counting("update", training.AdamW.step))
    cfg = ModelConfig()
    for train, stage, corpus in ((training.train_stage1, training.STAGE_ALIGNMENT, caption_corpus(18, cfg, n=6)),
                                 (training.train_stage2, training.STAGE_INSTRUCTION,
                                  instruction_corpus(19, cfg, n=6))):
        for max_steps, steps in ((None, 4), (3, 3)):  # 2 epochs of 2 batches, or stopped early
            calls.clear()
            tcfg = training.TrainConfig(stage=stage, epochs=2, batch_size=4, max_steps=max_steps)
            _, history = train(init_model(cfg, seed=20), corpus, tcfg)
            assert len(history) == steps
            assert calls == {"forward": steps, "update": steps}


def test_traced_node_count_survives_backward(monkeypatch):
    # the traced run counts a step's nodes through `_parents` after
    # `backward` returns: the backward drops interior gradients, not edges
    graph_nodes = _perfbench_module(monkeypatch, "tracing").graph_nodes
    cfg = ModelConfig()
    model = init_model(cfg, seed=16)
    with ad.differentiating(t for _, t in model.named_parameters()):
        loss = sample_loss_graph(model, caption_corpus(17, cfg, n=4))
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


def _imports(tree, package: str, modules) -> tuple[dict, dict]:
    """(alias -> package module, alias -> (package module, name)) for the
    `from` imports in `tree` that read the package `package`."""
    mods, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or "__init__"
        elif (node.module or "").split(".")[0] == package:
            source = node.module.partition(".")[2] or "__init__"
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source == "__init__" and alias.name in modules:
                mods[local] = alias.name
            else:
                names[local] = (source, alias.name)
    return mods, names


def dead_definitions(package: Path, bench: Path) -> list[str]:
    """The definitions of `package` that neither it nor the benchmark's
    sources under `bench` use: `module.name` for a module-level function or
    class, `Class.name` for a method or property of one (dunder methods are
    the language's to call). A name or `alias.attr` credits only the
    definition it resolves to, through re-exports; any other attribute read
    credits the methods and properties of its name. A use inside the
    definition itself does not count, nor does a word in a package string;
    each identifier-like word of a benchmark string credits every definition
    of that name, because the benchmark binds some functions through
    `getattr`."""
    parse = lambda path: ast.parse(path.read_text(encoding="utf-8"))
    trees = {path.stem: parse(path) for path in sorted(package.glob("*.py"))}
    defs = {module: {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            for module, tree in trees.items()}
    trees.update({str(path): parse(path) for path in sorted(bench.rglob("*.py"))})
    imports = {module: _imports(tree, package.name, defs) for module, tree in trees.items()}

    def resolve(module, name):
        for _ in range(len(defs) + 1):  # a chain of re-exports visits each module once
            if name in defs.get(module, ()):
                return module, name
            if name not in imports.get(module, ({}, {}))[1]:
                return None
            module, name = imports[module][1][name]
        return None

    def uses(node, module, strings=False) -> Counter:
        """(module, name) per resolved use, ("", attr) per attribute read."""
        found = Counter()
        mods = imports[module][0]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found[resolve(module, sub.id)] += 1
            elif isinstance(sub, ast.Attribute):
                found["", sub.attr] += 1
                if isinstance(sub.value, ast.Name) and sub.value.id in mods:
                    found[resolve(mods[sub.value.id], sub.attr)] += 1
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                for word in re.findall(r"[A-Za-z_]\w*", sub.value):
                    found["", word] += 1
                    found.update((owner, word) for owner, names in defs.items() if word in names)
        return found

    used = sum((uses(tree, module, strings=module not in defs) for module, tree in trees.items()), Counter())
    dead = []
    for module in defs:
        for node in trees[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(f"{module}.{node.name}", (module, node.name), node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", ("", m.name), m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))]
            dead += [label for label, key, member in members if used[key] - uses(member, module)[key] <= 0]
    return sorted(dead)


def test_every_package_definition_has_a_caller_outside_the_tests():
    assert dead_definitions(PACKAGE, PERFBENCH) == []


# A package and a benchmark with three definitions that only tests could use.
PLANTED = {
    "rsvlm/a.py": '''"""`helper` is named only in this docstring."""


def helper():
    pass


def shared():
    pass


class Params:
    @property
    def width(self):
        return 1

    @property
    def height(self):
        return 2


def run(params):
    return params.width
''',
    "rsvlm/b.py": '''from . import a


def shared():
    pass


def main():
    return shared(), a.run(a.Params())
''',
    "perfbench/run.py": '''from rsvlm import b

getattr(b, "main")()
''',
}


def test_dead_code_guard_flags_planted_test_only_code(tmp_path):
    for name, source in PLANTED.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source, encoding="utf-8")
    # named only in a docstring; "called" only through b.shared; a property no package code reads
    assert dead_definitions(tmp_path / "rsvlm", tmp_path / "perfbench") == ["Params.height", "a.helper", "a.shared"]


# A property no code reads, named like a field that code reads off an object
# of another class: how a property could outlive its last caller.
NAME_CLASH = {
    "rsvlm/a.py": '''from dataclasses import dataclass


@dataclass
class Config:
    levels: int = 2


class Layer:
    @property
    def levels(self):
        return 3


def depth(cfg: Config):
    return cfg.levels


def main():
    return depth(Config()), Layer()
''',
    "perfbench/run.py": '''from rsvlm import a

a.main()
''',
}


def test_dead_code_guard_credits_a_property_with_every_read_of_its_name(tmp_path):
    # The guard reads no types, so `cfg.levels` may be Layer.levels as well
    # as Config's field, and it keeps the property alive. No sound rule tells
    # the two apart without type inference; this pins the gap, so that a
    # guard that closes it changes this test on purpose.
    for name, source in NAME_CLASH.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(source, encoding="utf-8")
    guard = lambda: dead_definitions(tmp_path / "rsvlm", tmp_path / "perfbench")
    assert guard() == []
    a = tmp_path / "rsvlm" / "a.py"
    a.write_text(a.read_text(encoding="utf-8").replace("return cfg.levels", "return cfg"), encoding="utf-8")
    assert guard() == ["Layer.levels"]
