"""Tests of the benchmark's own code: the reference forward, the retrieval
oracle, span arithmetic, and the metric names against BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import harness
import reference as ref
from rsvlm import model as vlm
from rsvlm import training
from rsvlm.semantic_store import SemanticDatabase
from tracing import COUNT_SPAN, SpanIndex, Tracer, covered

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

SMALL = dict(d_h=16, heads=2, lm_blocks=2, expert_stride=2, levels=3, d_r=4, d_i=24, n_agg=2,
             prompter_heads=4, patch_dim=6, d_v=8, visual_blocks=3, visual_heads=2,
             visual_inner=16, max_seq=128)


def _random_model(cfg, seed):
    """A model whose expert outputs and gates are not at their zero init."""
    model = vlm.init_model(cfg, seed)
    rng = np.random.default_rng(seed)
    for _, t in model.named_parameters():
        t.value = t.value + rng.normal(0.0, 0.1, t.value.shape)
    return model


@pytest.mark.parametrize("kw,seed", [(SMALL, 3), ({}, 4)])
def test_reference_forward_matches_sample_loss(kw, seed):
    cfg = vlm.ModelConfig(**kw)
    model = _random_model(cfg, seed)
    p = ref.params_of(model)
    rng = np.random.default_rng(seed)
    for n in range(4):
        sample = training.instruction_sample(
            rng.normal(size=(3 + n, cfg.patch_dim)), "what is here?", "a lake" * (n + 1),
            semantic_ids=[int(x) for x in rng.integers(0, 258, 2 + 3 * n)])
        want = vlm.sample_loss(model, sample)
        assert ref.sample_cross_entropy(p, cfg, sample) == pytest.approx(want, rel=1e-9, abs=0)


def test_greedy_judge_accepts_generate_and_flags_a_wrong_token():
    cfg = vlm.ModelConfig(**SMALL)
    model = _random_model(cfg, 5)
    p = ref.params_of(model)
    patches = np.random.default_rng(5).normal(size=(4, cfg.patch_dim))
    query, sem = vlm.encode_text("what is here?"), [1, 2, 3]
    out = vlm.generate(model, patches, query, 6, sem)
    assert ref.greedy_problems(p, cfg, patches, query, sem, out, 6) == []
    wrong = out[:-1] + [(out[-1] + 1) % 256]
    assert len(ref.greedy_problems(p, cfg, patches, query, sem, wrong, 6)) == 1
    # A shorter output claims an EOS the reference does not predict.
    assert ref.greedy_problems(p, cfg, patches, query, sem, out[:2], 6)


def test_oracle_breaks_ties_by_id_and_matches_retrieve():
    db = SemanticDatabase(3)
    vectors = [[1, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1e-3, 0], [1, 0, 0], [0, 0, 1]]
    for n, v in enumerate(vectors):
        db.ingest(f"record {n}", v)
    embs = [r.embedding for r in db.records]
    ids = [r.id for r in db.records]
    got = ref.oracle_top_k(embs, ids, [2.0, 0.0, 0.0], 4)
    assert [i for i, _ in got] == [0, 2, 4, 3]
    assert got[0][1] == got[1][1] == got[2][1]
    assert got == [(r.id, r.score) for r in db.retrieve_top_k([2.0, 0.0, 0.0], 4)]


def test_rsdb_reader_round_trips_texts_and_embeddings(tmp_path):
    db = SemanticDatabase(2)
    for text in ("a", "ünïcode", "a"):
        db.ingest(text, [3.0, 4.0])
    db.save(tmp_path / "x.rsdb")
    ids, texts, embs = harness.read_rsdb(tmp_path / "x.rsdb")
    assert ids == [0, 1, 2] and texts == ["a", "ünïcode", "a"]
    assert np.array_equal(np.asarray(embs), np.asarray([r.embedding for r in db.records]))


def test_scene_corpus_has_duplicate_embeddings():
    texts = harness.scene_corpus(np.random.default_rng(0), 400)
    bags = [tuple(sorted(t.split())) for t in texts]
    assert len(set(bags)) < len(bags) - 40


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_and_inclusive_drops_counting():
    # outer 0..10 holds a 1..4 and b 5..8; b's counter runs 6..8 inside b.
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 8, 10]))
    counted = tracer.wrap(lambda: None, "b", counter=lambda args, result: {"n": 7})
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        counted()
    ix = SpanIndex(tracer.spans)
    outer, a, b, count = range(4)
    assert [s.name for s in tracer.spans] == ["outer", "a", "b", COUNT_SPAN]
    assert ix.self_time(outer) == 10 - 3 - 1 - 2
    assert ix.inclusive(outer) == 10 - 2
    assert ix.inclusive(b) == ix.self_time(b) == 1
    assert ix.total_count(ix.select("b", within=("outer",)), "n") == 7
    assert ix.select("a", parent="outer") == [a] and ix.select("a", outside="outer") == []


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def test_missing_binding_is_absent_not_a_crash():
    owner = types.SimpleNamespace(present=lambda: 1)
    tracer = Tracer()
    with tracer.installed([(owner, "present", "x.present", None), (owner, "gone", "x.gone", None)]):
        assert owner.present() == 1
    assert tracer.absent == {"x.gone"}
    assert [s.name for s in tracer.spans] == ["x.present"]
    assert not hasattr(owner.present, "__wrapped__")


@pytest.fixture
def quick(monkeypatch):
    """Small workloads: the same code paths in a few seconds."""
    for name, value in dict(CORPUS=16, TRAIN_DB=32, CAPTION_DB=64, VQA_DB=300, BUILD_CHUNK=100,
                            MIN_CYCLES=1, CAPTION_TOKENS=4, SETUPS=1, SETUP_SECONDS=0,
                            WINDOW_S=0).items():
        monkeypatch.setattr(harness, name, value)


@pytest.mark.parametrize("workload", ["caption", "vqa"])
def test_every_declared_metric_is_reported_and_checks_pass(quick, workload, tmp_path):
    tracer = Tracer()
    tracer.points = harness.points(tracer)
    res = harness.WORKLOADS[workload](7, 0.0, tracer, tmp_path)
    assert res.problems == [] and res.failed == 0 and res.attempted > 0
    layers, absent = harness.layer_metrics(tracer)
    assert absent == []
    for kind, metrics in (("end_to_end", res.metrics), ("per_layer", layers)):
        assert {name: unit for name, (_, unit) in metrics.items()} == \
            {m["name"]: m["unit"] for m in BENCHMARK[kind]}, kind
        for name, (value, _) in metrics.items():
            assert np.isfinite(value) and value > 0, name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(harness.WORKLOADS)


def test_a_vanished_binding_reads_zero_and_absent(quick, monkeypatch, tmp_path):
    tracer = Tracer()
    tracer.points = harness.points(tracer)
    monkeypatch.delattr(SemanticDatabase, "get")
    monkeypatch.setattr(training, "retrieve_semantics", _retrieve_without_get)
    harness.WORKLOADS["vqa"](7, 0.0, tracer, tmp_path)
    layers, absent = harness.layer_metrics(tracer)
    assert absent == ["semantic_store.get_ms_per_request"]
    assert layers["semantic_store.get_ms_per_request"][0] == 0.0
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}


def _retrieve_without_get(patches, retriever, db, k, cap):
    hits = db.retrieve_top_k(harness.de.encode_image(retriever, patches.mean(axis=0)), k)
    text = {r.id: r.text for r in db.records}
    return training.semantic_token_ids([text[h.id] for h in hits], cap)
