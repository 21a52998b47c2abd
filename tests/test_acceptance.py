"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest tests/test_acceptance.py -v -s` to see
them). Tolerances are fixed here, not calibrated elsewhere.
"""

import json

import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import cli
from rsvlm import dual_encoder as de
from rsvlm import expert_layer as ex
from rsvlm import metrics as mt
from rsvlm import model as vlm
from rsvlm import prompter as pr
from rsvlm import training as tr
from rsvlm.model import ModelConfig
from rsvlm.numerics import Rng
from rsvlm.semantic_store import SemanticDatabase
from synthetic import contrastive_corpus, instruction_corpus

GRAD_TOL = 1e-4


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_parameter_arithmetic():
    full = cli.PROFILES["paper"]
    per_expert = ex.expert_param_count(full["d_h"], full["d_r"])
    baseline = ex.baseline_moe_param_count(full["d_h"], full["d_i"])
    assert per_expert == 3_670_016
    assert baseline == 3 * 3584 * 18944 == 203_685_888
    ratio_pct = 100.0 * per_expert / baseline
    assert round(ratio_pct, 3) == 1.802
    assert round(ratio_pct, 1) == 1.8
    _report(1, f"per-expert {per_expert:,} params, baseline {baseline:,}, ratio {ratio_pct:.3f}%")


def test_criterion_2_prompt_shape_contract():
    full = vlm.shape_model(cli.RunConfig("paper").model_config())
    assert full.prompter.f_agg.value.shape == (144, 3584)
    counts = vlm._segments_for(full, 1, 1)
    assert counts[1:-1] == (144, 144, 144) and sum(counts[1:-1]) == 432

    rng = Rng(0)
    checked = []
    for n_agg, levels in ((1, 1), (4, 2), (3, 5), (144, 3)):
        params = pr.init_prompter(n_agg, 8, [6] * levels, Rng(1))
        f_user = ad.const(rng.normal((3, 8)))
        f_semantic = ad.const(rng.normal((4, 8)))
        f_vis = [ad.const(rng.normal((5, 6))) for _ in range(levels)]
        s = pr.build_prompt_graph(params, f_user, f_semantic, f_vis, 2).value
        assert s.shape == (n_agg * levels, 8)
        checked.append((n_agg, levels))
    _report(2, f"full-scale profile prompt is 432 x 3584; toy forwards match n_agg*levels for {checked}")


def test_criterion_3_end_to_end_gradient_suite():
    report = cli.run_grad_check(seed=0, probes=200)
    assert report["probes"] == 200
    assert report["pass"], report
    assert report["max_relative_error"] <= GRAD_TOL
    _report(3, f"200 finite-difference probes across all components, "
               f"max relative error {report['max_relative_error']:.2e} <= {GRAD_TOL}")


def _expert(u, v, x_masked):
    """One expert's bottleneck, x @ u @ v, through the graph ops the block uses."""
    return ad.matmul(ad.matmul(ad.const(x_masked), ad.const(u)), ad.const(v)).value


def test_criterion_4_router_mask_invariants():
    rng = Rng(42)
    d_h, d_r = 12, 3
    cases = 0
    for _ in range(1000):
        levels = 1 + int(rng.u64(1)[0] % np.uint64(4))
        counts = tuple(int(x % np.uint64(4)) for x in rng.u64(levels + 2))
        row_levels = [0] * counts[0]
        for l in range(1, levels + 1):
            row_levels += [l] * counts[l]
        row_levels += [0] * counts[-1]
        t = len(row_levels)

        masks = [ex.build_mask(counts, l) for l in range(1, levels + 1)]
        stacked = np.sum(masks, axis=0)
        for pos, level in enumerate(row_levels):
            expected = 1.0 if level else float(levels)
            assert stacked[pos] == expected

        hidden = rng.normal((t, d_h))
        experts = [(rng.normal((d_h, d_r)), rng.normal((d_r, d_h)))
                   for _ in range(levels)]
        outputs = [_expert(u, v, masks[l][:, None] * hidden)
                   for l, (u, v) in enumerate(experts)]
        for j in range(1, levels + 1):
            perturbed = hidden.copy()
            rows = [pos for pos, level in enumerate(row_levels) if level == j]
            perturbed[rows] += rng.normal((len(rows), d_h))
            for i, (u, v) in enumerate(experts):
                if i + 1 == j:
                    continue
                redone = _expert(u, v, masks[i][:, None] * perturbed)
                assert np.array_equal(outputs[i], redone)
        cases += 1
    _report(4, f"{cases} random layouts: mask partition holds, cross-level "
               f"expert outputs bit-identical under perturbation")


def test_criterion_5_retrieval_matches_exhaustive_oracle():
    rng = Rng(7)
    dim = 16
    db = SemanticDatabase(dim)
    base = rng.normal((800, dim))
    vectors = [base[i] for i in range(800)]
    for i in range(200):  # duplicated embeddings force ties
        vectors.append(base[int(rng.u64(1)[0] % np.uint64(800))].copy())
    for i, v in enumerate(vectors):
        db.ingest(f"record {i}", v)
    assert len(db) == 1000

    queries = [rng.normal((dim,)) for _ in range(3)]
    queries.append(np.asarray(db.records[950].embedding, dtype=np.float64))

    for q in queries:
        unit = q / np.linalg.norm(q)
        oracle_scored = [
            (rec.id, float(np.clip(rec.embedding.astype(np.float64) @ unit, -1.0, 1.0)))
            for rec in db.records
        ]
        full_sort = sorted(oracle_scored, key=lambda t: (-t[1], t[0]))
        for k in (1, 5, 32):
            got = [(r.id, r.score) for r in db.retrieve_top_k(q, k)]
            assert got == full_sort[:k]
    _report(5, "retrieve_top_k(k in {1,5,32}) identical to the full-sort oracle "
               "on 1,000 records including duplicated-embedding ties")


def test_criterion_6_contrastive_training_efficacy():
    pairs = contrastive_corpus(3, n=32)
    fresh = de.init_params(d_img_raw=12, d_e=16, vocab=256, hidden=32, seed=0)
    before = de.recall_at_1(fresh, pairs)
    assert before <= 0.2, f"untrained recall@1 {before}"
    params, history = de.train_retriever(
        pairs, d_img_raw=12, d_e=16, vocab=256, hidden=32,
        epochs=200, lr=0.1, seed=0,
    )
    after = de.recall_at_1(params, pairs)
    assert after >= 0.9, f"trained recall@1 {after}"
    assert history[-1] < history[0]
    _report(6, f"recall@1 {before:.3f} before vs {after:.3f} after "
               f"(loss {history[0]:.3f} -> {history[-1]:.4f})")


def test_criterion_7_overfit_and_generation():
    cfg = ModelConfig()  # toy defaults
    model = vlm.init_model(cfg, seed=1)
    samples = instruction_corpus(5, cfg, n=16)
    tcfg = tr.TrainConfig(
        stage="instruction", seed=0, epochs=2000, batch_size=16,
        lr_visual=1e-3, lr_prompter=3e-3, lr_lm=3e-3, weight_decay=0.0,
        max_steps=2000, stop_loss=0.05,
    )
    model, history = tr.train_stage2(model, samples, tcfg)
    assert len(history) <= 2000
    assert history[-1] < 0.1, f"loss {history[-1]} after {len(history)} steps"
    exact = sum(
        vlm.generate(model, s.patches, s.query_ids, max_tokens=32,
                     semantic_ids=s.semantic_ids) == s.response_ids
        for s in samples
    )
    assert exact >= 0.9 * len(samples), f"{exact}/{len(samples)} exact"
    _report(7, f"loss {history[-1]:.4f} after {len(history)} steps; "
               f"{exact}/{len(samples)} responses reproduced exactly")


def test_criterion_8_metric_kernels():
    # bleu1: clipped precision 1/4, BP 1
    assert mt.bleu1(mt.CaptionPair("a a a a".split(), ["a b c d".split()])) == 0.25
    assert mt.bleu1(mt.CaptionPair("a b c".split(), ["a b c".split()])) == 1.0
    assert mt.bleu1(mt.CaptionPair("x y".split(), ["p q".split()])) == 0.0
    # rouge1: P = R = F1 = 0.5 exactly
    assert mt.rouge1(mt.CaptionPair("a b".split(), ["a c".split()])) == 0.5
    assert mt.rouge1(mt.CaptionPair("a b".split(), ["a b".split()])) == 1.0
    # meteor: hand-evaluated formula cases at 1e-12
    pair = mt.CaptionPair("the cat sat".split(), ["the cat sat down".split()])
    f_mean = 10.0 * 1.0 * 0.75 / (0.75 + 9.0 * 1.0)
    expected = f_mean * (1.0 - 0.5 * (1.0 / 3.0) ** 3)
    assert abs(mt.meteor_simplified(pair) - expected) < 1e-12
    ident = mt.CaptionPair("w1 w2 w3 w4".split(), ["w1 w2 w3 w4".split()])
    assert abs(mt.meteor_simplified(ident) - (1.0 - 0.5 / 64.0)) < 1e-12
    assert mt.meteor_simplified(mt.CaptionPair(["q"], [["z"]])) == 0.0
    # iou: exact rational geometry
    unit = mt.Box(0.0, 0.0, 1.0, 1.0)
    assert mt.iou(unit, unit) == 1.0
    assert mt.iou(unit, mt.Box(0.5, 0.0, 1.0, 1.0)) == 0.5
    assert mt.iou(unit, mt.Box(2.0, 2.0, 3.0, 3.0)) == 0.0
    assert mt.precision_at_iou([unit, mt.Box(0.5, 0.0, 1.0, 1.0), unit],
                               [unit, unit, mt.Box(3.0, 3.0, 4.0, 4.0)]) == pytest.approx(2 / 3)
    _report(8, "bleu1 / rouge1 / meteor_simplified / iou match hand-computed oracles")


def test_criterion_9_determinism_and_round_trips(tmp_path):
    # CLI artifacts are byte-identical across repeated runs
    rng = Rng(0)
    texts = tmp_path / "texts.jsonl"
    texts.write_text("".join(
        json.dumps({"text": f"scene {i}", "embedding": list(rng.normal((6,)))}) + "\n"
        for i in range(12)), encoding="utf-8")
    db_a, db_b = tmp_path / "a.rsdb", tmp_path / "b.rsdb"
    assert cli.run(["build-db", "--input", str(texts), "--out", str(db_a), "--dim", "6"]) == 0
    assert cli.run(["build-db", "--input", str(texts), "--out", str(db_b), "--dim", "6"]) == 0
    assert db_a.read_bytes() == db_b.read_bytes()

    pairs = contrastive_corpus(9, n=8)
    pairs_path = tmp_path / "pairs.jsonl"
    pairs_path.write_text("".join(
        json.dumps({"image": [float(x) for x in p.image_features],
                    "text": " ".join(f"w{t}" for t in p.text_tokens)}) + "\n"
        for p in pairs), encoding="utf-8")
    enc_cfg = tmp_path / "enc.json"
    enc_cfg.write_text(json.dumps({"d_img_raw": 12, "d_e": 16, "bow_vocab": 256,
                                   "enc_hidden": 16}), encoding="utf-8")
    enc_a, enc_b = tmp_path / "a.rsde", tmp_path / "b.rsde"
    for out in (enc_a, enc_b):
        assert cli.run(["train-retriever", "--input", str(pairs_path), "--out", str(out),
                        "--epochs", "4", "--lr", "0.1", "--seed", "11",
                        "--config", str(enc_cfg)]) == 0
    assert enc_a.read_bytes() == enc_b.read_bytes()

    data = tmp_path / "inst.jsonl"
    prng = np.random.default_rng(1)
    data.write_text("".join(
        json.dumps({"image": prng.normal(size=(2, 6)).tolist(),
                    "query": f"q{i}?", "response": f"r{i}"}) + "\n"
        for i in range(4)), encoding="utf-8")
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "d_h": 16, "heads": 2, "lm_blocks": 2, "expert_stride": 2, "levels": 2,
        "d_r": 4, "d_i": 24, "n_agg": 2, "prompter_heads": 2, "patch_dim": 6,
        "d_v": 8, "visual_blocks": 3, "visual_heads": 2, "visual_inner": 16,
        "seed": 4, "epochs": 2, "batch_size": 2,
        "lr_visual": 0.001, "lr_prompter": 0.01, "lr_lm": 0.01,
        "paths": {"data": str(data)},
    }), encoding="utf-8")
    ck_a, ck_b = tmp_path / "a.rsck", tmp_path / "b.rsck"
    for out in (ck_a, ck_b):
        assert cli.run(["train", "--stage", "2", "--config", str(cfg_path),
                        "--out", str(out)]) == 0
    assert ck_a.read_bytes() == ck_b.read_bytes()

    rep_a, rep_b = tmp_path / "ga.json", tmp_path / "gb.json"
    for out in (rep_a, rep_b):
        assert cli.run(["grad-check", "--probes", "20", "--seed", "2", "--out", str(out)]) == 0
    assert rep_a.read_bytes() == rep_b.read_bytes()

    # RSDB and RSCK round trips are byte-exact
    loaded_db = SemanticDatabase.load(db_a)
    resaved = tmp_path / "resaved.rsdb"
    loaded_db.save(resaved)
    assert resaved.read_bytes() == db_a.read_bytes()

    model = vlm.load_checkpoint(ck_a)
    resaved_ck = tmp_path / "resaved.rsck"
    vlm.save_checkpoint(model, resaved_ck)
    assert resaved_ck.read_bytes() == ck_a.read_bytes()

    enc = de.load_params(enc_a)
    resaved_enc = tmp_path / "resaved.rsde"
    de.save_params(enc, resaved_enc)
    assert resaved_enc.read_bytes() == enc_a.read_bytes()
    _report(9, "build-db / train-retriever / train / grad-check byte-identical "
               "across reruns; RSDB, RSCK, RSDE round trips byte-exact")
