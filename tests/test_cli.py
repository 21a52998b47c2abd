import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rsvlm import cli
from rsvlm.semantic_store import SemanticDatabase
from synthetic import contrastive_corpus


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def test_build_db_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.jsonl"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "db.rsdb"
    assert cli.run(["build-db", "--input", str(src), "--out", str(out), "--dim", "4"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["count"] == 0 and summary["dim"] == 4
    assert len(SemanticDatabase.load(out)) == 0


def test_build_db_with_inline_embeddings_idempotent(tmp_path, capsys):
    rows = [
        {"text": "river", "embedding": [1.0, 0.0, 0.0]},
        {"text": "field", "embedding": [0.0, 1.0, 0.0]},
        {"text": "road", "embedding": [0.0, 0.5, 0.5]},
    ]
    src = _write_jsonl(tmp_path / "texts.jsonl", rows)
    out1, out2 = tmp_path / "a.rsdb", tmp_path / "b.rsdb"
    assert cli.run(["build-db", "--input", str(src), "--out", str(out1), "--dim", "3"]) == 0
    assert cli.run(["build-db", "--input", str(src), "--out", str(out2), "--dim", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["count"] == 3


def test_build_db_malformed_line_exit_4(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_text('{"text": "x", "embedding": [1, 0]}\n{oops\n', encoding="utf-8")
    code = cli.run(["build-db", "--input", str(src), "--out", str(tmp_path / "o.rsdb"),
                    "--dim", "2"])
    assert code == 4
    assert "line 2" in capsys.readouterr().err


def test_build_db_lone_surrogate_exit_4(tmp_path, capsys):
    src = _write_jsonl(tmp_path / "t.jsonl", [{"text": "a\ud800b", "embedding": [1, 0]}])
    out = tmp_path / "o.rsdb"
    assert cli.run(["build-db", "--input", str(src), "--out", str(out), "--dim", "2"]) == 4
    assert capsys.readouterr().err == "format error: line 1: 'text' holds a lone surrogate at character 1\n"
    assert not out.exists()


def test_build_db_without_embedding_needs_encoder(tmp_path, capsys):
    src = _write_jsonl(tmp_path / "t.jsonl", [{"text": "no embedding"}])
    code = cli.run(["build-db", "--input", str(src), "--out", str(tmp_path / "o.rsdb"),
                    "--dim", "2"])
    assert code == 4
    assert "line 1" in capsys.readouterr().err


def test_retrieve_matches_library_and_k_handling(tmp_path, capsys):
    db = SemanticDatabase(3)
    rows = [("alpha", [1.0, 0.0, 0.0]), ("beta", [0.0, 1.0, 0.0]),
            ("gamma", [0.7, 0.7, 0.0]), ("delta", [0.0, 0.0, 1.0])]
    for text, emb in rows:
        db.ingest(text, emb)
    db_path = tmp_path / "db.rsdb"
    db.save(db_path)
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps([0.9, 0.1, 0.0]), encoding="utf-8")

    assert cli.run(["retrieve", "--db", str(db_path), "--query", str(qpath), "--k", "0"]) == 0
    assert capsys.readouterr().out == ""

    assert cli.run(["retrieve", "--db", str(db_path), "--query", str(qpath), "--k", "2"]) == 0
    out_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    expected = db.retrieve_top_k([0.9, 0.1, 0.0], 2)
    assert [(l["id"], l["score"]) for l in out_lines] == [(r.id, r.score) for r in expected]
    assert out_lines[0]["rank"] == 1 and out_lines[0]["text"] == "alpha"


def test_retrieve_prints_multi_byte_texts_exactly(tmp_path, capsys):
    texts = ["río seco", "港口 harbor", "🌊 coast 🛰", "plain field", "ß-straße é"]
    rows = [{"text": t, "embedding": [1.0, 0.1 * i, -0.2 * i]} for i, t in enumerate(texts)]
    db_path = tmp_path / "db.rsdb"
    assert cli.run(["build-db", "--input", str(_write_jsonl(tmp_path / "texts.jsonl", rows)),
                    "--out", str(db_path), "--dim", "3"]) == 0
    capsys.readouterr()
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps([1.0, 0.2, -0.3]), encoding="utf-8")
    out = tmp_path / "hits.jsonl"
    assert cli.run(["retrieve", "--db", str(db_path), "--query", str(qpath), "--k", "5",
                    "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == printed
    hits = [json.loads(line) for line in printed.splitlines()]
    assert sorted(h["id"] for h in hits) == list(range(5))
    assert [h["text"] for h in hits] == [texts[h["id"]] for h in hits]


def test_retrieve_missing_db_exit_4(tmp_path, capsys):
    qpath = tmp_path / "q.json"
    qpath.write_text("[1.0, 0.0]", encoding="utf-8")
    code = cli.run(["retrieve", "--db", str(tmp_path / "nope.rsdb"), "--query", str(qpath)])
    assert code == 4


def test_train_retriever_and_retrieve_with_encoder(tmp_path, capsys):
    pairs = contrastive_corpus(1, n=10)
    pairs_path = _write_jsonl(tmp_path / "pairs.jsonl", [
        {"image": [float(x) for x in p.image_features],
         "text": " ".join(f"w{t}" for t in p.text_tokens)}
        for p in pairs
    ])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d_img_raw": 12, "d_e": 8, "bow_vocab": 128,
                                    "enc_hidden": 12}), encoding="utf-8")
    enc_path = tmp_path / "enc.rsde"
    code = cli.run(["train-retriever", "--input", str(pairs_path), "--out", str(enc_path),
                    "--epochs", "10", "--lr", "0.1", "--config", str(cfg_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_loss"] < summary["first_loss"]

    # build a db with the encoder, then retrieve with raw image features
    texts = _write_jsonl(tmp_path / "texts.jsonl",
                         [{"text": "pos0 marker"}, {"text": "neg3 marker"}])
    db_path = tmp_path / "db.rsdb"
    assert cli.run(["build-db", "--input", str(texts), "--out", str(db_path),
                    "--encoder", str(enc_path)]) == 0
    capsys.readouterr()
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps([0.5] * 12), encoding="utf-8")
    assert cli.run(["retrieve", "--db", str(db_path), "--query", str(qpath),
                    "--encoder", str(enc_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # k=5 saturates at db size


@pytest.mark.parametrize("epochs", ["1", "3"])
def test_train_retriever_overflow_ends_with_one_line(tmp_path, capsys, epochs):
    # an update of 1e308 x gradient overflows float64 in the first epoch;
    # the run ends there, with no numpy warning and no file
    rng = np.random.default_rng(0)
    pairs = _write_jsonl(tmp_path / "pairs.jsonl", [
        {"image": rng.normal(size=8).tolist(), "text": f"word{i} scene{i}"} for i in range(8)])
    out = tmp_path / "enc.rsde"
    code = cli.run(["train-retriever", "--input", str(pairs), "--out", str(out),
                    "--lr", "1e308", "--epochs", epochs])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "numeric error: train_retriever: parameter block text_proj.w1 is not finite after the update at epoch 0"]
    assert not out.exists()


def _toy_train_config(tmp_path, stage, extra=None):
    rng = np.random.default_rng(0)
    cfg = {
        "d_h": 16, "heads": 2, "lm_blocks": 2, "expert_stride": 2, "levels": 2,
        "d_r": 4, "d_i": 24, "n_agg": 2, "prompter_heads": 2, "patch_dim": 6,
        "d_v": 8, "visual_blocks": 3, "visual_heads": 2, "visual_inner": 16,
        "seed": 1, "epochs": 2, "batch_size": 2, "lr_prompter": 0.01,
        "lr_visual": 0.001, "lr_lm": 0.01, "k": 2,
    }
    cfg.update(extra or {})
    if stage == 1:
        rows = [{"image": rng.normal(size=(2, 6)).tolist(), "caption": f"cap {i}"}
                for i in range(4)]
    else:
        rows = [{"image": rng.normal(size=(2, 6)).tolist(), "query": f"q{i}?",
                 "response": f"r{i}"} for i in range(4)]
    data = _write_jsonl(tmp_path / f"data{stage}.jsonl", rows)
    cfg["paths"] = {"data": str(data)}
    cfg_path = tmp_path / f"train{stage}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg_path


def test_train_stage1_deterministic_artifacts(tmp_path, capsys):
    cfg_path = _toy_train_config(tmp_path, stage=1)
    out1, out2 = tmp_path / "m1.rsck", tmp_path / "m2.rsck"
    assert cli.run(["train", "--stage", "1", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.run(["train", "--stage", "1", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["stage"] == "alignment" and summary["samples"] == 4


def test_train_stage2_resumes_from_checkpoint(tmp_path, capsys):
    cfg1 = _toy_train_config(tmp_path, stage=1)
    ck1 = tmp_path / "stage1.rsck"
    assert cli.run(["train", "--stage", "1", "--config", str(cfg1), "--out", str(ck1)]) == 0
    cfg2 = _toy_train_config(tmp_path, stage=2)
    ck2 = tmp_path / "stage2.rsck"
    assert cli.run(["train", "--stage", "2", "--config", str(cfg2),
                    "--init", str(ck1), "--out", str(ck2)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["stage"] == "instruction"
    assert ck2.exists()


def test_train_refuses_checkpoint_beyond_float32(tmp_path, capsys):
    # a learning rate of 1e300 takes parameters far beyond float32's range
    cfg_path = _toy_train_config(tmp_path, stage=1, extra={"lr_prompter": 1e300, "max_steps": 1})
    out = tmp_path / "m.rsck"
    out.write_bytes(b"previous checkpoint")
    assert cli.run(["train", "--stage", "1", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: parameter block ") and err.count("\n") == 1, err
    assert out.read_bytes() == b"previous checkpoint"


def test_train_without_data_is_config_error(tmp_path, capsys):
    assert cli.run(["train", "--stage", "1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_validation_lists_all_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_agg": 0, "levels": -1, "k": 0, "d_r": 64, "d_h": 32}),
                   encoding="utf-8")
    code = cli.run(["grad-check", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    for field in ("n_agg", "levels", "k", "d_r"):
        assert field in err


CONFIG_FAULTS = {
    # case: (config file, the key its one problem names)
    "epochs_string": ({"epochs": "three"}, "epochs"), "lr_prompter_null": ({"lr_prompter": None}, "lr_prompter"),
    "batch_size_float": ({"batch_size": 2.5}, "batch_size"), "heads_float": ({"heads": 2.0}, "heads"),
    "max_steps_string": ({"max_steps": "5"}, "max_steps"), "stop_loss_string": ({"stop_loss": "x"}, "stop_loss"),
    "seed_string": ({"seed": "x"}, "seed"), "paths_number": ({"paths": 3}, "paths"),
    "weight_decay_string": ({"weight_decay": "x", "max_steps": 1}, "weight_decay"),
    "misspelt_key": ({"lr_promter": 1.0}, "lr_promter"), "d_h_string": ({"d_h": "32"}, "d_h"),
    "stage_key": ({"stage": 2}, "stage"), "heads_zero": ({"heads": 0}, "heads"),
    "lr_prompter_nan": ({"lr_prompter": float("nan")}, "lr_prompter"),
    "weight_decay_infinite": ({"weight_decay": float("inf")}, "weight_decay"),
    "weight_decay_negative": ({"weight_decay": -1e300}, "weight_decay"),
    "max_steps_zero": ({"max_steps": 0}, "max_steps"), "max_steps_negative": ({"max_steps": -3}, "max_steps"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_FAULTS))
@pytest.mark.parametrize("command", ["train", "grad-check", "build-db"])
def test_mistyped_or_unknown_config_key_exit_2(tmp_path, capsys, case, command):
    config, key = CONFIG_FAULTS[case]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    data = _write_jsonl(tmp_path / "d.jsonl", [{"image": [[0.5] * 8], "caption": "c", "text": "t",
                                                 "embedding": [1.0, 0.0]}])
    argv = {"train": ["train", "--stage", "1", "--data", str(data)],
            "grad-check": ["grad-check", "--probes", "2"],
            "build-db": ["build-db", "--input", str(data), "--out", str(tmp_path / "o.rsdb"),
                         "--dim", "2"]}[command]
    assert cli.run(argv + ["--config", str(cfg_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and key in lines[0], lines


@pytest.mark.parametrize("config", [{"d_i": 10**30}, {"patch_dim": 10**30}, {"max_seq": 10**400}])
@pytest.mark.parametrize("command", ["train", "train-retriever", "build-db", "retrieve", "eval", "grad-check"])
def test_unaddressable_config_dims_exit_2(tmp_path, capsys, config, command):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    data = str(tmp_path / "absent.jsonl")  # the config is checked before any input is read
    argv = {"train": ["train", "--stage", "1", "--data", data],
            "train-retriever": ["train-retriever", "--input", data, "--out", data],
            "build-db": ["build-db", "--input", data, "--out", data],
            "retrieve": ["retrieve", "--db", data, "--query", data],
            "eval": ["eval", "--task", "classify", "--pred", data, "--gt", data],
            "grad-check": ["grad-check"]}[command]
    assert cli.run(argv + ["--config", str(cfg_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: a parameter block is too large to address"), lines


@pytest.mark.parametrize("config,message", [
    ({"enc_hidden": 10**30}, f"enc_hidden must be at most 4294967295, got {10**30}"),
    ({"d_e": 10**30}, f"d_e must be at most 4294967295, got {10**30}"),
    ({"d_img_raw": 1 << 32}, f"d_img_raw must be at most 4294967295, got {1 << 32}"),
    ({"bow_vocab": 1 << 32}, f"bow_vocab must be at most 4294967295, got {1 << 32}"),
    # each fits its header field, but the text block does not fit in memory
    ({"bow_vocab": (1 << 32) - 1, "enc_hidden": (1 << 32) - 1}, "a parameter block is too large to address"),
])
@pytest.mark.parametrize("command", ["train", "train-retriever", "build-db", "retrieve", "eval", "grad-check"])
def test_unaddressable_retriever_dims_exit_2(tmp_path, capsys, config, message, command):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    data = str(tmp_path / "absent.jsonl")  # the config is checked before any input is read
    argv = {"train": ["train", "--stage", "1", "--data", data],
            "train-retriever": ["train-retriever", "--input", data, "--out", data],
            "build-db": ["build-db", "--input", data, "--out", data],
            "retrieve": ["retrieve", "--db", data, "--query", data],
            "eval": ["eval", "--task", "classify", "--pred", data, "--gt", data],
            "grad-check": ["grad-check"]}[command]
    tracemalloc.start()
    try:
        assert cli.run(argv + ["--config", str(cfg_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no block was allocated
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {message}"), lines


@pytest.mark.parametrize("command,flag,value", [
    ("train-retriever", "--epochs", "0"), ("train-retriever", "--epochs", "-2"), ("build-db", "--dim", "0"),
    ("build-db", "--dim", "-1"), ("build-db", "--dim", "4294967296"), ("build-db", "--dim", "99999999999999999999"),
    ("retrieve", "--k", "-1"), ("grad-check", "--probes", "0"),
    ("train-retriever", "--lr", "nan"), ("train-retriever", "--lr", "-0.1"), ("train-retriever", "--lr", "inf"),
    ("train-retriever", "--momentum", "nan"), ("train-retriever", "--momentum", "-1"),
    ("eval", "--threshold", "nan"), ("eval", "--threshold", "1.5"), ("eval", "--threshold", "-0.5"),
])
def test_out_of_range_size_flag_is_usage_error(capsys, command, flag, value):
    required = {"train-retriever": ["--input", "p.jsonl", "--out", "e.rsde"],
                "build-db": ["--input", "t.jsonl", "--out", "d.rsdb"],
                "retrieve": ["--db", "d.rsdb", "--query", "q.json"], "grad-check": [],
                "eval": ["--task", "ground", "--pred", "p.jsonl", "--gt", "g.jsonl"]}[command]
    expected = {"--lr": "a finite number >= 0", "--momentum": "a finite number >= 0",
                "--threshold": "a finite number in [0, 1]",
                "--dim": "an integer in [1, 4294967295]"}.get(flag, "an integer >= ")
    assert cli.run([command, *required, flag, value]) == 2
    assert f"error: argument {flag}: expected {expected}" in capsys.readouterr().err


def test_paper_profile_validates(capsys):
    cfg = cli.RunConfig("paper")
    assert cfg.values["n_agg"] == 144
    assert cfg.values["d_r"] == 512
    assert cfg.model_config().d_h == 3584


def test_eval_classify_perfect(tmp_path, capsys):
    gt = _write_jsonl(tmp_path / "gt.jsonl",
                      [{"id": i, "label": f"class{i % 3}"} for i in range(6)])
    pred = _write_jsonl(tmp_path / "pred.jsonl",
                        [{"id": i, "output": f"Class{i % 3} "} for i in range(6)])
    out = tmp_path / "report.json"
    assert cli.run(["eval", "--task", "classify", "--pred", str(pred), "--gt", str(gt),
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] == 1.0 and report["count"] == 6


def test_eval_vqa_partial(tmp_path, capsys):
    gt = _write_jsonl(tmp_path / "gt.jsonl", [
        {"id": "a", "label": "yes"}, {"id": "b", "label": "no"},
        {"id": "c", "label": "urban"}, {"id": "d", "label": "rural"},
    ])
    pred = _write_jsonl(tmp_path / "pred.jsonl", [
        {"id": "a", "output": "yes"}, {"id": "b", "output": "yes"},
        {"id": "c", "output": "urban"}, {"id": "d", "output": "urban"},
    ])
    assert cli.run(["eval", "--task", "vqa", "--pred", str(pred), "--gt", str(gt)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accuracy"] == 0.5


def test_eval_ground(tmp_path, capsys):
    gt = _write_jsonl(tmp_path / "gt.jsonl", [
        {"id": 0, "box": [0.0, 0.0, 1.0, 1.0]},
        {"id": 1, "boxes": [[0.0, 0.0, 0.5, 0.5]]},
        {"id": 2, "box": [0.2, 0.2, 0.8, 0.8]},
    ])
    pred = _write_jsonl(tmp_path / "pred.jsonl", [
        {"id": 0, "output": "the box is [0.0, 0.0, 1.0, 1.0]"},
        {"id": 1, "output": "[0.0, 0.0, 0.5, 0.49]"},
        {"id": 2, "output": "no box found"},
    ])
    assert cli.run(["eval", "--task", "ground", "--pred", str(pred), "--gt", str(gt)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["precision_at_iou"] == pytest.approx(2 / 3)


def test_eval_ground_scores_a_perfect_match_anywhere_in_float_range(tmp_path, capsys):
    # each box's area overflows or underflows a float; each prediction is its box
    boxes = [[0, 0, 1e308, 1e308], [-sys.float_info.max, -1e308, sys.float_info.max, 1e308],
             [0, 0, 5e-324, 5e-324]]
    gt = _write_jsonl(tmp_path / "gt.jsonl", [{"id": i, "box": box} for i, box in enumerate(boxes)])
    pred = _write_jsonl(tmp_path / "pred.jsonl", [{"id": i, "output": f"box {json.dumps(box)}"}
                                                  for i, box in enumerate(boxes)])
    assert cli.run(["eval", "--task", "ground", "--pred", str(pred), "--gt", str(gt)]) == 0
    assert json.loads(capsys.readouterr().out)["precision_at_iou"] == 1.0


def test_eval_caption(tmp_path, capsys):
    gt = _write_jsonl(tmp_path / "gt.jsonl", [
        {"id": 0, "references": ["a river through fields"]},
        {"id": 1, "references": ["an empty runway", "a bare runway"]},
    ])
    pred = _write_jsonl(tmp_path / "pred.jsonl", [
        {"id": 0, "output": "a river through fields"},
        {"id": 1, "output": "an empty runway"},
    ])
    assert cli.run(["eval", "--task", "caption", "--pred", str(pred), "--gt", str(gt)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu1"] == 1.0 and report["rouge1"] == 1.0
    assert report["meteor_simplified"] == pytest.approx(
        np.mean([1 - 0.5 / 4 ** 3, 1 - 0.5 / 3 ** 3]))


def test_eval_unknown_task_usage_error(tmp_path):
    gt = _write_jsonl(tmp_path / "gt.jsonl", [{"id": 0, "label": "x"}])
    code = cli.run(["eval", "--task", "segment", "--pred", str(gt), "--gt", str(gt)])
    assert code == 2


def test_eval_missing_prediction_exit_4(tmp_path, capsys):
    gt = _write_jsonl(tmp_path / "gt.jsonl", [{"id": 0, "label": "x"}, {"id": 1, "label": "y"}])
    pred = _write_jsonl(tmp_path / "pred.jsonl", [{"id": 0, "output": "x"}])
    assert cli.run(["eval", "--task", "classify", "--pred", str(pred), "--gt", str(gt)]) == 4


def test_grad_check_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "grad.json"
    code = cli.run(["grad-check", "--probes", "40", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["max_relative_error"] <= 1e-4
    assert report["probes"] == 40


def test_grad_check_deterministic_artifact(tmp_path, capsys):
    out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert cli.run(["grad-check", "--probes", "20", "--seed", "5", "--out", str(out1)]) == 0
    assert cli.run(["grad-check", "--probes", "20", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point(tmp_path):
    src = tmp_path / "e.jsonl"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "db.rsdb"
    proc = subprocess.run(
        [sys.executable, "-m", "rsvlm", "build-db", "--input", str(src),
         "--out", str(out), "--dim", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 0


def test_usage_error_exit_2():
    assert cli.run(["no-such-command"]) == 2
    assert cli.run([]) == 2
