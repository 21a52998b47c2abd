"""Malformed artifacts and inputs fail closed: each loader raises FormatError
naming a byte offset or a line, and each command that reads the input exits
4 with a one-line message instead of a traceback."""

import argparse
import contextlib
import io
import itertools
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsvlm import cli
from rsvlm import dual_encoder as de
from rsvlm import model as vlm
from rsvlm import training
from rsvlm.errors import ConfigError, DomainError, FormatError
from rsvlm.semantic_store import SemanticDatabase, iter_jsonl

MODEL = dict(d_h=8, heads=2, lm_blocks=1, expert_stride=1, levels=2, d_r=2, d_i=8, n_agg=1,
             prompter_heads=2, patch_dim=4, d_v=4, visual_blocks=2, visual_heads=2,
             visual_inner=8, max_seq=64)
ENCODER = dict(d_img_raw=4, d_e=4, bow_vocab=16, enc_hidden=6)
KINDS = ["rsdb", "rsde", "rsck", "texts", "pairs", "caption", "instruction", "npy", "pred", "gt"]
# Each fuzz example writes a new file: overwriting one file makes ext4 flush
# it on close, which costs far more than the example itself.
_EXAMPLE = itertools.count()


def _jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _write_inputs(d):
    """One valid file of each kind the program reads, plus the side files
    the commands that read them need."""
    db = SemanticDatabase(4)
    for i, text in enumerate(["river bend", "city block", "dry field"]):
        db.ingest(text, [1.0, float(i), 0.5, -1.0])
    db.save(d / "db.rsdb")
    de.save_params(de.init_params(4, 4, 16, 6, seed=0), d / "enc.rsde")
    vlm.save_checkpoint(vlm.init_model(vlm.ModelConfig(**MODEL), seed=0), d / "model.rsck")
    rng = np.random.default_rng(0)
    _jsonl(d / "texts.jsonl", [{"text": t, "embedding": rng.normal(size=4).round(3).tolist()}
                               for t in ("lake shore", "road grid")])
    _jsonl(d / "pairs.jsonl", [{"image": rng.normal(size=4).round(3).tolist(),
                                "text": f"scene w{i} v{i % 3}"} for i in range(8)])
    _jsonl(d / "caption.jsonl", [{"image": rng.normal(size=(2, 4)).round(3).tolist(),
                                  "caption": f"cap {i}"} for i in range(2)])
    _jsonl(d / "instruction.jsonl", [{"image": rng.normal(size=(2, 4)).round(3).tolist(),
                                      "query": f"q{i}?", "response": f"r{i}"} for i in range(2)])
    _jsonl(d / "pred.jsonl", [{"id": i, "output": f"class{i}"} for i in range(3)])
    _jsonl(d / "gt.jsonl", [{"id": i, "label": f"class{i % 2}"} for i in range(3)])
    _jsonl(d / "refs.jsonl", [{"id": i, "references": [f"class{i}", "a scene"]} for i in range(3)])
    _jsonl(d / "boxes.jsonl", [{"id": i, "box": [0, 0, 1, i + 1]} for i in range(3)])
    _jsonl(d / "plain_texts.jsonl", [{"text": "river bend"}, {"text": "dry field"}])
    np.save(d / "image.npy", rng.normal(size=(2, 4)).round(3))
    (d / "query.json").write_text(json.dumps([0.5, 1.0, 0.0, -0.5]), encoding="utf-8")
    (d / "train.json").write_text(json.dumps({**MODEL, "max_steps": 1, "batch_size": 1}),
                                  encoding="utf-8")
    (d / "encoder.json").write_text(json.dumps(ENCODER), encoding="utf-8")


def _caption_of(image):
    """A caption file, next to the feature file `image`, whose one line
    reads it."""
    path = Path(image).with_suffix(".jsonl")
    _jsonl(path, [{"image": image, "caption": "cap"}])
    return str(path)


def _inputs(d):
    """kind -> (file, library loader, CLI argv reading the file at `path`)."""
    train = ["train", "--config", str(d / "train.json")]
    return {
        "rsdb": ("db.rsdb", SemanticDatabase.load,
                 lambda p: ["retrieve", "--db", p, "--query", str(d / "query.json"), "--k", "2"]),
        "rsde": ("enc.rsde", de.load_params,
                 lambda p: ["build-db", "--input", str(d / "plain_texts.jsonl"),
                            "--out", str(d / "out.rsdb"), "--encoder", p]),
        "rsck": ("model.rsck", vlm.load_checkpoint,
                 lambda p: train + ["--stage", "1", "--init", p, "--data", str(d / "caption.jsonl")]),
        "texts": ("texts.jsonl", lambda p: list(iter_jsonl(p)),
                  lambda p: ["build-db", "--input", p, "--out", str(d / "out.rsdb"), "--dim", "4"]),
        "pairs": ("pairs.jsonl", lambda p: list(iter_jsonl(p)),
                  lambda p: ["train-retriever", "--input", p, "--out", str(d / "out.rsde"),
                             "--epochs", "1", "--config", str(d / "encoder.json")]),
        "caption": ("caption.jsonl", lambda p: training.load_samples(p, training.STAGE_ALIGNMENT),
                    lambda p: train + ["--stage", "1", "--data", p]),
        "instruction": ("instruction.jsonl",
                        lambda p: training.load_samples(p, training.STAGE_INSTRUCTION),
                        lambda p: train + ["--stage", "2", "--data", p]),
        "npy": ("image.npy", lambda p: training.load_patches(str(p)),
                lambda p: train + ["--stage", "1", "--data", _caption_of(p)]),
        "pred": ("pred.jsonl", lambda p: list(iter_jsonl(p)),
                 lambda p: ["eval", "--task", "classify", "--pred", p, "--gt", str(d / "gt.jsonl")]),
        "gt": ("gt.jsonl", lambda p: list(iter_jsonl(p)),
               lambda p: ["eval", "--task", "classify", "--pred", str(d / "pred.jsonl"), "--gt", p]),
        "boxes": ("boxes.jsonl", lambda p: list(iter_jsonl(p)),
                  lambda p: ["eval", "--task", "ground", "--pred", str(d / "pred.jsonl"), "--gt", p]),
    }


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


def _assert_fails_closed(kind, d, path, match):
    _, load, argv = _inputs(d)[kind]
    with pytest.raises(FormatError, match=match):
        load(path)
    code, err = _run(argv(str(path)))
    assert code == 4, err
    assert err.startswith("format error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    _write_inputs(d)
    return d


@pytest.mark.parametrize("kind", KINDS)
def test_valid_inputs_load_and_run(inputs_dir, kind):
    name, load, argv = _inputs(inputs_dir)[kind]
    load(inputs_dir / name)
    code, err = _run(argv(str(inputs_dir / name)))
    assert code == 0, err


@pytest.mark.parametrize("kind,size", [("rsdb", 5), ("rsde", 5), ("rsde", 12), ("rsck", 5)])
def test_short_header_reports_offset(inputs_dir, tmp_path, kind, size):
    name = _inputs(inputs_dir)[kind][0]
    path = tmp_path / name
    path.write_bytes((inputs_dir / name).read_bytes()[:size])
    _assert_fails_closed(kind, inputs_dir, path, r"truncated payload reading \w+ at byte \d+")


def test_rsde_header_dims_checked_before_allocating(tmp_path):
    # In a 22-byte file, hidden = 2**18 implies 31 MB of blocks, and
    # vocab = hidden = 2**32 - 1 a text block too large to address.
    path = tmp_path / "big.rsde"
    for dims, match in [((4, 4, 16, 1 << 18), r"need \d+ bytes at byte 22, 0 remain"),
                        ((4, 4, (1 << 32) - 1, (1 << 32) - 1), r"header dimensions \(4, 4, 4294967295, "
                                                               r"4294967295\) at byte 6 too large to address")]:
        path.write_bytes(b"RSDE" + struct.pack("<HIIII", 1, *dims))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=match):
                de.load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    path.write_bytes(b"RSDE" + struct.pack("<HIIII", 1, 4, 0, 16, 6))
    with pytest.raises(FormatError, match=r"zero dimension in header .* = \(4, 0, 16, 6\) at byte 6"):
        de.load_params(path)


def test_feature_width_must_match_the_trained_model(inputs_dir, tmp_path):
    # caption.jsonl has 4 feature columns; the toy profile's patch_dim is 8
    caption = str(inputs_dir / "caption.jsonl")
    code, err = _run(["train", "--stage", "1", "--data", caption])
    assert (code, err) == (4, "format error: line 1: image features have 4 columns, model patch_dim is 8\n")
    # a width-8 retriever is checked before it is used, with a width-4 model
    de.save_params(de.init_params(8, 4, 16, 6, seed=0), tmp_path / "enc8.rsde")
    code, err = _run(["train", "--config", str(inputs_dir / "train.json"), "--stage", "1", "--data", caption,
                      "--retriever", str(tmp_path / "enc8.rsde"), "--db", str(inputs_dir / "db.rsdb")])
    assert (code, err) == (4, "format error: line 1: image features have 4 columns, retriever d_img_raw is 8\n")
    # the checkpoint's patch_dim, not the profile's, is the model trained
    code, err = _run(["train", "--stage", "1", "--data", caption, "--init", str(inputs_dir / "model.rsck")])
    assert code == 0, err


def test_train_takes_a_database_and_a_retriever_together(inputs_dir, tmp_path):
    train = ["train", "--config", str(inputs_dir / "train.json"), "--stage", "1",
             "--data", str(inputs_dir / "caption.jsonl")]
    code, err = _run(train + ["--db", str(inputs_dir / "db.rsdb")])
    assert (code, err) == (2, "config error: a semantic database needs a retriever: "
                              "pass --retriever or set paths.retriever\n")
    config = tmp_path / "retriever_only.json"
    config.write_text(json.dumps({**MODEL, "max_steps": 1, "paths": {"retriever": str(inputs_dir / "enc.rsde")}}),
                      encoding="utf-8")
    code, err = _run(["train", "--config", str(config), "--stage", "1", "--data", str(inputs_dir / "caption.jsonl")])
    assert (code, err) == (2, "config error: a retriever needs a semantic database: pass --db or set paths.db\n")


def test_retriever_width_must_match_the_database(inputs_dir, tmp_path):
    # db.rsdb holds 4-wide embeddings; the first line of each input is not
    # JSON, so an error naming a line would mean the widths were checked late
    de.save_params(de.init_params(4, 8, 16, 6, seed=0), tmp_path / "enc_e8.rsde")
    (tmp_path / "bad.jsonl").write_text("not json\n", encoding="utf-8")
    (tmp_path / "bad.json").write_text("not json", encoding="utf-8")
    want = (4, "format error: retriever d_e is 8, database dim is 4\n")
    code, err = _run(["train", "--config", str(inputs_dir / "train.json"), "--stage", "1",
                      "--data", str(tmp_path / "bad.jsonl"), "--db", str(inputs_dir / "db.rsdb"),
                      "--retriever", str(tmp_path / "enc_e8.rsde")])
    assert (code, err) == want
    code, err = _run(["retrieve", "--db", str(inputs_dir / "db.rsdb"), "--query", str(tmp_path / "bad.json"),
                      "--encoder", str(tmp_path / "enc_e8.rsde")])
    assert (code, err) == want


def test_retrieve_query_width_must_match(inputs_dir, tmp_path):
    # db.rsdb holds 4-wide embeddings; enc8.rsde reads 8 raw features
    de.save_params(de.init_params(8, 4, 16, 6, seed=0), tmp_path / "enc8.rsde")
    query = tmp_path / "q5.json"
    query.write_text(json.dumps([0.5] * 5), encoding="utf-8")
    retrieve = ["retrieve", "--db", str(inputs_dir / "db.rsdb"), "--query", str(query)]
    code, err = _run(retrieve + ["--encoder", str(tmp_path / "enc8.rsde")])
    assert (code, err) == (4, f"format error: query {query} has 5 values, retriever d_img_raw is 8\n")
    code, err = _run(retrieve)
    assert (code, err) == (4, f"format error: query {query} has 5 values, database dim is 4\n")


def test_build_db_takes_an_encoder_or_a_dim(inputs_dir, tmp_path):
    out = tmp_path / "out.rsdb"
    code, err = _run(["build-db", "--input", str(inputs_dir / "plain_texts.jsonl"), "--out", str(out),
                      "--encoder", str(inputs_dir / "enc.rsde"), "--dim", "4"])
    assert code == 2
    assert err.splitlines()[-1] == "rsvlm build-db: error: argument --dim: not allowed with argument --encoder"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["rsde", "rsck"])
def test_non_finite_parameter_rejected(inputs_dir, tmp_path, kind):
    name = _inputs(inputs_dir)[kind][0]
    blob = bytearray((inputs_dir / name).read_bytes())
    blob[-4:] = struct.pack("<f", float("nan"))
    path = tmp_path / name
    path.write_bytes(bytes(blob))
    _assert_fails_closed(kind, inputs_dir, path, f"non-finite value in .* at byte {len(blob) - 4}")


@pytest.mark.parametrize("value", [float("inf"), 1e39])
@pytest.mark.parametrize("kind", ["rsde", "rsck"])
def test_saver_refuses_block_not_finite_as_float32(inputs_dir, tmp_path, kind, value):
    name = _inputs(inputs_dir)[kind][0]
    path = tmp_path / name
    old = (inputs_dir / name).read_bytes()
    path.write_bytes(old)
    if kind == "rsde":
        params = de.init_params(4, 4, 16, 6, seed=0)
        params.log_temp.value[...] = value
        save, block = de.save_params, "log_temp"
    else:
        params = vlm.init_model(vlm.ModelConfig(**MODEL), seed=0)
        params.prompter.f_agg.value[0, 0] = value
        save, block = vlm.save_checkpoint, "prompter.f_agg"
    with pytest.raises(DomainError, match=f"parameter block {block} holds a value that is not finite"):
        save(params, path)
    assert path.read_bytes() == old


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_rsdb_non_finite_embedding_reports_record_offset(inputs_dir, tmp_path, value):
    blob = bytearray((inputs_dir / "db.rsdb").read_bytes())
    # header 18 bytes, record 0 is 12 + 10 + 16 bytes, record 1's embedding
    # starts after its 12 + 10: its element 2 is at byte 18 + 38 + 22 + 8 = 86
    blob[86:90] = struct.pack("<f", value)
    path = tmp_path / "db.rsdb"
    path.write_bytes(bytes(blob))
    _assert_fails_closed("rsdb", inputs_dir, path, "non-finite value in record 1 embedding at byte 86")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e200])
def test_build_db_non_finite_embedding_exit_4(inputs_dir, tmp_path, value):
    path = tmp_path / "texts.jsonl"
    _jsonl(path, [{"text": "lake shore", "embedding": [0.5, 1.0, 0.0, 0.0]},
                  {"text": "road grid", "embedding": [value, 1.0, 0.0, 0.0]}])
    code, err = _run(_inputs(inputs_dir)["texts"][2](str(path)))
    assert code == 4, err
    assert err == "format error: line 2: ingest: embedding is non-finite or its norm overflows\n"


@pytest.mark.parametrize("text", ["[NaN, 1.0, 0.0, 0.0]", "[1.0, Infinity, 0.0, 0.0]",
                                  "[1e200, 1e200, 0.0, 0.0]"])
def test_retrieve_non_finite_query_exit_3(inputs_dir, tmp_path, text):
    query = tmp_path / "q.json"
    query.write_text(text, encoding="utf-8")
    code, err = _run(["retrieve", "--db", str(inputs_dir / "db.rsdb"), "--query", str(query)])
    assert code == 3, err
    assert err == "numeric error: retrieve: query is non-finite or its norm overflows\n"


@pytest.mark.parametrize("text,norm", [("[0.0, 0.0, 0.0, 0.0]", "0"), ("[1e-200, 0.0, 0.0, 0.0]", "0"),
                                       ("[1e-160, 2e-160, 0.0, -1e-160]", "2.45e-160")])
def test_retrieve_near_zero_query_exit_3(inputs_dir, tmp_path, text, norm):
    query = tmp_path / "q.json"
    query.write_text(text, encoding="utf-8")
    code, err = _run(["retrieve", "--db", str(inputs_dir / "db.rsdb"), "--query", str(query)])
    assert code == 3, err
    assert err == f"numeric error: retrieve: zero or near-zero query vector (norm {norm} < 2^-500)\n"

@pytest.mark.parametrize("kind,source,value,message", [
    ("caption", "inline", float("nan"), "image features hold a non-finite value"),
    ("caption", "npy", float("inf"), "image features hold a non-finite value"),
    ("caption", "json", float("-inf"), "image features hold a non-finite value"),
    ("caption", "inline", 1e200, "image features hold a value of magnitude above 1e+100"),
    ("pairs", "inline", float("inf"), "'image' holds a non-finite value"),
], ids=["caption_inline", "caption_npy", "caption_json", "caption_huge", "pairs_inline"])
def test_non_finite_image_features_exit_4(inputs_dir, tmp_path, kind, source, value, message):
    name, _, argv = _inputs(inputs_dir)[kind]
    rows = [json.loads(line) for line in (inputs_dir / name).read_text(encoding="utf-8").splitlines()]
    image = np.array(rows[1]["image"])
    image.flat[1] = value
    if source == "npy":
        np.save(tmp_path / "image.npy", image)
        rows[1]["image"] = str(tmp_path / "image.npy")
    elif source == "json":
        (tmp_path / "image.json").write_text(json.dumps(image.tolist()), encoding="utf-8")
        rows[1]["image"] = str(tmp_path / "image.json")
    else:
        rows[1]["image"] = image.tolist()
    path = tmp_path / name
    _jsonl(path, rows)
    code, err = _run(argv(str(path)))
    assert code == 4, err
    assert err == f"format error: line 2: {message}\n"


def test_empty_npy_feature_file_exit_4(inputs_dir, tmp_path):
    path = tmp_path / "image.npy"
    path.write_bytes(b"")
    _assert_fails_closed("npy", inputs_dir, path, f"image feature file {re.escape(str(path))}: ")


@pytest.mark.parametrize("blob", [b"{bad", b"[[0.5, \xff]]", b""])
def test_malformed_json_feature_file_exit_4(inputs_dir, tmp_path, blob):
    path = tmp_path / "image.json"
    path.write_bytes(blob)
    _assert_fails_closed("npy", inputs_dir, path, f"^image feature file {re.escape(str(path))}: ")


def test_rsdb_invalid_utf8_reports_record_offset(inputs_dir, tmp_path):
    blob = bytearray((inputs_dir / "db.rsdb").read_bytes())
    # header 18 bytes, then id u64 and text length u32: text 0 starts at byte 30
    blob[31] = 0xFF
    path = tmp_path / "db.rsdb"
    path.write_bytes(bytes(blob))
    _assert_fails_closed("rsdb", inputs_dir, path, "record 0: invalid UTF-8 in text at byte 31")


def test_rsdb_id_beyond_int64_rejected(inputs_dir, tmp_path):
    blob = bytearray((inputs_dir / "db.rsdb").read_bytes())
    # header 18 bytes, then records of 12 + text + 16 bytes: record 2's id
    # is the 8 bytes after records 0 and 1 ("river bend", "city block")
    at = 18 + 2 * (12 + 10 + 16)
    blob[at : at + 8] = struct.pack("<Q", 1 << 63)
    (tmp_path / "db.rsdb").write_bytes(bytes(blob))
    _assert_fails_closed("rsdb", inputs_dir, tmp_path / "db.rsdb", "record 2: id 9223372036854775808 exceeds")


@pytest.mark.parametrize("kind,keep,edit,match", [
    ("pairs", 7, None, "7 pairs, train-retriever needs at least 8"),
    ("pairs", 8, ("[", "[0.5, "), r"line 1: 'image' has shape \(5,\), expected \(4,\)"),
    ("pairs", 8, ("w0 v0", "w1 v1"), "line 2: text tokens repeat line 1"),
    ("caption", 0, None, "no training samples"),
    ("gt", 0, None, "classify eval: empty ground truth"),
    ("boxes", 0, None, "ground eval: empty ground truth"),
], ids=["too_few_pairs", "image_length", "repeated_text", "no_samples", "empty_ground_truth",
        "empty_ground_truth_ground"])
def test_unusable_jsonl_content_exit_4(inputs_dir, tmp_path, kind, keep, edit, match):
    name, _, argv = _inputs(inputs_dir)[kind]
    lines = (inputs_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)[:keep]
    if edit:
        lines[0] = lines[0].replace(*edit, 1)
    path = tmp_path / name
    path.write_text("".join(lines), encoding="utf-8")
    code, err = _run(argv(str(path)))
    assert code == 4, err
    assert err.startswith("format error: ") and err.count("\n") == 1, err
    assert re.search(match, err), err


def _eval(task, side):
    """argv of `eval --task task` reading file p as its `side` ("pred" or
    "gt") and the task's valid fixture as the other."""
    gt_name = {"caption": "refs.jsonl", "ground": "boxes.jsonl"}[task]

    def argv(d, p):
        pred, gt = (p, str(d / gt_name)) if side == "pred" else (str(d / "pred.jsonl"), p)
        return ["eval", "--task", task, "--pred", pred, "--gt", gt]

    return argv


JSONL_FIELD_FAULTS = {
    # case: (fixture whose line 2 is replaced, argv reading file p, line 2, message)
    "build_db_text_number": ("texts.jsonl", lambda d, p: _inputs(d)["texts"][2](p),
                             {"text": 5, "embedding": [1, 0, 0, 0]}, "'text' must be a string"),
    "build_db_text_surrogate": ("texts.jsonl", lambda d, p: _inputs(d)["texts"][2](p),
                                {"text": "a\ud800b", "embedding": [1, 0, 0, 0]},
                                "'text' holds a lone surrogate at character 1"),
    "build_db_embedding_string": ("texts.jsonl", lambda d, p: _inputs(d)["texts"][2](p),
                                  {"text": "x", "embedding": "xy"},
                                  "'embedding' must be an array of numbers"),
    "build_db_embedding_nested": ("texts.jsonl", lambda d, p: _inputs(d)["texts"][2](p),
                                  {"text": "x", "embedding": [[1, 0], [0.5, -1]]},
                                  "'embedding' must be a flat array, got shape (2, 2)"),
    "train_caption_number": ("caption.jsonl", lambda d, p: _inputs(d)["caption"][2](p),
                             {"image": [[0.5] * 4], "caption": 7}, "'caption' must be a string"),
    "train_query_surrogate": ("instruction.jsonl", lambda d, p: _inputs(d)["instruction"][2](p),
                              {"image": [[0.5] * 4], "query": "q\udc00", "response": "r"},
                              "'query' holds a lone surrogate at character 1"),
    "train_image_object": ("caption.jsonl", lambda d, p: _inputs(d)["caption"][2](p),
                           {"image": {"a": 1}, "caption": "c"},
                           "image features must be an array of numbers"),
    "train_retriever_text_surrogate": ("pairs.jsonl", lambda d, p: _inputs(d)["pairs"][2](p),
                                       {"image": [0.5] * 4, "text": "\ud800"},
                                       "'text' holds a lone surrogate at character 0"),
    "train_retriever_text_number": ("pairs.jsonl", lambda d, p: _inputs(d)["pairs"][2](p),
                                    {"image": [0.5] * 4, "text": 5}, "'text' must be a string"),
    "train_retriever_text_blank": ("pairs.jsonl", lambda d, p: _inputs(d)["pairs"][2](p),
                                   {"image": [0.5] * 4, "text": " \t "}, "tokenize_text: no tokens in text"),
    "build_db_encoder_text_blank": ("plain_texts.jsonl",
                                    lambda d, p: ["build-db", "--input", p, "--out", str(d / "out.rsdb"),
                                                  "--encoder", str(d / "enc.rsde")],
                                    {"text": "  "}, "tokenize_text: no tokens in text"),
    "eval_id_list": ("pred.jsonl", lambda d, p: _inputs(d)["pred"][2](p),
                     {"id": [1], "output": "x"}, "'id' must be a string or a number, got [1]"),
    "caption_references_string": ("refs.jsonl", _eval("caption", "gt"),
                                  {"id": 1, "references": "a b"},
                                  "'references' must be a list of strings, got 'a b'"),
    "caption_output_surrogate": ("pred.jsonl", _eval("caption", "pred"),
                                 {"id": 1, "output": "x\udfff"},
                                 "'output' holds a lone surrogate at character 1"),
    "caption_output_number": ("pred.jsonl", _eval("caption", "pred"),
                              {"id": 1, "output": 5}, "'output' must be a string"),
    "ground_box_short": ("boxes.jsonl", _eval("ground", "gt"), {"id": 1, "box": [1, 2, 3]},
                         "a box must be a list of 4 numbers, got [1, 2, 3]"),
    "ground_box_string": ("boxes.jsonl", _eval("ground", "gt"), {"id": 1, "box": ["a", 1, 2, 3]},
                          "a box must be a list of 4 numbers, got ['a', 1, 2, 3]"),
    "ground_box_missing": ("boxes.jsonl", _eval("ground", "gt"), {"id": 1, "boxes": []},
                           "need a 'box' or 'boxes' field"),
    "ground_box_inverted": ("boxes.jsonl", _eval("ground", "gt"), {"id": 1, "box": [5, 0, 1, 1]},
                            "invalid box: (5, 0, 1, 1)"),
    "ground_box_nan": ("boxes.jsonl", _eval("ground", "gt"), {"id": 1, "box": [float("nan"), 0, 1, 1]},
                       "invalid box: (nan, 0, 1, 1)"),
    "ground_box_infinite": ("boxes.jsonl", _eval("ground", "gt"), {"id": 1, "box": [0, 0, float("inf"), 1]},
                            "invalid box: (0, 0, inf, 1)"),
    "ground_box_beyond_float": ("boxes.jsonl", _eval("ground", "gt"), {"id": 1, "box": [0, 0, 10**400, 1]},
                                f"invalid box: (0, 0, {10**400}, 1)"),
}


@pytest.mark.parametrize("case", sorted(JSONL_FIELD_FAULTS))
def test_mistyped_jsonl_field_exit_4(inputs_dir, tmp_path, case):
    name, argv, row, message = JSONL_FIELD_FAULTS[case]
    first = (inputs_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)[0]
    path = tmp_path / name
    path.write_text(first + json.dumps(row) + "\n", encoding="utf-8")
    code, err = _run(argv(inputs_dir, str(path)))
    assert code == 4, err
    assert err == f"format error: line 2: {message}\n"


@pytest.mark.parametrize("kind,row,field", [
    ("texts", {"embedding": [1, 0, 0, 0]}, "text"),
    ("pairs", {"text": "a b"}, "image"),
    ("pairs", {"image": [0.5] * 4}, "text"),
    ("caption", {"image": [[0.5] * 4]}, "caption"),
    ("instruction", {"image": [[0.5] * 4], "query": "q"}, "response"),
    ("pred", {"output": "x"}, "id"),
    ("pred", {"id": 1}, "output"),
    ("gt", {"id": 1}, "label"),
], ids=["build_db_text", "train_retriever_image", "train_retriever_text", "train_caption",
        "train_response", "eval_id", "eval_output", "eval_label"])
def test_missing_jsonl_field_exit_4(inputs_dir, tmp_path, kind, row, field):
    name, _, argv = _inputs(inputs_dir)[kind]
    first = (inputs_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)[0]
    path = tmp_path / name
    path.write_text(first + json.dumps(row) + "\n", encoding="utf-8")
    code, err = _run(argv(str(path)))
    assert (code, err) == (4, f"format error: line 2: missing field '{field}'\n")


def _head_bytes():
    return 4 * MODEL["d_h"] * vlm.VOCAB_SIZE


MANIFEST_FAULTS = {
    # (manifest edit, payload edit, message)
    "omits_head": (lambda m: {**m, "blocks": m["blocks"][:-1]},
                   lambda p: p[:-_head_bytes()], r"blocks: missing \['lm.head'\], unknown \[\]"),
    "duplicate_name": (lambda m: {**m, "blocks": m["blocks"] + m["blocks"][-1:]},
                       lambda p: p + p[-_head_bytes():], "duplicate name 'lm.head'"),
    "unknown_config_key": (lambda m: {**m, "config": {**m["config"], "colour": 1}},
                           lambda p: p, r"unknown \['colour'\]"),
    "missing_config": (lambda m: {"blocks": m["blocks"]}, lambda p: p, "'config' object"),
    "list_manifest": (lambda m: [m], lambda p: p, "'config' object"),
    "zero_d_h": (lambda m: {**m, "config": {**m["config"], "d_h": 0}},
                 lambda p: p, "d_h must be positive"),
    "float_d_h": (lambda m: {**m, "config": {**m["config"], "d_h": 8.0}},
                  lambda p: p, "manifest config: d_h must be int, got 8.0"),
    "bool_levels": (lambda m: {**m, "config": {**m["config"], "levels": True}},
                    lambda p: p, "manifest config: levels must be int, got True"),
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_checkpoint_manifest_faults(inputs_dir, tmp_path, fault):
    edit_manifest, edit_payload, match = MANIFEST_FAULTS[fault]
    blob = (inputs_dir / "model.rsck").read_bytes()
    (n,) = struct.unpack("<I", blob[6:10])
    manifest = json.dumps(edit_manifest(json.loads(blob[10 : 10 + n]))).encode("utf-8")
    path = tmp_path / "model.rsck"
    path.write_bytes(blob[:6] + struct.pack("<I", len(manifest)) + manifest
                     + edit_payload(blob[10 + n :]))
    _assert_fails_closed("rsck", inputs_dir, path, match)


@pytest.mark.parametrize("key,value,match", [
    ("max_seq", 1 << 20, r"block 'lm.pos': manifest shape \(64, 8\) != model shape \(1048576, 8\)"),
    ("d_i", 1 << 62, "manifest config: "),
])
def test_checkpoint_config_checked_before_allocating(inputs_dir, tmp_path, key, value, match):
    # A 28 KB checkpoint whose config implies blocks far larger than its own
    blob = (inputs_dir / "model.rsck").read_bytes()
    (n,) = struct.unpack("<I", blob[6:10])
    manifest = json.loads(blob[10 : 10 + n])
    manifest["config"][key] = value
    raw = json.dumps(manifest).encode("utf-8")
    path = tmp_path / "model.rsck"
    path.write_bytes(blob[:6] + struct.pack("<I", len(raw)) + raw + blob[10 + n :])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=match):
            vlm.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    _assert_fails_closed("rsck", inputs_dir, path, match)


@pytest.mark.parametrize("kind,line", [("texts", "5"), ("pairs", "5"), ("caption", "5"),
                                       ("caption", "[1, 2]"), ("pred", "5"), ("gt", "5")])
def test_jsonl_line_must_be_an_object(inputs_dir, tmp_path, kind, line):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    _assert_fails_closed(kind, inputs_dir, path, "line 1: expected a JSON object")


@pytest.mark.parametrize("text", ['{"bad": ', '"abc"', '{"a": 1}', "[[0.5, 1.0], [0.0, -0.5]]",
                                  "[true, false, false, false]"])
def test_retrieve_query_must_be_a_number_array(inputs_dir, tmp_path, text):
    query = tmp_path / "q.json"
    query.write_text(text, encoding="utf-8")
    code, err = _run(["retrieve", "--db", str(inputs_dir / "db.rsdb"), "--query", str(query)])
    assert code == 4, err
    assert err.startswith("format error: query ") and err.count("\n") == 1, err


NESTED = "[" * 100_000 + "]" * 100_000  # far deeper than the JSON parser recurses


@pytest.mark.parametrize("kind,name,text,match", [
    ("pred", "pred.jsonl", '{"id": 0, "output": ' + NESTED + "}", r"^line 1: invalid JSON \(nested too deeply\)$"),
    ("texts", "texts.jsonl", '{"text": "lake", "embedding": ' + NESTED + "}", r"^line 1: invalid JSON "),
    ("npy", "image.json", NESTED, r"^image feature file .*: maximum recursion depth exceeded"),
], ids=["eval-pred-line", "build-db-line", "feature-file"])
def test_deeply_nested_json_line_or_file_exit_4(inputs_dir, tmp_path, kind, name, text, match):
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    _assert_fails_closed(kind, inputs_dir, path, match)


def test_deeply_nested_json_manifest_query_and_config_fail_closed(inputs_dir, tmp_path):
    blob = (inputs_dir / "model.rsck").read_bytes()
    (n,) = struct.unpack("<I", blob[6:10])
    manifest = ('{"config": ' + NESTED + "}").encode("utf-8")
    path = tmp_path / "model.rsck"
    path.write_bytes(blob[:6] + struct.pack("<I", len(manifest)) + manifest + blob[10 + n :])
    _assert_fails_closed("rsck", inputs_dir, path, "^unreadable manifest at byte 10: maximum recursion depth")
    query = tmp_path / "q.json"
    query.write_text(NESTED, encoding="utf-8")
    code, err = _run(["retrieve", "--db", str(inputs_dir / "db.rsdb"), "--query", str(query)])
    assert code == 4 and err.startswith(f"format error: query {query}: ") and err.count("\n") == 1, err
    config = tmp_path / "train.json"
    config.write_text('{"d_h": ' + NESTED + "}", encoding="utf-8")
    code, err = _run(["train", "--config", str(config), "--stage", "1", "--data", str(inputs_dir / "caption.jsonl")])
    assert code == 2 and err.startswith(f"config error: config file {config}: invalid JSON (") and \
        err.count("\n") == 1, err


@pytest.mark.parametrize("side", ["pred", "gt"])
def test_eval_repeated_id_exit_4(tmp_path, side):
    """A repeated id is an error in either file, not a row that silently
    replaces the earlier one."""
    pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    _jsonl(pred, [{"id": 0, "output": "a"}] * (2 if side == "pred" else 1))
    _jsonl(gt, [{"id": 0, "label": "a"}, {"id": 0, "label": "b"}][: 2 if side == "gt" else 1])
    code, err = _run(["eval", "--task", "classify", "--pred", str(pred), "--gt", str(gt)])
    assert (code, err) == (4, "format error: line 2: id 0 repeats line 1\n")


def _mutate(data, blob):
    """`blob` cut short at a drawn length, or with one drawn bit flipped."""
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    blob[bit // 8] ^= 1 << (bit % 8)
    return blob


@given(kind=st.sampled_from(KINDS), data=st.data())
def test_truncated_or_bit_flipped_input_fails_closed(inputs_dir, kind, data):
    name, load, argv = _inputs(inputs_dir)[kind]
    blob = _mutate(data, (inputs_dir / name).read_bytes())
    path = inputs_dir / f"mutated-{next(_EXAMPLE)}-{name}"
    path.write_bytes(bytes(blob))
    try:
        load(path)
    except FormatError:
        pass
    code, err = _run(argv(str(path)))
    assert code in (0, 4), err
    if code == 4:
        assert err.startswith("format error: ") and err.count("\n") == 1, err


@given(name=st.sampled_from(["train.json", "encoder.json"]), data=st.data())
def test_truncated_or_bit_flipped_config_fails_closed(inputs_dir, name, data):
    kind = "caption" if name == "train.json" else "pairs"
    data_name, _, argv = _inputs(inputs_dir)[kind]
    path = inputs_dir / f"mutated-{next(_EXAMPLE)}-{name}"
    path.write_bytes(bytes(_mutate(data, (inputs_dir / name).read_bytes())))
    code, err = _run(argv(str(inputs_dir / data_name)) + ["--config", str(path)])
    try:
        cli.RunConfig.from_args(argparse.Namespace(config=str(path), profile=None, seed=None))
    except ConfigError:
        assert code == 2, err
        assert err and all(line.startswith("config error: ") for line in err.splitlines()), err
        return
    # A flipped digit can leave a valid config whose dimensions disagree
    # with the fixed data (patch_dim, d_img_raw, max_seq); the readers and
    # the model report that in one line.
    assert code in (0, 3, 4), err
    assert code == 0 or (err.startswith(("numeric error: ", "format error: ")) and err.count("\n") == 1), err
