"""Command-line surface.

Subcommands: build-db, train-retriever, retrieve, train --stage {1,2},
eval --task {classify,vqa,ground,caption}, grad-check. Configuration comes
from a built-in profile (`toy` or `paper`) optionally overlaid with a JSON
config file and flag overrides. The file's keys are the ModelConfig fields
but `vocab`, the retrieval keys (k, semantic_cap, d_e, d_img_raw, bow_vocab,
enc_hidden), `seed`, the TrainConfig fields but `stage` and `seed`,
`profile`, and `paths` (data, db, retriever, init_checkpoint,
out_checkpoint). Every command checks the whole file before any work
starts: an unknown or mistyped key exits 2, and every problem is listed.

Exit codes: 0 success, 2 config/usage error, 3 numeric failure,
4 I/O or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dual_encoder as de
from . import metrics
from . import model as vlm
from . import training
from .autodiff import check_gradients
from .errors import ConfigError, DomainError, FormatError, ShapeError
from .numerics import Rng
from .semantic_store import SemanticDatabase, iter_jsonl, json_numbers, json_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

GRAD_TOLERANCE = 1e-4

# `paper` carries the full-scale dimensions for arithmetic and shape checks
# only; it is never trained here. `toy` is the desk-scale default. The CLI's
# model always uses the byte tokenizer's vocabulary, so `vocab` is no key.
PROFILES = {
    "toy": dict(
        {key: val for key, val in vars(vlm.ModelConfig()).items() if key != "vocab"},
        k=5, semantic_cap=512, d_e=16, d_img_raw=8, bow_vocab=256, enc_hidden=32, seed=0,
    ),
    "paper": dict(
        d_h=3584, heads=8, lm_blocks=28, expert_stride=4, levels=3, d_r=512, d_i=18944,
        n_agg=144, prompter_heads=8, patch_dim=768, d_v=1152, visual_blocks=27,
        visual_heads=8, visual_inner=4304, max_seq=4096,
        k=5, semantic_cap=512, d_e=512, d_img_raw=768, bow_vocab=4096, enc_hidden=512,
        seed=0,
    ),
}
# `stage` comes from `train --stage`; `seed` is a profile key every command reads.
_TRAIN_KEYS = {f.name for f in dataclasses.fields(training.TrainConfig)} - {"stage", "seed"}
_PATH_KEYS = ("data", "db", "retriever", "init_checkpoint", "out_checkpoint")

# Micro configuration for the end-to-end gradient check: tiny dims, two LM
# blocks with one expert block, and a tiny standalone vocabulary.
MICRO_MODEL = dict(
    d_h=16, heads=2, lm_blocks=2, expert_stride=2, levels=2, d_r=4, d_i=24,
    n_agg=2, prompter_heads=2, patch_dim=6, d_v=8, visual_blocks=3,
    visual_heads=2, visual_inner=16, vocab=11, max_seq=64,
)


class RunConfig:
    """Profile defaults overlaid with a JSON config file and flag overrides;
    every unknown, mistyped or invalid key is reported at once."""

    def __init__(self, profile: str = "toy", overrides: dict | None = None):
        if not isinstance(profile, str) or profile not in PROFILES:
            raise ConfigError([f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"])
        self.values = dict(PROFILES[profile])
        self.paths: dict = {}
        problems = []
        for key, val in (overrides or {}).items():
            if key == "paths":
                if isinstance(val, dict):
                    self.paths.update(val)
                else:
                    problems.append(f"paths must be an object, got {val!r}")
            elif key in self.values or key in _TRAIN_KEYS:
                self.values[key] = val
            elif key != "profile":
                problems.append(f"unknown key {key!r}")
        for key, val in self.paths.items():
            if key not in _PATH_KEYS:
                problems.append(f"unknown key 'paths.{key}'; choose from {list(_PATH_KEYS)}")
            elif not isinstance(val, str):
                problems.append(f"paths.{key} must be str, got {val!r}")
        for key in ("k", "semantic_cap", "d_e", "d_img_raw", "bow_vocab", "enc_hidden"):
            if type(self.values[key]) is not int or self.values[key] <= 0:
                problems.append(f"{key} must be a positive integer, got {self.values[key]!r}")
        # the model's shapes too: a block too large to address is a config error
        for build in (lambda: vlm.shape_model(self.model_config()),
                      lambda: self.train_config(training.STAGE_ALIGNMENT)):
            try:
                build()
            except ConfigError as e:
                problems.extend(e.problems)
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        loaded = {}
        if args.config:
            try:
                loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise ConfigError([f"config file {args.config}: invalid JSON ({e})"]) from e
            if not isinstance(loaded, dict):
                raise ConfigError([f"config file {args.config}: expected a JSON object"])
        seed = {} if args.seed is None else {"seed": args.seed}
        return cls(loaded.get("profile", args.profile or "toy"), {**loaded, **seed})

    def model_config(self) -> vlm.ModelConfig:
        return vlm.ModelConfig(**{f.name: self.values[f.name] for f in dataclasses.fields(vlm.ModelConfig)
                                  if f.name in self.values})

    def train_config(self, stage: str) -> training.TrainConfig:
        train = {key: val for key, val in self.values.items() if key in _TRAIN_KEYS}
        return training.TrainConfig(stage=stage, seed=self.values["seed"], **train)


def _print_json(obj, out_path=None) -> None:
    line = json.dumps(obj, sort_keys=True)
    print(line)
    if out_path:
        Path(out_path).write_text(line + "\n", encoding="utf-8")


def _load_retriever(path):
    return de.load_params(path) if path else None


def cmd_build_db(args, cfg: RunConfig) -> int:
    encoder = _load_retriever(args.encoder)
    dim = args.dim or (encoder.d_e if encoder else cfg.values["d_e"])
    db = SemanticDatabase(dim)
    # an embedding whose squared norm overflows is rejected by ingest
    with np.errstate(over="ignore"):
        for lineno, obj in iter_jsonl(args.input):
            if "text" not in obj:
                raise FormatError(f"line {lineno}: missing 'text' field")
            text = json_text(obj["text"], f"line {lineno}: 'text'")
            if "embedding" in obj:
                emb = json_numbers(obj["embedding"], f"line {lineno}: 'embedding'")
                if emb.ndim != 1:
                    raise FormatError(f"line {lineno}: 'embedding' must be a flat array, got shape {emb.shape}")
            elif encoder is not None:
                emb = de.encode_text(encoder, de.tokenize_text(text, encoder.vocab))
            else:
                raise FormatError(f"line {lineno}: no 'embedding' field and no --encoder given")
            try:
                db.ingest(text, emb)
            except (ShapeError, DomainError) as e:
                raise FormatError(f"line {lineno}: {e}") from e
    db.save(args.out)
    _print_json({"count": len(db), "dim": db.dim, "path": str(args.out)})
    return EXIT_OK


def cmd_train_retriever(args, cfg: RunConfig) -> int:
    v = cfg.values
    pairs = []
    lines_by_text: dict[tuple, int] = {}
    for lineno, obj in iter_jsonl(args.input):
        if "image" not in obj or "text" not in obj:
            raise FormatError(f"line {lineno}: need 'image' and 'text' fields")
        image = json_numbers(obj["image"], f"line {lineno}: 'image'")
        if image.shape != (v["d_img_raw"],):
            raise FormatError(f"line {lineno}: 'image' has shape {image.shape}, expected ({v['d_img_raw']},)")
        if not np.isfinite(image).all():
            raise FormatError(f"line {lineno}: 'image' holds a non-finite value")
        tokens = de.tokenize_text(json_text(obj["text"], f"line {lineno}: 'text'"), v["bow_vocab"])
        # one contrastive batch holds every pair, and it may not repeat a text
        if tuple(tokens) in lines_by_text:
            raise FormatError(f"line {lineno}: text tokens repeat line {lines_by_text[tuple(tokens)]}")
        lines_by_text[tuple(tokens)] = lineno
        pairs.append(de.ContrastivePair(image, tokens))
    if len(pairs) < de.MIN_PAIRS:
        raise FormatError(f"{args.input}: {len(pairs)} pairs, train-retriever needs at least {de.MIN_PAIRS}")
    params, history = de.train_retriever(
        pairs,
        d_img_raw=v["d_img_raw"], d_e=v["d_e"], vocab=v["bow_vocab"], hidden=v["enc_hidden"],
        epochs=args.epochs, lr=args.lr, seed=v["seed"], momentum=args.momentum,
    )
    de.save_params(params, args.out)
    _print_json({
        "pairs": len(pairs), "epochs": args.epochs,
        "first_loss": history[0], "final_loss": history[-1],
        "recall_at_1": de.recall_at_1(params, pairs), "path": str(args.out),
    })
    return EXIT_OK


def cmd_retrieve(args, cfg: RunConfig) -> int:
    db = SemanticDatabase.load(args.db)
    try:
        raw = json.loads(Path(args.query).read_bytes())
    except ValueError as e:
        raise FormatError(f"query {args.query}: expected a JSON array of numbers ({e})") from e
    query = json_numbers(raw, f"query {args.query}")
    if query.ndim != 1:
        raise FormatError(f"query {args.query} must be a flat array, got shape {query.shape}")
    encoder = _load_retriever(args.encoder)
    if encoder is not None:
        query = de.encode_image(encoder, query)
    with np.errstate(over="ignore"):  # a query whose norm overflows is rejected
        results = db.retrieve_top_k(query, args.k)
    lines = []
    for rank, res in enumerate(results, start=1):
        lines.append(json.dumps(
            {"rank": rank, "id": res.id, "score": res.score, "text": db.get(res.id).text},
            sort_keys=True,
        ))
    for line in lines:
        print(line)
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    stage = training.STAGE_ALIGNMENT if args.stage == 1 else training.STAGE_INSTRUCTION
    paths = cfg.paths
    data_path = args.data or paths.get("data")
    if not data_path:
        raise ConfigError(["no training data: pass --data or set paths.data in the config"])
    mdl_cfg = cfg.model_config()
    init_path = args.init or paths.get("init_checkpoint")
    model = vlm.load_checkpoint(init_path) if init_path else vlm.init_model(mdl_cfg, cfg.values["seed"])
    retriever = _load_retriever(args.retriever or paths.get("retriever"))
    db_path = args.db or paths.get("db")
    db = SemanticDatabase.load(db_path) if db_path else None
    samples = training.load_samples(
        data_path, stage, retriever=retriever, db=db,
        k=cfg.values["k"], semantic_cap=cfg.values["semantic_cap"],
        base_dir=Path(data_path).parent, patch_dim=model.config.patch_dim,
    )
    if not samples:
        raise FormatError(f"{data_path}: no training samples")
    tcfg = cfg.train_config(stage)
    if stage == training.STAGE_ALIGNMENT:
        model, history = training.train_stage1(model, samples, tcfg)
    else:
        model, history = training.train_stage2(model, samples, tcfg)
    out_path = args.out or paths.get("out_checkpoint")
    if out_path:
        vlm.save_checkpoint(model, out_path)
    _print_json({
        "stage": stage, "samples": len(samples), "steps": len(history),
        "first_loss": history[0], "final_loss": history[-1],
        "checkpoint": str(out_path) if out_path else None,
    })
    return EXIT_OK


def _read_keyed_jsonl(path, required_fields, parse) -> dict:
    """id -> parse(row) for each line; `parse` raises FormatError for a row
    it cannot use, reported with the line."""
    rows = {}
    for lineno, obj in iter_jsonl(path):
        for f in ("id",) + required_fields:
            if f not in obj:
                raise FormatError(f"line {lineno}: missing {f!r} field")
        try:
            if not isinstance(obj["id"], (str, int, float)):
                raise FormatError(f"'id' must be a string or a number, got {obj['id']!r}")
            rows[obj["id"]] = parse(obj)
        except FormatError as e:
            raise FormatError(f"line {lineno}: {e}") from e
    return rows


def _output_text(row) -> str:
    return json_text(row["output"], "'output'")


def _gt_box(row) -> metrics.Box:
    """The 'box', else the first of 'boxes'."""
    if "box" in row:
        box = row["box"]
    elif isinstance(row.get("boxes"), list) and row["boxes"]:
        box = row["boxes"][0]
    else:
        raise FormatError("need a 'box' or 'boxes' field")
    if not (isinstance(box, list) and len(box) == 4 and all(type(x) in (int, float) for x in box)):
        raise FormatError(f"a box must be a list of 4 numbers, got {box!r}")
    return metrics.Box(*box)


def _references(row) -> list[list[str]]:
    refs = row["references"]
    if not (isinstance(refs, list) and all(isinstance(r, str) for r in refs)):
        raise FormatError(f"'references' must be a list of strings, got {refs!r}")
    return [metrics.tokenize_caption(r) for r in refs]


# task -> (prediction parser, ground-truth field, ground-truth parser)
_EVAL_ROWS = {
    "classify": (lambda row: str(row["output"]), ("label",), lambda row: str(row["label"])),
    "vqa": (lambda row: str(row["output"]), ("label",), lambda row: str(row["label"])),
    "ground": (_output_text, (), _gt_box),
    "caption": (lambda row: metrics.tokenize_caption(_output_text(row)), ("references",), _references),
}


def cmd_eval(args, cfg: RunConfig) -> int:
    parse_pred, gt_fields, parse_gt = _EVAL_ROWS[args.task]
    preds = _read_keyed_jsonl(args.pred, ("output",), parse_pred)
    gts = _read_keyed_jsonl(args.gt, gt_fields, parse_gt)
    if not gts:
        raise FormatError(f"{args.task} eval: empty ground truth")
    pairs = []
    for key in sorted(gts, key=str):
        if key not in preds:
            raise FormatError(f"prediction missing for id {key!r}")
        pairs.append((preds[key], gts[key]))
    report: dict = {"task": args.task}
    if args.task in ("classify", "vqa"):
        report["accuracy"] = metrics.accuracy(*zip(*pairs))
    elif args.task == "ground":
        boxes = [(metrics.parse_box(out), box) for out, box in pairs]
        hits = sum(1 for pred, box in boxes if pred is not None and metrics.iou(pred, box) >= args.threshold)
        report["precision_at_iou"] = hits / len(pairs)
        report["threshold"] = args.threshold
    else:  # caption
        captions = [metrics.CaptionPair(candidate=out, references=refs) for out, refs in pairs]
        report["bleu1"] = float(np.mean([metrics.bleu1(c) for c in captions]))
        report["rouge1"] = float(np.mean([metrics.rouge1(c) for c in captions]))
        report["meteor_simplified"] = float(np.mean([metrics.meteor_simplified(c) for c in captions]))
    report["count"] = len(pairs)
    _print_json(report, args.out)
    return EXIT_OK


def micro_model(seed: int) -> vlm.VlmModel:
    return vlm.init_model(vlm.ModelConfig(**MICRO_MODEL), seed)


def micro_sample(seed: int) -> vlm.Sample:
    rng = Rng(seed).spawn(42)
    vocab = MICRO_MODEL["vocab"]
    return vlm.Sample(
        patches=rng.normal((3, MICRO_MODEL["patch_dim"])),
        query_ids=[int(x % np.uint64(vocab)) for x in rng.u64(3)],
        response_ids=[int(x % np.uint64(vocab)) for x in rng.u64(2)],
        semantic_ids=[int(x % np.uint64(vocab)) for x in rng.u64(4)],
    )


def micro_loss_builder(model: vlm.VlmModel, sample: vlm.Sample):
    """Next-token loss over the query segment, valid for any vocab size."""
    seq_ids = list(sample.query_ids) + list(sample.response_ids)
    targets = seq_ids[1:] + [-1]

    def build():
        return vlm.token_loss_graph(model, sample, seq_ids, targets)

    return build


def run_grad_check(seed: int, probes: int) -> dict:
    model = micro_model(seed)
    sample = micro_sample(seed)
    model_probes = max(probes * 3 // 4, 1)
    model_report = check_gradients(
        micro_loss_builder(model, sample),
        model.named_parameters(),
        n_probes=model_probes,
        rng=Rng(seed).spawn(101),
    )

    enc = de.init_params(d_img_raw=6, d_e=8, vocab=24, hidden=10, seed=seed + 1)
    rng = Rng(seed).spawn(102)
    batch = [
        de.ContrastivePair(rng.normal((6,)), [int(x % np.uint64(24)) for x in rng.u64(4 + i)])
        for i in range(3)
    ]
    enc_report = check_gradients(
        lambda: de.contrastive_loss_graph(enc, batch),
        enc.named_parameters(),
        n_probes=max(probes - model_probes, 1),
        rng=Rng(seed).spawn(103),
    )

    worst = max((model_report, enc_report), key=lambda r: r.max_relative_error)
    return {
        "max_relative_error": worst.max_relative_error,
        "worst_parameter": list(worst.worst_parameter_index),
        "analytic": worst.analytic,
        "numeric": worst.numeric,
        "model": dataclasses.asdict(model_report),
        "retriever": dataclasses.asdict(enc_report),
        "probes": probes,
        "tolerance": GRAD_TOLERANCE,
        "pass": worst.max_relative_error <= GRAD_TOLERANCE,
    }


def cmd_grad_check(args, cfg: RunConfig) -> int:
    report = run_grad_check(cfg.values["seed"], args.probes)
    report["worst_parameter"] = [str(x) for x in report["worst_parameter"]]
    for sub in ("model", "retriever"):
        report[sub]["worst_parameter_index"] = [str(x) for x in report[sub]["worst_parameter_index"]]
    _print_json(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_NUMERIC


def _int_at_least(low: int):
    """argparse type of an integer flag whose values start at `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsvlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file overlaying the profile; "
                                         "an unknown or mistyped key exits 2")
        p.add_argument("--profile", choices=sorted(PROFILES), help="built-in config profile")
        p.add_argument("--seed", type=int, help="master random seed")

    p = sub.add_parser("build-db", help="embed texts and build an RSDB database file")
    common(p)
    p.add_argument("--input", required=True, help="JSONL with 'text' (+ optional 'embedding')")
    p.add_argument("--out", required=True)
    p.add_argument("--encoder", help="RSDE retriever checkpoint for text embedding")
    p.add_argument("--dim", type=_int_at_least(1), help="embedding dim when no encoder is given")
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("train-retriever", help="contrastively train the dual encoder")
    common(p)
    p.add_argument("--input", required=True, help="JSONL with 'image' and 'text'")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=_int_at_least(1), default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.0)
    p.set_defaults(func=cmd_train_retriever)

    p = sub.add_parser("retrieve", help="top-k descriptions for a query vector")
    common(p)
    p.add_argument("--db", required=True)
    p.add_argument("--query", required=True, help="JSON file with one feature/embedding vector")
    p.add_argument("--encoder", help="RSDE checkpoint; when given, --query holds raw image features")
    p.add_argument("--k", type=_int_at_least(0), default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("train", help="run one training stage")
    common(p)
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--data", help="JSONL training data (or paths.data in config)")
    p.add_argument("--db", help="RSDB database for semantic retrieval")
    p.add_argument("--retriever", help="RSDE retriever checkpoint")
    p.add_argument("--init", help="RSCK checkpoint to start from")
    p.add_argument("--out", help="RSCK checkpoint to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    common(p)
    p.add_argument("--task", choices=("classify", "vqa", "ground", "caption"), required=True)
    p.add_argument("--pred", required=True, help="JSONL of {id, output}")
    p.add_argument("--gt", required=True, help="JSONL of {id, label|box|references}")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference check of all analytic gradients")
    common(p)
    p.add_argument("--probes", type=_int_at_least(1), default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grad_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args, RunConfig.from_args(args))
    except ConfigError as e:
        for problem in e.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (ShapeError, DomainError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
