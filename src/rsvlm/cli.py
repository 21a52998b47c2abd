"""Command-line surface.

Subcommands: build-db, train-retriever, retrieve, train --stage {1,2},
eval --task {classify,vqa,ground,caption}, grad-check. Configuration comes
from a built-in profile (`toy` or `paper`) optionally overlaid with a JSON
config file and flag overrides; every violation is reported at once before
any work starts.

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
from .semantic_store import SemanticDatabase, iter_jsonl

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

GRAD_TOLERANCE = 1e-4

# `paper` carries the full-scale dimensions for arithmetic and shape checks
# only; it is never trained here. `toy` is the desk-scale default.
PROFILES = {
    "toy": dict(
        d_h=32, heads=2, lm_blocks=4, expert_stride=4, levels=2, d_r=8, d_i=64,
        n_agg=4, prompter_heads=2, patch_dim=8, d_v=16, visual_blocks=3,
        visual_heads=2, visual_inner=32, max_seq=512,
        k=5, semantic_cap=512, d_e=16, d_img_raw=8, bow_vocab=256, enc_hidden=32,
        seed=0,
    ),
    "paper": dict(
        d_h=3584, heads=8, lm_blocks=28, expert_stride=4, levels=3, d_r=512, d_i=18944,
        n_agg=144, prompter_heads=8, patch_dim=768, d_v=1152, visual_blocks=27,
        visual_heads=8, visual_inner=4304, max_seq=4096,
        k=5, semantic_cap=512, d_e=512, d_img_raw=768, bow_vocab=4096, enc_hidden=512,
        seed=0,
    ),
}

_MODEL_KEYS = ("d_h", "heads", "lm_blocks", "expert_stride", "levels", "d_r", "d_i",
               "n_agg", "prompter_heads", "patch_dim", "d_v", "visual_blocks",
               "visual_heads", "visual_inner", "max_seq")
_TRAIN_KEYS = ("epochs", "batch_size", "lr_visual", "lr_prompter", "lr_lm",
               "lr_projector", "weight_decay", "max_steps", "stop_loss",
               "train_projector_stage1")

# Micro configuration for the end-to-end gradient check: tiny dims, two LM
# blocks with one expert block, and a tiny standalone vocabulary.
MICRO_MODEL = dict(
    d_h=16, heads=2, lm_blocks=2, expert_stride=2, levels=2, d_r=4, d_i=24,
    n_agg=2, prompter_heads=2, patch_dim=6, d_v=8, visual_blocks=3,
    visual_heads=2, visual_inner=16, vocab=11, max_seq=64,
)


class RunConfig:
    """Profile defaults overlaid with a JSON config file and flag overrides."""

    def __init__(self, profile: str = "toy", overrides: dict | None = None):
        if profile not in PROFILES:
            raise ConfigError([f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"])
        self.values = dict(PROFILES[profile])
        self.values["profile"] = profile
        self.paths: dict = {}
        self.train: dict = {}
        for key, val in (overrides or {}).items():
            if key == "paths":
                self.paths.update(val)
            elif key in _TRAIN_KEYS or key == "stage":
                self.train[key] = val
            elif key == "profile":
                continue
            else:
                self.values[key] = val
        self.validate()

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        overrides = {}
        profile = getattr(args, "profile", None) or "toy"
        config_path = getattr(args, "config", None)
        if config_path:
            try:
                loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except json.JSONDecodeError as e:
                raise ConfigError([f"config file {config_path}: invalid JSON ({e.msg})"]) from e
            if not isinstance(loaded, dict):
                raise ConfigError([f"config file {config_path}: expected a JSON object"])
            if "profile" in loaded:
                profile = loaded["profile"]
            overrides.update(loaded)
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        return cls(profile, overrides)

    def validate(self) -> None:
        problems = []
        v = self.values
        for key in ("n_agg", "levels", "k", "d_r"):
            if not isinstance(v.get(key), int) or v[key] <= 0:
                problems.append(f"{key} must be a positive integer, got {v.get(key)!r}")
        for key in ("d_e", "d_img_raw", "bow_vocab", "enc_hidden", "semantic_cap"):
            if not isinstance(v.get(key), int) or v[key] <= 0:
                problems.append(f"{key} must be a positive integer, got {v.get(key)!r}")
        if isinstance(v.get("d_r"), int) and isinstance(v.get("d_h"), int) and v["d_r"] >= v["d_h"]:
            problems.append(f"d_r {v['d_r']} must be < d_h {v['d_h']}")
        try:
            self.model_config()
        except ConfigError as e:
            problems.extend(p for p in e.problems if p not in problems)
        except (TypeError, ValueError) as e:
            problems.append(str(e))
        if problems:
            raise ConfigError(problems)

    def model_config(self) -> vlm.ModelConfig:
        kwargs = {key: self.values[key] for key in _MODEL_KEYS if key in self.values}
        return vlm.ModelConfig(**kwargs)

    def train_config(self, stage: str) -> training.TrainConfig:
        kwargs = {k: val for k, val in self.train.items() if k in _TRAIN_KEYS}
        return training.TrainConfig(stage=stage, seed=self.values["seed"], **kwargs)


def _print_json(obj, out_path=None) -> None:
    line = json.dumps(obj, sort_keys=True)
    print(line)
    if out_path:
        Path(out_path).write_text(line + "\n", encoding="utf-8")


def _load_retriever(path):
    return de.load_params(path) if path else None


def cmd_build_db(args) -> int:
    cfg = RunConfig.from_args(args)
    encoder = _load_retriever(args.encoder)
    dim = args.dim or (encoder.d_e if encoder else cfg.values["d_e"])
    db = SemanticDatabase(dim)
    # an embedding whose squared norm overflows is rejected by ingest
    with np.errstate(over="ignore"):
        for lineno, obj in iter_jsonl(args.input):
            if "text" not in obj:
                raise FormatError(f"line {lineno}: missing 'text' field")
            if "embedding" in obj:
                emb = obj["embedding"]
            elif encoder is not None:
                emb = de.encode_text(encoder, de.tokenize_text(obj["text"], encoder.vocab))
            else:
                raise FormatError(f"line {lineno}: no 'embedding' field and no --encoder given")
            try:
                db.ingest(obj["text"], emb)
            except (ShapeError, DomainError) as e:
                raise FormatError(f"line {lineno}: {e}") from e
    db.save(args.out)
    _print_json({"count": len(db), "dim": db.dim, "path": str(args.out)})
    return EXIT_OK


def cmd_train_retriever(args) -> int:
    cfg = RunConfig.from_args(args)
    v = cfg.values
    pairs = []
    lines_by_text: dict[tuple, int] = {}
    for lineno, obj in iter_jsonl(args.input):
        if "image" not in obj or "text" not in obj:
            raise FormatError(f"line {lineno}: need 'image' and 'text' fields")
        try:
            image = np.asarray(obj["image"], dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise FormatError(f"line {lineno}: 'image' must be an array of numbers") from e
        if image.shape != (v["d_img_raw"],):
            raise FormatError(f"line {lineno}: 'image' has shape {image.shape}, expected ({v['d_img_raw']},)")
        if not np.isfinite(image).all():
            raise FormatError(f"line {lineno}: 'image' holds a non-finite value")
        tokens = de.tokenize_text(obj["text"], v["bow_vocab"])
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


def cmd_retrieve(args) -> int:
    db = SemanticDatabase.load(args.db)
    try:
        query = np.asarray(json.loads(Path(args.query).read_bytes()), dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise FormatError(f"query {args.query}: expected a JSON array of numbers ({e})") from e
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


def cmd_train(args) -> int:
    cfg = RunConfig.from_args(args)
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
        base_dir=Path(data_path).parent,
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


def _read_keyed_jsonl(path, required_fields) -> dict:
    rows = {}
    for lineno, obj in iter_jsonl(path):
        if "id" not in obj:
            raise FormatError(f"line {lineno}: missing 'id' field")
        for f in required_fields:
            if f not in obj:
                raise FormatError(f"line {lineno}: missing {f!r} field")
        rows[obj["id"]] = obj
    return rows


def cmd_eval(args) -> int:
    preds = _read_keyed_jsonl(args.pred, ("output",))
    report: dict = {"task": args.task}
    if args.task in ("classify", "vqa"):
        gts = _read_keyed_jsonl(args.gt, ("label",))
        if not gts:
            raise FormatError(f"{args.task} eval: empty ground truth")
        pred_list, label_list = _join(preds, gts, "output", "label")
        report["accuracy"] = metrics.accuracy(pred_list, label_list)
        report["count"] = len(pred_list)
    elif args.task == "ground":
        gts = _read_keyed_jsonl(args.gt, ())
        hits, total = 0, 0
        for key in sorted(gts, key=str):
            if key not in preds:
                raise FormatError(f"prediction missing for id {key!r}")
            row = gts[key]
            if "box" in row:
                gt_box = metrics.Box(*row["box"])
            elif "boxes" in row and row["boxes"]:
                gt_box = metrics.Box(*row["boxes"][0])
            else:
                raise FormatError(f"id {key!r}: need a 'box' or 'boxes' field")
            pred_box = metrics.parse_box(preds[key]["output"])
            total += 1
            if pred_box is not None and metrics.iou(pred_box, gt_box) >= args.threshold:
                hits += 1
        report["precision_at_iou"] = hits / total if total else 0.0
        report["threshold"] = args.threshold
        report["count"] = total
    else:  # caption
        gts = _read_keyed_jsonl(args.gt, ("references",))
        b1, r1, met = [], [], []
        for key in sorted(gts, key=str):
            if key not in preds:
                raise FormatError(f"prediction missing for id {key!r}")
            pair = metrics.CaptionPair(
                candidate=metrics.tokenize_caption(preds[key]["output"]),
                references=[metrics.tokenize_caption(r) for r in gts[key]["references"]],
            )
            b1.append(metrics.bleu1(pair))
            r1.append(metrics.rouge1(pair))
            met.append(metrics.meteor_simplified(pair))
        if not b1:
            raise FormatError("caption eval: empty ground truth")
        report["bleu1"] = float(np.mean(b1))
        report["rouge1"] = float(np.mean(r1))
        report["meteor_simplified"] = float(np.mean(met))
        report["count"] = len(b1)
    _print_json(report, args.out)
    return EXIT_OK


def _join(preds: dict, gts: dict, pred_field: str, gt_field: str):
    pred_list, gt_list = [], []
    for key in sorted(gts, key=str):
        if key not in preds:
            raise FormatError(f"prediction missing for id {key!r}")
        pred_list.append(str(preds[key][pred_field]))
        gt_list.append(str(gts[key][gt_field]))
    return pred_list, gt_list


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
    n_prefix = sum(vlm._segments_for(model, sample.patches.shape[0], 0))
    targets = np.full(n_prefix + len(seq_ids), -1, dtype=np.int64)
    for j in range(len(seq_ids) - 1):
        targets[n_prefix + j] = seq_ids[j + 1]

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


def cmd_grad_check(args) -> int:
    cfg = RunConfig.from_args(args)
    report = run_grad_check(cfg.values["seed"], args.probes)
    report["worst_parameter"] = [str(x) for x in report["worst_parameter"]]
    for sub in ("model", "retriever"):
        report[sub]["worst_parameter_index"] = [str(x) for x in report[sub]["worst_parameter_index"]]
    _print_json(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsvlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file overlaying the profile")
        p.add_argument("--profile", choices=sorted(PROFILES), help="built-in config profile")
        p.add_argument("--seed", type=int, help="master random seed")

    p = sub.add_parser("build-db", help="embed texts and build an RSDB database file")
    common(p)
    p.add_argument("--input", required=True, help="JSONL with 'text' (+ optional 'embedding')")
    p.add_argument("--out", required=True)
    p.add_argument("--encoder", help="RSDE retriever checkpoint for text embedding")
    p.add_argument("--dim", type=int, help="embedding dim when no encoder is given")
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("train-retriever", help="contrastively train the dual encoder")
    common(p)
    p.add_argument("--input", required=True, help="JSONL with 'image' and 'text'")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.0)
    p.set_defaults(func=cmd_train_retriever)

    p = sub.add_parser("retrieve", help="top-k descriptions for a query vector")
    common(p)
    p.add_argument("--db", required=True)
    p.add_argument("--query", required=True, help="JSON file with one feature/embedding vector")
    p.add_argument("--encoder", help="RSDE checkpoint; when given, --query holds raw image features")
    p.add_argument("--k", type=int, default=5)
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
    p.add_argument("--probes", type=int, default=200)
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
        return args.func(args)
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
