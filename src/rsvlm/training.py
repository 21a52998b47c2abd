"""Two-stage training: alignment (prompter and, by default, the image
projector; everything else frozen bit-exactly) and instruction tuning (all
components, per-component learning rates). The optimizer is AdamW with
decoupled weight decay. A run differentiates only the parameters the
optimizer updates; the frozen ones record no graph, get no gradient and are
never touched, so their arrays stay bit-identical.

Training data is line-delimited JSON. Alignment samples:
``{"image": <path or patch array>, "caption": str}``; instruction samples:
``{"image": ..., "query": str, "response": str}``. When a semantic database
and retriever are configured, each sample's semantics are retrieved once at
load time and cached as token ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from tokenize import TokenError

import numpy as np

from . import autodiff as ad
from . import dual_encoder as de
from .errors import ConfigError, DomainError, FormatError, ShapeError, field_type_problems
from .model import SEP_ID, Sample, VlmModel, encode_text, sample_loss_graph, semantic_token_ids
from .numerics import Rng
from .semantic_store import SemanticDatabase, iter_jsonl, json_numbers, json_text

STAGE_ALIGNMENT = "alignment"
STAGE_INSTRUCTION = "instruction"
ALIGN_QUERY = "caption:"
# The visual encoder's first layer norm squares the patch embedding, a sum of
# patch_dim feature-weight products. Below this bound the squares stay near
# 1e200, far from float64's 1.8e308; from about 1e154 they overflow, and the
# row is divided by an infinite standard deviation without an error.
MAX_FEATURE = 1e100


@dataclass
class TrainConfig:
    stage: str
    seed: int = 0
    epochs: int = 1
    batch_size: int = 8
    lr_visual: float = 0.0
    lr_prompter: float = 1e-2
    lr_lm: float = 0.0
    lr_projector: float | None = None
    weight_decay: float = 0.01
    max_steps: int | None = None
    stop_loss: float | None = None
    train_projector_stage1: bool = True

    def __post_init__(self):
        problems = field_type_problems(self)
        if problems:
            raise ConfigError(problems)
        if self.stage not in (STAGE_ALIGNMENT, STAGE_INSTRUCTION):
            problems.append(f"unknown stage {self.stage!r}")
        for name, value in vars(self).items():
            if (name.startswith("lr_") or name == "weight_decay") and value is not None and value < 0:
                problems.append(f"{name} must be >= 0, got {value}")
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps is not None and self.max_steps < 1:
            problems.append(f"max_steps must be >= 1, got {self.max_steps}")
        if problems:
            raise ConfigError(problems)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Decoupled weight-decay Adam over a fixed plan of (tensor, lr) pairs,
    each lr > 0; betas ADAM_BETA1 and ADAM_BETA2, eps ADAM_EPS. The first
    and second moments of every planned tensor live in two flat buffers, so
    a step gathers the gradients and values once, runs each op of the
    update once over the whole buffer and writes each tensor back in place.
    Every op is elementwise, so each entry's bits are those of a
    tensor-by-tensor update."""

    def __init__(self, plan, weight_decay: float):
        self.t = 0
        self.weight_decay = weight_decay
        self._tensors = [tensor for tensor, _ in plan]
        sizes = [tensor.value.size for tensor in self._tensors]
        starts = np.cumsum([0] + sizes).tolist()
        self._slices = [slice(a, b) for a, b in zip(starts, starts[1:])]
        self._lr = np.repeat(np.array([lr for _, lr in plan], dtype=np.float64), sizes)
        self._m = np.zeros(self._lr.size)
        self._v = np.zeros(self._lr.size)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g = np.zeros(self._lr.size)  # a tensor without a gradient contributes zeros
        w = np.empty(self._lr.size)
        for tensor, sl in zip(self._tensors, self._slices):
            w[sl] = tensor.value.reshape(-1)
            if tensor.grad is not None:
                g[sl] = tensor.grad.reshape(-1)
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        w -= self._lr * (update + self.weight_decay * w)
        for tensor, sl in zip(self._tensors, self._slices):
            tensor.value[...] = w[sl].reshape(tensor.value.shape)


def component_of(name: str) -> str:
    return name.split(".", 1)[0]


def _learning_rates(cfg: TrainConfig) -> dict[str, float]:
    lr_projector = cfg.lr_projector if cfg.lr_projector is not None else cfg.lr_prompter
    if cfg.stage == STAGE_ALIGNMENT:
        return {
            "visual": 0.0,
            "prompter": cfg.lr_prompter,
            "projector": lr_projector if cfg.train_projector_stage1 else 0.0,
            "lm": 0.0,
        }
    return {
        "visual": cfg.lr_visual,
        "prompter": cfg.lr_prompter,
        "projector": lr_projector,
        "lm": cfg.lr_lm,
    }


def _run_training(model: VlmModel, samples: list[Sample], cfg: TrainConfig) -> list[float]:
    """One graph over each batch's stacked samples per step, then an AdamW
    update. Only the parameters whose learning rate is above 0 are
    differentiated, so the others get no gradient and no graph nodes."""
    if not samples:
        raise DomainError("training needs at least one sample")
    named = model.named_parameters()
    lr_of = _learning_rates(cfg)
    plan = [(tensor, lr_of[component_of(name)]) for name, tensor in named]
    plan = [(tensor, lr) for tensor, lr in plan if lr > 0.0]
    opt = AdamW(plan, cfg.weight_decay)
    steps = ad.descend([tensor for _, tensor in named],
                       ad.batches(samples, cfg.batch_size, cfg.epochs, Rng(cfg.seed).spawn(7)),
                       lambda batch: sample_loss_graph(model, batch),
                       lambda step: opt.step(), f"training (stage {cfg.stage})")
    history: list[float] = []
    with ad.differentiating(tensor for tensor, _ in plan):
        for loss in steps:
            history.append(loss)
            if len(history) == cfg.max_steps or (cfg.stop_loss is not None and loss < cfg.stop_loss):
                break
    return history


def train_stage1(model: VlmModel, caption_samples: list[Sample], cfg: TrainConfig) -> tuple[VlmModel, list[float]]:
    """Alignment stage: only the prompter (plus, by default, the image
    projector) is updated; visual encoder and LM stay bit-identical."""
    if cfg.stage != STAGE_ALIGNMENT:
        raise ConfigError([f"train_stage1 requires stage={STAGE_ALIGNMENT!r}, got {cfg.stage!r}"])
    history = _run_training(model, caption_samples, cfg)
    return model, history


def train_stage2(model: VlmModel, instruction_samples: list[Sample], cfg: TrainConfig) -> tuple[VlmModel, list[float]]:
    """Instruction tuning: visual encoder, prompter, projector, and LM all
    update with their per-component learning rates."""
    if cfg.stage != STAGE_INSTRUCTION:
        raise ConfigError([f"train_stage2 requires stage={STAGE_INSTRUCTION!r}, got {cfg.stage!r}"])
    history = _run_training(model, instruction_samples, cfg)
    return model, history


def caption_sample(patches, caption: str, semantic_ids=None) -> Sample:
    """Alignment record as a Sample: fixed captioning query, caption as response."""
    return instruction_sample(patches, ALIGN_QUERY, caption, semantic_ids)


def instruction_sample(patches, query: str, response: str, semantic_ids=None) -> Sample:
    return Sample(
        patches=patches,
        query_ids=encode_text(query),
        response_ids=encode_text(response),
        semantic_ids=list(semantic_ids) if semantic_ids else [SEP_ID],
    )


def load_patches(source, base_dir=None) -> np.ndarray:
    """Inline 2-D array, or a path to a .npy / JSON array-of-arrays file."""
    if isinstance(source, str):
        path = Path(source)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        if not path.exists():
            raise FormatError(f"image feature file not found: {path}")
        if path.suffix == ".npy":
            try:
                source = np.load(path)
            except (EOFError, SyntaxError, TokenError, ValueError) as e:
                # numpy raises all four for an empty or malformed file
                raise FormatError(f"image feature file {path}: {e}") from e
        else:
            try:
                source = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, RecursionError) as e:  # not UTF-8 JSON, or nested deeper than json recurses
                raise FormatError(f"image feature file {path}: {e}") from None
    arr = json_numbers(source, "image features")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise FormatError(f"image features must be 1-D or 2-D, got shape {arr.shape}")
    if not (np.abs(arr) <= MAX_FEATURE).all():  # NaN fails the comparison too
        bad = "a non-finite value" if not np.isfinite(arr).all() else f"a value of magnitude above {MAX_FEATURE:g}"
        raise FormatError(f"image features hold {bad}")
    return arr


def retrieve_semantics(patches: np.ndarray, retriever: de.DualEncoderParams,
                       db: SemanticDatabase, k: int, cap: int) -> list[int]:
    """Mean-pool the patch features, embed, retrieve top-k texts, tokenize."""
    query_vec = de.encode_image(retriever, patches.mean(axis=0))
    results = db.retrieve_top_k(query_vec, k)
    texts = [db.get(r.id).text for r in results]
    return semantic_token_ids(texts, cap)


def load_samples(
    path,
    stage: str,
    *,
    retriever: de.DualEncoderParams | None = None,
    db: SemanticDatabase | None = None,
    k: int = 5,
    semantic_cap: int = 512,
    base_dir=None,
    patch_dim: int | None = None,
) -> list[Sample]:
    """Read a JSONL training file and attach retrieved semantics when a
    database and retriever are supplied; one without the other is a
    ConfigError. A line's image features must have `patch_dim` columns when
    it is given, and the retriever's d_img_raw when semantics are retrieved;
    both are checked before the line's retrieval."""
    if (retriever is None) != (db is None):
        raise ConfigError([f"load_samples: retrieval needs a retriever and a db, got no "
                           f"{'db' if db is None else 'retriever'}"])
    retrieve = retriever is not None
    widths = [("model patch_dim", patch_dim)] if patch_dim is not None else []
    widths += [("retriever d_img_raw", retriever.d_img_raw)] if retrieve else []
    fields = ("image", "caption") if stage == STAGE_ALIGNMENT else ("image", "query", "response")
    samples = []
    for lineno, obj in iter_jsonl(path, fields):
        try:
            patches = load_patches(obj["image"], base_dir)
            for what, width in widths:
                if patches.shape[1] != width:
                    raise FormatError(f"image features have {patches.shape[1]} columns, {what} is {width}")
            if stage == STAGE_ALIGNMENT:
                sample = caption_sample(patches, json_text(obj["caption"], "'caption'"))
            else:
                sample = instruction_sample(patches, json_text(obj["query"], "'query'"),
                                            json_text(obj["response"], "'response'"))
        except (ShapeError, ValueError) as e:
            raise FormatError(f"line {lineno}: {e}") from e
        if retrieve:
            sample.semantic_ids = retrieve_semantics(patches, retriever, db, k, semantic_cap)
        samples.append(sample)
    return samples
