"""Two-stage training: alignment (prompter and, by default, the image
projector; everything else frozen bit-exactly) and instruction tuning (all
components, per-component learning rates). The optimizer is AdamW with
decoupled weight decay; frozen parameters are never touched, so their arrays
stay bit-identical.

Training data is line-delimited JSON. Alignment samples:
``{"image": <path or patch array>, "caption": str}``; instruction samples:
``{"image": ..., "query": str, "response": str}``. When a semantic database
and retriever are configured, each sample's semantics are retrieved once at
load time and cached as token ids.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dual_encoder as de
from .errors import ConfigError, DomainError, FormatError, ShapeError
from .model import SEP_ID, Sample, VlmModel, encode_text, sample_loss_graph, semantic_token_ids
from .numerics import Rng
from .semantic_store import SemanticDatabase, iter_jsonl

STAGE_ALIGNMENT = "alignment"
STAGE_INSTRUCTION = "instruction"
ALIGN_QUERY = "caption:"


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
        problems = []
        if self.stage not in (STAGE_ALIGNMENT, STAGE_INSTRUCTION):
            problems.append(f"unknown stage {self.stage!r}")
        for name in ("lr_visual", "lr_prompter", "lr_lm"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.lr_projector is not None and self.lr_projector < 0:
            problems.append(f"lr_projector must be >= 0, got {self.lr_projector}")
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if problems:
            raise ConfigError(problems)


class AdamW:
    """Decoupled weight-decay Adam; beta=(0.9, 0.999), eps=1e-8."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, items, weight_decay: float) -> None:
        """items: iterable of (name, tensor, lr); lr <= 0 entries are skipped."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, tensor, lr in items:
            if lr <= 0.0:
                continue
            g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.value)
            m = self._m.setdefault(name, np.zeros_like(tensor.value))
            v = self._v.setdefault(name, np.zeros_like(tensor.value))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            tensor.value -= lr * (update + weight_decay * tensor.value)


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
    if not samples:
        raise DomainError("training needs at least one sample")
    named = model.named_parameters()
    lrs = _learning_rates(cfg)
    plan = [(name, tensor, lrs[component_of(name)]) for name, tensor in named]
    opt = AdamW()
    order_rng = Rng(cfg.seed).spawn(7)
    history: list[float] = []
    steps = 0
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(samples))
        for start in range(0, len(samples), cfg.batch_size):
            batch = [samples[i] for i in order[start : start + cfg.batch_size]]
            ad.zero_grads(t for _, t in named)
            losses = [sample_loss_graph(model, s) for s in batch]
            total = ad.scale(functools.reduce(ad.add, losses), 1.0 / len(batch))
            if not np.isfinite(total.value):
                raise DomainError(
                    f"training diverged: loss {total.value} at step {steps} (stage {cfg.stage})"
                )
            ad.backward(total)
            opt.step(plan, cfg.weight_decay)
            history.append(float(total.value))
            steps += 1
            if cfg.max_steps is not None and steps >= cfg.max_steps:
                return history
            if cfg.stop_loss is not None and history[-1] < cfg.stop_loss:
                return history
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
    return Sample(
        patches=patches,
        query_ids=encode_text(ALIGN_QUERY),
        response_ids=encode_text(caption),
        semantic_ids=list(semantic_ids) if semantic_ids else [SEP_ID],
    )


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
            arr = np.load(path)
        else:
            arr = np.asarray(json.loads(path.read_text(encoding="utf-8")))
    else:
        arr = np.asarray(source)
    arr = arr.astype(np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise FormatError(f"image features must be 1-D or 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise FormatError("image features hold a non-finite value")
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
) -> list[Sample]:
    """Read a JSONL training file and attach retrieved semantics when a
    database and retriever are supplied."""
    samples = []
    for lineno, obj in iter_jsonl(path):
        try:
            patches = load_patches(obj["image"], base_dir)
            if stage == STAGE_ALIGNMENT:
                sample = caption_sample(patches, obj["caption"])
            else:
                sample = instruction_sample(patches, obj["query"], obj["response"])
        except KeyError as e:
            raise FormatError(f"line {lineno}: missing field {e.args[0]!r}") from e
        except (ShapeError, ValueError) as e:
            raise FormatError(f"line {lineno}: {e}") from e
        if retriever is not None and db is not None:
            sample.semantic_ids = retrieve_semantics(patches, retriever, db, k, semantic_cap)
        samples.append(sample)
    return samples
