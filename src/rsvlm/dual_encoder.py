"""Contrastive dual encoder used as the retriever: a small image-feature MLP
and a bag-of-tokens text MLP trained with symmetric InfoNCE so paired items
land close in cosine space.

Text goes through a whitespace tokenizer whose tokens are hashed into a fixed
bucket vocabulary with FNV-1a (stable across platforms, unlike Python's
builtin hash). Both encoders L2-normalize their outputs, and the temperature
is learned in log space, initialized at 0.07.

Checkpoint format (little-endian)::

    magic "RSDE" | version u16 | d_img_raw u32 | d_e u32 | vocab u32 | hidden u32 |
    float32 blocks: img_w1, img_b1, img_w2, img_b2,
                    txt_w1, txt_b1, txt_w2, txt_b2, log_temp
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .artifact import Reader, fill_blocks, write_blocks
from .autodiff import Tensor
from .errors import ConfigError, DomainError, FormatError, ShapeError
from .expert_layer import FfnParams, init_ffn
from .numerics import Rng, ShapeRng

MAGIC = b"RSDE"
FORMAT_VERSION = 1
INIT_TEMPERATURE = 0.07
MIN_PAIRS = 8

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=1 << 16)
def _fnv1a(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def tokenize_text(text: str, vocab: int) -> list[int]:
    """Whitespace tokens, case-folded, hashed into `vocab` buckets."""
    tokens = text.casefold().split()
    if not tokens:
        raise DomainError("tokenize_text: no tokens in text")
    return [_fnv1a(tok) % vocab for tok in tokens]


def bag_vector(token_ids, vocab: int) -> np.ndarray:
    """L2-normalized token count vector of length `vocab`."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size == 0:
        raise DomainError("bag_vector: empty token list")
    # the bound keeps bincount from sizing its counts by a huge id; it
    # refuses a negative one, or ids that are not one list, itself. The
    # largest id is found in Python: numpy's max costs more than the list.
    if ids.ndim == 1 and max(ids.tolist()) >= vocab:
        raise ShapeError(f"bag_vector: token id out of range for vocab {vocab}")
    try:
        counts = np.bincount(ids, minlength=vocab)
    except ValueError:
        raise ShapeError(f"bag_vector: token id out of range for vocab {vocab}") from None
    return counts / math.sqrt(counts.dot(counts))


@dataclass
class ContrastivePair:
    image_features: np.ndarray
    text_tokens: list[int]


@dataclass
class DualEncoderParams:
    image_proj: FfnParams
    text_proj: FfnParams
    log_temp: Tensor  # temperature = exp(log_temp) > 0

    @property
    def d_img_raw(self) -> int:
        return self.image_proj.w1.value.shape[0]

    @property
    def d_e(self) -> int:
        return self.image_proj.w2.value.shape[1]

    @property
    def vocab(self) -> int:
        return self.text_proj.w1.value.shape[0]

    @property
    def hidden(self) -> int:
        return self.image_proj.w1.value.shape[1]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return (self.image_proj.named("image_proj") + self.text_proj.named("text_proj")
                + [("log_temp", self.log_temp)])


def init_params(d_img_raw: int, d_e: int, vocab: int, hidden: int, seed: int) -> DualEncoderParams:
    return _init_params(d_img_raw, d_e, vocab, hidden, Rng(seed))


def shape_params(d_img_raw: int, d_e: int, vocab: int, hidden: int) -> DualEncoderParams:
    """An encoder of these sizes that holds no parameter block. Raises
    ConfigError when a block is too large to address."""
    try:
        return _init_params(d_img_raw, d_e, vocab, hidden, ShapeRng())
    except (ValueError, OverflowError) as e:
        raise ConfigError([f"a parameter block is too large to address ({e})"]) from e


def _init_params(d_img_raw: int, d_e: int, vocab: int, hidden: int,
                 rng: Rng | ShapeRng) -> DualEncoderParams:
    """The encoder with every parameter drawn from `rng`'s streams; with a
    ShapeRng, an encoder of the right shapes that holds no parameter block."""
    return DualEncoderParams(
        image_proj=init_ffn(d_img_raw, hidden, d_e, rng.spawn(1)),
        text_proj=init_ffn(vocab, hidden, d_e, rng.spawn(2)),
        log_temp=ad.const(np.full((1, 1), math.log(INIT_TEMPERATURE))),
    )


def _mlp_rows(mlp: FfnParams, rows: Tensor) -> Tensor:
    h = ad.tanh(ad.matmul(rows, mlp.w1) + mlp.b1)
    return ad.l2_normalize_rows(ad.matmul(h, mlp.w2) + mlp.b2)


def encode_image_rows(params: DualEncoderParams, feats: Tensor) -> Tensor:
    if feats.value.shape[1] != params.d_img_raw:
        raise ShapeError(
            f"encode_image: feature dim {feats.value.shape[1]} != d_img_raw {params.d_img_raw}"
        )
    return _mlp_rows(params.image_proj, feats)


def encode_text_rows(params: DualEncoderParams, bags: Tensor) -> Tensor:
    return _mlp_rows(params.text_proj, bags)


def encode_image(params: DualEncoderParams, image_features) -> np.ndarray:
    """Unit-norm embedding of one raw image-feature vector."""
    feats = np.asarray(image_features, dtype=np.float64).reshape(1, -1)
    return encode_image_rows(params, ad.const(feats)).value[0]


def encode_text(params: DualEncoderParams, text_tokens) -> np.ndarray:
    """Unit-norm embedding of one token-id list (order-invariant bag)."""
    bag = bag_vector(text_tokens, params.vocab).reshape(1, -1)
    return encode_text_rows(params, ad.const(bag)).value[0]


def _batch_arrays(params: DualEncoderParams, batch) -> tuple[np.ndarray, np.ndarray]:
    if len(batch) < 2:
        raise DomainError(f"contrastive batch needs >= 2 pairs, got {len(batch)}")
    texts = [tuple(p.text_tokens) for p in batch]
    if len(set(texts)) != len(texts):
        raise DomainError("contrastive batch contains duplicate texts")
    feats = np.stack([np.asarray(p.image_features, dtype=np.float64) for p in batch])
    bags = np.stack([bag_vector(p.text_tokens, params.vocab) for p in batch])
    return feats, bags


def contrastive_loss_graph(params: DualEncoderParams, batch) -> Tensor:
    """Symmetric InfoNCE over the B x B cosine matrix scaled by 1/temperature."""
    feats, bags = _batch_arrays(params, batch)
    z_img = encode_image_rows(params, ad.const(feats))
    z_txt = encode_text_rows(params, ad.const(bags))
    sims = ad.matmul(z_img, ad.transpose(z_txt))
    logits = ad.mul(sims, ad.exp(ad.neg(params.log_temp)))
    # the mean of the image-to-text and text-to-image losses
    diag = np.arange(len(batch))
    both = ad.concat([logits, ad.transpose(logits)])
    return ad.cross_entropy(both, np.concatenate([diag, diag]), lens=[len(batch)] * 2)


def train_retriever(
    pairs,
    *,
    d_img_raw: int,
    d_e: int,
    vocab: int,
    hidden: int = 32,
    epochs: int = 200,
    lr: float = 0.1,
    seed: int = 0,
    momentum: float = 0.0,
) -> tuple[DualEncoderParams, list[float]]:
    """Full-batch gradient descent on the contrastive loss, one step per
    epoch over the pairs in a fresh permuted order; returns params and the
    per-epoch loss log. Aborts on divergence: a non-finite loss, or an
    update that leaves a parameter block non-finite."""
    pairs = list(pairs)
    if len(pairs) < MIN_PAIRS:
        raise DomainError(f"train_retriever needs >= {MIN_PAIRS} pairs, got {len(pairs)}")
    params = init_params(d_img_raw, d_e, vocab, hidden, seed)
    named = params.named_parameters()
    velocity = {name: np.zeros_like(t.value) for name, t in named}

    def update(epoch):
        for name, t in named:
            g = t.grad if t.grad is not None else np.zeros_like(t.value)
            # An overflow ends the run below, naming the block, not as a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                if momentum:
                    velocity[name] = momentum * velocity[name] + g
                    g = velocity[name]
                t.value -= lr * g
            if not np.isfinite(t.value).all():
                raise DomainError(f"train_retriever: parameter block {name} is not finite "
                                  f"after the update at epoch {epoch}")

    steps = ad.descend([t for _, t in named], ad.batches(pairs, len(pairs), epochs, Rng(seed).spawn(99)),
                       lambda batch: contrastive_loss_graph(params, batch), update, "train_retriever")
    with ad.differentiating(t for _, t in named):
        return params, list(steps)


def recall_at_1(params: DualEncoderParams, pairs) -> float:
    """Fraction of images whose nearest text embedding is their own pair."""
    z_img = np.stack([encode_image(params, p.image_features) for p in pairs])
    z_txt = np.stack([encode_text(params, p.text_tokens) for p in pairs])
    sims = z_img @ z_txt.T
    return float((sims.argmax(axis=1) == np.arange(len(pairs))).mean())


def save_params(params: DualEncoderParams, path) -> None:
    dims = (params.d_img_raw, params.d_e, params.vocab, params.hidden)
    header = MAGIC + struct.pack("<HIIII", FORMAT_VERSION, *dims)
    write_blocks(path, header, params.named_parameters())


def load_params(path) -> DualEncoderParams:
    reader = Reader(Path(path).read_bytes())
    reader.header(MAGIC, FORMAT_VERSION)
    dims = tuple(reader.u32(name) for name in ("d_img_raw", "d_e", "vocab", "hidden"))
    if 0 in dims:
        raise FormatError(f"zero dimension in header (d_img_raw, d_e, vocab, hidden) = {dims} at byte 6")
    try:
        params = shape_params(*dims)
    except ConfigError as e:
        raise FormatError(f"header dimensions {dims} at byte 6 too large to address ({e.__cause__})") from e
    fill_blocks(reader, params.named_parameters())
    return params
