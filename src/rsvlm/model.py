"""End-to-end toy vision-language model.

A small pre-norm self-attention visual encoder is tapped at L depths to
produce multi-level features. The prompter turns those features, the
retrieved semantics, and the user query into prompt tokens. The decoder-only
LM consumes [image tokens; prompt tokens per level; query tokens] under a
causal mask, with the expert layer replacing the plain FFN in every
`expert_stride`-th block. Query text uses a byte-level tokenizer (ids 0..255)
plus EOS and SEP specials; retrieved semantic texts share the same LM
embedding table.

Training and generation share one LM forward, `_lm_logits_graph`.
Generation prefills once: the visual encoder, the prompter and the prefix
[image; prompt; query; SEP] run a single time and leave each block's keys
and values in a cache. Every further token is one query-segment row through
the same forward, attending to the cached rows; the expert layer and the FFN
are row-local, so only attention reads the cache.

Checkpoint format (little-endian)::

    magic "RSCK" | version u16 | manifest byte-length u32 | manifest UTF-8 JSON |
    float32 blocks in manifest order

The manifest records the model config and each named parameter's shape.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .artifact import Reader, fill_blocks, write_blocks
from .autodiff import Tensor
from .errors import ConfigError, FormatError, ShapeError, field_type_problems
from .expert_layer import (
    ExpertLayerParams,
    FfnParams,
    expert_block_graph,
    ffn_graph,
    init_expert_layer,
    init_ffn,
)
from .numerics import Rng, ShapeRng
from .prompter import (
    AttnBlockParams,
    KvCache,
    PrompterParams,
    attention_output,
    build_prompt_graph,
    init_attn_block,
    init_prompter,
)

EOS_ID = 256
SEP_ID = 257
VOCAB_SIZE = 258
CHECKPOINT_MAGIC = b"RSCK"
CHECKPOINT_VERSION = 1
CAUSAL_BIAS = -1e30
# Bound on lm_blocks and visual_blocks, and so on levels <= visual_blocks:
# the initializers build the blocks one by one.
MAX_BLOCKS = 256


def encode_text(text: str) -> list[int]:
    """Byte-level token ids for a UTF-8 string."""
    return list(text.encode("utf-8"))


def decode_ids(ids) -> str:
    return bytes(i for i in ids if 0 <= i < 256).decode("utf-8", errors="replace")


def semantic_token_ids(texts, cap: int = 512) -> list[int]:
    """Tokenize retrieved texts in rank order, SEP-joined, truncated at cap."""
    ids: list[int] = []
    for rank, text in enumerate(texts):
        if rank > 0:
            ids.append(SEP_ID)
        ids.extend(encode_text(text))
    ids = ids[:cap]
    return ids if ids else [SEP_ID]


@dataclass
class ModelConfig:
    d_h: int = 32
    heads: int = 2
    lm_blocks: int = 4
    expert_stride: int = 4
    levels: int = 2
    d_r: int = 8
    d_i: int = 64
    n_agg: int = 4
    prompter_heads: int = 2
    patch_dim: int = 8
    d_v: int = 16
    visual_blocks: int = 3
    visual_heads: int = 2
    visual_inner: int = 32
    vocab: int = VOCAB_SIZE
    max_seq: int = 512

    def __post_init__(self):
        problems = field_type_problems(self)
        if problems:
            raise ConfigError(problems)
        problems = [f"{name} must be positive, got {value}" for name, value in vars(self).items() if value <= 0]
        problems += [f"{name} must be <= {MAX_BLOCKS}, got {getattr(self, name)}"
                     for name in ("lm_blocks", "visual_blocks") if getattr(self, name) > MAX_BLOCKS]
        if self.d_r >= self.d_h:
            problems.append(f"d_r {self.d_r} must be < d_h {self.d_h}")
        if self.heads > 0 and self.d_h % self.heads != 0:
            problems.append(f"d_h {self.d_h} not divisible by heads {self.heads}")
        if self.prompter_heads > 0 and self.d_h % self.prompter_heads != 0:
            problems.append(f"d_h {self.d_h} not divisible by prompter_heads {self.prompter_heads}")
        if self.visual_heads > 0 and self.d_v % self.visual_heads != 0:
            problems.append(f"d_v {self.d_v} not divisible by visual_heads {self.visual_heads}")
        if self.visual_blocks < self.levels:
            problems.append(f"visual_blocks {self.visual_blocks} < levels {self.levels}")
        if problems:
            raise ConfigError(problems)

    def tap_indices(self) -> list[int]:
        """1-based visual block indices feeding the L feature levels."""
        taps = [max(1, (i * self.visual_blocks) // self.levels) for i in range(1, self.levels + 1)]
        if len(set(taps)) != len(taps):
            raise ConfigError([f"visual taps {taps} not strictly increasing"])
        return taps

    def expert_block_indices(self) -> list[int]:
        """1-based LM block indices that carry the expert layer."""
        return [i for i in range(1, self.lm_blocks + 1) if i % self.expert_stride == 0]


@dataclass
class VisualBlockParams:
    attn: AttnBlockParams
    mlp: FfnParams


@dataclass
class VisualEncoderParams:
    patch_w: Tensor
    patch_b: Tensor
    blocks: list[VisualBlockParams]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("patch_embed.w", self.patch_w), ("patch_embed.b", self.patch_b)]
        for i, blk in enumerate(self.blocks, start=1):
            out += blk.attn.named(f"block{i}.attn")
            out += blk.mlp.named(f"block{i}.mlp")
        return out


@dataclass
class LmBlockParams:
    attn: AttnBlockParams
    ffn: FfnParams | None
    experts: ExpertLayerParams | None


@dataclass
class LmParams:
    embed: Tensor
    pos: Tensor
    blocks: list[LmBlockParams]
    head: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embed", self.embed), ("pos", self.pos)]
        for i, blk in enumerate(self.blocks, start=1):
            out += blk.attn.named(f"block{i}.attn")
            if blk.experts is not None:
                out += blk.experts.named_parameters(f"block{i}.")
            else:
                out += blk.ffn.named(f"block{i}.ffn")
        out.append(("head", self.head))
        return out


@dataclass
class VlmModel:
    config: ModelConfig
    visual: VisualEncoderParams
    prompter: PrompterParams
    proj_w: Tensor
    proj_b: Tensor
    lm: LmParams

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("visual." + n, t) for n, t in self.visual.named_parameters()]
        out += [("prompter." + n, t) for n, t in self.prompter.named_parameters()]
        out += [("projector.w", self.proj_w), ("projector.b", self.proj_b)]
        out += [("lm." + n, t) for n, t in self.lm.named_parameters()]
        return out


@dataclass
class Sample:
    """One training/inference item with precomputed patch features and the
    token ids of its retrieved semantic descriptions."""

    patches: np.ndarray
    query_ids: list[int]
    response_ids: list[int] = field(default_factory=list)
    semantic_ids: list[int] = field(default_factory=lambda: [SEP_ID])

    def __post_init__(self):
        self.patches = np.asarray(self.patches, dtype=np.float64)
        if self.patches.ndim != 2 or self.patches.shape[0] < 1:
            raise ShapeError(f"sample patches must be a nonempty 2-D grid, got {self.patches.shape}")
        if len(self.query_ids) < 1:
            raise ShapeError("sample query must contain at least one token")
        if len(self.semantic_ids) < 1:
            raise ShapeError("sample needs at least one semantic token")


def init_model(cfg: ModelConfig, seed: int) -> VlmModel:
    return _init_model(cfg, Rng(seed))


def shape_model(cfg: ModelConfig) -> VlmModel:
    """A model of `cfg`'s shapes that holds no parameter block. Raises
    ConfigError when a block is too large to address."""
    try:
        return _init_model(cfg, ShapeRng())
    except (ValueError, OverflowError) as e:
        raise ConfigError([f"a parameter block is too large to address ({e})"]) from e


def _init_model(cfg: ModelConfig, master: Rng | ShapeRng) -> VlmModel:
    """The model with every parameter drawn from `master`'s streams; with a
    ShapeRng, a model of the right shapes that holds no parameter block."""
    vrng = master.spawn(1)
    visual = VisualEncoderParams(
        patch_w=ad.param(vrng.spawn(0).normal((cfg.patch_dim, cfg.d_v), std=1.0 / math.sqrt(cfg.patch_dim))),
        patch_b=ad.param(vrng.zeros((1, cfg.d_v))),
        blocks=[
            VisualBlockParams(
                attn=init_attn_block(cfg.d_v, cfg.d_v, cfg.d_v, vrng.spawn(10 + i)),
                mlp=init_ffn(cfg.d_v, cfg.visual_inner, cfg.d_v, vrng.spawn(50 + i)),
            )
            for i in range(cfg.visual_blocks)
        ],
    )
    prompter = init_prompter(cfg.n_agg, cfg.d_h, [cfg.d_v] * cfg.levels, master.spawn(2))
    prng = master.spawn(3)
    lrng = master.spawn(4)
    expert_set = set(cfg.expert_block_indices())
    blocks = []
    for i in range(1, cfg.lm_blocks + 1):
        attn = init_attn_block(cfg.d_h, cfg.d_h, cfg.d_h, lrng.spawn(10 + i))
        if i in expert_set:
            blocks.append(LmBlockParams(
                attn=attn, ffn=None,
                experts=init_expert_layer(cfg.d_h, cfg.d_r, cfg.levels, cfg.d_i, lrng.spawn(200 + i)),
            ))
        else:
            blocks.append(LmBlockParams(
                attn=attn, ffn=init_ffn(cfg.d_h, cfg.d_i, cfg.d_h, lrng.spawn(100 + i)),
                experts=None,
            ))
    lm = LmParams(
        embed=ad.param(lrng.spawn(1).normal((cfg.vocab, cfg.d_h), std=0.02)),
        pos=ad.param(lrng.spawn(2).normal((cfg.max_seq, cfg.d_h), std=0.02)),
        blocks=blocks,
        head=ad.param(lrng.spawn(3).normal((cfg.d_h, cfg.vocab), std=1.0 / math.sqrt(cfg.d_h))),
    )
    return VlmModel(
        config=cfg,
        visual=visual,
        prompter=prompter,
        proj_w=ad.param(prng.normal((cfg.d_v, cfg.d_h), std=1.0 / math.sqrt(cfg.d_v))),
        proj_b=ad.param(prng.zeros((1, cfg.d_h))),
        lm=lm,
    )


def _encode_multilevel_graph(model: VlmModel, patches: Tensor) -> list[Tensor]:
    """Visual features captured at the tap depths; L matrices, N_patches x d_v."""
    cfg = model.config
    if patches.value.shape[0] < 1:
        raise ShapeError(f"_encode_multilevel_graph: need a nonempty patch grid, got shape {patches.value.shape}")
    v = model.visual
    x = ad.matmul(patches, v.patch_w) + v.patch_b
    taps = []
    tap_set = set(cfg.tap_indices())
    for i, blk in enumerate(v.blocks, start=1):
        a = ad.layer_norm_rows(x)
        x = x + attention_output(blk.attn, a, a, cfg.visual_heads)
        x = x + ffn_graph(blk.mlp, ad.layer_norm_rows(x))
        if i in tap_set:
            taps.append(x)
    return taps


def _causal_bias(t: int, p: int) -> np.ndarray:
    """Bias of t new rows over p cached rows and themselves: row i sees
    columns up to p + i."""
    return np.triu(np.full((t, p + t), CAUSAL_BIAS), k=p + 1)


def _lm_logits_graph(model: VlmModel, hidden: Tensor, counts: tuple[int, ...],
                     cache: list[KvCache] | None = None) -> Tensor:
    """Causal LM over T assembled rows whose layout is the row-count tuple
    `counts` (n_image, n_level_1, ..., n_level_L, n_query) of
    `_segments_for`; returns T x vocab logits. With `cache` (one KvCache
    per block), the rows follow the cached ones: they take the next
    positions, attend to the cached rows, and join the cache, and `counts`
    covers the new rows only. The expert layer and the FFN are row-local,
    so only attention reads the cache."""
    cfg = model.config
    t = hidden.value.shape[0]
    offset = cache[0].rows if cache is not None else 0
    if offset + t > cfg.max_seq:
        raise ShapeError(f"sequence length {offset + t} exceeds max_seq {cfg.max_seq}")
    x = hidden + ad.narrow(model.lm.pos, 0, offset, t)
    bias = _causal_bias(t, offset) if t > 1 else None  # a lone row sees every row
    for i, blk in enumerate(model.lm.blocks):
        a = ad.layer_norm_rows(x)
        kv = cache[i] if cache is not None else None
        x = x + attention_output(blk.attn, a, a, cfg.heads, causal_bias=bias, cache=kv)
        h = ad.layer_norm_rows(x)
        if blk.experts is not None:
            x = x + expert_block_graph(blk.experts, h, counts)
        else:
            x = x + ffn_graph(blk.ffn, h)
    return ad.matmul(ad.layer_norm_rows(x), model.lm.head)


def _segments_for(model: VlmModel, n_img: int, n_seq: int) -> tuple[int, ...]:
    """Row counts of the assembled sequence, (n_image, n_level_1, ...,
    n_level_L, n_query): image rows, n_agg prompt rows per level in level
    order, then the query-segment rows."""
    cfg = model.config
    return (n_img,) + (cfg.n_agg,) * cfg.levels + (n_seq,)


def _sequence_graph(model: VlmModel, sample: Sample, seq_ids: list[int]) -> tuple[Tensor, tuple[int, ...]]:
    cfg = model.config
    taps = _encode_multilevel_graph(model, ad.const(sample.patches))
    f_user = ad.embedding(model.lm.embed, sample.query_ids)
    f_sem = ad.embedding(model.lm.embed, sample.semantic_ids)
    s = build_prompt_graph(model.prompter, f_user, f_sem, taps, cfg.prompter_heads)
    img_tok = ad.matmul(taps[-1], model.proj_w) + model.proj_b
    q_emb = ad.embedding(model.lm.embed, seq_ids)
    hidden = ad.concat([img_tok, s, q_emb], axis=0)
    return hidden, _segments_for(model, sample.patches.shape[0], len(seq_ids))


def sample_loss_graph(model: VlmModel, sample: Sample) -> Tensor:
    """Autoregressive loss over the response span (teacher forcing)."""
    if not sample.response_ids:
        raise ShapeError("sample_loss: sample has no response tokens")
    seq_ids = list(sample.query_ids) + [SEP_ID] + list(sample.response_ids) + [EOS_ID]
    # SEP predicts the first response token, the last response token EOS
    targets = [-1] * len(sample.query_ids) + list(sample.response_ids) + [EOS_ID, -1]
    return token_loss_graph(model, sample, seq_ids, targets)


def sample_loss(model: VlmModel, sample: Sample) -> float:
    return float(sample_loss_graph(model, sample).value)


def token_loss_graph(model: VlmModel, sample: Sample, seq_ids, targets) -> Tensor:
    """Loss with caller-supplied query-segment ids and one target per
    query-segment row (-1 for none); the image and prompt rows carry no
    target. Harnesses whose vocabularies lack the byte specials use it
    directly."""
    hidden, counts = _sequence_graph(model, sample, list(seq_ids))
    logits = _lm_logits_graph(model, hidden, counts)
    prefix = np.full(sum(counts[:-1]), -1, dtype=np.int64)
    return ad.cross_entropy(logits, np.concatenate([prefix, np.asarray(targets, dtype=np.int64)]))


def generate(model: VlmModel, patches, query_ids, max_tokens: int,
             semantic_ids=None) -> list[int]:
    """Greedy argmax decoding; stops at EOS, after max_tokens ids, or when
    the next step would exceed max_seq rows. Raises ShapeError before any
    forward pass when the prefix alone exceeds max_seq.

    One prefill runs the visual encoder, the prompter and the prefix
    [image; prompt; query; SEP] through the LM, filling a per-block K/V
    cache; each further token is one query row through the same LM path."""
    if max_tokens <= 0:
        return []
    sample = Sample(
        patches=np.asarray(patches, dtype=np.float64),
        query_ids=list(query_ids),
        response_ids=[],
        semantic_ids=list(semantic_ids) if semantic_ids else [SEP_ID],
    )
    cfg = model.config
    seq_ids = list(sample.query_ids) + [SEP_ID]
    counts = _segments_for(model, sample.patches.shape[0], len(seq_ids))
    prefix = sum(counts)
    if prefix > cfg.max_seq:
        raise ShapeError(f"generate: prefix of {prefix} rows exceeds max_seq {cfg.max_seq}")
    # The step that decodes token j runs prefix + j - 1 rows.
    max_tokens = min(max_tokens, cfg.max_seq - prefix + 1)
    cache = [KvCache() for _ in model.lm.blocks]
    hidden, _ = _sequence_graph(model, sample, seq_ids)
    logits = _lm_logits_graph(model, hidden, counts, cache).value
    one_query_row = (0,) * (len(counts) - 1) + (1,)
    out: list[int] = []
    while True:
        nxt = int(np.argmax(logits[-1]))
        if nxt == EOS_ID:
            return out
        out.append(nxt)
        if len(out) == max_tokens:
            return out
        row = ad.embedding(model.lm.embed, [nxt])
        logits = _lm_logits_graph(model, row, one_query_row, cache).value


def save_checkpoint(model: VlmModel, path) -> None:
    named = model.named_parameters()
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "blocks": [{"name": n, "shape": list(t.value.shape)} for n, t in named],
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(manifest_bytes)) + manifest_bytes
    write_blocks(path, header, named)


def _read_manifest(reader: Reader) -> tuple[ModelConfig, dict[str, tuple]]:
    """The config and the block shapes, in manifest order, of a checkpoint
    manifest that names each block once and holds a valid model config."""
    manifest_len = reader.u32("manifest length")
    raw = reader.take(manifest_len, "manifest")
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"unreadable manifest at byte 10: {e}") from e
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("blocks"), list)):
        raise FormatError("manifest at byte 10 must be an object with a 'config' object and a 'blocks' list")
    config = manifest["config"]
    names = {f.name for f in fields(ModelConfig)}
    if set(config) != names:
        raise FormatError(f"manifest config: missing {sorted(names - set(config))}, "
                          f"unknown {sorted(set(config) - names)}")
    try:
        cfg = ModelConfig(**config)
    except ConfigError as e:
        raise FormatError(f"manifest config: {e}") from e
    shapes: dict[str, tuple] = {}
    for i, entry in enumerate(manifest["blocks"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise FormatError(f"manifest block {i}: need a 'name' string and a 'shape' of sizes")
        if entry["name"] in shapes:
            raise FormatError(f"manifest block {i}: duplicate name {entry['name']!r}")
        shapes[entry["name"]] = tuple(entry["shape"])
    return cfg, shapes


def load_checkpoint(path) -> VlmModel:
    reader = Reader(Path(path).read_bytes())
    reader.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    cfg, shapes = _read_manifest(reader)
    # Shapes first: the config's blocks are compared before any is allocated.
    try:
        model = shape_model(cfg)
    except ConfigError as e:
        raise FormatError(f"manifest config: {e}") from e
    named = dict(model.named_parameters())
    if shapes.keys() != named.keys():
        raise FormatError(f"manifest blocks: missing {sorted(named.keys() - shapes.keys())}, "
                          f"unknown {sorted(shapes.keys() - named.keys())}")
    for name, shape in shapes.items():
        have = named[name].value.shape
        if have != shape:
            raise FormatError(f"block {name!r}: manifest shape {shape} != model shape {have}")
    fill_blocks(reader, [(name, named[name]) for name in shapes])
    return model
