"""End-to-end toy vision-language model.

A small pre-norm self-attention visual encoder is tapped at L depths to
produce multi-level features. The prompter turns those features, the
retrieved semantics, and the user query into prompt tokens. The decoder-only
LM consumes [image tokens; prompt tokens per level; query tokens] under a
causal mask; both stacks run the same block, and every `expert_stride`-th LM
block adds the expert layer's merge to its FFN. Query text uses a byte-level
tokenizer (ids 0..255) plus EOS and SEP specials; retrieved semantic texts
share the same LM embedding table.

Training and generation share one forward over the stacked rows of a batch:
the row-local ops (embeddings, layer norm, projections, FFN, expert block)
run once over every sample's rows, and attention keeps each sample's rows
to themselves. Only the rows whose logits are read go on past the last
block's keys and values: a training step's targeted rows, the prefill's
last row. A training step is one graph; generation is a batch of one, and
it prefills once: the visual encoder, the prompter and the prefix
[image; prompt; query; SEP] run a single time and leave each block's keys
and values in a cache. Every further token is one query-segment row through
the same forward, attending to the cached rows; the expert layer and the FFN
are row-local, so only attention reads the cache. A parameter needs a
gradient only while training differentiates it, so none of generation's
forwards records a graph.

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
from .numerics import Rng, ShapeRng, ranges
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
# Bound on lm_blocks and visual_blocks, and so on levels <= visual_blocks:
# the initializers build the blocks one by one.
MAX_BLOCKS = 256


def encode_text(text: str) -> list[int]:
    """Byte-level token ids for a UTF-8 string."""
    return list(text.encode("utf-8"))


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
        """1-based visual block indices feeding the L feature levels; with
        visual_blocks >= levels they are distinct and the first is >= 1."""
        return [(i * self.visual_blocks) // self.levels for i in range(1, self.levels + 1)]

    def expert_block_indices(self) -> list[int]:
        """1-based LM block indices that carry the expert layer."""
        return [i for i in range(1, self.lm_blocks + 1) if i % self.expert_stride == 0]


@dataclass
class BlockParams:
    """A pre-norm block of the visual encoder or the LM; an expert block
    adds its expert layer's merge to the FFN's output."""

    attn: AttnBlockParams
    ffn: FfnParams
    experts: ExpertLayerParams | None = None

    def named(self, prefix: str, ffn: str = "ffn") -> list[tuple[str, Tensor]]:
        out = self.attn.named(f"{prefix}.attn")
        if self.experts is not None:
            out += self.experts.named_parameters(f"{prefix}.")
        return out + self.ffn.named(f"{prefix}.{ffn}")


@dataclass
class VisualEncoderParams:
    patch_w: Tensor
    patch_b: Tensor
    blocks: list[BlockParams]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("patch_embed.w", self.patch_w), ("patch_embed.b", self.patch_b)]
        for i, blk in enumerate(self.blocks, start=1):
            out += blk.named(f"block{i}", ffn="mlp")
        return out


@dataclass
class LmParams:
    embed: Tensor
    pos: Tensor
    blocks: list[BlockParams]
    head: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embed", self.embed), ("pos", self.pos)]
        for i, blk in enumerate(self.blocks, start=1):
            out += blk.named(f"block{i}")
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
        patch_w=ad.const(vrng.spawn(0).normal((cfg.patch_dim, cfg.d_v), std=1.0 / math.sqrt(cfg.patch_dim))),
        patch_b=ad.const(vrng.zeros((1, cfg.d_v))),
        blocks=[
            BlockParams(
                attn=init_attn_block(cfg.d_v, cfg.d_v, cfg.d_v, vrng.spawn(10 + i)),
                ffn=init_ffn(cfg.d_v, cfg.visual_inner, cfg.d_v, vrng.spawn(50 + i)),
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
        expert = i in expert_set
        # An expert block's FFN comes from its expert layer's stream, which
        # once owned it, so a seed keeps its parameters and RSCK bytes.
        ffn_rng = lrng.spawn(200 + i).spawn(100) if expert else lrng.spawn(100 + i)
        blocks.append(BlockParams(
            attn=init_attn_block(cfg.d_h, cfg.d_h, cfg.d_h, lrng.spawn(10 + i)),
            ffn=init_ffn(cfg.d_h, cfg.d_i, cfg.d_h, ffn_rng),
            experts=init_expert_layer(cfg.d_h, cfg.d_r, cfg.levels, lrng.spawn(200 + i)) if expert else None,
        ))
    lm = LmParams(
        embed=ad.const(lrng.spawn(1).normal((cfg.vocab, cfg.d_h), std=0.02)),
        pos=ad.const(lrng.spawn(2).normal((cfg.max_seq, cfg.d_h), std=0.02)),
        blocks=blocks,
        head=ad.const(lrng.spawn(3).normal((cfg.d_h, cfg.vocab), std=1.0 / math.sqrt(cfg.d_h))),
    )
    return VlmModel(
        config=cfg,
        visual=visual,
        prompter=prompter,
        proj_w=ad.const(prng.normal((cfg.d_v, cfg.d_h), std=1.0 / math.sqrt(cfg.d_v))),
        proj_b=ad.const(prng.zeros((1, cfg.d_h))),
        lm=lm,
    )


def _encode_multilevel_graph(model: VlmModel, patches: Tensor, n_patches) -> list[Tensor]:
    """Visual features captured at the tap depths: L matrices of the
    stacked patch rows x d_v. `n_patches` counts each sample's rows; a
    sample's patches attend only to each other."""
    cfg = model.config
    v = model.visual
    x = ad.matmul(patches, v.patch_w) + v.patch_b
    taps = []
    tap_set = set(cfg.tap_indices())
    for i, blk in enumerate(v.blocks, start=1):
        x = _block_graph(blk, x, cfg.visual_heads, n_patches, n_patches)
        if i in tap_set:
            taps.append(x)
    return taps


def _block_graph(blk: BlockParams, x: Tensor, heads: int, lens, k_lens, causal: bool = False,
                 cache: KvCache | None = None, row_levels: np.ndarray | None = None, read=None) -> Tensor:
    """One pre-norm block over the stacked rows `x`: self-attention (its
    lengths, mask and cache as in `attention_output`), then the FFN plus, in
    an expert block, the expert merge routed by `row_levels`. With `read`,
    each sample's count of trailing rows to return, the keys and values
    still come from every row, so `cache` fills as without it; the queries,
    the residual, the FFN and the expert merge run on the read rows only."""
    a = ad.layer_norm_rows(x)
    q = a
    if read is not None:
        rows = ranges(np.cumsum(lens) - read, read)
        q, x, lens, row_levels = ad.embedding(a, rows), ad.embedding(x, rows), read, row_levels[rows]
    x = x + attention_output(blk.attn, q, a, heads, lens, k_lens, causal, cache)
    h = ad.layer_norm_rows(x)
    out = ffn_graph(blk.ffn, h)
    if blk.experts is not None:
        out = out + expert_block_graph(blk.experts, h, row_levels)
    return x + out


def _lm_logits_graph(model: VlmModel, hidden: Tensor, lens, row_levels: np.ndarray,
                     cache: list[KvCache] | None = None, read=None) -> Tensor:
    """Causal LM over the stacked rows of a batch; `lens` counts each
    sample's rows, in row order, and a sample's rows attend only to its
    own. `row_levels` holds each row's level for the expert layer (0 on
    image and query rows, l on level-l prompt rows). Returns the vocab
    logits of each sample's last `read[i]` rows, sample after sample (of
    every row without `read`): the last block runs its queries, FFN and
    expert merge, and the final layer norm and the head run, on those rows
    only. With `cache` (one KvCache per block; a batch of one), the rows
    follow the cached ones: they take the next positions, attend to the
    cached rows, and join the cache. The expert layer and the FFN are
    row-local, so only attention reads the cache."""
    cfg = model.config
    if sum(lens) != hidden.value.shape[0]:
        raise ShapeError(f"sample lengths {lens} count {sum(lens)} rows, hidden has {hidden.value.shape[0]}")
    if cache is not None and len(lens) != 1:
        raise ShapeError(f"a K/V cache holds one sequence, got {len(lens)}")
    offset = cache[0].rows if cache is not None else 0
    if offset + max(lens) > cfg.max_seq:
        raise ShapeError(f"sequence length {offset + max(lens)} exceeds max_seq {cfg.max_seq}")
    x = hidden + ad.embedding(model.lm.pos, ranges([offset] * len(lens), lens))
    k_lens = [offset + n for n in lens]
    blocks = model.lm.blocks
    for i, (blk, kv) in enumerate(zip(blocks, cache or [None] * len(blocks)), start=1):
        x = _block_graph(blk, x, cfg.heads, lens, k_lens, True, kv, row_levels,
                         read if i == len(blocks) else None)
    return ad.matmul(ad.layer_norm_rows(x), model.lm.head)


def _segments_for(model: VlmModel, n_img: int, n_seq: int) -> tuple[int, ...]:
    """Row counts of the assembled sequence, (n_image, n_level_1, ...,
    n_level_L, n_query): image rows, n_agg prompt rows per level in level
    order, then the query-segment rows."""
    cfg = model.config
    return (n_img,) + (cfg.n_agg,) * cfg.levels + (n_seq,)


def _sequence_graph(model: VlmModel, samples: list[Sample],
                    seqs: list[list[int]]) -> tuple[Tensor, list[int], np.ndarray]:
    """The stacked [image; prompt level 1..L; query segment] rows of a batch,
    sample after sample, with each sample's query-segment ids from `seqs`;
    each sample's row count; and each row's level: 0 on image and query
    rows, l on level-l prompt rows."""
    cfg = model.config
    n_img = [s.patches.shape[0] for s in samples]
    n_seq = [len(ids) for ids in seqs]
    patches = np.concatenate([s.patches for s in samples], axis=0)
    taps = _encode_multilevel_graph(model, ad.const(patches), n_img)
    embed = model.lm.embed
    f_user = ad.embedding(embed, np.concatenate([s.query_ids for s in samples]))
    f_sem = ad.embedding(embed, np.concatenate([s.semantic_ids for s in samples]))
    prompts = build_prompt_graph(model.prompter, f_user, f_sem, taps, cfg.prompter_heads,
                                 [len(s.query_ids) for s in samples], [len(s.semantic_ids) for s in samples],
                                 n_img)
    img_tok = ad.matmul(taps[-1], model.proj_w) + model.proj_b
    q_emb = ad.embedding(embed, np.concatenate(seqs))
    # Each part (the image rows, each prompt level, the query segments)
    # stacks its rows sample after sample, counts[b, j] of them for sample
    # b; a sample's sequence takes its rows of every part in turn.
    counts = np.array([_segments_for(model, n, m) for n, m in zip(n_img, n_seq)])
    part_start = np.cumsum(counts.sum(axis=0)) - counts.sum(axis=0)
    starts = part_start + np.cumsum(counts, axis=0) - counts
    rows = ad.concat([img_tok, *prompts, q_emb], axis=0)
    hidden = ad.embedding(rows, ranges(starts.ravel().tolist(), counts.ravel().tolist()))
    part_levels = np.tile(np.r_[: cfg.levels + 1, 0], len(samples))
    return hidden, counts.sum(axis=1).tolist(), np.repeat(part_levels, counts.ravel())


def _loss_graph(model: VlmModel, samples: list[Sample], seqs: list[list[int]], targets) -> Tensor:
    """Mean over samples of each one's mean loss over its targeted rows;
    `targets` holds one target per query-segment row (-1 for none), and the
    image and prompt rows carry none. The LM reads each sample's logits
    from its first targeted row on, the query segment being its last rows."""
    hidden, lens, row_levels = _sequence_graph(model, samples, seqs)
    tails = []
    for tgt in targets:
        tgt = np.asarray(tgt, dtype=np.int64)
        hit = np.flatnonzero(tgt >= 0)
        # a sample with no target keeps its last row, and cross_entropy names it
        tails.append(tgt[hit[0] if hit.size else -1:])
    read = [len(t) for t in tails]
    logits = _lm_logits_graph(model, hidden, lens, row_levels, read=read)
    return ad.cross_entropy(logits, np.concatenate(tails), read)


def sample_loss_graph(model: VlmModel, samples: list[Sample]) -> Tensor:
    """Autoregressive loss of a batch over each sample's response span
    (teacher forcing): the mean over samples of each one's mean token loss.
    One graph over the stacked rows of every sample. SEP predicts the first
    response token and the last response token EOS, so a sample's
    supervised rows are its last len(response) + 1; EOS itself is never an
    input row, as no row before it may read it."""
    seqs, targets = [], []
    for sample in samples:
        if not sample.response_ids:
            raise ShapeError("sample_loss: sample has no response tokens")
        seqs.append(list(sample.query_ids) + [SEP_ID] + list(sample.response_ids))
        targets.append([-1] * len(sample.query_ids) + list(sample.response_ids) + [EOS_ID])
    return _loss_graph(model, samples, seqs, targets)


def sample_loss(model: VlmModel, sample: Sample) -> float:
    return float(sample_loss_graph(model, [sample]).value)


def token_loss_graph(model: VlmModel, sample: Sample, seq_ids, targets) -> Tensor:
    """Loss of one sample with caller-supplied query-segment ids and one
    target per query-segment row (-1 for none); the image and prompt rows
    carry no target. Harnesses whose vocabularies lack the byte specials
    use it directly."""
    if len(targets) != len(seq_ids):
        raise ShapeError(f"token_loss_graph: {len(targets)} targets for {len(seq_ids)} query-segment rows")
    return _loss_graph(model, [sample], [list(seq_ids)], [targets])


def generate(model: VlmModel, patches, query_ids, max_tokens: int,
             semantic_ids=None) -> list[int]:
    """Greedy argmax decoding; stops at EOS, after max_tokens ids, or when
    the next step would exceed max_seq rows. Raises ShapeError before any
    forward pass when the prefix alone exceeds max_seq.

    One prefill runs the visual encoder, the prompter and the prefix
    [image; prompt; query; SEP] through the LM as a batch of one, filling a
    per-block K/V cache; each further token is one query row through the
    same LM path. The prefill reads its last row only: the last block's
    queries, FFN and expert merge, and the head, run on that row. No step
    records an autodiff graph."""
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
    prefix = sum(_segments_for(model, sample.patches.shape[0], len(seq_ids)))
    if prefix > cfg.max_seq:
        raise ShapeError(f"generate: prefix of {prefix} rows exceeds max_seq {cfg.max_seq}")
    # The step that decodes token j runs prefix + j - 1 rows.
    max_tokens = min(max_tokens, cfg.max_seq - prefix + 1)
    cache = [KvCache(prefix + max_tokens - 1) for _ in model.lm.blocks]
    out: list[int] = []
    hidden, lens, row_levels = _sequence_graph(model, [sample], [seq_ids])
    logits = _lm_logits_graph(model, hidden, lens, row_levels, cache, read=[1]).value
    while True:
        nxt = int(np.argmax(logits[-1]))
        if nxt == EOS_ID:
            return out
        out.append(nxt)
        if len(out) == max_tokens:
            return out
        row = ad.embedding(model.lm.embed, [nxt])
        logits = _lm_logits_graph(model, row, [1], np.zeros(1, int), cache).value


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
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
