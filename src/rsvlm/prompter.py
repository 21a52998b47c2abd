"""Multi-level visual prompter: learnable aggregation tokens attend to the
user query (self-attention over the concatenation), then to the retrieved
semantic tokens, then to each visual level in parallel, and the per-level
outputs are stacked row-wise into the prompt matrix.

The aggregation-token count and the width are `f_agg`'s shape, the level
count is the number of level blocks, and each graph function takes the
head count as `attention_output` does.

Attention blocks are multi-head with bias-free Q/K/V/output projections,
residual connections, and parameter-free layer normalization applied to the
query-side input of each block. Multi-head splitting is expressed on 2-D
matrices by column blocks: head h owns columns [h*dk, (h+1)*dk) of the
projected Q/K/V, where dk = d / heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .numerics import Rng

AGG_INIT_STD = 0.02


@dataclass
class AttnBlockParams:
    """Bias-free projections of one attention block. wk/wv map the context
    dimension to the block dimension, so cross-attention over d_l-dim visual
    features just uses rectangular wk/wv."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    def named(self, prefix: str):
        return [(f"{prefix}.wq", self.wq), (f"{prefix}.wk", self.wk),
                (f"{prefix}.wv", self.wv), (f"{prefix}.wo", self.wo)]


@dataclass
class PrompterParams:
    f_agg: Tensor
    self_attn: AttnBlockParams
    sem_attn: AttnBlockParams
    level_attn: list[AttnBlockParams]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("f_agg", self.f_agg)]
        out += self.self_attn.named("self_attn")
        out += self.sem_attn.named("sem_attn")
        for l, block in enumerate(self.level_attn, start=1):
            out += block.named(f"level_attn{l}")
        return out


def init_attn_block(d_q_in: int, d_ctx_in: int, d: int, rng: Rng) -> AttnBlockParams:
    """Fan-in scaled Gaussian init for all four projections."""
    return AttnBlockParams(
        wq=ad.param(rng.normal((d_q_in, d), std=1.0 / math.sqrt(d_q_in))),
        wk=ad.param(rng.normal((d_ctx_in, d), std=1.0 / math.sqrt(d_ctx_in))),
        wv=ad.param(rng.normal((d_ctx_in, d), std=1.0 / math.sqrt(d_ctx_in))),
        wo=ad.param(rng.normal((d, d), std=1.0 / math.sqrt(d))),
    )


def init_prompter(n_agg: int, dim: int, level_dims: list[int], rng: Rng) -> PrompterParams:
    """n_agg aggregation tokens of width dim and one level block per entry
    of level_dims, the width of that level's visual features."""
    return PrompterParams(
        f_agg=ad.param(rng.spawn(0).normal((n_agg, dim), std=AGG_INIT_STD)),
        self_attn=init_attn_block(dim, dim, dim, rng.spawn(1)),
        sem_attn=init_attn_block(dim, dim, dim, rng.spawn(2)),
        level_attn=[init_attn_block(dim, d_l, dim, rng.spawn(10 + l)) for l, d_l in enumerate(level_dims)],
    )


@dataclass
class KvCache:
    """Keys and values an attention block has projected so far. They are
    held as constants, so a later call's graph does not reach back into the
    graph of the call that projected them."""

    k: Tensor | None = None
    v: Tensor | None = None

    @property
    def rows(self) -> int:
        return 0 if self.k is None else self.k.value.shape[0]

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """The cached keys and values followed by k and v; the cache keeps
        the result for the next call."""
        if self.k is not None:
            k = ad.concat([self.k, k], axis=0)
            v = ad.concat([self.v, v], axis=0)
        self.k, self.v = ad.const(k.value), ad.const(v.value)
        return k, v


def attention_output(block: AttnBlockParams, q_in: Tensor, ctx: Tensor, heads: int,
                     causal_bias: np.ndarray | None = None, cache: KvCache | None = None) -> Tensor:
    """Multi-head attention without residual: project, split columns into
    heads, scaled-dot attention per head, concatenate, output-project. With
    `cache`, the queries attend to the cached keys and values followed by
    those of `ctx`, which join the cache."""
    d = block.wq.value.shape[1]
    if d % heads != 0:
        raise ShapeError(f"attention: dim {d} not divisible by heads {heads}")
    if q_in.value.shape[1] != block.wq.value.shape[0]:
        raise ShapeError(
            f"attention: query dim {q_in.value.shape[1]} != wq rows {block.wq.value.shape[0]}"
        )
    if ctx.value.shape[1] != block.wk.value.shape[0]:
        raise ShapeError(
            f"attention: context dim {ctx.value.shape[1]} != wk rows {block.wk.value.shape[0]}"
        )
    dk = d // heads
    q = ad.matmul(q_in, block.wq)
    k = ad.matmul(ctx, block.wk)
    v = ad.matmul(ctx, block.wv)
    if cache is not None:
        k, v = cache.extend(k, v)
    inv_sqrt = 1.0 / math.sqrt(dk)
    head_outs = []
    for h in range(heads):
        qh = ad.narrow(q, 1, h * dk, dk)
        kh = ad.narrow(k, 1, h * dk, dk)
        vh = ad.narrow(v, 1, h * dk, dk)
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), inv_sqrt)
        if causal_bias is not None:
            scores = scores + ad.const(causal_bias)
        head_outs.append(ad.matmul(ad.softmax_rows(scores), vh))
    return ad.matmul(ad.concat(head_outs, axis=1), block.wo)


def aggregate_query_graph(params: PrompterParams, f_user: Tensor, heads: int) -> Tensor:
    """Self-attend concat(f_agg, f_user) and keep the aggregation rows."""
    n_agg, dim = params.f_agg.value.shape
    if f_user.value.shape[1] != dim:
        raise ShapeError(f"aggregate_query_graph: f_user dim {f_user.value.shape[1]} != {dim}")
    f_in = ad.concat([params.f_agg, f_user], axis=0)
    f_out = f_in + attention_output(params.self_attn, ad.layer_norm_rows(f_in), f_in, heads)
    return ad.narrow(f_out, 0, 0, n_agg)


def attend_semantics_graph(params: PrompterParams, z1: Tensor, f_semantic: Tensor, heads: int) -> Tensor:
    return z1 + attention_output(params.sem_attn, ad.layer_norm_rows(z1), f_semantic, heads)


def attend_level_graph(params: PrompterParams, z2: Tensor, f_vis_l: Tensor, level: int, heads: int) -> Tensor:
    levels = len(params.level_attn)
    if not 1 <= level <= levels:
        raise ShapeError(f"attend_level_graph: level {level} out of range 1..{levels}")
    return z2 + attention_output(params.level_attn[level - 1], ad.layer_norm_rows(z2), f_vis_l, heads)


def build_prompt_graph(params: PrompterParams, f_user: Tensor, f_semantic: Tensor,
                       f_vis: list[Tensor], heads: int) -> Tensor:
    """Prompt matrix of shape (n_agg * levels, dim); row block l comes from
    visual level l (level order preserved)."""
    if len(f_vis) != len(params.level_attn):
        raise ShapeError(f"build_prompt_graph: got {len(f_vis)} visual levels, expected {len(params.level_attn)}")
    z1 = aggregate_query_graph(params, f_user, heads)
    z2 = attend_semantics_graph(params, z1, f_semantic, heads)
    blocks = [attend_level_graph(params, z2, f, l, heads) for l, f in enumerate(f_vis, start=1)]
    return ad.concat(blocks, axis=0)
