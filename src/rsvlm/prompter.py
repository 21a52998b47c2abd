"""Multi-level visual prompter: learnable aggregation tokens attend to the
user query (self-attention over the concatenation), then to the retrieved
semantic tokens, then to each visual level in parallel; the per-level
outputs are the prompt's level blocks, which the model places row-wise
into its sequence in level order.

The aggregation-token count and the width are `f_agg`'s shape, the level
count is the number of level blocks, and each graph function takes the
head count as `attention_output` does.

Attention blocks are multi-head with bias-free Q/K/V/output projections,
residual connections, and parameter-free layer normalization applied to the
query-side input of each block. Multi-head splitting is by column blocks:
head h owns columns [h*dk, (h+1)*dk) of the projected Q/K/V, where
dk = d / heads. One `ad.attention` node does the split, every head's
scaled-dot attention and the merge; the projections are ordinary matmuls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .numerics import Rng, ranges

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
        wq=ad.const(rng.normal((d_q_in, d), std=1.0 / math.sqrt(d_q_in))),
        wk=ad.const(rng.normal((d_ctx_in, d), std=1.0 / math.sqrt(d_ctx_in))),
        wv=ad.const(rng.normal((d_ctx_in, d), std=1.0 / math.sqrt(d_ctx_in))),
        wo=ad.const(rng.normal((d, d), std=1.0 / math.sqrt(d))),
    )


def init_prompter(n_agg: int, dim: int, level_dims: list[int], rng: Rng) -> PrompterParams:
    """n_agg aggregation tokens of width dim and one level block per entry
    of level_dims, the width of that level's visual features."""
    return PrompterParams(
        f_agg=ad.const(rng.spawn(0).normal((n_agg, dim), std=AGG_INIT_STD)),
        self_attn=init_attn_block(dim, dim, dim, rng.spawn(1)),
        sem_attn=init_attn_block(dim, dim, dim, rng.spawn(2)),
        level_attn=[init_attn_block(dim, d_l, dim, rng.spawn(10 + l)) for l, d_l in enumerate(level_dims)],
    )


class KvCache:
    """Keys and values an attention block has projected so far, written
    into buffers of `capacity` rows. They are handed out as constants, so a
    later call's graph does not reach back into the graph of the call that
    projected them."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows = 0
        self._k = self._v = None

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """The cached keys and values followed by k and v, as views of the
        buffers; k and v stay in the cache for the next call."""
        end = self.rows + k.value.shape[0]
        if end > self.capacity:
            raise ShapeError(f"K/V cache of {self.capacity} rows cannot take {end}")
        if self._k is None:
            self._k = np.empty((self.capacity, k.value.shape[1]))
            self._v = np.empty((self.capacity, v.value.shape[1]))
        self._k[self.rows : end] = k.value
        self._v[self.rows : end] = v.value
        self.rows = end
        return ad.const(self._k[:end]), ad.const(self._v[:end])


def attention_output(block: AttnBlockParams, q_in: Tensor, ctx: Tensor, heads: int,
                     q_lens, k_lens, causal: bool = False, cache: KvCache | None = None) -> Tensor:
    """Multi-head attention without residual: project, attend with
    `ad.attention` (one node for every head and sample), output-project.
    `q_lens`/`k_lens` are the per-sample row counts of the stacked `q_in`
    and `ctx`. With `cache`, the queries attend to the cached keys and
    values followed by those of `ctx`, which join the cache, and `k_lens`
    counts the cached rows too."""
    if q_in.value.shape[1] != block.wq.value.shape[0]:
        raise ShapeError(
            f"attention: query dim {q_in.value.shape[1]} != wq rows {block.wq.value.shape[0]}"
        )
    if ctx.value.shape[1] != block.wk.value.shape[0]:
        raise ShapeError(
            f"attention: context dim {ctx.value.shape[1]} != wk rows {block.wk.value.shape[0]}"
        )
    q = ad.matmul(q_in, block.wq)
    k = ad.matmul(ctx, block.wk)
    v = ad.matmul(ctx, block.wv)
    if cache is not None:
        k, v = cache.extend(k, v)
    return ad.matmul(ad.attention(q, k, v, heads, q_lens, k_lens, causal), block.wo)


def aggregate_query_graph(params: PrompterParams, f_user: Tensor, heads: int, user_lens) -> Tensor:
    """Per sample, the aggregation rows of [f_agg; that sample's user rows]
    after self-attention over those rows: (samples * n_agg) x dim,
    sample-major. `user_lens` counts each sample's rows of the stacked
    `f_user`. Only the aggregation rows are kept, so only they are
    queried."""
    n_agg, dim = params.f_agg.value.shape
    if f_user.value.shape[1] != dim:
        raise ShapeError(f"aggregate_query_graph: f_user dim {f_user.value.shape[1]} != {dim}")
    user_lens = list(user_lens)
    if sum(user_lens) != f_user.value.shape[0]:
        raise ShapeError(f"aggregate_query_graph: user lengths {user_lens} != {f_user.value.shape[0]} rows")
    samples = len(user_lens)
    # The table's rows n_agg.. are the user rows, sample after sample.
    table = ad.concat([params.f_agg, f_user], axis=0)
    starts, lens, u0 = [], [], n_agg
    for n in user_lens:
        starts += [0, u0]
        lens += [n_agg, n]
        u0 += n
    f_in = ad.embedding(table, ranges(starts, lens))
    z0 = ad.concat([params.f_agg] * samples, axis=0)
    return cross_attend_graph(params.self_attn, z0, f_in, heads, [n_agg + n for n in user_lens])


def cross_attend_graph(block: AttnBlockParams, z: Tensor, ctx: Tensor, heads: int, ctx_lens) -> Tensor:
    """Each sample's n_agg rows of z attend to its rows of the stacked
    context `ctx`, counted by `ctx_lens`, plus the residual."""
    n_agg = z.value.shape[0] // len(ctx_lens)
    return z + attention_output(block, ad.layer_norm_rows(z), ctx, heads, (n_agg,) * len(ctx_lens), ctx_lens)


def build_prompt_graph(params: PrompterParams, f_user: Tensor, f_semantic: Tensor,
                       f_vis: list[Tensor], heads: int, user_lens, sem_lens, vis_lens) -> list[Tensor]:
    """Prompt rows of a batch whose samples' user, semantic and visual rows
    are stacked and counted by `user_lens`, `sem_lens` and `vis_lens`: one
    (samples * n_agg) x dim block per visual level, in level order, each
    holding every sample's n_agg rows in sample order."""
    if len(f_vis) != len(params.level_attn):
        raise ShapeError(f"build_prompt_graph: got {len(f_vis)} visual levels, expected {len(params.level_attn)}")
    z1 = aggregate_query_graph(params, f_user, heads, user_lens)
    z2 = cross_attend_graph(params.sem_attn, z1, f_semantic, heads, sem_lens)
    return [cross_attend_graph(block, z2, f, heads, vis_lens) for block, f in zip(params.level_attn, f_vis)]
