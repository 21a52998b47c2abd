"""Level-routed low-rank expert layer.

A token sequence is laid out as contiguous row blocks, described by one
tuple of row counts (n_image, n_level_1, ..., n_level_L, n_query): image
rows, then the semantic prompt rows of each level in level order, then the
query rows. Each of the L experts is a bias-free linear bottleneck
(rank-reduction u: d_h x d_r followed by rank-expansion v: d_r x d_h,
applied to row tokens as x @ u @ v). The deterministic router zeroes every
row outside {image, semantic level l, query} before expert l. Image and
query rows mix expert outputs through a per-row softmax gate; semantic rows
take their own level's output with coefficient one. The merged expert output
is added to a standard two-layer FFN of the same input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .numerics import Rng


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str):
        return [(f"{prefix}.w1", self.w1), (f"{prefix}.b1", self.b1),
                (f"{prefix}.w2", self.w2), (f"{prefix}.b2", self.b2)]


@dataclass
class ExpertParams:
    u: Tensor  # d_h x d_r rank reduction
    v: Tensor  # d_r x d_h rank expansion


@dataclass
class ExpertLayerParams:
    experts: list[ExpertParams]
    gate_w: Tensor  # d_h x L
    ffn: FfnParams

    @property
    def levels(self) -> int:
        return len(self.experts)

    @property
    def d_h(self) -> int:
        return self.experts[0].u.value.shape[0]

    @property
    def d_r(self) -> int:
        return self.experts[0].u.value.shape[1]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for l, ex in enumerate(self.experts, start=1):
            out.append((f"{prefix}experts.u{l}", ex.u))
            out.append((f"{prefix}experts.v{l}", ex.v))
        out.append((f"{prefix}gate.wg", self.gate_w))
        out += self.ffn.named(f"{prefix}ffn")
        return out


def init_ffn(d_in: int, d_inner: int, d_out: int, rng: Rng) -> FfnParams:
    return FfnParams(
        w1=ad.param(rng.normal((d_in, d_inner), std=1.0 / np.sqrt(d_in))),
        b1=ad.param(rng.zeros((1, d_inner))),
        w2=ad.param(rng.normal((d_inner, d_out), std=1.0 / np.sqrt(d_inner))),
        b2=ad.param(rng.zeros((1, d_out))),
    )


def init_expert_layer(d_h: int, d_r: int, levels: int, d_inner: int, rng: Rng) -> ExpertLayerParams:
    """U Gaussian, V zero (layer starts as an exact FFN), gate zero (uniform)."""
    if d_r >= d_h:
        raise ShapeError(f"expert rank d_r {d_r} must be < d_h {d_h}")
    experts = [
        ExpertParams(
            u=ad.param(rng.spawn(l).normal((d_h, d_r), std=0.02)),
            v=ad.param(rng.zeros((d_r, d_h))),
        )
        for l in range(1, levels + 1)
    ]
    return ExpertLayerParams(
        experts=experts,
        gate_w=ad.param(rng.zeros((d_h, levels))),
        ffn=init_ffn(d_h, d_inner, d_h, rng.spawn(100)),
    )


def expert_param_count(d_h: int, d_r: int) -> int:
    """Parameters of one low-rank expert: u plus v."""
    return 2 * d_h * d_r


def baseline_moe_param_count(d_h: int, d_i: int) -> int:
    """Parameters of a conventional gated-FFN expert (gate/up/down projections)."""
    return 3 * d_h * d_i


def _check_counts(counts: tuple[int, ...], rows: int, levels: int) -> None:
    """A layout is (n_image, n_level_1, ..., n_level_L, n_query): L + 2
    non-negative row counts summing to the hidden rows."""
    if len(counts) != levels + 2:
        raise ShapeError(f"segment counts {counts} end at semantic level {len(counts) - 2}, "
                         f"expected level {levels} (image, levels 1..{levels}, query)")
    if min(counts) < 0:
        raise ShapeError(f"segment counts {counts}: negative count")
    if sum(counts) != rows:
        raise ShapeError(f"segment counts {counts} sum to {sum(counts)} != hidden rows {rows}")


def route(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Routing arrays of a counts layout: the T x 1 keep column (1 on image
    and query rows) and the T x L one-hot rows (1 at each semantic row's own
    level)."""
    t = sum(counts)
    keep = np.zeros((t, 1))
    keep[: counts[0]] = 1.0
    keep[t - counts[-1] :] = 1.0
    onehot = np.zeros((t, len(counts) - 2))
    start = counts[0]
    for l, n in enumerate(counts[1:-1]):
        onehot[start : start + n, l] = 1.0
        start += n
    return keep, onehot


def build_mask(counts: tuple[int, ...], level: int) -> np.ndarray:
    """Length-T 0/1 vector keeping image, query, and level-l semantic rows."""
    levels = len(counts) - 2
    if not 1 <= level <= levels:
        raise ShapeError(f"build_mask: level {level} out of range 1..{levels}")
    _check_counts(counts, sum(counts), levels)
    keep, onehot = route(counts)
    return keep[:, 0] + onehot[:, level - 1]


def gate_weights_graph(gate_w: Tensor, hidden: Tensor, keep: np.ndarray, onehot: np.ndarray) -> Tensor:
    """Per-row mixture weights: softmax rows where `keep` is 1 (image and
    query rows), the `onehot` row of the row's own level elsewhere."""
    soft = ad.softmax_rows(ad.matmul(hidden, gate_w))
    return ad.mul(soft, ad.const(keep)) + ad.const(onehot)


def expert_block_graph(params: ExpertLayerParams, hidden: Tensor, counts: tuple[int, ...]) -> Tensor:
    """FFN(hidden) plus the gated merge of all masked expert outputs."""
    if hidden.value.shape[1] != params.d_h:
        raise ShapeError(f"expert block: hidden dim {hidden.value.shape[1]} != d_h {params.d_h}")
    _check_counts(counts, hidden.value.shape[0], params.levels)
    keep, onehot = route(counts)
    gates = gate_weights_graph(params.gate_w, hidden, keep, onehot)
    merged = None
    for l, ex in enumerate(params.experts, start=1):
        masked = ad.mul(hidden, ad.const(keep + onehot[:, l - 1 : l]))
        h_l = ad.matmul(ad.matmul(masked, ex.u), ex.v)
        weighted = ad.mul(h_l, ad.narrow(gates, 1, l - 1, 1))
        merged = weighted if merged is None else merged + weighted
    ffn_out = ffn_graph(params.ffn, hidden)
    return ffn_out + merged


def ffn_graph(ffn: FfnParams, x: Tensor) -> Tensor:
    return ad.matmul(ad.silu(ad.matmul(x, ffn.w1) + ffn.b1), ffn.w2) + ffn.b2
