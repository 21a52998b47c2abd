"""Level-routed low-rank expert layer.

The layer sees each hidden row's level: 0 on image and query rows, l on a
level-l semantic prompt row. Each of the L experts is a bias-free linear
bottleneck (rank-reduction u: d_h x d_r followed by rank-expansion
v: d_r x d_h, applied to row tokens as x @ u @ v). Every expert reads every
row, and the gate alone routes: level-0 rows mix all L expert outputs
through a per-row softmax gate, while a level-l row weights expert l's
output by one and every other expert's by exactly zero, so only its own
level's expert reaches it. The layer returns only the merged expert
output; the transformer block that holds it adds the merge to its FFN of
the same input.
"""

from __future__ import annotations

import math
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

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for l, ex in enumerate(self.experts, start=1):
            out.append((f"{prefix}experts.u{l}", ex.u))
            out.append((f"{prefix}experts.v{l}", ex.v))
        out.append((f"{prefix}gate.wg", self.gate_w))
        return out


def init_ffn(d_in: int, d_inner: int, d_out: int, rng: Rng) -> FfnParams:
    return FfnParams(
        w1=ad.const(rng.normal((d_in, d_inner), std=1.0 / math.sqrt(d_in))),
        b1=ad.const(rng.zeros((1, d_inner))),
        w2=ad.const(rng.normal((d_inner, d_out), std=1.0 / math.sqrt(d_inner))),
        b2=ad.const(rng.zeros((1, d_out))),
    )


def init_expert_layer(d_h: int, d_r: int, levels: int, rng: Rng) -> ExpertLayerParams:
    """U Gaussian, V zero (the merge starts at exactly zero), gate zero
    (uniform)."""
    if d_r >= d_h:
        raise ShapeError(f"expert rank d_r {d_r} must be < d_h {d_h}")
    experts = [
        ExpertParams(
            u=ad.const(rng.spawn(l).normal((d_h, d_r), std=0.02)),
            v=ad.const(rng.zeros((d_r, d_h))),
        )
        for l in range(1, levels + 1)
    ]
    return ExpertLayerParams(experts=experts, gate_w=ad.const(rng.zeros((d_h, levels))))


def gate_weights_graph(gate_w: Tensor, hidden: Tensor, row_levels: np.ndarray) -> Tensor:
    """Per-row mixture weights: the softmax on level-0 rows, the one-hot of
    the row's own level elsewhere. `row_levels` holds each hidden row's
    level, one entry per row, each in 0..L."""
    levels = gate_w.value.shape[1]
    row_levels = np.asarray(row_levels)
    if row_levels.shape != hidden.value.shape[:1] or ((row_levels < 0) | (row_levels > levels)).any():
        raise ShapeError(f"row levels of shape {row_levels.shape}: need ({hidden.value.shape[0]},) "
                         f"with values in 0..{levels}")
    keep = row_levels[:, None] == 0
    onehot = row_levels[:, None] == np.arange(1, levels + 1)
    soft = ad.softmax_rows(ad.matmul(hidden, gate_w))
    return ad.mul(soft, ad.const(keep)) + ad.const(onehot)


def expert_block_graph(params: ExpertLayerParams, hidden: Tensor, row_levels: np.ndarray) -> Tensor:
    """The gated merge of all expert outputs; `row_levels` holds each
    hidden row's level (0 on image and query rows)."""
    gates = gate_weights_graph(params.gate_w, hidden, row_levels)
    merged = None
    for l, ex in enumerate(params.experts, start=1):
        h_l = ad.matmul(ad.matmul(hidden, ex.u), ex.v)
        weighted = ad.mul(h_l, ad.narrow(gates, 1, l - 1, 1))
        merged = weighted if merged is None else merged + weighted
    return merged


def ffn_graph(ffn: FfnParams, x: Tensor) -> Tensor:
    return ad.matmul(ad.silu(ad.matmul(x, ffn.w1) + ffn.b1), ffn.w2) + ffn.b2
