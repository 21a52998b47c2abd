"""Level-routed low-rank expert layer.

Token sequences are tagged by segment: image tokens, semantic prompt tokens
of level l, and query tokens. Each of the L experts is a bias-free linear
bottleneck (rank-reduction u: d_h x d_r followed by rank-expansion
v: d_r x d_h, applied to row tokens as x @ u @ v). The deterministic router
zeroes every token outside {image, semantic level l, query} before expert l.
Image and query tokens mix expert outputs through a per-token softmax gate;
semantic tokens take their own level's output with coefficient one. The
merged expert output is added to a standard two-layer FFN of the same input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .numerics import Rng

IMAGE = "image"
SEMANTIC = "semantic"
QUERY = "query"


@dataclass(frozen=True)
class Seg:
    kind: str
    level: int = 0


IMG_TAG = Seg(IMAGE)
QUERY_TAG = Seg(QUERY)


def sem_tag(level: int) -> Seg:
    if level < 1:
        raise ShapeError(f"semantic level must be >= 1, got {level}")
    return Seg(SEMANTIC, level)


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


def build_mask(segments: list[Seg], level: int, num_levels: int) -> np.ndarray:
    """Length-T 0/1 vector keeping image, query, and level-l semantic tokens."""
    if not 1 <= level <= num_levels:
        raise ShapeError(f"build_mask: level {level} out of range 1..{num_levels}")
    for i, seg in enumerate(segments):
        if seg.kind == SEMANTIC and not 1 <= seg.level <= num_levels:
            raise ShapeError(f"segment {i}: semantic level {seg.level} out of range 1..{num_levels}")
    return np.array(
        [1.0 if seg.kind in (IMAGE, QUERY) or seg.level == level else 0.0 for seg in segments]
    )


def _check_segments(segments: list[Seg], rows: int, levels: int) -> None:
    """One tag per row, in the contiguous image / semantic(1..L) / query
    layout, with every semantic level an expert exists for."""
    if len(segments) != rows:
        raise ShapeError(f"segments length {len(segments)} != hidden rows {rows}")
    phase = 0  # 0 image, 1.. semantic levels, -1 query
    for i, seg in enumerate(segments):
        if seg.kind == IMAGE:
            if phase != 0:
                raise ShapeError(f"segment {i}: image token after non-image tokens")
        elif seg.kind == SEMANTIC:
            if phase == -1:
                raise ShapeError(f"segment {i}: semantic token after query tokens")
            if not 1 <= seg.level <= levels:
                raise ShapeError(f"segment {i}: semantic level {seg.level} out of range 1..{levels}")
            if not phase <= seg.level <= phase + 1:
                raise ShapeError(f"segment {i}: semantic level {seg.level} out of order after {phase}")
            phase = seg.level
        elif seg.kind == QUERY:
            phase = -1
        else:
            raise ShapeError(f"segment {i}: unknown kind {seg.kind!r}")


def gate_weights_graph(gate_w: Tensor, hidden: Tensor, segments: list[Seg], levels: int) -> Tensor:
    """Per-token mixture weights: softmax rows for image/query tokens, one-hot
    at the token's own level for semantic tokens."""
    soft = ad.softmax_rows(ad.matmul(hidden, gate_w))
    keep = np.array([[1.0] if seg.kind in (IMAGE, QUERY) else [0.0] for seg in segments])
    onehot = np.zeros((len(segments), levels))
    for t, seg in enumerate(segments):
        if seg.kind == SEMANTIC:
            onehot[t, seg.level - 1] = 1.0
    return ad.mul(soft, ad.const(keep)) + ad.const(onehot)


def expert_block_graph(params: ExpertLayerParams, hidden: Tensor, segments: list[Seg]) -> Tensor:
    """FFN(hidden) plus the gated merge of all masked expert outputs."""
    if hidden.value.shape[1] != params.d_h:
        raise ShapeError(f"expert block: hidden dim {hidden.value.shape[1]} != d_h {params.d_h}")
    _check_segments(segments, hidden.value.shape[0], params.levels)
    gates = gate_weights_graph(params.gate_w, hidden, segments, params.levels)
    merged = None
    for l, ex in enumerate(params.experts, start=1):
        bits = build_mask(segments, l, params.levels)[:, None]
        masked = ad.mul(hidden, ad.const(bits))
        h_l = ad.matmul(ad.matmul(masked, ex.u), ex.v)
        weighted = ad.mul(h_l, ad.narrow(gates, 1, l - 1, 1))
        merged = weighted if merged is None else merged + weighted
    ffn_out = ffn_graph(params.ffn, hidden)
    return ffn_out + merged


def ffn_graph(ffn: FfnParams, x: Tensor) -> Tensor:
    return ad.matmul(ad.silu(ad.matmul(x, ffn.w1) + ffn.b1), ffn.w2) + ffn.b2
