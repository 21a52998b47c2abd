"""Independent numpy references that the benchmark judges the program by.

`forward_logits` recomputes the model's forward from the parameter arrays
alone, read by their checkpoint (RSCK) names. It shares no code with the
autodiff graph functions of `rsvlm.model`: attention splits heads with a
reshape instead of column slices, and the expert layer is written from the
routing rules in `rsvlm.expert_layer`'s docstring.

`oracle_top_k` is the exact retrieval definition: each stored float32
embedding widened to float64 and dotted with the normalised query, one row
at a time, then sorted by (-score, id).
"""

from __future__ import annotations

import numpy as np

EOS_ID = 256
SEP_ID = 257
LN_EPS = 1e-5
CAUSAL_BIAS = -1e30
TIE_MARGIN = 1e-9


def params_of(model) -> dict[str, np.ndarray]:
    return {name: t.value for name, t in model.named_parameters()}


def _ln(x):
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention(p, prefix, q_in, ctx, heads, causal=False):
    q = q_in @ p[prefix + ".wq"]
    k = ctx @ p[prefix + ".wk"]
    v = ctx @ p[prefix + ".wv"]
    d = q.shape[1]
    dk = d // heads
    qh = q.reshape(q.shape[0], heads, dk).transpose(1, 0, 2)
    kh = k.reshape(k.shape[0], heads, dk).transpose(1, 0, 2)
    vh = v.reshape(v.shape[0], heads, dk).transpose(1, 0, 2)
    scores = np.einsum("hqd,hkd->hqk", qh, kh) / np.sqrt(dk)
    if causal:
        scores = scores + np.triu(np.full(scores.shape[1:], CAUSAL_BIAS), k=1)
    out = np.einsum("hqk,hkd->hqd", _softmax(scores), vh)
    return out.transpose(1, 0, 2).reshape(q.shape[0], d) @ p[prefix + ".wo"]


def _ffn(p, prefix, x):
    h = x @ p[prefix + ".w1"] + p[prefix + ".b1"]
    return (h / (1.0 + np.exp(-h))) @ p[prefix + ".w2"] + p[prefix + ".b2"]


def _visual_taps(p, cfg, patches):
    taps_at = {max(1, (i * cfg.visual_blocks) // cfg.levels) for i in range(1, cfg.levels + 1)}
    x = patches @ p["visual.patch_embed.w"] + p["visual.patch_embed.b"]
    taps = []
    for i in range(1, cfg.visual_blocks + 1):
        a = _ln(x)
        x = x + _attention(p, f"visual.block{i}.attn", a, a, cfg.visual_heads)
        x = x + _ffn(p, f"visual.block{i}.mlp", _ln(x))
        if i in taps_at:
            taps.append(x)
    return taps


def _prompt(p, cfg, query_ids, semantic_ids, taps):
    embed = p["lm.embed"]
    f_in = np.concatenate([p["prompter.f_agg"], embed[query_ids]], axis=0)
    f_out = f_in + _attention(p, "prompter.self_attn", _ln(f_in), f_in, cfg.prompter_heads)
    z1 = f_out[: cfg.n_agg]
    z2 = z1 + _attention(p, "prompter.sem_attn", _ln(z1), embed[semantic_ids], cfg.prompter_heads)
    return np.concatenate([
        z2 + _attention(p, f"prompter.level_attn{l}", _ln(z2), taps[l - 1], cfg.prompter_heads)
        for l in range(1, cfg.levels + 1)
    ], axis=0)


def _experts(p, prefix, h, level_of_row, levels):
    """level_of_row: 0 for image and query rows, l for level-l prompt rows."""
    soft = _softmax(h @ p[prefix + "gate.wg"])
    out = _ffn(p, prefix + "ffn", h)
    for l in range(1, levels + 1):
        routed = (level_of_row == 0) | (level_of_row == l)
        h_l = np.where(routed[:, None], h, 0.0) @ p[f"{prefix}experts.u{l}"] @ p[f"{prefix}experts.v{l}"]
        gate = np.where(level_of_row == 0, soft[:, l - 1], (level_of_row == l).astype(np.float64))
        out = out + gate[:, None] * h_l
    return out


def forward_logits(p, cfg, patches, query_ids, semantic_ids, seq_ids) -> np.ndarray:
    """Logits at every position of [image; prompt levels; seq_ids]."""
    patches = np.asarray(patches, dtype=np.float64)
    taps = _visual_taps(p, cfg, patches)
    prompt = _prompt(p, cfg, np.asarray(query_ids), np.asarray(semantic_ids), taps)
    img = taps[-1] @ p["projector.w"] + p["projector.b"]
    x = np.concatenate([img, prompt, p["lm.embed"][np.asarray(seq_ids)]], axis=0)
    level_of_row = np.concatenate([
        np.zeros(img.shape[0], dtype=np.int64),
        np.repeat(np.arange(1, cfg.levels + 1), cfg.n_agg),
        np.zeros(len(seq_ids), dtype=np.int64),
    ])
    x = x + p["lm.pos"][: x.shape[0]]
    for i in range(1, cfg.lm_blocks + 1):
        a = _ln(x)
        x = x + _attention(p, f"lm.block{i}.attn", a, a, cfg.heads, causal=True)
        h = _ln(x)
        if i % cfg.expert_stride == 0:
            x = x + _experts(p, f"lm.block{i}.", h, level_of_row, cfg.levels)
        else:
            x = x + _ffn(p, f"lm.block{i}.ffn", h)
    return _ln(x) @ p["lm.head"]


def sample_cross_entropy(p, cfg, sample) -> float:
    """Mean cross-entropy over the response and EOS, as sample_loss defines it."""
    seq_ids = list(sample.query_ids) + [SEP_ID] + list(sample.response_ids) + [EOS_ID]
    logits = forward_logits(p, cfg, sample.patches, sample.query_ids, sample.semantic_ids, seq_ids)
    first = logits.shape[0] - len(seq_ids) + len(sample.query_ids)
    targets = list(sample.response_ids) + [EOS_ID]
    rows = logits[first : first + len(targets)]
    mx = rows.max(axis=1)
    lse = mx + np.log(np.exp(rows - mx[:, None]).sum(axis=1))
    return float(np.mean(lse - rows[np.arange(len(targets)), targets]))


def greedy_problems(p, cfg, patches, query_ids, semantic_ids, out, cap) -> list[str]:
    """Judge a greedy generation against the reference logits: each token is
    the argmax (lowest id on ties) and decoding stopped at EOS or at the cap.
    Positions whose top two logits lie within TIE_MARGIN are not judged."""
    seq_ids = list(query_ids) + [SEP_ID] + list(out)
    logits = forward_logits(p, cfg, patches, query_ids, semantic_ids, seq_ids)
    first = logits.shape[0] - len(out) - 1
    problems = []
    for j in range(len(out) + (1 if len(out) < cap else 0)):
        row = logits[first + j]
        top2 = np.sort(row)[-2:]
        if top2[1] - top2[0] <= TIE_MARGIN:
            continue
        want = int(np.argmax(row))
        got = out[j] if j < len(out) else EOS_ID
        if got != want:
            problems.append(f"position {j}: generated {got}, reference argmax {want}")
    if len(out) > cap or EOS_ID in out:
        problems.append(f"{len(out)} tokens for cap {cap}, or EOS inside the output")
    return problems


def oracle_top_k(embeddings, ids, query, k) -> list[tuple[int, float]]:
    """Exact top-k: per-row float64 dot with the unit query, clipped to
    [-1, 1], sorted by (-score, id)."""
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    unit = q / np.linalg.norm(q)
    rows = np.asarray(embeddings, dtype=np.float64)  # float32 widens exactly
    scored = [(-min(max(float(np.dot(row, unit)), -1.0), 1.0), int(i)) for row, i in zip(rows, ids)]
    scored.sort()
    return [(i, -s) for s, i in scored[:k]]
