import functools
import math
import tracemalloc

import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import dual_encoder as de
from rsvlm import model as vlm
from rsvlm.errors import ConfigError, ShapeError
from rsvlm.expert_layer import init_ffn
from rsvlm.model import EOS_ID, SEP_ID, ModelConfig, Sample, encode_text
from rsvlm.numerics import Rng
from rsvlm.training import caption_sample, instruction_sample
from synthetic import caption_corpus, instruction_corpus


def _small_cfg(**kw):
    base = dict(d_h=16, heads=2, lm_blocks=2, expert_stride=2, levels=2, d_r=4,
                d_i=24, n_agg=2, prompter_heads=2, patch_dim=6, d_v=8,
                visual_blocks=3, visual_heads=2, visual_inner=16, max_seq=128)
    base.update(kw)
    return ModelConfig(**base)


def _sample(cfg, seed=0, n_patches=3):
    rng = Rng(seed)
    return Sample(
        patches=rng.normal((n_patches, cfg.patch_dim)),
        query_ids=encode_text("what?"),
        response_ids=encode_text("ok"),
        semantic_ids=encode_text("scene"),
    )


def test_config_validation_collects_problems():
    with pytest.raises(ConfigError) as err:
        ModelConfig(d_h=16, d_r=16, heads=3, levels=0)
    probs = err.value.problems
    assert any("d_r" in p for p in probs)
    assert any("levels" in p for p in probs)
    assert any("heads" in p for p in probs)
    with pytest.raises(ConfigError) as err:
        ModelConfig(d_h="32", heads=2.0, levels=True)
    assert err.value.problems == ["d_h must be int, got '32'", "heads must be int, got 2.0",
                                  "levels must be int, got True"]
    with pytest.raises(ConfigError) as err:
        ModelConfig(heads=0, prompter_heads=0, visual_heads=0)
    assert err.value.problems == ["heads must be positive, got 0", "prompter_heads must be positive, got 0",
                                  "visual_heads must be positive, got 0"]
    with pytest.raises(ConfigError) as err:
        ModelConfig(n_agg=0, d_h=32, prompter_heads=3)
    assert err.value.problems == ["n_agg must be positive, got 0", "d_h 32 not divisible by prompter_heads 3"]
    with pytest.raises(ConfigError) as err:
        ModelConfig(lm_blocks=10**30, visual_blocks=10**30)
    assert err.value.problems == [f"lm_blocks must be <= {vlm.MAX_BLOCKS}, got {10**30}",
                                  f"visual_blocks must be <= {vlm.MAX_BLOCKS}, got {10**30}"]


def test_tokenizer_round_trip():
    def decode(ids):  # byte ids back to text, the special ids dropped
        return bytes(i for i in ids if 0 <= i < 256).decode("utf-8")

    ids = encode_text("scene: lake + étang")
    assert all(0 <= i < 256 for i in ids)
    assert decode(ids) == "scene: lake + étang"
    assert decode(ids + [EOS_ID, SEP_ID]) == "scene: lake + étang"


def test_semantic_token_ids_rank_order_and_cap():
    ids = vlm.semantic_token_ids(["ab", "cd"], cap=100)
    assert ids == encode_text("ab") + [SEP_ID] + encode_text("cd")
    assert vlm.semantic_token_ids(["abcdef"], cap=3) == encode_text("abc")
    assert vlm.semantic_token_ids([], cap=10) == [SEP_ID]


def test_tap_indices():
    assert _small_cfg(visual_blocks=6, levels=3).tap_indices() == [2, 4, 6]
    assert _small_cfg(visual_blocks=9, levels=3).tap_indices() == [3, 6, 9]
    assert _small_cfg().tap_indices() == [1, 3]


def test_expert_block_indices():
    cfg = _small_cfg(lm_blocks=8, expert_stride=4)
    assert cfg.expert_block_indices() == [4, 8]
    assert _small_cfg().expert_block_indices() == [2]


def test_named_parameters_pin_the_checkpoint_manifest():
    # RSCK files list their blocks by these names in this order
    def attn(p):
        return [f"{p}.w{x}" for x in "qkvo"]

    def ffn(p):
        return [f"{p}.{x}" for x in ("w1", "b1", "w2", "b2")]

    cfg = ModelConfig()
    model = vlm.init_model(cfg, seed=3)
    names = ["visual.patch_embed.w", "visual.patch_embed.b"]
    for i in (1, 2, 3):
        names += attn(f"visual.block{i}.attn") + ffn(f"visual.block{i}.mlp")
    names += ["prompter.f_agg", *attn("prompter.self_attn"), *attn("prompter.sem_attn"),
              *attn("prompter.level_attn1"), *attn("prompter.level_attn2"),
              "projector.w", "projector.b", "lm.embed", "lm.pos"]
    for i in (1, 2, 3):
        names += attn(f"lm.block{i}.attn") + ffn(f"lm.block{i}.ffn")
    names += attn("lm.block4.attn") + ["lm.block4.experts.u1", "lm.block4.experts.v1",
                                       "lm.block4.experts.u2", "lm.block4.experts.v2", "lm.block4.gate.wg"]
    names += ffn("lm.block4.ffn") + ["lm.head"]
    assert [n for n, _ in model.named_parameters()] == names
    # an expert block's FFN comes from a child of its expert layer's stream
    (i,) = cfg.expert_block_indices()
    want = init_ffn(cfg.d_h, cfg.d_i, cfg.d_h, Rng(3).spawn(4).spawn(200 + i).spawn(100))
    got = model.lm.blocks[i - 1].ffn
    assert all(np.array_equal(a.value, b.value) for (_, a), (_, b) in zip(got.named("f"), want.named("f")))


def _sequence(model, seed, n_img, ids):
    """Assembled rows (projected image tokens, a random prompt, embedded ids)
    and their row-count layout."""
    cfg = model.config
    rng = Rng(seed)
    img = rng.normal((n_img, cfg.d_v)) @ model.proj_w.value + model.proj_b.value
    prompt = rng.normal((cfg.n_agg * cfg.levels, cfg.d_h))
    hidden = np.concatenate([img, prompt, model.lm.embed.value[np.asarray(ids)]], axis=0)
    return hidden, vlm._segments_for(model, n_img, len(ids))


def _row_levels(counts):
    """Each row's level in a one-sample layout: 0 on image and query rows."""
    return np.repeat(np.r_[: len(counts) - 1, 0], counts)


def _forward_lm(model, hidden, counts, targets):
    logits = vlm._lm_logits_graph(model, ad.const(hidden), [sum(counts)], _row_levels(counts))
    return float(ad.cross_entropy(logits, targets).value), logits.value


def test_encode_multilevel_shapes_and_distinct_taps():
    cfg = _small_cfg(visual_blocks=6, levels=3)
    model = vlm.init_model(cfg, seed=1)
    patches = Rng(2).normal((5, cfg.patch_dim))
    taps = [t.value for t in vlm._encode_multilevel_graph(model, ad.const(patches), [5])]
    assert len(taps) == 3
    assert all(t.shape == (5, cfg.d_v) for t in taps)
    assert not np.allclose(taps[0], taps[1])
    assert not np.allclose(taps[1], taps[2])
    # attention refuses a sample of no rows
    with pytest.raises(ShapeError):
        vlm._encode_multilevel_graph(model, ad.const(np.zeros((0, cfg.patch_dim))), [0])


def test_assemble_sequence_tags_and_counts():
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=3)
    sample = Sample(patches=Rng(4).normal((2, cfg.patch_dim)), query_ids=[5])
    hidden, lens, row_levels = vlm._sequence_graph(model, [sample], [[5]])
    assert hidden.value.shape == (2 + 4 + 1, cfg.d_h)
    assert lens == [7]
    assert row_levels.tolist() == [0, 0, 1, 1, 2, 2, 0]


def test_assemble_sequence_full_scale_arithmetic():
    cfg = ModelConfig(d_h=16, heads=2, lm_blocks=2, expert_stride=2, levels=3,
                      d_r=4, d_i=24, n_agg=144, prompter_heads=2, patch_dim=6,
                      d_v=8, visual_blocks=3, visual_heads=2, visual_inner=16,
                      max_seq=512)
    model = vlm.init_model(cfg, seed=5)
    counts = vlm._segments_for(model, 10, 7)
    assert sum(counts) == 449
    assert counts == (10, 144, 144, 144, 7)


def test_assemble_sequence_validations():
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=7)
    rng = Rng(8)
    with pytest.raises(ShapeError):
        Sample(patches=np.zeros((0, cfg.patch_dim)), query_ids=[1])
    hidden, counts = _sequence(model, 8, 2, [1])
    extra = np.concatenate([hidden, rng.normal((1, cfg.d_h))], axis=0)
    with pytest.raises(ShapeError):
        vlm._lm_logits_graph(model, ad.const(extra), [sum(counts)], _row_levels(counts))
    with pytest.raises(ShapeError):
        Sample(patches=rng.normal((2, cfg.patch_dim)), query_ids=[])


def test_forward_lm_uniform_baseline():
    cfg = _small_cfg(vocab=11)
    model = vlm.init_model(cfg, seed=9)
    hidden, counts = _sequence(model, 10, 3, [1, 2, 3])
    targets = np.full(hidden.shape[0], -1)
    targets[-3:] = [2, 3, 4]
    # zero head: logits exactly uniform, loss exactly ln(vocab)
    model.lm.head.value[:] = 0.0
    loss, logits = _forward_lm(model, hidden, counts, targets)
    assert loss == pytest.approx(math.log(cfg.vocab), abs=1e-12)
    assert logits.shape == (hidden.shape[0], cfg.vocab)
    # fresh random weights stay near the uniform baseline
    model2 = vlm.init_model(cfg, seed=11)
    loss2, _ = _forward_lm(model2, hidden, counts, targets)
    assert abs(loss2 - math.log(cfg.vocab)) < 0.75


def test_forward_lm_matches_per_position_oracle():
    cfg = _small_cfg(vocab=13)
    model = vlm.init_model(cfg, seed=12)
    hidden, counts = _sequence(model, 13, 2, [1, 2, 3, 4])
    targets = np.full(hidden.shape[0], -1)
    targets[-4:] = [2, 3, 4, 5]
    loss, logits = _forward_lm(model, hidden, counts, targets)
    total = 0.0
    for pos in range(hidden.shape[0]):
        if targets[pos] < 0:
            continue
        row = logits[pos]
        total += -math.log(math.exp(row[targets[pos]]) / np.exp(row).sum())
    assert loss == pytest.approx(total / 4.0, abs=1e-10)


def test_forward_lm_target_misalignment():
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=14)
    hidden, counts = _sequence(model, 15, 2, [1])
    with pytest.raises(ShapeError):
        _forward_lm(model, hidden, counts, np.array([1, 2]))
    with pytest.raises(ShapeError, match="1 targets for 2 query-segment rows"):
        vlm.token_loss_graph(model, _sample(cfg, seed=15), [1, 2], [2])


def test_causality_future_perturbation_bit_exact():
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=16)
    hidden, counts = _sequence(model, 17, 2, [1, 2, 3, 4, 5])
    targets = np.full(hidden.shape[0], -1)
    targets[-1] = 1
    _, logits = _forward_lm(model, hidden, counts, targets)
    bumped = hidden.copy()
    bumped[-1] += Rng(99).normal((cfg.d_h,))  # perturb the final position only
    _, logits2 = _forward_lm(model, bumped, counts, targets)
    assert np.array_equal(logits[:-1], logits2[:-1])
    assert not np.allclose(logits[-1], logits2[-1])


def test_sample_loss_is_deterministic():
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=18)
    sample = _sample(cfg, seed=19)
    assert vlm.sample_loss(model, sample) == vlm.sample_loss(model, sample)


def test_generate_max_tokens_zero_and_determinism():
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=20)
    sample = _sample(cfg, seed=21)
    assert vlm.generate(model, sample.patches, sample.query_ids, 0) == []
    a = vlm.generate(model, sample.patches, sample.query_ids, 8,
                     semantic_ids=sample.semantic_ids)
    b = vlm.generate(model, sample.patches, sample.query_ids, 8,
                     semantic_ids=sample.semantic_ids)
    assert a == b
    assert len(a) <= 8


def test_checkpoint_round_trip_byte_identical(tmp_path):
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=22)
    p1, p2 = tmp_path / "m1.rsck", tmp_path / "m2.rsck"
    vlm.save_checkpoint(model, p1)
    loaded = vlm.load_checkpoint(p1)
    vlm.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.config == model.config
    sample = _sample(cfg, seed=23)
    # float32 round trip quantizes, so compare losses loosely
    assert vlm.sample_loss(loaded, sample) == pytest.approx(vlm.sample_loss(model, sample), abs=1e-4)


def test_checkpoint_rejects_corruption(tmp_path):
    from rsvlm.errors import FormatError
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=24)
    path = tmp_path / "m.rsck"
    vlm.save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    bad = tmp_path / "bad.rsck"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        vlm.load_checkpoint(bad)
    trunc = tmp_path / "trunc.rsck"
    trunc.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError, match="truncated"):
        vlm.load_checkpoint(trunc)


def test_init_model_seed_determinism():
    cfg = _small_cfg()
    m1 = vlm.init_model(cfg, seed=5)
    m2 = vlm.init_model(cfg, seed=5)
    m3 = vlm.init_model(cfg, seed=6)
    names1 = dict(m1.named_parameters())
    assert all(np.array_equal(t.value, names1[n].value) for n, t in m2.named_parameters())
    assert any(not np.array_equal(t.value, names1[n].value) for n, t in m3.named_parameters())


def test_max_seq_enforced():
    cfg = _small_cfg(max_seq=8)
    model = vlm.init_model(cfg, seed=25)
    sample = _sample(cfg, seed=26)
    with pytest.raises(ShapeError, match="max_seq"):
        vlm.sample_loss(model, sample)


def test_generate_stops_at_max_seq():
    cfg = _small_cfg(max_seq=16)
    model = vlm.init_model(cfg, seed=27)
    model.lm.head.value[:] = 0.0  # uniform logits: argmax is id 0, never EOS
    patches = Rng(28).normal((3, cfg.patch_dim))
    # 3 patches + 2 * 2 prompt rows + 3 query tokens + SEP = an 11-row prefix
    assert vlm.generate(model, patches, [1, 2, 3], 6) == [0] * 6
    assert vlm.generate(model, patches, [1, 2, 3], 7) == [0] * 6
    with pytest.raises(ShapeError, match="prefix of 21 rows"):
        vlm.generate(model, patches, list(range(1, 14)), 1)


def _with_experts(model, seed):
    """Non-zero expert V and gate, so the routed experts change the logits."""
    rng = Rng(seed)
    for name, t in model.named_parameters():
        if ".experts.v" in name or name.endswith(".gate.wg"):
            t.value = rng.normal(t.value.shape, std=0.3)
    return model


def _recorded_logits(monkeypatch, record):
    """Wrap the module's LM forward so each call's result is passed to `record`."""
    forward = vlm._lm_logits_graph

    def wrapped(*args, **kwargs):
        logits = forward(*args, **kwargs)
        record(logits)
        return logits

    monkeypatch.setattr(vlm, "_lm_logits_graph", wrapped)


def _recompute_oracle(model, sample, max_tokens):
    """Greedy decoding that reruns the whole sequence for every token; the
    tokens and each step's last-row logits."""
    out, steps = [], []
    while len(out) < max_tokens:
        seq = list(sample.query_ids) + [SEP_ID] + out
        hidden, lens, row_levels = vlm._sequence_graph(model, [sample], [seq])
        steps.append(vlm._lm_logits_graph(model, hidden, lens, row_levels).value[-1])
        nxt = int(np.argmax(steps[-1]))
        if nxt == EOS_ID:
            break
        out.append(nxt)
    return out, steps


@pytest.mark.parametrize("expert_stride,seed", [(1, 40), (2, 41), (1, 42), (2, 43)])
def test_cached_generate_matches_recompute_oracle(monkeypatch, expert_stride, seed):
    cfg = _small_cfg(expert_stride=expert_stride, heads=4, max_seq=48)
    model = _with_experts(vlm.init_model(cfg, seed=seed), seed)
    sample = _sample(cfg, seed=seed + 100)
    want, want_steps = _recompute_oracle(model, sample, 20)
    steps = []
    _recorded_logits(monkeypatch, lambda logits: steps.append(logits.value[-1]))
    got = vlm.generate(model, sample.patches, sample.query_ids, 20, semantic_ids=sample.semantic_ids)
    assert got == want
    assert len(steps) == len(want_steps)
    for a, b in zip(steps, want_steps):
        assert np.max(np.abs(a - b)) <= 1e-10


@pytest.mark.parametrize("expert_stride", [1, 2])
def test_cached_generate_ends_exactly_at_max_seq(monkeypatch, expert_stride):
    cfg = _small_cfg(expert_stride=expert_stride, max_seq=24)
    model = _with_experts(vlm.init_model(cfg, seed=44), 44)
    model.lm.head.value[:, EOS_ID] = 0.0  # EOS logit 0, below the largest of the 257 others
    sample = _sample(cfg, seed=45)
    # 3 patches + 2 * 2 prompt rows + 5 query tokens + SEP = a 13-row prefix
    fits = cfg.max_seq - 13 + 1
    want, want_steps = _recompute_oracle(model, sample, fits)
    assert len(want) == fits
    rows, steps = [], []
    forward = vlm._lm_logits_graph

    def record(model, hidden, *args, **kwargs):
        rows.append(hidden.value.shape[0])  # the hidden rows each call runs
        logits = forward(model, hidden, *args, **kwargs)
        steps.append(logits.value[-1])
        return logits

    monkeypatch.setattr(vlm, "_lm_logits_graph", record)
    got = vlm.generate(model, sample.patches, sample.query_ids, fits + 5, semantic_ids=sample.semantic_ids)
    assert got == want
    assert rows == [13] + [1] * (fits - 1)  # no step after the last token
    assert 13 + len(rows) - 1 == cfg.max_seq
    for a, b in zip(steps, want_steps):
        assert np.max(np.abs(a - b)) <= 1e-10


def test_cached_chunks_match_one_pass():
    cfg = _small_cfg(heads=4)
    model = _with_experts(vlm.init_model(cfg, seed=46), 46)
    hidden, counts = _sequence(model, 47, 3, [1, 2, 3, 4, 5, 6])
    levels = _row_levels(counts)
    whole = vlm._lm_logits_graph(model, ad.const(hidden), [13], levels).value
    cache = [vlm.KvCache(cfg.max_seq) for _ in model.lm.blocks]
    assert counts == (3, 2, 2, 6)
    head = vlm._lm_logits_graph(model, ad.const(hidden[:9]), [9], levels[:9], cache).value
    tail = vlm._lm_logits_graph(model, ad.const(hidden[9:]), [4], levels[9:], cache).value
    assert cache[0].rows == hidden.shape[0]
    assert np.max(np.abs(np.concatenate([head, tail]) - whole)) <= 1e-10
    with pytest.raises(ShapeError, match="sequence length 129 exceeds max_seq 128"):
        vlm._lm_logits_graph(model, ad.const(np.zeros((cfg.max_seq - 12, cfg.d_h))),
                             [cfg.max_seq - 12], np.zeros(cfg.max_seq - 12, int), cache)


def _graph(root) -> list:
    """The nodes reachable from `root` through their parents."""
    seen, nodes = {id(root)}, [root]
    for node in nodes:
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
    return nodes


def _graph_nodes(root) -> int:
    return len(_graph(root))


def _differentiating(*holders):
    """Every parameter of the given models and encoders differentiated, as
    in a training run that updates them all."""
    return ad.differentiating([t for holder in holders for _, t in holder.named_parameters()])


def test_decode_step_graph_does_not_grow(monkeypatch):
    cfg = _small_cfg()
    model = _with_experts(vlm.init_model(cfg, seed=48), 48)
    model.lm.head.value[:, EOS_ID] = 0.0
    sample = _sample(cfg, seed=49)
    nodes = []
    _recorded_logits(monkeypatch, lambda logits: nodes.append(_graph_nodes(logits)))
    assert len(vlm.generate(model, sample.patches, sample.query_ids, 31)) == 31
    prefill, decode = nodes[0], nodes[1:]
    assert len(decode) == 30
    assert decode[0] == decode[29] and len(set(decode)) == 1
    # generation records no graph: the prefill's and every step's logits have no parents
    assert prefill == decode[0] == 1


def test_tape_free_forwards_match_recorded_ones_bit_exact():
    # generation, the retriever's encoders and sample_loss run tape-free;
    # with every parameter differentiated they record graphs and give the
    # same bits
    cfg = _small_cfg()
    model = _with_experts(vlm.init_model(cfg, seed=60), 60)
    model.lm.head.value[:, EOS_ID] = 0.0
    enc = de.init_params(d_img_raw=6, d_e=8, vocab=24, hidden=10, seed=61)
    samples = [_sample(cfg, seed=62 + i, n_patches=2 + i) for i in range(3)]

    def forwards():
        return [(de.encode_image(enc, s.patches.mean(axis=0)), de.encode_text(enc, [i, 3, i + 7]),
                 vlm.sample_loss(model, s), vlm.generate(model, s.patches, s.query_ids, 12, s.semantic_ids))
                for i, s in enumerate(samples)]

    tape_free = forwards()
    with _differentiating(model, enc):
        recorded = forwards()
    for (img, txt, loss, tokens), (img_r, txt_r, loss_r, tokens_r) in zip(tape_free, recorded):
        assert np.array_equal(img, img_r) and np.array_equal(txt, txt_r)
        assert loss.hex() == loss_r.hex()
        assert tokens == tokens_r and len(tokens) == 12


def test_attention_output_is_one_attention_node():
    # x, the four projections, q, k, v, the attention node and the output
    model = vlm.init_model(_small_cfg(), seed=50)
    x = ad.const(Rng(51).normal((5, 16)))
    with _differentiating(model):
        assert _graph_nodes(vlm.attention_output(model.lm.blocks[0].attn, x, x, 2, [5], [5])) == 10


def test_caption_loss_graph_size():
    # 11 attention calls of one node each keep a toy caption sample's loss
    # graph small; a per-head split builds 440 nodes
    cfg = ModelConfig()
    sample = caption_sample(Rng(52).normal((4, cfg.patch_dim)), "aaaa bbbb")
    model = vlm.init_model(cfg, seed=53)
    with _differentiating(model):
        assert _graph_nodes(vlm.sample_loss_graph(model, [sample])) <= 260


def _mixed_batch(cfg, seed):
    """Samples of different patch, query, semantic and response lengths,
    with one layout repeated, so the attention groups mix sizes."""
    rng = Rng(seed)
    shapes = [(4, "what?", 3, "ok"), (2, "where is it?", 7, "by the lake"), (5, "why", 1, "no"),
              (4, "what?", 3, "ab")]
    return [instruction_sample(rng.normal((n_patch, cfg.patch_dim)), query, response,
                               semantic_ids=encode_text("scene text"[:n_sem]))
            for n_patch, query, n_sem, response in shapes]


def _spread_experts(model, seed):
    """Expert V and gate drawn from N(0, 0.1^2)."""
    rng = np.random.default_rng(seed)
    for name, t in model.named_parameters():
        if ".experts.v" in name or name.endswith(".gate.wg"):
            t.value = rng.normal(0.0, 0.1, t.value.shape)
    return model


def _loss_and_grads(model, loss_fn):
    named = model.named_parameters()
    ad.zero_grads(t for _, t in named)
    with _differentiating(model):
        loss = loss_fn()
        ad.backward(loss)
    return float(loss.value), {n: t.grad.copy() for n, t in named}


@pytest.mark.parametrize("kw", [{}, dict(levels=3, visual_blocks=4, prompter_heads=4, expert_stride=1)])
def test_packed_batch_matches_mean_of_one_sample_graphs(kw):
    cfg = ModelConfig(**kw)
    model = _spread_experts(vlm.init_model(cfg, seed=60), 60)
    batch = _mixed_batch(cfg, 61)
    packed, packed_grads = _loss_and_grads(model, lambda: vlm.sample_loss_graph(model, batch))
    losses = lambda: [vlm.sample_loss_graph(model, [s]) for s in batch]
    mean, grads = _loss_and_grads(
        model, lambda: ad.mul(functools.reduce(ad.add, losses()), ad.const(1.0 / len(batch))))
    assert abs(packed - mean) <= 1e-9 * abs(mean)
    assert packed_grads.keys() == grads.keys()
    for name, g in grads.items():
        assert np.max(np.abs(packed_grads[name] - g)) <= 1e-9 * np.max(np.abs(g)), name


def test_packed_batch_gradient_check():
    cfg = _small_cfg(levels=3, expert_stride=1, prompter_heads=4)
    model = _spread_experts(vlm.init_model(cfg, seed=62), 62)
    batch = _mixed_batch(cfg, 63)[:3]
    report = ad.check_gradients(lambda: vlm.sample_loss_graph(model, batch), model.named_parameters(),
                                n_probes=200, rng=Rng(64))
    assert report.max_relative_error <= 1e-4, report


def test_backward_keeps_gradients_only_on_leaves():
    # an interior node's gradient is dropped once passed on; every parameter
    # keeps the gradient it accumulated
    cfg = ModelConfig(levels=3, expert_stride=1)
    model = _spread_experts(vlm.init_model(cfg, seed=69), 69)
    with _differentiating(model):
        loss = vlm.sample_loss_graph(model, _mixed_batch(cfg, 70))
        ad.backward(loss)
    interior = [node for node in _graph(loss) if node._backward is not None]
    assert len(interior) > 200
    assert all(node.grad is None for node in interior)
    named = model.named_parameters()
    assert not any(t.requires_grad for _, t in named)  # the flags came back
    assert [name for name, t in named if t.grad is None] == []


def test_packed_training_step_graph_size():
    # one graph over a 16-sample toy step; one graph per sample built 2,645
    cfg = ModelConfig()
    batch = caption_corpus(65, cfg, n=16)
    model = vlm.init_model(cfg, seed=66)
    with _differentiating(model):
        assert _graph_nodes(vlm.sample_loss_graph(model, batch)) <= 300


def test_a_recorded_step_keeps_only_the_arrays_its_backward_reads():
    # a 16-sample toy step's graph after its forward: 11.2 MB traced when
    # each node keeps only what its backward reads, 19.3 MB when every
    # node holds its value
    cfg = ModelConfig()
    batch = instruction_corpus(72, cfg, n=16)
    model = vlm.init_model(cfg, seed=71)
    with _differentiating(model):
        tracemalloc.start()
        try:
            loss = vlm.sample_loss_graph(model, batch)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        ad.backward(loss)
    assert live <= 13_000_000


@pytest.mark.parametrize("expert_stride", [1, 2])
def test_read_rows_match_the_full_forward(expert_stride):
    cfg = _small_cfg(expert_stride=expert_stride, heads=4)
    model = _with_experts(vlm.init_model(cfg, seed=71), 71)
    batch = _mixed_batch(cfg, 72)
    seqs = [list(s.query_ids) + [SEP_ID] + list(s.response_ids) for s in batch]
    hidden, lens, row_levels = vlm._sequence_graph(model, batch, seqs)
    full = vlm._lm_logits_graph(model, hidden, lens, row_levels).value
    ends = np.cumsum(lens)
    for read in ([len(s.response_ids) + 1 for s in batch], [1] * len(batch), [1, lens[1], 7, 2], lens):
        got = vlm._lm_logits_graph(model, hidden, lens, row_levels, read=read).value
        want = np.concatenate([full[end - r : end] for end, r in zip(ends, read)])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), read


def test_last_block_and_head_run_on_the_read_rows_only(monkeypatch):
    # every block but the last, and the last one's keys and values, see all
    # rows; the last block's queries, the head and the loss see the read ones
    cfg = _small_cfg()
    model = _with_experts(vlm.init_model(cfg, seed=73), 73)
    model.lm.head.value[:, EOS_ID] = 0.0
    query_rows, ctx_rows, logit_rows, ce_rows = [], [], [], []
    attend, forward, cross_entropy = vlm.attention_output, vlm._lm_logits_graph, ad.cross_entropy

    def attention_output(block, q_in, ctx, *args):
        query_rows.append(q_in.value.shape[0])
        ctx_rows.append(ctx.value.shape[0])
        return attend(block, q_in, ctx, *args)

    def lm(*args, **kwargs):
        logits = forward(*args, **kwargs)
        logit_rows.append(logits.value.shape[0])
        return logits

    def ce(logits, *args):
        ce_rows.append(logits.value.shape[0])
        return cross_entropy(logits, *args)

    monkeypatch.setattr(vlm, "attention_output", attention_output)
    monkeypatch.setattr(vlm, "_lm_logits_graph", lm)
    monkeypatch.setattr(ad, "cross_entropy", ce)
    batch = _mixed_batch(cfg, 74)
    rows = sum(sum(vlm._segments_for(model, s.patches.shape[0], len(s.query_ids) + 1 + len(s.response_ids)))
               for s in batch)
    read = sum(len(s.response_ids) + 1 for s in batch)
    vlm.sample_loss_graph(model, batch)
    n = len(model.lm.blocks)
    assert query_rows[-n:] == [rows] * (n - 1) + [read]
    assert ctx_rows[-n:] == [rows] * n
    assert logit_rows == ce_rows == [read]
    for seen in (query_rows, ctx_rows, logit_rows):
        seen.clear()
    sample = batch[0]
    vlm.generate(model, sample.patches, sample.query_ids, 1, sample.semantic_ids)
    prefix = sum(vlm._segments_for(model, sample.patches.shape[0], len(sample.query_ids) + 1))
    assert query_rows[-n:] == [prefix] * (n - 1) + [1]
    assert ctx_rows[-n:] == [prefix] * n
    assert logit_rows == [1]


def test_a_training_sample_may_fill_max_seq():
    # EOS is a target, never an input row, so image + prompt + query + SEP +
    # response may take every position, as in generation
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=75)
    sample = _sample(cfg, seed=76)
    # 3 patches + 2 * 2 prompt rows + 5 query tokens + SEP = a 13-row prefix
    sample.response_ids = encode_text("a" * (cfg.max_seq - 13))
    with _differentiating(model):
        loss = vlm.sample_loss_graph(model, [sample])
        ad.backward(loss)
    assert np.isfinite(loss.value) and model.lm.pos.grad is not None
    sample.response_ids = encode_text("a" * (cfg.max_seq - 12))
    with pytest.raises(ShapeError, match=f"sequence length {cfg.max_seq + 1} exceeds max_seq {cfg.max_seq}"):
        vlm.sample_loss_graph(model, [sample])


def test_kv_cache_writes_views_of_one_buffer():
    cache = vlm.KvCache(5)
    rng = Rng(67)
    first, second = rng.normal((3, 4)), rng.normal((2, 4))
    k, v = cache.extend(ad.const(first), ad.const(first + 1.0))
    k2, v2 = cache.extend(ad.const(second), ad.const(second + 1.0))
    assert np.array_equal(k2.value, np.concatenate([first, second]))
    assert np.array_equal(v2.value, np.concatenate([first, second]) + 1.0)
    assert np.array_equal(k.value, first) and np.shares_memory(k.value, k2.value)
    assert cache.rows == 5
    with pytest.raises(ShapeError, match="cache of 5 rows cannot take 6"):
        cache.extend(ad.const(second[:1]), ad.const(second[:1]))
