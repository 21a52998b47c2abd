import math

import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import model as vlm
from rsvlm.errors import ConfigError, ShapeError
from rsvlm.model import EOS_ID, SEP_ID, ModelConfig, Sample, encode_text
from rsvlm.numerics import Rng


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
    ids = encode_text("scene: lake + étang")
    assert all(0 <= i < 256 for i in ids)
    assert vlm.decode_ids(ids) == "scene: lake + étang"
    assert vlm.decode_ids(ids + [EOS_ID, SEP_ID]) == "scene: lake + étang"


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


def _sequence(model, seed, n_img, ids):
    """Assembled rows (projected image tokens, a random prompt, embedded ids)
    and their row-count layout."""
    cfg = model.config
    rng = Rng(seed)
    img = rng.normal((n_img, cfg.d_v)) @ model.proj_w.value + model.proj_b.value
    prompt = rng.normal((cfg.n_agg * cfg.levels, cfg.d_h))
    hidden = np.concatenate([img, prompt, model.lm.embed.value[np.asarray(ids)]], axis=0)
    return hidden, vlm._segments_for(model, n_img, len(ids))


def _forward_lm(model, hidden, counts, targets):
    logits = vlm._lm_logits_graph(model, ad.const(hidden), counts)
    return float(ad.cross_entropy(logits, targets).value), logits.value


def test_encode_multilevel_shapes_and_distinct_taps():
    cfg = _small_cfg(visual_blocks=6, levels=3)
    model = vlm.init_model(cfg, seed=1)
    patches = Rng(2).normal((5, cfg.patch_dim))
    taps = [t.value for t in vlm._encode_multilevel_graph(model, ad.const(patches))]
    assert len(taps) == 3
    assert all(t.shape == (5, cfg.d_v) for t in taps)
    assert not np.allclose(taps[0], taps[1])
    assert not np.allclose(taps[1], taps[2])
    with pytest.raises(ShapeError):
        vlm._encode_multilevel_graph(model, ad.const(np.zeros((0, cfg.patch_dim))))


def test_assemble_sequence_tags_and_counts():
    cfg = _small_cfg()
    model = vlm.init_model(cfg, seed=3)
    sample = Sample(patches=Rng(4).normal((2, cfg.patch_dim)), query_ids=[5])
    hidden, counts = vlm._sequence_graph(model, sample, [5])
    assert hidden.value.shape == (2 + 4 + 1, cfg.d_h)
    assert counts == (2, 2, 2, 1)


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
        vlm._lm_logits_graph(model, ad.const(extra), counts)
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
        hidden, counts = vlm._sequence_graph(model, sample, list(sample.query_ids) + [SEP_ID] + out)
        steps.append(vlm._lm_logits_graph(model, hidden, counts).value[-1])
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

    def record(logits):
        rows.append(logits.value.shape[0])
        steps.append(logits.value[-1])

    _recorded_logits(monkeypatch, record)
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
    whole = vlm._lm_logits_graph(model, ad.const(hidden), counts).value
    cache = [vlm.KvCache() for _ in model.lm.blocks]
    assert counts == (3, 2, 2, 6)
    head = vlm._lm_logits_graph(model, ad.const(hidden[:9]), (3, 2, 2, 2), cache).value
    tail = vlm._lm_logits_graph(model, ad.const(hidden[9:]), (0, 0, 0, 4), cache).value
    assert cache[0].rows == hidden.shape[0]
    assert np.max(np.abs(np.concatenate([head, tail]) - whole)) <= 1e-10
    with pytest.raises(ShapeError, match="sequence length 129 exceeds max_seq 128"):
        vlm._lm_logits_graph(model, ad.const(np.zeros((cfg.max_seq - 12, cfg.d_h))),
                             (0, 0, 0, cfg.max_seq - 12), cache)


def _graph_nodes(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


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
    assert decode[0] < prefill
