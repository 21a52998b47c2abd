import tracemalloc

import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import dual_encoder as de
from rsvlm import model as vlm
from rsvlm import training as tr
from rsvlm.errors import ConfigError, DomainError, FormatError
from rsvlm.model import ModelConfig, encode_text
from rsvlm.numerics import Rng
from oracles import adamw_replay
from synthetic import caption_corpus, contrastive_corpus, instruction_corpus


def _cfg():
    return ModelConfig(d_h=16, heads=2, lm_blocks=2, expert_stride=2, levels=2,
                       d_r=4, d_i=24, n_agg=2, prompter_heads=2, patch_dim=6,
                       d_v=8, visual_blocks=3, visual_heads=2, visual_inner=16,
                       max_seq=128)


def _snapshot(model):
    return {n: t.value.copy() for n, t in model.named_parameters()}


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(stage="bogus")
    with pytest.raises(ConfigError) as err:
        tr.TrainConfig(stage="alignment", lr_prompter=-1.0, epochs=0, weight_decay=-1e300)
    assert err.value.problems == ["lr_prompter must be >= 0, got -1.0", "weight_decay must be >= 0, got -1e+300",
                                  "epochs must be >= 1, got 0"]
    with pytest.raises(ConfigError) as err:
        tr.TrainConfig(stage="alignment", epochs=True, lr_lm="0", lr_projector=None, max_steps=2.0,
                       train_projector_stage1=1)
    assert err.value.problems == ["epochs must be int, got True", "lr_lm must be float, got '0'",
                                  "max_steps must be int or None, got 2.0",
                                  "train_projector_stage1 must be bool, got 1"]
    assert tr.TrainConfig(stage="alignment", lr_prompter=1, stop_loss=0).lr_prompter == 1
    for max_steps in (0, -3):  # not one silent step
        with pytest.raises(ConfigError) as err:
            tr.TrainConfig(stage="alignment", max_steps=max_steps)
        assert err.value.problems == [f"max_steps must be >= 1, got {max_steps}"]
    assert tr.TrainConfig(stage="alignment", max_steps=1).max_steps == 1


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adamw_matches_a_per_tensor_replay_bit_exact(weight_decay):
    rng = Rng(30)
    shapes = [(3, 4), (1, 5), (2, 2), (6, 1)]
    lrs = [1e-2, 3e-3, 1e-2, 5e-4]
    tensors = [ad.const(rng.normal(shape)) for shape in shapes]
    grads = [[rng.normal(shape) for shape in shapes] for _ in range(3)]
    grads[1][2] = None  # no gradient reached this tensor at step 2
    want = adamw_replay([t.value for t in tensors], grads, lrs, weight_decay)
    arrays = [t.value for t in tensors]
    opt = tr.AdamW(list(zip(tensors, lrs)), weight_decay)
    for step_grads, step_want in zip(grads, want):
        for t, g in zip(tensors, step_grads):
            t.grad = g
        opt.step()
        for t, array, w in zip(tensors, arrays, step_want):
            assert t.value is array  # updated in place
            assert np.array_equal(t.value.view(np.int64), w.view(np.int64))
    assert opt.t == 3
    empty = tr.AdamW([], weight_decay)  # every parameter frozen
    empty.step()
    assert empty.t == 1


def test_stage1_freeze_contract_bit_exact():
    cfg = _cfg()
    model = vlm.init_model(cfg, seed=1)
    samples = caption_corpus(2, cfg, n=6)
    before = _snapshot(model)
    tcfg = tr.TrainConfig(stage="alignment", seed=0, epochs=3, batch_size=3,
                          lr_prompter=1e-2)
    model, history = tr.train_stage1(model, samples, tcfg)
    assert len(history) == 6
    for name, tensor in model.named_parameters():
        if name.startswith(("visual.", "lm.")):
            assert np.array_equal(before[name], tensor.value), name
    assert any(not np.array_equal(before[n], t.value)
               for n, t in model.named_parameters() if n.startswith("prompter."))
    assert any(not np.array_equal(before[n], t.value)
               for n, t in model.named_parameters() if n.startswith("projector."))


def test_stage1_skips_frozen_gradients_bit_exactly(monkeypatch):
    # the run differentiates neither visual.* nor lm.*; the loss history
    # and the trained weights are those of a run that differentiates every
    # parameter and drops the frozen ones' gradients
    cfg = _cfg()
    samples = caption_corpus(2, cfg, n=6)
    tcfg = tr.TrainConfig(stage="alignment", seed=0, epochs=3, batch_size=4, lr_prompter=1e-2)
    differentiating, runs = ad.differentiating, []
    for skip in (True, False):
        model = vlm.init_model(cfg, seed=1)
        if not skip:
            every = [t for _, t in model.named_parameters()]
            monkeypatch.setattr(ad, "differentiating", lambda tensors: differentiating(every))
        model, history = tr.train_stage1(model, samples, tcfg)
        runs.append(([h.hex() for h in history], _snapshot(model), dict(model.named_parameters())))
    (hist_skip, weights_skip, named_skip), (hist_all, weights_all, named_all) = runs
    assert hist_skip == hist_all
    assert all(np.array_equal(weights_skip[n], weights_all[n]) for n in weights_all)
    assert all(t.grad is not None for t in named_all.values())
    for name, t in named_skip.items():
        assert not t.requires_grad, name  # the flags came back
        frozen = name.startswith(("visual.", "lm."))
        assert (t.grad is None) == frozen, name
        if not frozen:
            assert np.array_equal(t.grad, named_all[name].grad), name


def test_stage1_projector_flag_freezes_projector():
    cfg = _cfg()
    model = vlm.init_model(cfg, seed=2)
    samples = caption_corpus(3, cfg, n=4)
    before = _snapshot(model)
    tcfg = tr.TrainConfig(stage="alignment", seed=0, epochs=2, batch_size=4,
                          lr_prompter=1e-2, train_projector_stage1=False)
    tr.train_stage1(model, samples, tcfg)
    for name, tensor in model.named_parameters():
        if name.startswith("projector."):
            assert np.array_equal(before[name], tensor.value)


def test_stage_tag_enforced():
    cfg = _cfg()
    model = vlm.init_model(cfg, seed=3)
    samples = caption_corpus(4, cfg, n=4)
    with pytest.raises(ConfigError):
        tr.train_stage1(model, samples, tr.TrainConfig(stage="instruction"))
    with pytest.raises(ConfigError):
        tr.train_stage2(model, samples, tr.TrainConfig(stage="alignment"))


def test_lr_zero_changes_nothing():
    cfg = _cfg()
    model = vlm.init_model(cfg, seed=4)
    samples = instruction_corpus(5, cfg, n=4)
    before = _snapshot(model)
    tcfg = tr.TrainConfig(stage="instruction", seed=0, epochs=3, batch_size=4,
                          lr_visual=0.0, lr_prompter=0.0, lr_lm=0.0, lr_projector=0.0)
    model, history = tr.train_stage2(model, samples, tcfg)
    for name, tensor in model.named_parameters():
        assert np.array_equal(before[name], tensor.value), name
    # full-batch steps over frozen params: loss is constant
    assert max(history) - min(history) < 1e-12


def test_stage2_per_component_lr_freeze():
    cfg = _cfg()
    model = vlm.init_model(cfg, seed=5)
    samples = instruction_corpus(6, cfg, n=4)
    before = _snapshot(model)
    tcfg = tr.TrainConfig(stage="instruction", seed=0, epochs=2, batch_size=2,
                          lr_visual=0.0, lr_prompter=1e-2, lr_lm=1e-2)
    tr.train_stage2(model, samples, tcfg)
    for name, tensor in model.named_parameters():
        if name.startswith("visual."):
            assert np.array_equal(before[name], tensor.value), name
    assert any(not np.array_equal(before[n], t.value)
               for n, t in model.named_parameters() if n.startswith("lm."))


def test_same_seed_identical_checkpoints(tmp_path):
    cfg = _cfg()
    samples = instruction_corpus(7, cfg, n=4)
    paths = []
    for run in range(2):
        model = vlm.init_model(cfg, seed=9)
        tcfg = tr.TrainConfig(stage="instruction", seed=3, epochs=3, batch_size=2,
                              lr_visual=1e-3, lr_prompter=3e-3, lr_lm=3e-3)
        model, _ = tr.train_stage2(model, samples, tcfg)
        path = tmp_path / f"run{run}.rsck"
        vlm.save_checkpoint(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_stage2_loss_decreases():
    cfg = _cfg()
    model = vlm.init_model(cfg, seed=10)
    samples = instruction_corpus(11, cfg, n=8)
    tcfg = tr.TrainConfig(stage="instruction", seed=0, epochs=40, batch_size=8,
                          lr_visual=1e-3, lr_prompter=3e-3, lr_lm=3e-3,
                          weight_decay=0.0)
    model, history = tr.train_stage2(model, samples, tcfg)
    assert history[-1] < 0.5 * history[0]


def test_stage1_halves_loss_on_caption_corpus():
    """Prompter-only training against the frozen LM must halve the mean
    caption loss on 64 pairs within 300 steps."""
    cfg = ModelConfig()  # toy defaults
    model = vlm.init_model(cfg, seed=2)
    samples = caption_corpus(11, cfg, n=64)
    initial = float(np.mean([vlm.sample_loss(model, s) for s in samples]))
    tcfg = tr.TrainConfig(stage="alignment", seed=0, epochs=75, batch_size=16,
                          lr_prompter=2e-2, weight_decay=0.0, max_steps=300)
    model, history = tr.train_stage1(model, samples, tcfg)
    assert len(history) == 300
    final = float(np.mean([vlm.sample_loss(model, s) for s in samples]))
    assert final < 0.5 * initial, (initial, final)


def test_training_peak_memory_is_that_of_one_step():
    # no step's graph is alive while the next one is built, so three steps
    # peak no higher than one plus the optimizer's moments (bytes traced by
    # tracemalloc, not RSS; holding the last graph reads 1.6x here)
    cfg = ModelConfig()
    samples = caption_corpus(14, cfg, n=48)
    peaks = []
    for steps in (1, 3):
        model = vlm.init_model(cfg, seed=15)
        tcfg = tr.TrainConfig(stage="alignment", batch_size=16, max_steps=steps)
        tracemalloc.start()
        try:
            tr.train_stage1(model, samples, tcfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_divergence_aborts_with_diagnostics():
    cfg = _cfg()
    model = vlm.init_model(cfg, seed=12)
    model.lm.head.value[0, 0] = np.nan  # force a non-finite loss
    samples = instruction_corpus(13, cfg, n=2)
    tcfg = tr.TrainConfig(stage="instruction", seed=0, epochs=1, batch_size=2)
    with pytest.raises(DomainError, match="diverged"):
        tr.train_stage2(model, samples, tcfg)
    # the differentiated prompter and projector flags come back after the abort too
    assert not any(t.requires_grad for _, t in model.named_parameters())


def test_no_tensor_needs_a_gradient_outside_differentiating(tmp_path, monkeypatch):
    # fresh, loaded, trained and diverged parameters all need no gradient,
    # so the forwards that nobody differentiates build no graph node
    cfg = _cfg()
    needing = lambda *holders: [n for h in holders for n, t in h.named_parameters() if t.requires_grad]
    model, enc = vlm.init_model(cfg, seed=20), de.init_params(cfg.patch_dim, 8, 32, 10, seed=21)
    assert needing(model, enc) == []
    vlm.save_checkpoint(model, tmp_path / "model.rsck")
    de.save_params(enc, tmp_path / "enc.rsde")
    assert needing(vlm.load_checkpoint(tmp_path / "model.rsck"), de.load_params(tmp_path / "enc.rsde")) == []

    model, _ = tr.train_stage1(model, caption_corpus(22, cfg, n=4),
                               tr.TrainConfig(stage="alignment", batch_size=2, max_steps=2))
    model, _ = tr.train_stage2(model, instruction_corpus(23, cfg, n=4),
                               tr.TrainConfig(stage="instruction", batch_size=2, max_steps=2,
                                              lr_visual=1e-3, lr_lm=1e-3))
    pairs = contrastive_corpus(24, n=8, dim=cfg.patch_dim, vocab=32)
    enc, _ = de.train_retriever(pairs, d_img_raw=cfg.patch_dim, d_e=8, vocab=32, hidden=10, epochs=2)
    assert needing(model, enc) == []

    diverging = vlm.init_model(cfg, seed=25)
    diverging.lm.head.value[0, 0] = np.nan
    with pytest.raises(DomainError, match="diverged"):
        tr.train_stage2(diverging, instruction_corpus(26, cfg, n=2),
                        tr.TrainConfig(stage="instruction", batch_size=2, lr_visual=1e-3, lr_lm=1e-3))
    made, init_params = [], de.init_params
    monkeypatch.setattr(de, "init_params", lambda *args: made.append(init_params(*args)) or made[-1])
    with pytest.raises(DomainError, match="not finite after the update"):
        de.train_retriever(pairs, d_img_raw=cfg.patch_dim, d_e=8, vocab=32, hidden=10, lr=1e308)
    assert needing(diverging, *made) == [] and len(made) == 1

    nodes, result = [], ad._result
    monkeypatch.setattr(ad, "_result", lambda *args: nodes.append(result(*args)) or nodes[-1])
    sample = instruction_corpus(27, cfg, n=1)[0]
    vlm.generate(model, sample.patches, sample.query_ids, 4, sample.semantic_ids)
    vlm.sample_loss(model, sample)
    de.encode_image(enc, sample.patches.mean(axis=0))
    de.encode_text(enc, [1, 2, 3])
    assert len(nodes) > 100 and [t for t in nodes if t._parents] == []
    with ad.differentiating(t for _, t in model.named_parameters()):  # the count sees nodes
        vlm.sample_loss(model, sample)
    assert [t for t in nodes if t._parents]


def test_load_samples_jsonl(tmp_path):
    import json
    cfg = _cfg()
    rows = [
        {"image": [[0.1] * cfg.patch_dim, [0.2] * cfg.patch_dim], "caption": "aa bb"},
        {"image": [[0.3] * cfg.patch_dim], "caption": "cc"},
    ]
    path = tmp_path / "align.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    samples = tr.load_samples(path, tr.STAGE_ALIGNMENT)
    assert len(samples) == 2
    assert samples[0].query_ids == encode_text(tr.ALIGN_QUERY)
    assert samples[0].response_ids == encode_text("aa bb")
    assert samples[0].patches.shape == (2, cfg.patch_dim)

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"image": [[1.0]]}), encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        tr.load_samples(bad, tr.STAGE_ALIGNMENT)


def test_load_samples_with_retrieval(tmp_path):
    import json
    from rsvlm import dual_encoder as de
    from rsvlm.semantic_store import SemanticDatabase

    cfg = _cfg()
    retriever = de.init_params(cfg.patch_dim, 8, 64, 12, seed=0)
    db = SemanticDatabase(8)
    for text in ("a river delta", "an airport apron", "dense forest"):
        db.ingest(text, de.encode_text(retriever, de.tokenize_text(text, 64)))
    rows = [{"image": [[0.5] * cfg.patch_dim], "query": "what?", "response": "forest"}]
    path = tmp_path / "inst.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    samples = tr.load_samples(path, tr.STAGE_INSTRUCTION, retriever=retriever,
                              db=db, k=2, semantic_cap=32)
    assert len(samples) == 1
    sem = samples[0].semantic_ids
    assert 1 <= len(sem) <= 32
    assert vlm.SEP_ID in sem  # two retrieved texts joined by the separator


def test_load_samples_needs_retriever_and_db_together(tmp_path):
    from rsvlm import dual_encoder as de
    from rsvlm.semantic_store import SemanticDatabase

    path = tmp_path / "align.jsonl"
    path.write_text('{"image": [[0.5, 0.5]], "caption": "cc"}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="got no db"):
        tr.load_samples(path, tr.STAGE_ALIGNMENT, retriever=de.init_params(2, 8, 64, 12, seed=0))
    with pytest.raises(ConfigError, match="got no retriever"):
        tr.load_samples(path, tr.STAGE_ALIGNMENT, db=SemanticDatabase(8))


def test_load_patches_from_files(tmp_path):
    import json
    arr = [[1.0, 2.0], [3.0, 4.0]]
    jpath = tmp_path / "feat.json"
    jpath.write_text(json.dumps(arr), encoding="utf-8")
    loaded = tr.load_patches(str(jpath))
    assert np.array_equal(loaded, np.asarray(arr))
    npath = tmp_path / "feat.npy"
    np.save(npath, np.asarray(arr, dtype=np.float32))
    loaded = tr.load_patches(str(npath))
    assert loaded.shape == (2, 2)
    with pytest.raises(FormatError, match="not found"):
        tr.load_patches(str(tmp_path / "missing.json"))
