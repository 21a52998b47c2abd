import math

import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import dual_encoder as de
from rsvlm.errors import DomainError, FormatError, ShapeError
from rsvlm.numerics import Rng
from oracles import compare_gradients, finite_diff_gradient, total
from synthetic import contrastive_corpus

D_IMG, D_E, VOCAB, HIDDEN = 12, 16, 256, 32


def _params(seed=0):
    return de.init_params(D_IMG, D_E, VOCAB, HIDDEN, seed)


def test_encode_image_unit_norm_and_deterministic():
    params = _params()
    x = Rng(1).normal((D_IMG,))
    z1 = de.encode_image(params, x)
    z2 = de.encode_image(params, x)
    assert abs(np.linalg.norm(z1) - 1.0) < 1e-6
    assert np.array_equal(z1, z2)


def test_encode_image_dim_check():
    with pytest.raises(ShapeError):
        de.encode_image(_params(), np.zeros(D_IMG + 1))


def test_encode_text_unit_norm_and_bag_invariance():
    params = _params()
    tokens = de.tokenize_text("river bend with sand banks", VOCAB)
    z = de.encode_text(params, tokens)
    assert abs(np.linalg.norm(z) - 1.0) < 1e-6
    assert np.array_equal(z, de.encode_text(params, tokens[::-1]))



def test_encoders_equal_their_recorded_graphs_bit_exact():
    # encode_text and encode_image run tape-free; a graph recorded over the
    # same row, with every parameter differentiated, holds the same bits
    params = _params(5)
    for text in ("river bend with sand banks", "a a b", "dense forest dense", "x"):
        ids = de.tokenize_text(text, VOCAB)
        with ad.differentiating(t for _, t in params.named_parameters()):
            recorded = de.encode_text_rows(params, ad.const(de.bag_vector(ids, VOCAB)[None, :]))
        assert recorded.requires_grad and recorded._parents
        assert de.encode_text(params, ids).tobytes() == recorded.value[0].tobytes()
    for x in Rng(6).normal((4, D_IMG)):
        with ad.differentiating(t for _, t in params.named_parameters()):
            recorded = de.encode_image_rows(params, ad.const(x[None, :]))
        assert recorded.requires_grad and recorded._parents
        assert de.encode_image(params, x).tobytes() == recorded.value[0].tobytes()

def test_tokenizer_is_stable_and_casefolds():
    a = de.tokenize_text("River Bend", VOCAB)
    b = de.tokenize_text("river bend", VOCAB)
    assert a == b
    assert de.tokenize_text("river bend", VOCAB) == a
    with pytest.raises(DomainError):
        de.tokenize_text("   ", VOCAB)


def test_fnv1a_and_bag_vector():
    assert de._fnv1a("a") == de._fnv1a("a") == 0xAF63DC4C8601EC8C  # the published FNV-1a 64 vector
    ids = [3, 1, 3, 0, 3]
    counts = np.bincount(ids, minlength=5).astype(np.float64)
    assert np.array_equal(de.bag_vector(ids, 5), counts / np.linalg.norm(counts))
    with pytest.raises(DomainError, match=r"^bag_vector: empty token list$"):
        de.bag_vector([], 5)
    # a huge id is refused before any count is sized; bincount refuses ids that are not one list
    for bad in ([1, -1], [1, 5], [2**40], [[1, 2]], [[7]], 3):
        with pytest.raises(ShapeError, match=r"^bag_vector: token id out of range for vocab 5$"):
            de.bag_vector(bad, 5)



def test_encode_gradients_match_finite_differences():
    """d cosine(encode(x), target) / d params, against the oracle."""
    params = _params(3)
    rng = Rng(4)
    x = rng.normal((1, D_IMG))
    target = rng.normal((1, D_E))
    target /= np.linalg.norm(target)

    for encoder, feats in (
        (de.encode_image_rows, x),
        (de.encode_text_rows, de.bag_vector(de.tokenize_text("alpha beta gamma", VOCAB), VOCAB)[None, :]),
    ):
        names = [(n, t) for n, t in params.named_parameters() if n != "log_temp"]
        ad.zero_grads(t for _, t in names)
        with ad.differentiating(t for _, t in names):
            ad.backward(total(ad.mul(encoder(params, ad.const(feats)), ad.const(target))))
        assert sum(t.grad is not None for _, t in names) == 4  # the encoder's own MLP
        for name, tensor in names:
            if tensor.grad is None:
                continue
            base = tensor.value.copy()

            def f(flat, tensor=tensor, encoder=encoder, feats=feats):
                tensor.value = flat.reshape(base.shape)
                out = total(ad.mul(encoder(params, ad.const(feats)), ad.const(target))).value.item()
                tensor.value = base
                return out

            numeric = finite_diff_gradient(f, base.reshape(-1)).reshape(base.shape)
            report = compare_gradients(tensor.grad, numeric)
            assert report.max_relative_error < 1e-4, (name, report)


def _loss(params, batch):
    return float(de.contrastive_loss_graph(params, batch).value)


def test_infonce_all_equal_logits_is_ln_b():
    for b, s in ((2, 0.3), (4, -1.2)):
        # zero output weights: every image embeds to v, every text to sign(s) v,
        # so every logit is s
        params = _params(1)
        v = Rng(2).normal((1, D_E))
        for mlp, bias in ((params.image_proj, v), (params.text_proj, math.copysign(1.0, s) * v)):
            mlp.w2.value[:] = 0.0
            mlp.b2.value = bias
        params.log_temp.value[:] = -math.log(abs(s))
        assert _loss(params, contrastive_corpus(9, n=b)) == pytest.approx(math.log(b), abs=1e-12)


def test_infonce_separated_batch_approaches_zero():
    b = 4
    # image i and text i both embed to the unit vector e_i; temperature 0.01
    params = _params(1)
    params.image_proj.w1.value = 3.0 * np.eye(D_IMG, HIDDEN)
    params.text_proj.w1.value = 3.0 * np.eye(VOCAB, HIDDEN)
    for mlp in (params.image_proj, params.text_proj):
        mlp.b1.value[:] = 0.0
        mlp.w2.value = np.eye(HIDDEN, D_E)
        mlp.b2.value[:] = 0.0
    params.log_temp.value[:] = math.log(0.01)
    batch = [de.ContrastivePair(np.eye(D_IMG)[i], [i]) for i in range(b)]
    assert _loss(params, batch) < 1e-12


def test_contrastive_loss_matches_row_wise_oracle():
    params = _params(5)
    batch = contrastive_corpus(7, n=4)
    loss = _loss(params, batch)

    z_img = np.stack([de.encode_image(params, p.image_features) for p in batch])
    z_txt = np.stack([de.encode_text(params, p.text_tokens) for p in batch])
    logits = (z_img @ z_txt.T) / np.exp(params.log_temp.value[0, 0])
    summed = 0.0
    for mat in (logits, logits.T):
        for i in range(4):
            row = mat[i]
            summed += -math.log(math.exp(row[i]) / np.exp(row).sum())
    oracle = summed / 8.0
    assert loss == pytest.approx(oracle, abs=1e-10)
    assert loss >= 0.0


def test_contrastive_loss_preconditions():
    params = _params()
    batch = contrastive_corpus(1, n=2)
    with pytest.raises(DomainError):
        _loss(params, batch[:1])
    dup = [batch[0], de.ContrastivePair(batch[1].image_features, list(batch[0].text_tokens))]
    with pytest.raises(DomainError):
        _loss(params, dup)


def test_contrastive_gradients_match_finite_differences():
    params = _params(6)
    batch = contrastive_corpus(8, n=3)
    report = ad.check_gradients(
        lambda: de.contrastive_loss_graph(params, batch),
        params.named_parameters(),
        n_probes=60,
        rng=Rng(9),
    )
    assert report.max_relative_error <= 1e-4, report


def test_train_lr_zero_is_identity():
    pairs = contrastive_corpus(2, n=8)
    params, history = de.train_retriever(
        pairs, d_img_raw=D_IMG, d_e=D_E, vocab=VOCAB, hidden=HIDDEN,
        epochs=3, lr=0.0, seed=1,
    )
    fresh = de.init_params(D_IMG, D_E, VOCAB, HIDDEN, 1)
    for (_, a), (_, b) in zip(params.named_parameters(), fresh.named_parameters()):
        assert np.array_equal(a.value, b.value)
    assert max(history) - min(history) < 1e-12


def test_train_is_seed_deterministic():
    pairs = contrastive_corpus(3, n=8)
    kwargs = dict(d_img_raw=D_IMG, d_e=D_E, vocab=VOCAB, hidden=HIDDEN, epochs=5, lr=0.1, seed=7)
    p1, h1 = de.train_retriever(pairs, **kwargs)
    p2, h2 = de.train_retriever(pairs, **kwargs)
    assert h1 == h2
    for (_, a), (_, b) in zip(p1.named_parameters(), p2.named_parameters()):
        assert np.array_equal(a.value, b.value)


def test_train_loss_decreases():
    pairs = contrastive_corpus(4, n=12)
    params, history = de.train_retriever(
        pairs, d_img_raw=D_IMG, d_e=D_E, vocab=VOCAB, hidden=HIDDEN,
        epochs=30, lr=0.1, seed=0,
    )
    assert history[-1] < history[0]
    assert np.exp(params.log_temp.value[0, 0]) > 0


def test_train_momentum_is_heavy_ball_across_epochs():
    # two epochs against a numpy replay of v <- m*v + g, w <- w - lr*v on the
    # same gradients: a velocity dropped, or reset between epochs, differs
    # from the replay after the second update
    pairs = contrastive_corpus(8, n=8)
    lr, momentum, seed = 0.1, 0.9, 4
    params, history = de.train_retriever(pairs, d_img_raw=D_IMG, d_e=D_E, vocab=VOCAB, hidden=HIDDEN,
                                         epochs=2, lr=lr, seed=seed, momentum=momentum)
    replay = de.init_params(D_IMG, D_E, VOCAB, HIDDEN, seed)
    named = replay.named_parameters()
    velocity = {name: np.zeros_like(t.value) for name, t in named}
    order_rng, losses = Rng(seed).spawn(99), []
    for _ in range(2):
        ad.zero_grads(t for _, t in named)
        with ad.differentiating(t for _, t in named):
            loss = de.contrastive_loss_graph(replay, [pairs[i] for i in order_rng.permutation(len(pairs))])
            ad.backward(loss)
        losses.append(float(loss.value))
        for name, t in named:
            velocity[name] = momentum * velocity[name] + t.grad
            t.value -= lr * velocity[name]
    assert history == losses
    for (name, trained), (_, replayed) in zip(params.named_parameters(), named):
        assert np.array_equal(trained.value, replayed.value), name


def test_train_requires_eight_pairs():
    with pytest.raises(DomainError):
        de.train_retriever(contrastive_corpus(5, n=4), d_img_raw=D_IMG, d_e=D_E,
                           vocab=VOCAB, hidden=HIDDEN, epochs=1, lr=0.1, seed=0)


def test_save_load_round_trip(tmp_path):
    pairs = contrastive_corpus(6, n=8)
    params, _ = de.train_retriever(pairs, d_img_raw=D_IMG, d_e=D_E, vocab=VOCAB,
                                   hidden=HIDDEN, epochs=3, lr=0.1, seed=2)
    p1 = tmp_path / "enc.rsde"
    p2 = tmp_path / "enc2.rsde"
    de.save_params(params, p1)
    loaded = de.load_params(p1)
    de.save_params(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (loaded.d_img_raw, loaded.d_e, loaded.vocab, loaded.hidden) == (D_IMG, D_E, VOCAB, HIDDEN)
    x = Rng(3).normal((D_IMG,))
    assert np.allclose(de.encode_image(loaded, x), de.encode_image(params, x), atol=1e-7)


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.rsde"
    path.write_bytes(b"NOPE" + bytes(30))
    with pytest.raises(FormatError, match="magic"):
        de.load_params(path)
    de.save_params(_params(), tmp_path / "ok.rsde")
    blob = (tmp_path / "ok.rsde").read_bytes()[:-5]
    (tmp_path / "trunc.rsde").write_bytes(blob)
    with pytest.raises(FormatError, match="truncated"):
        de.load_params(tmp_path / "trunc.rsde")
