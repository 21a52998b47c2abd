import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import numerics as num
from rsvlm import prompter as pr
from rsvlm.errors import ShapeError
from rsvlm.numerics import Rng, ShapeRng


def _params(n_agg=4, dim=8, level_dims=None, seed=0):
    return pr.init_prompter(n_agg, dim, level_dims or [dim, dim], Rng(seed))


def _layer_norm_ref(x, eps=1e-5):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def _mha_ref(block, q_in, ctx, heads):
    """Independent multi-head composition from numerics.scaled_dot_attention."""
    q = q_in @ block.wq.value
    k = ctx @ block.wk.value
    v = ctx @ block.wv.value
    d = q.shape[1]
    dk = d // heads
    outs = [
        num.scaled_dot_attention(q[:, h * dk:(h + 1) * dk], k[:, h * dk:(h + 1) * dk],
                                 v[:, h * dk:(h + 1) * dk])
        for h in range(heads)
    ]
    return np.concatenate(outs, axis=1) @ block.wo.value


def _agg(params, f_user, heads=2):
    return pr.aggregate_query_graph(params, ad.const(f_user), heads).value


def _sem(params, z1, f_sem, heads=2):
    return pr.attend_semantics_graph(params, ad.const(z1), ad.const(f_sem), heads).value


def _lvl(params, z2, f_vis_l, level, heads=2):
    return pr.attend_level_graph(params, ad.const(z2), ad.const(f_vis_l), level, heads).value


def _prompt(params, inputs, heads=2):
    f_user, f_sem, f_vis = inputs
    return pr.build_prompt_graph(params, ad.const(f_user), ad.const(f_sem),
                                 [ad.const(f) for f in f_vis], heads).value


def test_heads_must_divide_dim():
    params = _params(dim=6)
    with pytest.raises(ShapeError, match="dim 6 not divisible by heads 4"):
        _prompt(params, _toy_inputs(6, [6, 6]), heads=4)


def test_aggregate_query_shapes():
    params = _params(n_agg=4, dim=8)
    f_user = Rng(1).normal((3, 8))
    z1 = _agg(params, f_user)
    assert z1.shape == (4, 8)
    # the intermediate concat is (4+3) x 8; dim mismatch raises
    with pytest.raises(ShapeError):
        _agg(params, Rng(1).normal((3, 9)))


def test_attention_convexity_with_identity_projections():
    eye = np.eye(4)
    block = pr.AttnBlockParams(*(ad.const(eye.copy()) for _ in range(4)))
    x = Rng(2).normal((5, 4))
    out = pr.attention_output(block, ad.const(x), ad.const(x), heads=1).value
    lo, hi = x.min(axis=0), x.max(axis=0)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_aggregate_query_matches_per_head_oracle():
    params = _params(n_agg=4, dim=8, seed=3)
    f_user = Rng(4).normal((5, 8))
    f_in = np.concatenate([params.f_agg.value, f_user], axis=0)
    expected = (f_in + _mha_ref(params.self_attn, _layer_norm_ref(f_in), f_in, 2))[:4]
    got = _agg(params, f_user)
    assert np.max(np.abs(got - expected)) < 1e-10


def test_attend_semantics_single_row_pre_residual():
    params = _params(n_agg=3, dim=8, seed=5)
    z1 = Rng(6).normal((3, 8))
    f_sem = Rng(7).normal((1, 8))
    pre = pr.attention_output(params.sem_attn, ad.const(_layer_norm_ref(z1)),
                              ad.const(f_sem), heads=2).value
    # softmax over one key is 1 regardless of query: all rows equal the
    # projected semantic row
    projected = (f_sem @ params.sem_attn.wv.value) @ params.sem_attn.wo.value
    assert np.max(np.abs(pre - np.repeat(projected, 3, axis=0))) < 1e-12
    full = _sem(params, z1, f_sem)
    assert np.max(np.abs(full - (z1 + pre))) < 1e-12


def test_attend_semantics_sensitive_to_semantics():
    params = _params(seed=8)
    z1 = Rng(9).normal((4, 8))
    f_sem = Rng(10).normal((3, 8))
    base = _sem(params, z1, f_sem)
    bumped = f_sem.copy()
    bumped[1] += 0.5
    assert not np.allclose(base, _sem(params, z1, bumped))


def test_attend_semantics_matches_per_head_oracle():
    params = _params(n_agg=4, dim=8, seed=11)
    z1 = Rng(12).normal((4, 8))
    f_sem = Rng(13).normal((6, 8))
    expected = z1 + _mha_ref(params.sem_attn, _layer_norm_ref(z1), f_sem, 2)
    assert np.max(np.abs(_sem(params, z1, f_sem) - expected)) < 1e-10


def test_attend_level_reduces_to_semantic_attention_when_dims_match():
    params = _params(n_agg=3, dim=8, level_dims=[8, 8], seed=14)
    params.level_attn[0] = pr.AttnBlockParams(
        *(ad.const(t.value.copy()) for t in (
            params.sem_attn.wq, params.sem_attn.wk, params.sem_attn.wv, params.sem_attn.wo))
    )
    z2 = Rng(15).normal((3, 8))
    feats = Rng(16).normal((5, 8))
    assert np.max(np.abs(
        _lvl(params, z2, feats, level=1) - _sem(params, z2, feats)
    )) < 1e-12


def test_attend_level_single_token_pre_residual():
    params = _params(n_agg=2, dim=8, level_dims=[5, 6], seed=17)
    z2 = Rng(18).normal((2, 8))
    f_vis = Rng(19).normal((1, 5))
    block = params.level_attn[0]
    pre = pr.attention_output(block, ad.const(_layer_norm_ref(z2)), ad.const(f_vis), 2).value
    projected = (f_vis @ block.wv.value) @ block.wo.value
    assert np.max(np.abs(pre - np.repeat(projected, 2, axis=0))) < 1e-12


def test_attend_level_validations():
    params = _params(level_dims=[8, 6])
    z2 = Rng(20).normal((4, 8))
    with pytest.raises(ShapeError):
        _lvl(params, z2, Rng(21).normal((3, 6)), level=3)
    with pytest.raises(ShapeError):
        _lvl(params, z2, Rng(21).normal((3, 8)), level=2)


def test_attend_level_matches_per_head_oracle():
    params = _params(n_agg=3, dim=8, level_dims=[5, 7], seed=22)
    z2 = Rng(23).normal((3, 8))
    feats = Rng(24).normal((6, 7))
    expected = z2 + _mha_ref(params.level_attn[1], _layer_norm_ref(z2), feats, 2)
    assert np.max(np.abs(_lvl(params, z2, feats, level=2) - expected)) < 1e-10


def _toy_inputs(dim, level_dims, seed=30):
    rng = Rng(seed)
    f_user = rng.normal((3, dim))
    f_semantic = rng.normal((5, dim))
    return f_user, f_semantic, [rng.normal((4 + l, d_l)) for l, d_l in enumerate(level_dims)]


def test_build_prompt_toy_shape_and_level_blocks():
    params = _params(n_agg=4, dim=8, seed=31)
    inputs = _toy_inputs(8, [8, 8])
    s = _prompt(params, inputs)
    assert s.shape == (8, 8)
    f_user, f_semantic, f_vis = inputs
    z1 = _agg(params, f_user)
    z2 = _sem(params, z1, f_semantic)
    assert np.array_equal(s[0:4], _lvl(params, z2, f_vis[0], 1))
    assert np.array_equal(s[4:8], _lvl(params, z2, f_vis[1], 2))


def test_build_prompt_shape_contract_sweep():
    for n_agg, levels in ((1, 1), (3, 2), (2, 5), (144, 3)):
        params = _params(n_agg=n_agg, dim=8, level_dims=[6] * levels, seed=32)
        s = _prompt(params, _toy_inputs(8, [6] * levels))
        assert s.shape == (n_agg * levels, 8)


def test_per_level_locality_bit_exact():
    params = _params(n_agg=3, dim=8, level_dims=[4, 5, 6], seed=33)
    inputs = _toy_inputs(8, [4, 5, 6], seed=34)
    base = _prompt(params, inputs)
    f_user, f_semantic, f_vis = inputs
    bumped = (f_user, f_semantic, [f_vis[0], f_vis[1], f_vis[2] + 1.5])
    other = _prompt(params, bumped)
    assert np.array_equal(base[0:3], other[0:3])
    assert np.array_equal(base[3:6], other[3:6])
    assert not np.allclose(base[6:9], other[6:9])


def test_build_prompt_deterministic():
    params = _params(seed=35)
    inputs = _toy_inputs(8, [8, 8], seed=36)
    assert np.array_equal(_prompt(params, inputs), _prompt(params, inputs))


def test_prompter_gradients_match_finite_differences():
    params = _params(n_agg=3, dim=8, level_dims=[5, 6], seed=37)
    inputs = _toy_inputs(8, [5, 6], seed=38)
    f_user, f_semantic, f_vis = inputs
    consts = (ad.const(f_user), ad.const(f_semantic), [ad.const(f) for f in f_vis])

    def build():
        return ad.sum_all(pr.build_prompt_graph(params, consts[0], consts[1], consts[2], 2))

    report = ad.check_gradients(build, params.named_parameters(), n_probes=80, rng=Rng(39))
    assert report.ok(1e-4), report


def test_full_scale_shape_contract():
    params = pr.init_prompter(144, 3584, [1152, 1152, 1152], ShapeRng())
    n_agg, dim = params.f_agg.value.shape
    assert (n_agg * len(params.level_attn), dim) == (432, 3584)
    assert [b.wk.value.shape for b in params.level_attn] == [(1152, 3584)] * 3
