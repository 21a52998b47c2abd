import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import expert_layer as ex
from rsvlm import numerics as num
from rsvlm.errors import ShapeError
from rsvlm.numerics import Rng


def _counts():
    """Two image rows, one row each of levels 1 and 2, one query row."""
    return (2, 1, 1, 1)


def _row_levels(counts):
    """Per-row level of a counts layout, row by row: 0 on image and query rows."""
    levels = [0] * counts[0]
    for l, n in enumerate(counts[1:-1], start=1):
        levels += [l] * n
    return levels + [0] * counts[-1]


def _expert(u, v, x_masked):
    """One expert's bottleneck, x @ u @ v, through the graph ops the block uses."""
    return ad.matmul(ad.matmul(ad.const(x_masked), ad.const(u)), ad.const(v)).value


def _gates(w_g, hidden, counts):
    return ex.gate_weights_graph(ad.const(w_g), ad.const(hidden), *ex.route(counts)).value


def _block(params, hidden, counts):
    return ex.expert_block_graph(params, ad.const(hidden), counts).value


def _ffn_ref(ffn, x):
    pre = x @ ffn.w1.value + ffn.b1.value
    return (pre / (1.0 + np.exp(-pre))) @ ffn.w2.value + ffn.b2.value


def _gates_ref(w_g, hidden, counts):
    """Softmax rows from the numerics oracle; one-hot rows for semantic tokens."""
    gates = num.softmax_rows(hidden @ w_g)
    for t, level in enumerate(_row_levels(counts)):
        if level:
            gates[t] = np.eye(w_g.shape[1])[level - 1]
    return gates


def _layer(d_h=12, d_r=3, levels=2, d_i=16, seed=12):
    return ex.init_expert_layer(d_h, d_r, levels, d_i, Rng(seed))


def _randomize(params, rng, std=1.0):
    for e in params.experts:
        e.v.value = rng.normal(e.v.value.shape, std=std)
    params.gate_w.value = rng.normal(params.gate_w.value.shape, std=std)


def _tokens(d_h=12, seed=13):
    return Rng(seed).normal((7, d_h)), (2, 2, 2, 1)


def _expert_outputs(params, x, counts):
    return [_expert(e.u.value, e.v.value, ex.build_mask(counts, l)[:, None] * x)
            for l, e in enumerate(params.experts, start=1)]


def test_build_mask_examples():
    counts = _counts()
    assert ex.build_mask(counts, 1).tolist() == [1, 1, 1, 0, 1]
    assert ex.build_mask(counts, 2).tolist() == [1, 1, 0, 1, 1]


def test_build_mask_single_level_all_ones():
    assert ex.build_mask((1, 1, 1), 1).tolist() == [1, 1, 1]


def test_build_mask_validations():
    counts = _counts()
    with pytest.raises(ShapeError):
        ex.build_mask(counts, 0)
    with pytest.raises(ShapeError):
        ex.build_mask(counts, 3)


def test_mask_partition_property():
    rng = Rng(0)
    for _ in range(50):
        levels = 1 + int(rng.u64(1)[0] % np.uint64(4))
        counts = tuple(int(x % np.uint64(5)) for x in rng.u64(levels + 2))
        masks = [ex.build_mask(counts, l) for l in range(1, levels + 1)]
        total = np.sum(masks, axis=0)
        for t, level in enumerate(_row_levels(counts)):
            if level:
                assert total[t] == 1.0
            else:
                assert total[t] == levels


def test_segmented_tokens_validation():
    params = _layer(d_h=4, d_r=2)
    hidden = Rng(1).normal((5, 4))
    _block(params, hidden, _counts())
    with pytest.raises(ShapeError, match="semantic level 1, expected level 2"):
        _block(params, hidden, (2, 1, 2))
    with pytest.raises(ShapeError, match="negative count"):
        _block(params, hidden, (3, -1, 2, 1))
    with pytest.raises(ShapeError, match="sum to 4 != hidden rows 5"):
        _block(params, hidden, (2, 1, 1, 0))


def test_expert_forward_zero_u():
    x = Rng(2).normal((4, 6))
    out = _expert(np.zeros((6, 2)), Rng(3).normal((2, 6)), x)
    assert np.array_equal(out, np.zeros((4, 6)))


def test_expert_param_count_paper_scale():
    assert ex.expert_param_count(3584, 512) == 3_670_016
    assert ex.baseline_moe_param_count(3584, 18944) == 203_685_888


def test_expert_forward_matches_matmul_oracle():
    rng = Rng(4)
    x, u, v = rng.normal((5, 6)), rng.normal((6, 3)), rng.normal((3, 6))
    oracle = (x @ u) @ v
    assert np.max(np.abs(_expert(u, v, x) - oracle)) < 1e-12


def test_expert_forward_masked_rows_stay_zero():
    rng = Rng(5)
    x = rng.normal((5, 6))
    bits = ex.build_mask(_counts(), 1)
    out = _expert(rng.normal((6, 3)), rng.normal((3, 6)), bits[:, None] * x)
    assert np.array_equal(out[3], np.zeros(6))


def test_gate_weights_zero_matrix_uniform():
    counts = (2, 1, 1, 0, 1)
    hidden = Rng(6).normal((5, 6))
    gates = _gates(np.zeros((6, 3)), hidden, counts)
    for t, level in enumerate(_row_levels(counts)):
        if not level:
            assert np.allclose(gates[t], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_gate_weights_semantic_rows_one_hot():
    gates = _gates(Rng(7).normal((6, 3)), Rng(8).normal((5, 6)), (1, 1, 1, 1, 1))
    assert gates[2].tolist() == [0.0, 1.0, 0.0]
    assert gates[1].tolist() == [1.0, 0.0, 0.0]
    assert gates[3].tolist() == [0.0, 0.0, 1.0]


def test_gate_weights_rows_sum_to_one():
    rng = Rng(9)
    gates = _gates(rng.normal((6, 2)), rng.normal((5, 6)), _counts())
    assert np.max(np.abs(gates.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(gates >= 0.0)


def test_merge_experts_identities():
    rng = Rng(10)
    # one level: every gate is exactly one, so the block adds the lone expert
    params = _layer(levels=1, seed=10)
    _randomize(params, rng)
    x = rng.normal((4, 12))
    counts = (1, 1, 2)
    ffn = ex.ffn_graph(params.ffn, ad.const(x)).value
    assert np.array_equal(_block(params, x, counts), ffn + _expert_outputs(params, x, counts)[0])
    # semantic rows take their own level's output with coefficient one
    params = _layer(levels=2, seed=10)
    _randomize(params, rng)
    x, counts = _tokens(seed=10)
    hs = _expert_outputs(params, x, counts)
    ffn = ex.ffn_graph(params.ffn, ad.const(x)).value
    out = _block(params, x, counts)
    for t, level in enumerate(_row_levels(counts)):
        if level:
            assert np.array_equal(out[t], ffn[t] + hs[level - 1][t])


def test_merge_experts_matches_per_row_oracle():
    rng = Rng(11)
    params = _layer(levels=3, seed=11)
    _randomize(params, rng)
    counts = (2, 1, 1, 1, 1)
    x = rng.normal((6, 12))
    hs = _expert_outputs(params, x, counts)
    gates = _gates_ref(params.gate_w.value, x, counts)
    oracle = _ffn_ref(params.ffn, x)
    for t in range(6):
        for l in range(3):
            oracle[t] += gates[t, l] * hs[l][t]
    assert np.max(np.abs(_block(params, x, counts) - oracle)) < 1e-12


def test_block_zero_experts_is_exact_ffn():
    params = _layer()
    for e in params.experts:
        e.u.value[:] = 0.0
        e.v.value[:] = 0.0
    x, counts = _tokens()
    out = _block(params, x, counts)
    pre = x @ params.ffn.w1.value + params.ffn.b1.value
    act = pre * (1.0 / (1.0 + np.exp(-pre)))
    ffn = act @ params.ffn.w2.value + params.ffn.b2.value
    assert np.array_equal(out, ffn)


def test_fresh_layer_is_exact_ffn_identity():
    # v initialized to zero: the expert path contributes exactly nothing
    params = _layer(seed=21)
    x, counts = _tokens(seed=22)
    out = _block(params, x, counts)
    graph = ex.ffn_graph(params.ffn, ad.const(x)).value
    assert np.array_equal(out, graph)


def test_block_matches_straight_line_oracle():
    params = _layer(seed=14)
    _randomize(params, Rng(15))
    x, counts = _tokens(seed=16)

    masks = [ex.build_mask(counts, l) for l in (1, 2)]
    hs = [
        (masks[l][:, None] * x) @ params.experts[l].u.value @ params.experts[l].v.value
        for l in range(2)
    ]
    gates = _gates_ref(params.gate_w.value, x, counts)
    merged = sum(gates[:, l : l + 1] * hs[l] for l in range(2))
    oracle = _ffn_ref(params.ffn, x) + merged
    assert np.max(np.abs(_block(params, x, counts) - oracle)) < 1e-12


def test_masked_independence_bit_exact():
    params = _layer(seed=17)
    rng = Rng(18)
    for e in params.experts:
        e.v.value = rng.normal(e.v.value.shape)
    x, counts = _tokens(seed=19)
    perturbed = x.copy()
    for t, level in enumerate(_row_levels(counts)):
        if level == 2:
            perturbed[t] += rng.normal((x.shape[1],))
    bits1 = ex.build_mask(counts, 1)[:, None]
    h1_base = _expert(params.experts[0].u.value, params.experts[0].v.value, bits1 * x)
    h1_pert = _expert(params.experts[0].u.value, params.experts[0].v.value, bits1 * perturbed)
    assert np.array_equal(h1_base, h1_pert)


def test_expert_layer_rank_validation():
    with pytest.raises(ShapeError):
        ex.init_expert_layer(8, 8, 2, 16, Rng(0))


def test_block_rejects_out_of_range_level():
    params = _layer(levels=2)
    with pytest.raises(ShapeError, match="level 3"):
        _block(params, Rng(20).normal((5, 12)), (1, 1, 1, 1, 1))


def test_expert_block_gradients_match_finite_differences():
    params = _layer(d_h=10, d_r=3, levels=2, d_i=12, seed=23)
    rng = Rng(24)
    _randomize(params, rng, std=0.3)
    x, counts = _tokens(d_h=10, seed=25)
    weights = rng.normal(x.shape)

    def build():
        out = ex.expert_block_graph(params, ad.const(x), counts)
        return ad.sum_all(ad.mul(out, ad.const(weights)))

    report = ad.check_gradients(build, params.named_parameters(), n_probes=80, rng=Rng(26))
    assert report.ok(1e-4), report
